import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import perimap as pm
from perimap import cli, hybrid_ode
from perimap.dopri import integrate
from perimap.exceptions import IntegrationError, NoReturnError


def logistic_radius(r0, t):
    """Closed-form solution of r' = r(1 - r)."""
    return r0 * np.exp(t) / (1.0 + r0 * (np.exp(t) - 1.0))


def fixed_time(sys_, taus, vs, eps, duration, **tol):
    """End states of the forced flow after ``duration`` from each lane's tau."""
    path, _ = integrate(hybrid_ode.forced_rhs(sys_, taus, eps), vs, duration,
                        **tol)
    return path.y[-1]


@pytest.fixture()
def frozen(e3):
    return pm.HybridSystem(
        dim=2, X=lambda x: np.zeros_like(np.asarray(x, float)),
        g=lambda t, x, e: np.zeros_like(np.asarray(x, float)),
        Delta=e3.Delta, H=e3.H, D=e3.D, D_inverse=e3.D_inverse,
        T_g=0.8, r1=0.5)


class TestFlow:
    def test_half_turn_on_cycle(self, e3):
        end = fixed_time(e3, [0.0], [[1.0, 0.0]], 0.0, 0.5)
        assert np.linalg.norm(end[0] - [-1.0, 0.0]) <= 1e-9

    def test_event_return_after_full_turn(self, e3):
        res = pm.flow_batch(e3, [0.3], [[1.0, 0.0]], 0.0,
                            event=pm.EventConfig())
        assert res.event_hit[0]
        assert abs(res.end_times[0] - 1.3) <= 1e-9
        assert np.linalg.norm(res.end_states[0] - [1.0, 0.0]) <= 1e-9

    def test_off_cycle_radius_logistic(self, e3):
        end = fixed_time(e3, [0.0], [[1.3, 0.0]], 0.0, 1.0, rtol=1e-12,
                         atol=1e-14)
        assert abs(np.linalg.norm(end[0]) - logistic_radius(1.3, 1.0)) <= 1e-10

    def test_frozen_flow(self, frozen):
        end = fixed_time(frozen, [0.0], [[0.3, 0.7]], 0.123, 5.0)
        assert np.array_equal(end[0], [0.3, 0.7])

    def test_no_return_raises(self, frozen):
        with pytest.raises(NoReturnError):
            pm.flow_batch(frozen, [0.0], [[0.3, 0.7]], 0.0,
                          event=pm.EventConfig(), max_time=2.0)

    def test_event_localization_tight(self, e3):
        res = pm.flow_batch(e3, [0.0], [[1.0, 0.0]], 0.0,
                            event=pm.EventConfig(), rtol=1e-12, atol=1e-14)
        x = res.end_states[0]
        assert abs(float(e3.H(x[None, :])[0])) <= 1e-12
        # re-integration consistency against the linearized prediction
        rate = float(e3.X(x[None, :])[0, 1])
        t_end = res.end_times[0]
        end2 = fixed_time(e3, [t_end], x[None, :], 0.0,
                          (t_end + 1e-10) - t_end)
        assert abs(end2[0, 1] - (x[1] + 1e-10 * rate)) <= 1e-11

    def test_localized_point_meets_h_tol(self):
        sys_ = pm.polar_hybrid()
        cfg = pm.EventConfig(direction=1)
        res = pm.flow_batch(sys_, [0.0], [[1.05, 0.0]], 0.0, event=cfg,
                            rtol=1e-12, atol=1e-14)
        h_end = abs(float(sys_.H(res.end_states[:1])[0]))
        assert res.event_hit[0]
        assert h_end <= hybrid_ode.H_TOL
        assert res.stats["event_h_max"] == h_end

    def test_event_h_max_is_worst_lane(self, e3):
        vs = np.array([[1.05, 0.0], [0.9, 0.0], [1.2, 0.0]])
        res = pm.flow_batch(e3, [0.0, 0.1, 0.2], vs, 0.0,
                            event=pm.EventConfig(), rtol=1e-12, atol=1e-14)
        assert res.stats["event_h_max"] == np.max(np.abs(e3.H(res.end_states)))

    def test_localization_miss_raises(self, e3):
        # |dH/dt| ~ 6e6: no float time puts |H| below 1e-12
        steep = pm.HybridSystem(
            dim=2, X=e3.X, g=e3.g, Delta=e3.Delta,
            H=lambda x: 1e6 * np.asarray(x, float)[..., 1],
            D=e3.D, D_inverse=e3.D_inverse, T_g=0.8, r1=0.5)
        with pytest.raises(IntegrationError):
            pm.flow_batch(steep, [0.0], [[1.05, 0.0]], 0.0,
                          event=pm.EventConfig(), rtol=1e-12, atol=1e-14)

    def test_localization_falls_back_to_lower_end(self):
        # state = time on the step [a, 1]; H is -h_tol/2 at a and 1.5 h_tol
        # at the next float b, and (a + b)/2 rounds to b, so every midpoint
        # misses
        t = np.array([0.5 + 2.0**-53, 1.0])
        q = np.zeros((1, 1, 7))
        q[0, 0, 0] = 1.0          # y = a + h * theta = time
        a, h_tol = t[0], 1e-12
        assert hybrid_ode.H_TOL == h_tol
        slope = 2.0 * h_tol / np.spacing(a)

        def h_fun(y):
            return slope * (y[:, 0] - a) - 0.5 * h_tol

        t_star, y_star, h_max = hybrid_ode._localize_crossings(
            h_fun, t[None, :1], q, t[:1], np.diff(t), t[:1], t[1:])
        assert t_star[0] == a and y_star[0, 0] == a
        assert h_max == 0.5 * h_tol

    def test_semigroup_at_eps0(self, e3):
        v0 = np.array([1.1, 0.2])
        mid = fixed_time(e3, [0.0], v0[None, :], 0.0, 0.37)[0]
        two = fixed_time(e3, [0.37], mid[None, :], 0.0, 0.9 - 0.37)[0]
        one = fixed_time(e3, [0.0], v0[None, :], 0.0, 0.9)[0]
        assert np.linalg.norm(two - one) <= 1e-9

    def test_forced_flow_periodic_in_tau(self, e3):
        v0 = np.array([1.1, 0.2])
        eps = 0.05
        a = fixed_time(e3, [0.3], v0[None, :], eps, 0.85 - 0.3)[0]
        b = fixed_time(e3, [0.3 + 0.8], v0[None, :], eps,
                       (0.85 + 0.8) - (0.3 + 0.8))[0]
        assert np.linalg.norm(a - b) <= 1e-9

    def test_grazing_flagged(self, e3):
        graze = pm.HybridSystem(
            dim=2, X=e3.X, g=e3.g, Delta=e3.Delta,
            H=lambda x: np.asarray(x, float)[..., 1] - 1.0,
            D=e3.D, D_inverse=e3.D_inverse, T_g=0.8, r1=0.5)
        res = pm.flow_batch(graze, [0.0], [[1.0, 0.0]], 0.0,
                            event=pm.EventConfig(), max_time=2.0,
                            on_no_return="flag")
        assert not res.event_hit[0]
        assert res.grazing[0]

    def test_batch_shifted_times(self, e3):
        taus = np.array([0.0, 0.1, 0.55])
        vs = np.tile([1.0, 0.0], (3, 1))
        res = pm.flow_batch(e3, taus, vs, 0.0, event=pm.EventConfig())
        assert_allclose(res.end_times, taus + 1.0, atol=1e-9)

    def test_event_must_be_event_config(self, e3):
        # False is not None, so it once selected event mode with the defaults
        with pytest.raises(TypeError):
            pm.flow_batch(e3, [0.0], [[1.0, 0.0]], 0.0, event=False)

    @pytest.mark.parametrize("n_taus", [2, 4])
    def test_tau_count_checked_before_integrating(self, e3, monkeypatch,
                                                  n_taus):
        # 2 taus for 3 lanes once integrated in full and then failed with
        # IndexError; 4 taus did the same
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before checking taus")

        monkeypatch.setattr(hybrid_ode, "integrate", no_integration)
        with pytest.raises(ValueError, match="taus"):
            pm.flow_batch(e3, np.zeros(n_taus), np.tile([1.0, 0.0], (3, 1)),
                          0.0, event=pm.EventConfig())


class TestTwoCrossingsInOneStep:
    """Oracle: on the unit cycle x2 = sin(2 pi t), so H = x2 - (1 - 1e-6)
    is positive only on (t1, 1/2 - t1), about 4.5e-4 long, with
    t1 = (pi/2 - acos(1 - 1e-6)) / (2 pi)."""

    LEVEL = 1.0 - 1e-6
    T1 = (np.pi / 2 - np.arccos(1.0 - 1e-6)) / (2 * np.pi)

    def _flow(self, e3, level, direction, **kw):
        sys_ = dataclasses.replace(
            e3, H=lambda x: np.asarray(x, float)[..., 1] - level)
        return pm.flow_batch(sys_, [0.0], [[1.0, 0.0]], 0.0,
                             event=pm.EventConfig(direction=direction),
                             rtol=1e-12, atol=1e-14, **kw)

    def test_first_crossing_found(self, e3):
        res = self._flow(e3, self.LEVEL, 1)
        assert res.event_hit[0]
        assert abs(res.end_times[0] - self.T1) <= 1e-9
        assert abs(res.end_states[0, 1] - self.LEVEL) <= 1e-12
        # both zeros inside one accepted step: no sign change at its ends
        i = np.searchsorted(res.path.t, self.T1)
        assert res.path.t[i - 1] < self.T1 < 0.5 - self.T1 < res.path.t[i]

    def test_second_crossing_when_first_has_wrong_direction(self, e3):
        res = self._flow(e3, self.LEVEL, -1)
        assert res.event_hit[0]
        assert abs(res.end_times[0] - (0.5 - self.T1)) <= 1e-9

    def test_shallow_pass_is_a_touch(self, e3):
        # H passes S by 1e-9 < PASS_LEVEL = 1e-8: a touch
        res = self._flow(e3, 1.0 - 1e-9, 1, max_time=0.9, on_no_return="flag")
        assert not res.event_hit[0]
        assert res.grazing[0]

    def test_extremum_of_quadratic(self):
        # y(theta) = theta - theta**2 peaks at 1/4 for theta = 1/2
        q = np.zeros((1, 1, 7))
        q[0, 0, :2] = [1.0, -1.0]
        theta, h_e = hybrid_ode._extremum(
            lambda y: y[:, 0] - 0.3, np.zeros((1, 1)), q, 1.0,
            np.array([0.375]), np.array([0.625]), np.array([-1.0]))
        assert abs(theta[0] - 0.5) <= 1e-5
        assert abs(h_e[0] + 0.05) <= 1e-10


class TestThreeCrossingsInOneStep:
    """Oracle: on the unit cycle theta = THETA0 + 2 pi t, so H = sin(40 theta)
    first falls through 0 at theta = pi/40 and first rises through 0 at
    2 pi/40.  Both lie in the second accepted step, which holds three zeros
    of H."""

    THETA0 = 0.013

    @pytest.mark.xfail(strict=True, reason="flow_batch takes a step whose "
                       "ends differ in sign for one crossing, and returns a "
                       "later one when the step holds three")
    @pytest.mark.parametrize("direction, m", [(1, 2), (-1, 1)])
    def test_first_admissible_crossing(self, direction, m):
        def H(x):
            x = np.asarray(x, float)
            return np.sin(40 * np.arctan2(x[..., 1], x[..., 0]))

        sys_ = dataclasses.replace(pm.polar_hybrid(), H=H)
        res = pm.flow_batch(sys_, [0.0], [[np.cos(self.THETA0),
                                           np.sin(self.THETA0)]], 0.0,
                            event=pm.EventConfig(direction=direction))
        t_star = (m * np.pi / 40 - self.THETA0) / (2 * np.pi)
        assert res.event_hit[0]
        assert abs(res.end_times[0] - t_star) <= 1e-9


def _eps_forced(e3):
    """`e3` with a forcing whose size depends on eps, given per lane or not."""
    def g(t, x, eps):
        c = np.cos(2.0 * np.pi * np.asarray(t) / e3.T_g) * (
            1.0 + 10.0 * np.asarray(eps))
        return np.zeros_like(x) + np.asarray(c)[..., None] * np.array([1.0, 0.5])

    return dataclasses.replace(e3, g=g)


def _ends(sys_, taus, vs, eps, mode, **tol):
    """(end states, end times, steps) of a flow to S, or over a fixed 0.7
    through `dopri.integrate` in ``mode`` "duration"."""
    if mode == "duration":
        path, stats = integrate(hybrid_ode.forced_rhs(sys_, taus, eps), vs,
                                0.7, **tol)
        return path.y[-1], np.asarray(taus) + 0.7, stats["n_steps"]
    res = pm.flow_batch(sys_, taus, vs, eps, event=pm.EventConfig(), **tol)
    return res.end_states, res.end_times, res.stats["n_steps"]


class TestPerLaneEps:
    TAUS = np.array([0.0, 0.3, 0.55, 0.1])
    VS = np.array([[1.05, 0.0], [0.9, 0.1], [1.2, -0.2], [1.0, 0.0]])
    EPS = np.array([0.0, 0.01, -0.02, 0.03])

    @pytest.mark.parametrize("eps_in_g", [False, True])
    @pytest.mark.parametrize("mode", ["duration", "event"])
    def test_matches_lane_by_lane(self, e3, eps_in_g, mode):
        sys_ = _eps_forced(e3) if eps_in_g else e3
        rtol = 1e-10
        states, times, _ = _ends(sys_, self.TAUS, self.VS, self.EPS, mode,
                                 rtol=rtol)
        for i, e in enumerate(self.EPS):
            one_states, one_times, _ = _ends(
                sys_, self.TAUS[i:i + 1], self.VS[i:i + 1], float(e), mode,
                rtol=rtol)
            assert_allclose(states[i], one_states[0], rtol=0, atol=10 * rtol)
            assert abs(times[i] - one_times[0]) <= 10 * rtol
        # the lanes really are forced differently
        assert np.ptp(states[:, 0]) > 1e-3

    @pytest.mark.parametrize("e", [0.0, 0.02])
    @pytest.mark.parametrize("mode", ["duration", "event"])
    def test_equal_lanes_bitwise_scalar(self, e3, e, mode):
        scalar = _ends(e3, self.TAUS, self.VS, e, mode)
        lanes = _ends(e3, self.TAUS, self.VS, np.full(4, e), mode)
        assert np.array_equal(lanes[0], scalar[0])
        assert np.array_equal(lanes[1], scalar[1])
        assert lanes[2] == scalar[2]

    def test_wrong_eps_shape_rejected(self, e3):
        with pytest.raises(ValueError, match="eps"):
            hybrid_ode.forced_rhs(e3, self.TAUS, np.zeros(3))
        with pytest.raises(ValueError, match="eps"):
            pm.flow_batch(e3, self.TAUS, self.VS, np.zeros(3),
                          event=pm.EventConfig())


class TestPolarEvaluators:
    amp = np.array([0.3, -0.7])

    @staticmethod
    def field(x):
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        rot = np.stack([-x[..., 1], x[..., 0]], axis=-1)
        return (1.0 - r) * x + 2.0 * np.pi * rot

    def forcing(self, t, shape):
        wave = np.cos(2.0 * np.pi * np.asarray(t, float) / 0.8)
        return np.broadcast_to(wave[..., None] * self.amp, shape)

    @pytest.mark.parametrize("shape", [(2,), (5, 2), (3, 5, 2)])
    def test_field_closed_form(self, e3, shape):
        x = np.random.default_rng(7).uniform(-2.0, 2.0, shape)
        out = e3.X(x)
        assert out.shape == shape
        assert_allclose(out, self.field(x), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("shape", [(2,), (5, 2), (3, 5, 2)])
    def test_forcing_scalar_t(self, shape):
        sys_ = pm.polar_hybrid(amp=tuple(self.amp))
        x = np.random.default_rng(8).uniform(-2.0, 2.0, shape)
        out = sys_.g(0.37, x, 0.01)
        assert out.shape == (2,)
        assert_allclose(out, self.forcing(0.37, (2,)), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("shape", [(5, 2), (3, 5, 2)])
    def test_forcing_batched_t(self, shape):
        sys_ = pm.polar_hybrid(amp=tuple(self.amp))
        rng = np.random.default_rng(9)
        x = rng.uniform(-2.0, 2.0, shape)
        t = rng.uniform(-1.0, 2.0, 5)
        out = sys_.g(t, x, 0.01)
        assert out.shape == shape
        assert_allclose(out, self.forcing(t, shape), rtol=0, atol=1e-15)


class TestPredicates:
    def test_transversality_is_2pi(self, e3):
        assert abs(pm.check_transversality(e3) - 2 * np.pi) <= 1e-6

    def test_tangent_field_flagged(self, e3):
        tangent = pm.HybridSystem(
            dim=2,
            X=lambda x: np.stack([np.ones_like(np.asarray(x, float)[..., 0]),
                                  np.zeros_like(np.asarray(x, float)[..., 0])],
                                 axis=-1),
            g=e3.g, Delta=e3.Delta, H=e3.H, D=e3.D, D_inverse=e3.D_inverse,
            T_g=0.8, r1=0.5)
        assert abs(pm.check_transversality(tangent)) <= 1e-10

    def test_transversality_scaling(self, e3):
        scaled = pm.HybridSystem(
            dim=2, X=e3.X, g=e3.g, Delta=e3.Delta,
            H=lambda x: 7.5 * np.asarray(x, float)[..., 1],
            D=e3.D, D_inverse=e3.D_inverse, T_g=0.8, r1=0.5)
        a = pm.check_transversality(e3)
        b = pm.check_transversality(scaled)
        assert np.sign(a) == np.sign(b)
        assert abs(b - 7.5 * a) <= 1e-4

    def test_forcing_period_builtin(self, e3):
        assert pm.check_forcing_period(e3, 32, 0) <= 1e-14

    def test_forcing_period_violation(self, e3):
        drift = pm.HybridSystem(
            dim=2, X=e3.X,
            g=lambda t, x, e: np.stack(
                [np.cos(2 * np.pi * np.asarray(t, float) / 0.8) + 0.1 * np.asarray(t, float),
                 np.zeros_like(np.asarray(t, float))], axis=-1)
            + np.zeros_like(np.asarray(x, float)),
            Delta=e3.Delta, H=e3.H, D=e3.D, D_inverse=e3.D_inverse,
            T_g=0.8, r1=0.5)
        assert pm.check_forcing_period(drift, 32, 0) > 1e-3

    def test_chart_lies_in_S(self, e3):
        us = np.linspace(-0.5, 0.5, 11)[:, None]
        assert np.max(np.abs(e3.H(e3.D(us)))) == 0.0
        assert_allclose(e3.D_inverse(e3.D(us)), us, atol=1e-15)


class TestSimulateHybrid:
    def test_jump_applied_and_contracts(self, e3):
        segments, jumps = pm.simulate_hybrid(e3, 0.0, [1.4, 0.0], 0.0, 2.5)
        assert len(jumps) == 2
        # after each return the radial deviation shrinks by roughly kappa/e
        r_first = abs(np.linalg.norm(jumps[0][1]) - 1.0)
        r_second = abs(np.linalg.norm(jumps[1][1]) - 1.0)
        assert r_second < r_first

    def test_segments_continuous_in_time(self, e3):
        segments, _ = pm.simulate_hybrid(e3, 0.2, [1.2, 0.0], 0.01, 2.0)
        t_prev = 0.2
        for ts, states in segments:
            assert ts[0] >= t_prev - 1e-9
            t_prev = ts[-1]
        assert abs(t_prev - 2.2) <= 1e-9


    def test_segment_budget_raises(self, e3, monkeypatch):
        monkeypatch.setattr(hybrid_ode, "MAX_SEGMENTS", 3)
        with pytest.raises(IntegrationError, match="3 segments"):
            pm.simulate_hybrid(e3, 0.0, [1.2, 0.0], 0.0, 5 * e3.T_g)


class TestJson:
    def test_builtin_roundtrip(self):
        sys_ = cli.system_from_json({"name": "polar-hybrid",
                                     "params": {"kappa": 0.25, "T_g": 1.0}})
        assert sys_.T_g == 1.0

    def test_unknown_param(self):
        with pytest.raises(pm.ConfigError):
            cli.system_from_json({"name": "polar-hybrid", "params": {"x": 1}})
