import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import perimap as pm
from perimap import cli, hybrid_ode
from perimap.dopri import integrate
from perimap.exceptions import IntegrationError


def logistic_radius(r0, t):
    """Closed-form solution of r' = r(1 - r)."""
    return r0 * np.exp(t) / (1.0 + r0 * (np.exp(t) - 1.0))


def fixed_time(sys_, taus, vs, eps, duration, **tol):
    """End states of the forced flow after ``duration`` from each lane's tau."""
    path, _ = integrate(hybrid_ode.forced_rhs(sys_, taus, eps), vs, duration,
                        **tol)
    return path.y[-1]


def assert_skip_changes_nothing(monkeypatch, flow):
    """``flow()`` ends bitwise alike with the far-step skip and with every
    step scanned (`FAR_LEVEL` = inf); returns both results."""
    fast = flow()
    with monkeypatch.context() as m:
        m.setattr(hybrid_ode, "FAR_LEVEL", np.inf)
        full = flow()
    assert fast.stats["n_dense"] <= full.stats["n_dense"]
    for name in ("end_times", "end_states", "event_hit"):
        assert np.array_equal(getattr(fast, name), getattr(full, name)), name
    assert fast.stats["event_h_max"] == full.stats["event_h_max"]
    return fast, full


def _graze(e3):
    """H = x2 - 1 touches S at the top of the unit cycle."""
    return dataclasses.replace(
        e3, H=lambda x: np.asarray(x, float)[..., 1] - 1.0)


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

    def test_no_return_is_reported(self, e3):
        # a horizon shorter than the unit return lag: the lane ends at
        # tau + max_time, unhit, and the flow does not raise
        res = pm.flow_batch(e3, [0.3], [[1.0, 0.0]], 0.0,
                            event=pm.EventConfig(), max_time=0.5)
        assert not res.event_hit[0]
        assert res.end_times[0] == 0.3 + 0.5

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
        # at the next float b, and (a + b)/2 rounds to b, so no float time
        # but a meets H_TOL
        t = np.array([0.5 + 2.0**-53, 1.0])
        q = np.zeros((1, 1, 7))
        q[0, 0, 0] = 1.0          # y = a + h * theta = time
        a, h_tol = t[0], 1e-12
        assert hybrid_ode.H_TOL == h_tol
        slope = 2.0 * h_tol / np.spacing(a)

        def h_fun(y):
            return slope * (y[:, 0] - a) - 0.5 * h_tol

        t_star, y_star, h_max = hybrid_ode._localize_crossings(
            h_fun, t[None, :1], q, t[:1], np.diff(t), t[:1], t[1:],
            h_fun(t[:1, None]), h_fun(t[1:, None]))
        assert t_star[0] == a and y_star[0, 0] == a
        assert h_max == 0.5 * h_tol

    @pytest.mark.parametrize("end", ["lower", "upper"])
    def test_root_within_half_t_tol_of_an_end(self, end):
        # state = time on the step [0.3, 0.4]; H = 100 (t - r) with r a
        # quarter T_TOL inside one end, so |H| = 2.5e-11 > H_TOL there
        t = np.array([0.3, 0.4])
        q = np.zeros((1, 1, 7))
        q[0, 0, 0] = 1.0
        r = t[0] + 0.25 * hybrid_ode.T_TOL if end == "lower" else (
            t[1] - 0.25 * hybrid_ode.T_TOL)
        calls = []

        def h_fun(y):
            calls.append(1)
            return 100.0 * (y[:, 0] - r)

        f_lo, f_hi = h_fun(t[:1, None]), h_fun(t[1:, None])
        calls.clear()
        t_star, y_star, h_max = hybrid_ode._localize_crossings(
            h_fun, t[None, :1], q, t[:1], np.diff(t), t[:1], t[1:], f_lo,
            f_hi)
        assert h_max <= hybrid_ode.H_TOL
        assert abs(t_star[0] - r) <= hybrid_ode.T_TOL
        assert y_star[0, 0] == t_star[0]
        assert len(calls) <= 10

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

    def test_touch_is_not_a_crossing(self, e3, monkeypatch):
        res, _ = assert_skip_changes_nothing(monkeypatch, lambda: pm.flow_batch(
            _graze(e3), [0.0], [[1.0, 0.0]], 0.0, event=pm.EventConfig(),
            max_time=2.0))
        assert not res.event_hit[0]

    def test_batch_shifted_times(self, e3):
        taus = np.array([0.0, 0.1, 0.55])
        vs = np.tile([1.0, 0.0], (3, 1))
        res = pm.flow_batch(e3, taus, vs, 0.0, event=pm.EventConfig())
        assert_allclose(res.end_times, taus + 1.0, atol=1e-9)

    def test_event_must_be_event_config(self, e3):
        # False is not None, so it once selected event mode with the defaults
        with pytest.raises(TypeError):
            pm.flow_batch(e3, [0.0], [[1.0, 0.0]], 0.0, event=False)

    @pytest.mark.parametrize("direction", [0, 2, 0.5])
    def test_event_direction_must_be_a_sign(self, direction):
        # 0 once meant either direction, and 2 bracketed the later
        # crossing of a pair
        with pytest.raises(ValueError, match="direction"):
            pm.EventConfig(direction=direction)

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
        # H passes S by 1e-9 < PASS_LEVEL = 1e-8: a touch, not a crossing
        res = self._flow(e3, 1.0 - 1e-9, 1, max_time=0.9)
        assert not res.event_hit[0]

    @pytest.mark.parametrize("level, direction, kw", [
        (LEVEL, 1, {}), (LEVEL, -1, {}), (1.0 - 1e-9, 1, {"max_time": 0.9})],
        ids=["first", "second", "touch"])
    def test_skip_changes_nothing(self, e3, monkeypatch, level, direction,
                                  kw):
        res, _ = assert_skip_changes_nothing(
            monkeypatch, lambda: self._flow(e3, level, direction, **kw))
        assert res.stats["n_dense"] < res.stats["n_steps"]

    def test_extremum_of_quadratic(self):
        # y(theta) = theta - theta**2 peaks at 1/4 for theta = 1/2; the
        # parabola through three points of a quadratic is the quadratic, so
        # one step from an asymmetric start lands on the peak
        q = np.zeros((1, 1, 7))
        q[0, 0, :2] = [1.0, -1.0]
        theta = np.array([[0.25, 0.375, 0.75]])
        sign = np.array([-1.0])

        def h_fun(y):
            return y[:, 0] - 0.3

        f = sign * (theta - theta**2 - 0.3)
        theta_e, h_e = hybrid_ode._extremum(h_fun, np.zeros((1, 1)), q, 1.0,
                                            sign, theta, f)
        assert abs(theta_e[0] - 0.5) <= 1e-9
        assert abs(h_e[0] + 0.05) <= 1e-10


class TestThreeCrossingsInOneStep:
    """Oracle: on the unit cycle the angle is THETA0 + 2 pi t, so
    H = sin(k atan2(x2, x1)) is zero at the angles m pi/k, falling for odd
    m and rising for even m.  For k = 40 both first admissible zeros lie in
    the second accepted step, which holds three zeros of H."""

    THETA0 = 0.013

    def _flow(self, k, direction):
        def H(x):
            x = np.asarray(x, float)
            return np.sin(k * np.arctan2(x[..., 1], x[..., 0]))

        sys_ = dataclasses.replace(pm.polar_hybrid(), H=H)
        return pm.flow_batch(sys_, [0.0], [[np.cos(self.THETA0),
                                            np.sin(self.THETA0)]], 0.0,
                             event=pm.EventConfig(direction=direction))

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("k", [20, 33, 40, 50, 60, 80])
    def test_skip_changes_nothing(self, k, direction, monkeypatch):
        assert_skip_changes_nothing(monkeypatch,
                                    lambda: self._flow(k, direction))

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("k", [20, 33, 40, 50, 60, 80])
    def test_first_admissible_crossing(self, k, direction):
        res = self._flow(k, direction)
        # the first zero after THETA0 with the sign of dH/dt asked for
        m = int(np.floor(k * self.THETA0 / np.pi)) + 1
        if (m % 2 == 0) != (direction > 0):
            m += 1
        t_star = (m * np.pi / k - self.THETA0) / (2 * np.pi)
        assert res.event_hit[0]
        assert abs(res.end_times[0] - t_star) <= 1e-9


class TestEventCost:
    """Batched H calls of the event layer, counted by a wrapper around H."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        """Wraps a system's H with a call counter; returns the wrapping
        function, the running count, and the H calls made inside each
        localization and each extremum refinement."""
        calls = [0]
        inside = {"_localize_crossings": [], "_extremum": []}
        for name, seen in inside.items():
            def counting(*args, _orig=getattr(hybrid_ode, name), _seen=seen):
                before = calls[0]
                out = _orig(*args)
                _seen.append(calls[0] - before)
                return out

            monkeypatch.setattr(hybrid_ode, name, counting)

        def wrap(sys_):
            def H(x):
                calls[0] += 1
                return sys_.H(x)

            return dataclasses.replace(sys_, H=H)

        return wrap, calls, inside

    def _flow(self, counted, sys_, taus, vs, eps, **kw):
        wrap, calls, inside = counted
        before = calls[0]
        for seen in inside.values():
            seen.clear()
        res = pm.flow_batch(wrap(sys_), taus, vs, eps,
                            event=pm.EventConfig(), **kw)
        assert res.stats["event_h_evals"] == calls[0] - before
        return inside["_localize_crossings"], inside["_extremum"]

    def test_polar_hybrid_returns(self, counted, e3):
        # a curve-solver batch and a Poincare-grade lane
        u = np.linspace(-0.3, 0.3, 64)
        taus = np.linspace(0.0, e3.T_g, 64, endpoint=False)
        for taus_, vs, eps, kw in (
                (taus, np.column_stack([1.0 + u, 0.0 * u]), 0.01, {}),
                ([0.3], [[1.05, 0.0]], 0.0, dict(rtol=1e-12, atol=1e-14))):
            localized, refined = self._flow(counted, e3, taus_, vs, eps, **kw)
            assert len(localized) == 1 and localized[0] <= 10
            assert max(refined, default=0) <= 6

    def test_extremum_near_tangency(self, counted, e3):
        # at the top of the cycle H = x2 - (1 - 1e-6) peaks at -1e-6 to 3e-6
        # between samples: each lane refines an extremum inside a step
        near_top = dataclasses.replace(
            e3, H=lambda x: np.asarray(x, float)[..., 1] - (1.0 - 1e-6))
        u = np.linspace(-2e-6, 2e-6, 16)
        _, refined = self._flow(counted, near_top, np.zeros(16),
                                np.column_stack([1.0 + u, 0.0 * u]), 0.0,
                                max_time=0.9)
        assert max(refined) >= 1
        assert max(refined) <= 6


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

    @pytest.mark.parametrize("eps_in_g", [False, True])
    def test_skip_changes_nothing(self, e3, monkeypatch, eps_in_g):
        sys_ = _eps_forced(e3) if eps_in_g else e3
        assert_skip_changes_nothing(monkeypatch, lambda: pm.flow_batch(
            sys_, self.TAUS, self.VS, self.EPS, event=pm.EventConfig()))

    def test_wrong_eps_shape_rejected(self, e3):
        with pytest.raises(ValueError, match="eps"):
            hybrid_ode.forced_rhs(e3, self.TAUS, np.zeros(3))
        with pytest.raises(ValueError, match="eps"):
            pm.flow_batch(e3, self.TAUS, self.VS, np.zeros(3),
                          event=pm.EventConfig())


class TestFarStepSkip:
    """Steps on which no watched lane can reach S are neither scanned nor
    given a dense output."""

    U = np.linspace(-0.3, 0.3, 64)

    @pytest.mark.parametrize("eps", [0.0, 1e-2, 5e-2])
    def test_polar_returns_unchanged(self, e3, monkeypatch, eps):
        taus = np.linspace(0.0, e3.T_g, 64, endpoint=False)
        vs = np.column_stack([1.0 + self.U, 0.0 * self.U])
        res, _ = assert_skip_changes_nothing(monkeypatch, lambda: pm.flow_batch(
            e3, taus, vs, eps, event=pm.EventConfig(direction=1),
            rtol=1e-12, atol=1e-14))
        assert res.event_hit.all()
        assert res.stats["n_dense"] < res.stats["n_steps"]

    def test_nfev_counts_every_rhs_call(self, e3):
        calls = [0]

        def X(x):
            calls[0] += 1
            return e3.X(x)

        res = pm.flow_batch(dataclasses.replace(e3, X=X), [0.3], [[1.05, 0.0]],
                            0.01, event=pm.EventConfig(direction=1),
                            rtol=1e-12, atol=1e-14)
        st = res.stats
        assert st["nfev"] == calls[0]
        # some steps skipped, the one holding the crossing scanned
        assert 1 <= st["n_dense"] < st["n_steps"]
        assert st["nfev"] < 2 + 15 * st["n_steps"]
        assert st["nfev"] == (2 + 12 * st["n_steps"] + 11 * st["n_rejected"]
                              + 3 * st["n_dense"])

    @staticmethod
    def _far(h_states, h_prev, h_new, watched):
        return hybrid_ode._far_from_s(np.asarray(h_states, float),
                                      np.asarray(h_prev, float),
                                      np.asarray(h_new, float),
                                      np.asarray(watched))

    def test_stage_states_across_s_are_not_far(self):
        # every value 0.5 from S, but the middle stage states lie across it:
        # two crossings inside the step
        h_states = np.full((11, 1), 0.5)
        h_states[4:7] = -0.5
        assert not self._far(h_states, [0.5], [0.5], [True])
        assert not self._far(-h_states, [-0.5], [0.5], [True])

    def test_values_near_s_are_not_far(self):
        # one sign throughout, but one stage state between REFINE_LEVEL and
        # FAR_LEVEL, so the scan could still refine an extremum there
        level = 1.2 * hybrid_ode.REFINE_LEVEL
        h_states = np.full((11, 2), -0.5)
        h_states[3, 1] = -level
        assert not self._far(h_states, [-0.5, -0.5], [-0.5, -0.5],
                             [True, True])
        assert not self._far(-np.abs(h_states), [-0.5, -level],
                             [-0.5, -0.5], [True, True])
        assert not self._far(-np.abs(h_states), [-0.5, -0.5],
                             [-0.5, -level], [True, True])

    def test_unwatched_lanes_are_ignored(self):
        h_states = np.full((11, 2), 0.5)
        h_states[3, 0] = 0.3
        h_states[3, 1] = 0.0
        assert self._far(h_states, [0.5, 0.5], [0.5, 0.5], [True, False])


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

    # points in all four quadrants, inside and outside the unit circle
    points = np.array([[-0.4, 0.3], [1.3, -0.9], [-0.2, -0.7], [-1.1, 1.6],
                       [0.6, 0.5], [-2.0, -0.1], [0.05, -1.2]])

    @pytest.mark.parametrize("x", [
        points[1],                 # outside the circle
        points[:1],                # inside
        points,
        np.resize(points, (11, 3, 2)) * np.linspace(0.5, 1.5, 3)[:, None],
    ], ids=["2", "1x2", "7x2", "11x3x2"])
    def test_field_bitwise_explicit_formula(self, x):
        x1, x2 = x[..., 0], x[..., 1]
        shrink = 1.0 - np.sqrt(x1 * x1 + x2 * x2)
        want = np.stack([shrink * x1 - 2.0 * np.pi * x2,
                         shrink * x2 + 2.0 * np.pi * x1], axis=-1)
        out = pm.polar_hybrid().X(x)
        assert out.shape == x.shape
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(5, 2)])
    def test_forcing_batched_t(self, shape):
        sys_ = pm.polar_hybrid(amp=tuple(self.amp))
        rng = np.random.default_rng(9)
        x = rng.uniform(-2.0, 2.0, shape)
        t = rng.uniform(-1.0, 2.0, 5)
        out = sys_.g(t, x, np.full(5, 0.01))
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

    def test_forcing_period_nan_is_no_pass(self, e3):
        # a forcing that is nan for t > 1.5 once read as a period defect of
        # 0.0: the running max dropped the nan
        broken = dataclasses.replace(e3, g=lambda t, x, e: np.zeros_like(x)
                                     + np.where(t > 1.5, np.nan, 0.0)[:, None])
        assert not pm.check_forcing_period(broken, 32, 0) <= 1e-14

    def test_chart_lies_in_S(self, e3):
        us = np.linspace(-0.5, 0.5, 11)[:, None]
        assert np.max(np.abs(e3.H(e3.D(us)))) == 0.0
        assert_allclose(e3.D_inverse(e3.D(us)), us, atol=1e-15)


class TestSimulateHybrid:
    def test_jump_applied_and_contracts(self, e3, handle):
        segments, jumps = pm.simulate_hybrid(e3, 0.0, [1.4, 0.0], 0.0, 2.5,
                                             event=handle.event)
        assert len(jumps) == 2
        # after each return the radial deviation shrinks by roughly kappa/e
        r_first = abs(np.linalg.norm(jumps[0][1]) - 1.0)
        r_second = abs(np.linalg.norm(jumps[1][1]) - 1.0)
        assert r_second < r_first

    def test_segments_continuous_in_time(self, e3, handle):
        segments, _ = pm.simulate_hybrid(e3, 0.2, [1.2, 0.0], 0.01, 2.0,
                                         event=handle.event)
        t_prev = 0.2
        for ts, states in segments:
            assert ts[0] >= t_prev - 1e-9
            t_prev = ts[-1]
        assert abs(t_prev - 2.2) <= 1e-9

    def test_segment_budget_raises(self, e3, handle, monkeypatch):
        monkeypatch.setattr(hybrid_ode, "MAX_SEGMENTS", 3)
        with pytest.raises(IntegrationError, match="3 segments"):
            pm.simulate_hybrid(e3, 0.0, [1.2, 0.0], 0.0, 5 * e3.T_g,
                               event=handle.event)

    def test_event_required(self, e3):
        # the default EventConfig() once jumped on crossings against the
        # direction of a cycle with dH/dt < 0 at S
        with pytest.raises(TypeError, match="event"):
            pm.simulate_hybrid(e3, 0.0, [1.2, 0.0], 0.0, 1.0)

    def test_jumps_in_the_handle_direction(self):
        # H = -x2: the cycle from (1, 0) crosses S with dH/dt < 0 at t = 1
        # and 2 (and with dH/dt > 0 at t = 0.5 and 1.5, the far side)
        sys_ = dataclasses.replace(
            pm.polar_hybrid(), H=lambda x: -np.asarray(x, float)[..., 1])
        handle = pm.prepare_handle(sys_)
        assert handle.event.direction == -1
        _, jumps = pm.simulate_hybrid(sys_, 0.0, [1.0, 0.0], 0.0, 2.5,
                                      event=handle.event)
        assert_allclose([t for t, _ in jumps], [1.0, 2.0], rtol=0,
                        atol=1e-9)


def _forcing_calls(sys_, handle, where):
    """Run one library path on ``sys_``; returns its lane count K."""
    taus = np.array([0.0, 0.3, 0.55])
    vs = np.array([[1.05, 0.0], [0.9, 0.1], [1.2, -0.2]])
    if where == "flow-scalar-eps":
        pm.flow_batch(sys_, taus, vs, 0.01, event=handle.event, max_time=1.0)
    elif where == "flow-lane-eps":
        pm.flow_batch(sys_, taus, vs, np.array([0.01, -0.02, 0.03]),
                      event=handle.event, max_time=1.0)
    elif where == "p_eps_batch":
        pm.p_eps_batch(dataclasses.replace(handle, sys=sys_), taus,
                       [[0.05], [-0.1], [0.2]], 0.01)
    elif where == "simulate_hybrid":
        pm.simulate_hybrid(sys_, 0.1, [1.2, 0.0], 0.01, 1.2,
                           event=handle.event)
        return 1
    elif where == "forced_rhs":
        integrate(hybrid_ode.forced_rhs(sys_, taus, 0.01), vs, 0.4)
    else:
        pm.check_forcing_period(sys_, 8, 0)
        return 64
    return 3


class TestForcingShapes:
    @pytest.mark.parametrize("where", [
        "flow-scalar-eps", "flow-lane-eps", "p_eps_batch", "simulate_hybrid",
        "forced_rhs", "check_forcing_period"])
    def test_forcing_called_per_lane(self, e3, handle, where):
        # g gets t and eps of shape (K,) and x of shape (K, d) on every
        # path; a scalar eps, and check_forcing_period's scalar t, once
        # reached g as floats
        seen = []

        def g(t, x, eps):
            seen.append((np.shape(t), np.shape(x), np.shape(eps)))
            return e3.g(t, x, eps)

        K = _forcing_calls(dataclasses.replace(e3, g=g), handle, where)
        assert seen
        assert set(seen) == {((K,), (K, 2), (K,))}


class TestJson:
    def test_builtin_roundtrip(self):
        sys_ = cli.system_from_json({"name": "polar-hybrid",
                                     "params": {"kappa": 0.25, "T_g": 1.0}})
        assert sys_.T_g == 1.0

    def test_unknown_param(self):
        with pytest.raises(pm.ConfigError):
            cli.system_from_json({"name": "polar-hybrid", "params": {"x": 1}})


class TestScales:
    @pytest.mark.parametrize("params, key", [
        ({"T_g": 0.0}, "T_g"),
        ({"T_g": float("inf")}, "T_g"),
        ({"r1": 0.0}, "r1"),
        ({"r1": float("nan")}, "r1"),
    ], ids=["T_g-zero", "T_g-inf", "r1-zero", "r1-nan"])
    def test_nonpositive_or_nonfinite_rejected(self, params, key):
        with pytest.raises(ValueError, match=f"{key} must be positive"):
            pm.polar_hybrid(**params)
