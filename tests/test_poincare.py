from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import perimap as pm
from perimap import hybrid_ode, map_core
from perimap.dopri import integrate


def logistic_P(u, kappa=0.5):
    """Closed-form reduced return map of the polar hybrid system."""
    w = 1.0 + kappa * u
    e = np.e
    return w * e / (1.0 + w * (e - 1.0)) - 1.0


class TestTimeToReturn:
    def test_unit_lag_on_cycle(self, handle):
        assert abs(pm.time_to_return(handle, 0.3, [1.0, 0.0], 0.0) - 1.3) <= 1e-9

    def test_lag_tau_independent_at_eps0(self, handle):
        # T0(tau, x) = tau + T0(0, x)
        lag0 = pm.time_to_return(handle, 0.0, [1.1, 0.0], 0.0)
        worst = 0.0
        for tau in (0.17, 0.5, 3.4):
            lag = pm.time_to_return(handle, tau, [1.1, 0.0], 0.0) - tau
            worst = max(worst, abs(lag - lag0))
        assert worst <= 1e-9

    def test_lag_radius_independent(self, handle):
        # theta decouples: the return lag is exactly 1 for any radius
        assert abs(pm.time_to_return(handle, 0.0, [1.2, 0.0], 0.0) - 1.0) <= 1e-9


class TestPEps:
    """One-row `p_eps_batch`: the forced Poincare map at a single point."""

    def test_cycle_is_fixed(self, handle):
        (tbar,), (ubar,) = pm.p_eps_batch(handle, [0.4], [[0.0]], 0.0)
        assert abs(tbar - 1.4) <= 1e-9
        assert np.max(np.abs(ubar)) <= 1e-10

    def test_logistic_closed_form(self, handle):
        (tbar,), (ubar,) = pm.p_eps_batch(handle, [0.0], [[0.2]], 0.0)
        assert abs(ubar[0] - logistic_P(0.2)) <= 1e-8
        assert abs(tbar - 1.0) <= 1e-9

    def test_forced_shift_identity(self, handle):
        # P_eps(tau + T_g, u) advances the time by T_g and repeats u
        for eps in (1e-3, 1e-2):
            (t1,), (u1,) = pm.p_eps_batch(handle, [0.3], [[0.1]], eps)
            (t2,), (u2,) = pm.p_eps_batch(handle, [0.3 + 0.8], [[0.1]], eps)
            assert abs((t2 - t1) - 0.8) <= 1e-8
            assert np.max(np.abs(u2 - u1)) <= 1e-8


class TestBatchComposition:
    """A row depends on its batch only through the shared step sequence."""

    TAU, U, EPS = 0.3, 0.1, 0.01

    def _mates(self, n, seed):
        rng = np.random.default_rng(seed)
        return (rng.uniform(0.0, 0.8, n), rng.uniform(-0.4, 0.4, (n, 1)),
                rng.uniform(-0.01, 0.015, n))

    @pytest.mark.parametrize("size, at", [(3, 1), (256, 137)])
    def test_row_agrees_alone_and_in_batch(self, handle, size, at):
        t_alone, u_alone = pm.p_eps_batch(handle, [self.TAU], [[self.U]],
                                          self.EPS)
        taus, us, epses = self._mates(size, seed=size)
        taus[at], us[at], epses[at] = self.TAU, self.U, self.EPS
        times, outs = pm.p_eps_batch(handle, taus, us, epses)
        tol = 10.0 * handle.rtol
        assert abs(times[at] - t_alone[0]) <= tol
        assert np.max(np.abs(outs[at] - u_alone[0])) <= tol


class TestPReduced:
    """u-component of one-row `p_eps_batch` at eps = 0: the reduced map."""

    def test_fixed_point_zero(self, handle):
        _, (ubar,) = pm.p_eps_batch(handle, [0.0], [[0.0]], 0.0)
        assert np.max(np.abs(ubar)) <= 1e-10

    @pytest.mark.parametrize("u", [0.2, -0.2])
    def test_closed_form(self, handle, u):
        _, (ubar,) = pm.p_eps_batch(handle, [0.0], [[u]], 0.0)
        got = ubar[0]
        want = logistic_P(u)
        assert abs(got - want) <= 1e-8
        assert abs(got) < abs(u)  # contraction toward the cycle

    def test_tau_independence(self, handle):
        _, (base,) = pm.p_eps_batch(handle, [0.0], [[0.15]], 0.0)
        for tau in (0.25, 0.61, 1.9):
            _, (other,) = pm.p_eps_batch(handle, [tau], [[0.15]], 0.0)
            assert np.max(np.abs(other - base)) <= 1e-9


class TestReturnTimeShift:
    def test_return_time_shifts_by_forcing_period(self, handle):
        worst = 0.0
        for eps in (1e-3, 1e-2):
            for tau in (0.0, 0.3, 0.77, 1.2):
                t0 = pm.time_to_return(handle, tau, [1.05, 0.0], eps)
                tp = pm.time_to_return(handle, tau + 0.8, [1.05, 0.0], eps)
                tm = pm.time_to_return(handle, tau - 0.8, [1.05, 0.0], eps)
                worst = max(worst, abs(tp - t0 - 0.8), abs(tm - t0 + 0.8))
        assert worst <= 1e-8


class TestWrappedSpec:
    def test_alpha_is_unit_lag_at_eps0(self, wrapped):
        xs = np.array([[0.0], [0.3], [0.77]])
        us = np.array([[0.0], [0.1], [-0.2]])
        a = wrapped.alpha(1.0, 0.0, xs, us)
        assert np.max(np.abs(a - 1.0)) <= 1e-9

    def test_passes_assumption_checks(self, wrapped):
        box = pm.SamplingBox(omega=(0.0, 0.0), eps=(-0.01, 0.01),
                             x=(0.0, 1.6), y_radius=0.01)
        rep = pm.check_assumptions(wrapped, box=box, n_samples=16, seed=3)
        assert abs(rep.q_estimate - 0.5 / np.e) <= 0.01
        assert rep.a2_defect <= 1e-8
        assert rep.periodicity_defect <= 1e-8
        assert rep.beta_y0_invertible

    def test_curve_graph_invariant_under_P_eps(self, handle, wrapped,
                                               hybrid_curve):
        # lift curve points through the Poincare map and compare to the curve
        taus = np.linspace(0.0, 0.8, 12, endpoint=False)
        us = hybrid_curve.eval(taus)
        tbar, ubar = pm.p_eps_batch(handle, taus, us, 0.01)
        gap = np.abs(ubar - hybrid_curve.eval(tbar))
        assert np.max(gap) <= 1e-9

    def test_certified_radius_full_chart(self, handle):
        r = pm.poincare.certify_returns(handle, eps_range=(-0.01, 0.01),
                                        n_samples=12, seed=4)
        assert r == handle.sys.r1
        with pytest.raises(FrozenInstanceError):
            handle.max_time = 1.0

    def test_one_flow_per_certified_level(self, handle, monkeypatch):
        counter = _LaneCounter(pm.poincare.p_eps_batch)
        monkeypatch.setattr(pm.poincare, "p_eps_batch", counter)
        r = pm.poincare.certify_returns(handle, eps_range=(-0.01, 0.01),
                                        n_samples=12, seed=4)
        assert r == handle.sys.r1
        assert [len(rows) for rows in counter.rows] == [12]

    def test_failed_level_falls_back(self, handle, monkeypatch):
        """A level fails when its one flow raises; the next level is tried."""
        limit = 0.8 * handle.sys.r1
        real = pm.poincare.p_eps_batch
        epses = []

        def p_eps_batch(handle_, taus, us, eps):
            epses.append(np.asarray(eps))
            if np.max(np.abs(us)) > limit:
                raise pm.NoReturnError("sample outside the returning disc")
            return real(handle_, taus, us, eps)

        monkeypatch.setattr(pm.poincare, "p_eps_batch", p_eps_batch)
        r = pm.poincare.certify_returns(handle, eps_range=(-0.01, 0.01),
                                        n_samples=12, seed=4)
        assert r == 0.75 * handle.sys.r1
        # the radius is returned, not recorded: the wrapped chart is r1's
        assert pm.extract_alpha_beta(handle).r1 == handle.sys.r1
        # one call per level, each carrying every sample's own eps
        assert [e.shape for e in epses] == [(12,), (12,)]
        assert np.ptp(epses[1]) > 0.01

    def test_ladder_down_to_its_last_rung(self, handle, monkeypatch):
        """`certify_returns` walks its chart-radius ladder `RADIUS_FRACTIONS`,
        one flow per rung, down to 0.1 r1."""
        limit = 0.15 * handle.sys.r1
        real = pm.poincare.p_eps_batch
        calls = []

        def p_eps_batch(handle_, taus, us, eps):
            calls.append(len(us))
            if np.max(np.abs(us)) > limit:
                raise pm.NoReturnError("sample outside the returning disc")
            return real(handle_, taus, us, eps)

        monkeypatch.setattr(pm.poincare, "p_eps_batch", p_eps_batch)
        r = pm.poincare.certify_returns(handle, n_samples=8, seed=4)
        assert r == 0.1 * handle.sys.r1
        assert calls == [8] * 5

    def test_dense_samples_on_request(self, e3):
        path, _ = integrate(hybrid_ode.forced_rhs(e3, [0.0], 0.0),
                            [[1.0, 0.0]], 0.5)
        states = path.eval_grid(np.linspace(0.0, 0.5, 64))[:, 0]
        assert states.shape == (64, 2)
        assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) <= 1e-8

    def test_csv_log(self, handle, tmp_path):
        rows = []
        for tau, u in [(0.0, 0.1), (0.3, -0.1)]:
            (tbar,), (ubar,) = pm.p_eps_batch(handle, [tau], [[u]], 0.001)
            rows.append((tau, u, 0.001, tbar, ubar[0], tbar - tau))
        out = tmp_path / "p_eps.csv"
        pm.write_csv(out, ["tau", "u1", "eps", "tau_bar", "u_bar1",
                           "return_lag"], rows)
        text = out.read_text().splitlines()
        assert text[0] == "tau,u1,eps,tau_bar,u_bar1,return_lag"
        assert len(text) == 3


class _LaneCounter:
    """Stands in for `p_eps_batch` and records the rows of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.rows = []

    def __call__(self, handle, taus, us, eps):
        self.rows.append(np.column_stack([taus, us]))
        return self.fn(handle, taus, us, eps)


class TestWrappedColumns:
    """A wrapped map takes omega and eps as (n, 1) columns, one per row, and
    flows them as per-lane eps."""

    def test_columns_match_scalar_rows(self, handle):
        spec = pm.extract_alpha_beta(handle)
        rng = np.random.default_rng(4)
        n = 5
        W, E = np.ones((n, 1)), rng.uniform(-0.01, 0.015, (n, 1))
        X, Y = rng.uniform(0.0, 0.8, (n, 1)), rng.uniform(-0.3, 0.3, (n, 1))
        a, b = map_core.eval_batch(spec, W, E, X, Y)
        tol = 10.0 * pm.poincare.CURVE_RTOL
        for i in range(n):
            a_i, b_i = map_core.eval_batch(spec, 1.0, float(E[i, 0]),
                                           X[i:i + 1], Y[i:i + 1])
            assert np.max(np.abs(a[i] - a_i[0])) <= tol
            assert np.max(np.abs(b[i] - b_i[0])) <= tol

    def test_memo_compares_the_eps_column(self, handle, monkeypatch):
        counter = _LaneCounter(pm.poincare.p_eps_batch)
        monkeypatch.setattr(pm.poincare, "p_eps_batch", counter)
        spec = pm.extract_alpha_beta(handle)
        xs, us = np.array([[0.1], [0.3]]), np.array([[0.05], [-0.1]])
        eps = np.array([[0.01], [0.02]])
        spec.alpha(1.0, eps, xs, us)
        spec.beta(1.0, eps.copy(), xs, us)  # an equal column: no flow
        spec.beta(1.0, np.array([[0.01], [0.03]]), xs, us)
        assert [len(r) for r in counter.rows] == [2, 2]


class TestWrappedMemo:
    def test_memo_holds_the_last_request(self, handle, monkeypatch):
        counter = _LaneCounter(pm.poincare.p_eps_batch)
        monkeypatch.setattr(pm.poincare, "p_eps_batch", counter)
        spec = pm.extract_alpha_beta(handle)
        xs = np.array([[0.1], [0.3]])
        us = np.array([[0.05], [-0.1]])
        a = spec.alpha(1.0, 0.01, xs, us)
        # the equal beta request, then a repeat of alpha: no further flow
        b = spec.beta(1.0, 0.01, xs.copy(), us.copy())
        again = spec.alpha(1.0, 0.01, xs, us)
        assert [len(r) for r in counter.rows] == [2]
        assert np.array_equal(again, a)
        times, outs = counter.fn(spec.alpha.__self__.handle, xs[:, 0], us,
                                 0.01)
        assert np.array_equal(b, outs)
        assert np.array_equal(a[:, 0], times - xs[:, 0])
        # answers are copies: altering them leaves the next hit intact
        again[:] = 7.0
        b[:] = 7.0
        assert np.array_equal(spec.alpha(1.0, 0.01, xs, us), a)
        assert np.array_equal(spec.beta(1.0, 0.01, xs, us), outs)
        assert len(counter.rows) == 1
        # a request sharing one row with the last flows all of its rows
        spec.alpha(1.0, 0.01, np.array([[0.3], [0.7]]),
                   np.array([[-0.1], [0.0]]))
        assert np.array_equal(counter.rows[-1], [[0.3, -0.1], [0.7, 0.0]])
        # so does the same points at another eps, and after the caller
        # altered its request arrays in place
        spec.beta(1.0, 0.02, np.array([[0.3], [0.7]]),
                  np.array([[-0.1], [0.0]]))
        spec.alpha(1.0, 0.01, xs, us)
        us[0] = 0.0
        spec.beta(1.0, 0.01, xs, us)
        assert [len(r) for r in counter.rows] == [2, 2, 2, 2, 2]
        assert np.array_equal(counter.rows[-1], [[0.1, 0.0], [0.3, -0.1]])


class TestCurveSolveFlows:
    def test_flow_count(self, handle, monkeypatch):
        """Flows of a small wrapped-Poincare solve (n=64, eps=1e-2).

        Each push is one flow of the 64 nodes, which beta reads from the
        memo.  The preconditioner's constants ride in the first push's
        flow, as the 5 lanes of the origin stencil after the nodes, and the
        invariance residual costs one more flow.
        """
        counter = _LaneCounter(pm.poincare.p_eps_batch)
        monkeypatch.setattr(pm.poincare, "p_eps_batch", counter)
        sweep = pm.invariant_graph._sweep
        sweeps = []           # 1-based index of the sweep in progress
        sweep_of_call = {}    # call index -> sweep index

        def counted_sweep(*args, **kwargs):
            sweeps.append(len(sweeps) + 1)
            start = len(counter.rows)
            out = sweep(*args, **kwargs)
            for i in range(start, len(counter.rows)):
                sweep_of_call[i] = sweeps[-1]
            return out

        monkeypatch.setattr(pm.invariant_graph, "_sweep", counted_sweep)
        spec = pm.extract_alpha_beta(handle)
        cfg = pm.CurveConfig(n_nodes=64, tol=1e-12, max_iter=60)
        _, rep = pm.solve_invariant_curve(spec, 1.0, 0.01, cfg)
        assert rep.converged and rep.iterations == len(sweeps) == 4
        # the secant rate of the plain transform: beta_y = kappa / e
        assert abs(rep.measured_rates[0] - 0.5 / np.e) <= 1e-3

        X, Y = pm.map_core.origin_rows(spec)
        for i, k in sweep_of_call.items():
            rows = counter.rows[i]
            assert len(rows) == (64 + 5 if k == 1 else 64)
            nodes = rows[:64]
            assert len(np.unique(nodes, axis=0)) == len(nodes)
            if k == 1:
                assert np.array_equal(rows[64:], np.hstack((X, Y)))
        assert sorted(sweep_of_call.values()) == list(range(1, len(sweeps) + 1))
        others = [len(rows) for i, rows in enumerate(counter.rows)
                  if i not in sweep_of_call]
        assert others == [pm.invariant_graph.RESIDUAL_SAMPLES]


class TestCylinderTable:
    @pytest.mark.parametrize("n", [0, -2])
    def test_no_trajectories_rejected_before_flowing(self, handle, monkeypatch,
                                                      n):
        def no_flow(*args, **kwargs):
            raise AssertionError("simulate_hybrid called")

        monkeypatch.setattr(pm.poincare, "simulate_hybrid", no_flow)
        curve = pm.PeriodicGridFn.zeros(handle.sys.T_g, 16)
        with pytest.raises(ValueError, match="n_trajectories"):
            pm.cylinder_table(handle, curve, 0.01, n)


class TestTypedFailures:
    def test_field_tangent_to_section(self, e3):
        along = replace(
            e3, X=lambda x: np.broadcast_to([1.0, 0.0], np.shape(x)).copy())
        with pytest.raises(pm.ChartError, match="tangent to S"):
            pm.prepare_handle(along)

    def test_return_off_the_chart(self, e3):
        shifted = replace(
            e3, D_inverse=lambda x: e3.D_inverse(x) + 0.1)
        handle = pm.prepare_handle(shifted)
        with pytest.raises(pm.ChartError, match="off the chart image"):
            pm.p_eps_batch(handle, [0.0], [[0.0]], 0.0)

    def test_nan_chart_point(self, e3):
        # a nan distance from the chart image fails the chart check
        nan_past = replace(e3, D_inverse=lambda x: np.where(
            e3.D_inverse(x) > 0.01, np.nan, e3.D_inverse(x)))
        handle = pm.prepare_handle(nan_past)
        with pytest.raises(pm.ChartError, match="off the chart image"):
            pm.p_eps_batch(handle, [0.0], [[0.1]], 0.0)
        with pytest.raises(pm.ChartError, match="off the chart image"):
            pm.find_fixed_point(handle, [0.1])

    def test_no_radius_returns(self, handle):
        short = replace(handle, max_time=0.5)
        with pytest.raises(pm.NoReturnError,
                           match="no sampled chart radius returned"):
            pm.poincare.certify_returns(short, n_samples=8)

    @pytest.mark.parametrize("lanes, call", [
        (1, lambda h: pm.time_to_return(h, 0.0, [1.0, 0.0], 0.0)),
        (3, lambda h: pm.p_eps_batch(h, [0.0, 0.1, 0.2],
                                     [[0.0], [0.1], [-0.1]], 0.0)),
    ], ids=["time_to_return", "p_eps_batch"])
    def test_missing_return_raises(self, handle, lanes, call):
        # a horizon shorter than the unit return lag: no lane returns
        short = replace(handle, max_time=0.5)
        message = (rf"^{lanes} of {lanes} trajectories found no admissible "
                   r"crossing within max_time = 0\.5$")
        with pytest.raises(pm.NoReturnError, match=message):
            call(short)

    def test_anchor_without_return(self, e3):
        # a section the flow never reaches: the anchor probe itself misses
        away = replace(e3, H=lambda x: np.asarray(x, float)[..., 1] - 5.0,
                       D=lambda u: np.column_stack([1.0 + u[:, 0],
                                                    np.full(len(u), 5.0)]))
        with pytest.raises(pm.NoReturnError, match="max_time = 50"):
            pm.prepare_handle(away)
