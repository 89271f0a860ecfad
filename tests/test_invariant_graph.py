from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

import perimap as pm
from perimap.exceptions import MonotonicityError
from perimap.invariant_graph import (_iterate_to_fixed_point, _knot_slopes,
                                     _moments, _spline_eval, _sweep)

CFG = pm.CurveConfig(n_nodes=256, tol=1e-12)


class _AnalyticCurve:
    """Duck-typed closed-form scalar curve for residual oracles."""

    def __init__(self, period, fn):
        self.period = period
        self.fn = fn

    def eval(self, x):
        return np.asarray(self.fn(np.asarray(x, float)))[..., None]


class TestPeriodicGridFn:
    def test_interpolates_nodes(self):
        vals = np.sin(2 * np.pi * np.arange(16) / 16)[:, None]
        f = pm.PeriodicGridFn(1.0, vals)
        assert_allclose(f.eval(f.nodes), vals, atol=1e-15)

    def test_exact_periodicity_dyadic(self):
        rng = np.random.default_rng(0)
        f = pm.PeriodicGridFn(1.0, rng.standard_normal((32, 1)))
        xs = np.arange(64) / 64.0
        assert np.array_equal(f.eval(xs), f.eval(xs + 1.0))
        assert np.array_equal(f.eval(xs), f.eval(xs + 7.0))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 255), st.integers(1, 5))
    def test_exact_periodicity_property(self, num, shift):
        f = pm.PeriodicGridFn(1.0, np.cos(np.linspace(0, 2 * np.pi, 17))[:16, None])
        x = num / 256.0
        assert np.array_equal(f.eval(x), f.eval(x + float(shift)))

    def test_sup_norm_exact_for_scalar(self):
        xs = np.arange(64) / 64.0
        f = pm.PeriodicGridFn(1.0, (0.3 * np.sin(2 * np.pi * xs))[:, None])
        assert abs(f.sup_norm() - 0.3) < 1e-6

    @pytest.mark.parametrize("values", [
        np.zeros(8),
        np.full(8, -0.4),
        np.array([0.3, -0.7]),
        # symmetric about x = 1/16, between nodes 0 and 1, so the spline's
        # maximum (0.9988) lies there, on the dense grid below, and above
        # every node value (0.9239)
        np.cos(2 * np.pi * (np.arange(8) / 8 - 1 / 16)),
    ], ids=["zero", "constant", "two-nodes", "max-between-nodes"])
    def test_sup_norm_matches_a_dense_sample(self, values):
        # zero and constant curves have flat pieces: slopes without roots
        f = pm.PeriodicGridFn(1.0, values[:, None])
        dense = float(np.max(np.abs(f.eval(np.arange(2**17) / 2**17))))
        assert abs(f.sup_norm() - dense) <= 1e-15 * dense

    def test_negative_arguments(self):
        f = pm.PeriodicGridFn(1.0, np.arange(8, dtype=float)[:, None])
        assert_allclose(f.eval(-0.25), f.eval(0.75), atol=1e-14)


class TestGraphTransform:
    def test_zero_curve_fixed_at_eps0(self, e1):
        phi = pm.PeriodicGridFn.zeros(1.0, 64)
        out = pm.graph_transform(e1, 0.25, 0.0, phi)
        assert np.array_equal(out.values, phi.values)

    def test_rigid_rotation_preimage(self, e1):
        phi = pm.PeriodicGridFn.zeros(1.0, 128)
        out = pm.graph_transform(e1, 0.25, 0.01, phi)
        expected = 0.01 * np.sin(2 * np.pi * (out.nodes - 0.25))
        assert_allclose(out.values[:, 0], expected, atol=1e-12)

    def test_constant_curve_x_free_beta(self):
        spec = pm.MapSpec(k1=1, k2=1, r1=1.0,
                          alpha=lambda w, e, x, y: np.ones_like(x),
                          beta=lambda w, e, x, y: 0.5 * y + e,
                          periodic_coord=1, period=1.0)
        phi = pm.PeriodicGridFn.constant(1.0, 64, [0.2])
        out = pm.graph_transform(spec, 0.3, 0.05, phi)
        assert_allclose(out.values, 0.15, atol=1e-13)

    def test_monotonicity_failure_raises(self):
        spec = pm.MapSpec(k1=1, k2=1, r1=1.0,
                          alpha=lambda w, e, x, y: 5.0 * np.cos(2 * np.pi * x),
                          beta=lambda w, e, x, y: 0.5 * y,
                          periodic_coord=1, period=1.0)
        with pytest.raises(MonotonicityError):
            pm.graph_transform(spec, 1.0, 0.0, pm.PeriodicGridFn.zeros(1.0, 64))


class TestSolver:
    def test_closed_form_shear(self, e1, shear_oracle):
        phi, c = shear_oracle(0.25, 0.5, 0.01)
        curve, rep = pm.solve_invariant_curve(e1, 0.25, 0.01, CFG)
        xs = np.linspace(0, 1, 1024, endpoint=False)
        assert np.max(np.abs(curve.eval(xs)[:, 0] - phi(xs))) <= 1e-8
        assert rep.converged and rep.final_update <= 1e-12

    def test_omega_zero_branch(self, e1):
        curve, rep = pm.solve_invariant_curve(e1, 0.0, 0.01, CFG)
        xs = np.linspace(0, 1, 512, endpoint=False)
        # phi = eps sin(2 pi x) / (1 - q)
        assert np.max(np.abs(curve.eval(xs)[:, 0]
                             - 0.02 * np.sin(2 * np.pi * xs))) <= 1e-9
        assert rep.converged

    def test_eps0_zero_curve_fast(self, e2):
        curve, rep = pm.solve_invariant_curve(e2, 0.25, 0.0, CFG)
        assert rep.iterations <= 2
        assert curve.sup_norm() <= 1e-15

    def test_rates_near_q(self, e1):
        _, rep = pm.solve_invariant_curve(e1, 0.25, 0.01, CFG)
        assert len(rep.measured_rates) > 0
        assert np.allclose(rep.measured_rates, 0.5, atol=1e-3)

    def test_monotone_refinement(self, e2):
        residuals = {}
        for n in (64, 128, 256):
            cfg = pm.CurveConfig(n_nodes=n, tol=1e-12, seed=5)
            curve, rep = pm.solve_invariant_curve(e2, 0.25, 0.01, cfg)
            residuals[n] = rep.invariance_residual
        assert residuals[128] <= 2 * residuals[64]
        assert residuals[256] <= 2 * residuals[128]

    def test_accelerated_sweep_counts(self, e1, e2):
        # the plain iteration at rate 0.5 needs 35 sweeps to tol 1e-12
        _, shear = pm.solve_invariant_curve(e1, 0.25, 0.01, CFG)
        _, toy = pm.solve_invariant_curve(e2, 0.25, 0.01, CFG)
        assert shear.iterations <= 5 and toy.iterations <= 12

    def test_accelerated_values_stay_in_disc(self):
        # the fixed point y = 1/2 sits on the r1 circle and the concave beta
        # makes the Anderson steps overshoot it: each such step must fall
        # back on the plain image, so the map is never evaluated outside
        seen = []

        def alpha(w, e, x, y):
            seen.append(float(np.max(np.abs(y))))
            return np.ones_like(x)

        def beta(w, e, x, y):
            return 0.5 + 0.5 * (y - 0.5) - 0.2 * (y - 0.5) ** 2

        spec = pm.MapSpec(k1=1, k2=1, r1=0.5 + 1e-9, alpha=alpha, beta=beta,
                          periodic_coord=1, period=1.0)
        curve, rep = pm.solve_invariant_curve(
            spec, 0.25, 0.0, pm.CurveConfig(n_nodes=16, tol=1e-12))
        assert rep.converged
        assert max(seen) <= spec.r1
        assert_allclose(curve.values, 0.5, atol=1e-11)


def _coupled_map(batched):
    """A closed-form k2 = 2 map: alpha depends on both y_j and beta mixes
    them, so each block c_i of the Newton push is a full 2 x 2 matrix."""
    two_pi = 2.0 * np.pi

    def alpha(omega, eps, x, y):
        return (1.0 + 0.05 * np.sin(two_pi * x) + 0.1 * y[:, :1]
                - 0.05 * y[:, 1:])

    def beta(omega, eps, x, y):
        y1, y2 = y[:, 0], y[:, 1]
        return np.column_stack([
            0.5 * y1 + 0.2 * y2 + 0.1 * y1 * y2 + eps * np.sin(two_pi * x[:, 0]),
            -0.1 * y1 + 0.4 * y2 + 0.2 * y1**2 + eps * np.cos(two_pi * x[:, 0])])

    return pm.MapSpec(k1=1, k2=2, r1=1.0, alpha=alpha, beta=beta,
                      periodic_coord=1, period=1.0, batched=batched)


class TestNewtonPush:
    """A ``batched`` spec with n * k2 <= NEWTON_NODES iterates Newton steps
    on G(v) = v; any other spec keeps the Anderson iteration."""

    def test_wrapped_map_matches_anderson(self, wrapped):
        cfg = pm.CurveConfig(n_nodes=256, tol=1e-12, max_iter=60)
        curve, rep = pm.solve_invariant_curve(wrapped, 1.0, 0.01, cfg)
        plain, plain_rep = pm.solve_invariant_curve(
            replace(wrapped, batched=False), 1.0, 0.01, cfg)
        assert rep.converged and plain_rep.converged
        assert rep.iterations < plain_rep.iterations
        assert np.max(np.abs(curve.values - plain.values)) <= 1e-11
        # the secant rate of the plain transform: beta_y = kappa / e
        assert abs(rep.measured_rates[0] - 0.5 / np.e) <= 1e-3

    def test_coupled_k2_map(self):
        cfg = pm.CurveConfig(n_nodes=64, tol=1e-12)
        curve, rep = pm.solve_invariant_curve(_coupled_map(True), 0.37, 0.05,
                                              cfg)
        plain, plain_rep = pm.solve_invariant_curve(_coupled_map(False), 0.37,
                                                    0.05, cfg)
        assert rep.converged and plain_rep.converged
        assert rep.iterations <= 4 < plain_rep.iterations
        assert np.max(np.abs(curve.values - plain.values)) <= 1e-11

    def test_curve_on_the_circle_is_never_left(self):
        # the fixed point y = 1/2 sits on the r1 circle and the concave beta
        # makes every Newton step overshoot it: each such step falls back on
        # the plain image, and the difference rows step toward the centre
        seen = []

        def alpha(w, e, x, y):
            seen.append(float(np.max(np.abs(y))))
            return np.ones_like(x)

        def beta(w, e, x, y):
            seen.append(float(np.max(np.abs(y))))
            return 0.5 + 0.5 * (y - 0.5) - 0.2 * (y - 0.5) ** 2

        spec = pm.MapSpec(k1=1, k2=1, r1=0.5 + 1e-9, alpha=alpha, beta=beta,
                          periodic_coord=1, period=1.0, batched=True)
        curve, rep = pm.solve_invariant_curve(
            spec, 0.25, 0.0, pm.CurveConfig(n_nodes=16, tol=1e-12))
        assert rep.converged
        assert max(seen) <= spec.r1
        assert_allclose(curve.values, 0.5, atol=1e-11)

    @pytest.mark.parametrize("n, rows, newton", [(256, 512, True),
                                                 (512, 512, False)])
    def test_node_limit(self, e2, n, rows, newton):
        sizes = []

        def alpha(w, e, x, y):
            sizes.append(len(x))
            return e2.alpha(w, e, x, y)

        spec = replace(e2, alpha=alpha, batched=True)
        cfg = pm.CurveConfig(n_nodes=n, tol=1e-12)
        curve, rep = pm.solve_invariant_curve(spec, 0.25, 0.01, cfg)
        plain, plain_rep = pm.solve_invariant_curve(e2, 0.25, 0.01, cfg)
        assert set(sizes[:rep.iterations]) == {rows}
        if newton:
            assert rep.iterations < plain_rep.iterations
            assert np.max(np.abs(curve.values - plain.values)) <= 1e-11
        else:
            assert rep.iterations == plain_rep.iterations
            assert np.array_equal(curve.values, plain.values)

    def test_graph_transform_pushes_the_nodes_only(self, e2):
        sizes = []

        def alpha(w, e, x, y):
            sizes.append(len(x))
            return e2.alpha(w, e, x, y)

        phi = pm.PeriodicGridFn(1.0, 0.01 * np.cos(np.arange(64) / 10)[:, None])
        out = pm.graph_transform(replace(e2, alpha=alpha, batched=True), 0.25,
                                 0.01, phi)
        assert sizes == [64]
        assert np.array_equal(out.values,
                              pm.graph_transform(e2, 0.25, 0.01, phi).values)


def _central_dg(spec, omega, eps, xs, values, step=1e-6):
    """Central differences of the plain push G in each node value."""
    plain = replace(spec, batched=False)
    flat = values.ravel()
    cols = []
    for j in range(flat.size):
        shift = np.zeros_like(flat)
        shift[j] = step
        plus, minus = (_sweep(plain, omega, eps, xs, (flat + s).reshape(
            values.shape), 1.0)[0] for s in (shift, -shift))
        cols.append(((plus - minus) / (2.0 * step)).ravel())
    return np.column_stack(cols)


class TestNewtonPushOperator:
    """The pieces of the Newton push: the one periodic cubic spline
    (`_moments`, `_spline_eval`, `_knot_slopes`), which is also the spline
    operator S_t when applied to the identity, and the derivative DG."""

    @pytest.mark.parametrize("n", [2, 3, 16, 256])
    def test_spline_matrix_matches_periodic_cubic_spline(self, n):
        # n = 2 is the case where the corners of the cyclic system add to
        # its off-diagonals
        rng = np.random.default_rng(n)
        window = 1.5
        # knots jittered off a uniform grid, as pushed nodes are
        t = 0.3 + window * (np.arange(n) + rng.uniform(0.0, 0.9, n)) / n
        y = rng.standard_normal(n)
        xs = rng.uniform(-2.0, 4.0, 200)  # both sides of the window
        spline = CubicSpline(np.append(t, t[0] + window), np.append(y, y[0]),
                             bc_type="periodic")
        eye = np.eye(n)
        S = _spline_eval(t, window, eye, _moments(t, window, eye), xs)
        assert_allclose(S @ y, spline(xs), rtol=0.0, atol=1e-12)
        m = _moments(t, window, y[:, None])
        assert_allclose(_spline_eval(t, window, y[:, None], m, xs)[:, 0],
                        spline(xs), rtol=0.0, atol=1e-12)
        assert_allclose(_knot_slopes(t, window, y[:, None], m)[:, 0],
                        spline(t, 1), rtol=0.0, atol=1e-12)

    def test_dg_with_fixed_images(self):
        # alpha does not depend on y, so the images and the spline through
        # them do not move with v: DG is the derivative of G
        spec = pm.MapSpec(
            k1=1, k2=1, r1=1.0,
            alpha=lambda w, e, x, y: 0.3 + 0.05 * np.sin(2 * np.pi * x),
            beta=lambda w, e, x, y: (0.5 * y + 0.2 * y**2
                                     + e * np.sin(2 * np.pi * x)),
            periodic_coord=1, period=1.0, batched=True)
        xs = np.arange(64) / 64
        v = 0.05 * np.sin(2 * np.pi * xs) + 0.02 * np.cos(4 * np.pi * xs)
        _, dg = _sweep(spec, 0.37, 0.01, xs, v[:, None], 1.0)
        central = _central_dg(spec, 0.37, 0.01, xs, v[:, None])
        assert np.max(np.abs(dg - central)) <= 1e-6

    def test_dg_on_a_smooth_coupled_iterate(self):
        # here alpha depends on y; the knots' motion that DG leaves out is
        # third order in the node spacing on a smooth iterate
        xs = np.arange(64) / 64
        v = np.column_stack([0.05 * np.sin(2 * np.pi * xs),
                             0.03 * np.cos(2 * np.pi * xs)])
        _, dg = _sweep(_coupled_map(True), 0.37, 0.05, xs, v, 1.0)
        central = _central_dg(_coupled_map(True), 0.37, 0.05, xs, v)
        assert np.max(np.abs(dg - central)) <= 1e-5


def _sine_advance(xs):
    """Closed-form periodic, strictly increasing advance on window 1."""
    return xs + 0.25 + 0.05 * np.sin(2 * np.pi * xs)


class TestPush:
    EPS = 0.01
    SPEC = pm.MapSpec(k1=1, k2=1, r1=1.0,
                      alpha=lambda w, e, x, y: _sine_advance(x) - x,
                      beta=lambda w, e, x, y: 0.5 * y + e * np.cos(2 * np.pi * x),
                      periodic_coord=1, period=1.0)

    def _error(self, n):
        """Node error of one push of the zero curve against brentq preimages."""
        phi = pm.PeriodicGridFn.zeros(1.0, n)
        out = pm.graph_transform(self.SPEC, 1.0, self.EPS, phi)
        # shift each node into [a(0), a(0) + 1) = [0.25, 1.25)
        targets = np.where(phi.nodes < 0.25, phi.nodes + 1.0, phi.nodes)
        pre = np.array([brentq(lambda x: _sine_advance(x) - t, 0.0, 1.0,
                               xtol=1e-15, rtol=1e-15) for t in targets])
        exact = self.EPS * np.cos(2 * np.pi * pre)
        return float(np.max(np.abs(out.values[:, 0] - exact)))

    def test_closed_form_against_preimages(self):
        errors = [self._error(n) for n in (64, 128, 256)]
        assert errors[-1] <= 5e-11
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 3.5), orders

    @pytest.mark.parametrize("alpha", [
        lambda w, e, x, y: -2.0 * x,  # x -> -x reverses the nodes
        lambda w, e, x, y: x,         # x -> 2x wraps the window twice
    ], ids=["reversed", "wrapped-twice"])
    def test_order_breaking_push_raises(self, alpha):
        spec = pm.MapSpec(k1=1, k2=1, r1=1.0, alpha=alpha,
                          beta=lambda w, e, x, y: 0.5 * y,
                          periodic_coord=1, period=1.0)
        xs = np.linspace(0.0, 1.0, 64, endpoint=False)
        with pytest.raises(MonotonicityError):
            _sweep(spec, 1.0, 0.0, xs, np.zeros((64, 1)), 1.0)


class TestInvarianceResidual:
    def test_closed_form_is_invariant(self, e1, shear_oracle):
        phi, _ = shear_oracle(0.25, 0.5, 0.01)
        oracle = _AnalyticCurve(1.0, phi)
        res = pm.invariance_residual(e1, 0.25, 0.01, oracle, 500, 3)
        assert res <= 1e-12

    def test_zero_curve_at_eps0(self, e1):
        res = pm.invariance_residual(e1, 0.25, 0.0,
                                     pm.PeriodicGridFn.zeros(1.0, 64), 200, 1)
        assert res == 0.0

    def test_zero_curve_at_eps_forced(self, e1):
        res = pm.invariance_residual(e1, 0.25, 0.01,
                                     pm.PeriodicGridFn.zeros(1.0, 64), 2000, 1)
        assert abs(res - 0.01) <= 1e-5


class TestAttraction:
    def test_exact_rate_linear_shear_eps0(self, e1):
        curve, _ = pm.solve_invariant_curve(e1, 0.25, 0.0, CFG)
        rep = pm.attraction_test(e1, 0.25, 0.0, curve, 20, 40, seed=3,
                                 y_radius=0.03, q=0.5)
        rates = rep.rates[np.isfinite(rep.rates)]
        assert rates.size >= 10
        assert np.all(rates == 0.5)
        assert rep.escaped == 0

    def test_on_graph_stays(self, e2):
        cfg = pm.CurveConfig(n_nodes=256, tol=1e-12, seed=2)
        curve, _ = pm.solve_invariant_curve(e2, 0.25, 0.01, cfg)
        x0 = 0.3
        tr = pm.iterate(e2, 0.25, 0.01, [x0], curve.eval(x0), 30)
        d = np.abs(tr.ys[:, 0] - curve.eval(tr.xs[:, 0])[:, 0])
        assert np.max(d) <= 1e-10

    def test_nonlinear_bounded_by_rate_bound(self, e2):
        cfg = pm.CurveConfig(n_nodes=256, tol=1e-12, seed=2)
        curve, _ = pm.solve_invariant_curve(e2, 0.25, 0.01, cfg)
        rep = pm.attraction_test(e2, 0.25, 0.01, curve, 20, 40, seed=3,
                                 y_radius=0.03, q=0.5)
        assert rep.rate_bound == pytest.approx(0.5 + 2 * 0.5 / 3)
        assert rep.max_rate(transient=5) <= rep.rate_bound


class TestPeriodicityDefect:
    def test_linear_shear_small(self, e1):
        assert pm.periodicity_defect(e1, 0.25, 0.01, CFG) <= 1e-6

    def test_eps0_tiny(self, e1):
        assert pm.periodicity_defect(e1, 0.25, 0.0, CFG) <= 1e-12

    def test_aperiodic_term_large(self):
        def beta(w, e, x, y):
            return 0.5 * y + e * (np.sin(2 * np.pi * x)
                                  + np.sin(2 * np.pi * x / np.sqrt(2.0)))

        bad = pm.MapSpec(k1=1, k2=1, r1=1.0,
                         alpha=lambda w, e, x, y: np.ones_like(x),
                         beta=beta, periodic_coord=1, period=1.0)
        assert pm.periodicity_defect(bad, 0.25, 0.01, CFG) > 1e-3

    @pytest.mark.parametrize("system", ["e1", "e2"])
    def test_emerges_from_a_seed_that_flips_sign(self, system, request):
        # 0.2 sin(pi x) changes sign under x -> x + 1, so the iteration starts
        # far from T-periodic and only the 2T-periodic grid is imposed
        spec = request.getfixturevalue(system)
        seed = pm.PeriodicGridFn(2.0, 0.2 * np.sin(np.pi * np.arange(512)
                                                   / 256)[:, None])
        xs = np.linspace(0.0, 1.0, 1024, endpoint=False)
        assert np.max(np.abs(seed.eval(xs + 1.0) - seed.eval(xs))) > 0.39
        curve, _, _, hit_tol = _iterate_to_fixed_point(
            spec, 0.25, 0.01, seed, 1e-12, 100)
        assert hit_tol
        assert np.max(np.abs(curve.eval(xs + 1.0) - curve.eval(xs))) <= 1e-9

    def test_defect_at_rounding_level(self, e1, wrapped):
        # the doubled curve has no edges, so the defect is rounding only;
        # an edge error of the representation would show here
        assert pm.periodicity_defect(e1, 0.25, 0.01, CFG) <= 1e-14
        cfg = pm.CurveConfig(n_nodes=128, tol=1e-11, max_iter=60,
                             preimage_tol=1e-11)
        assert pm.periodicity_defect(wrapped, 1.0, 0.01, cfg) <= 1e-13


class TestUniquenessAndContinuity:
    def test_identical_seeds(self, e1):
        seeds = (pm.PeriodicGridFn.zeros(1.0, 128),
                 pm.PeriodicGridFn.zeros(1.0, 128))
        cfg = pm.CurveConfig(n_nodes=128, tol=1e-12)
        assert pm.uniqueness_test(e1, 0.25, 0.01, cfg, seeds) == 0.0

    def test_distinct_seeds_converge_together(self, e2):
        cfg = pm.CurveConfig(n_nodes=128, tol=1e-12)
        rng = np.random.default_rng(8)
        smooth = 0.03 * np.sin(2 * np.pi * np.arange(128) / 128
                               + rng.uniform(0, 2 * np.pi))
        seeds = (pm.PeriodicGridFn.constant(1.0, 128, [0.05]),
                 pm.PeriodicGridFn(1.0, smooth[:, None]))
        assert pm.uniqueness_test(e2, 0.25, 0.01, cfg, seeds) <= 1e-9

    def test_linear_scaling_ratio_constant(self, e1):
        rows = pm.continuity_in_eps(e1, 0.25, [0.0, 1e-3, 1e-2], CFG)
        assert rows[0].eps == 0.0 and rows[0].sup_norm <= 1e-15
        lo, hi = pm.invariant_graph.ratio_band(rows)
        assert hi / lo <= 1.0 + 1e-9


class TestTypedFailures:
    def test_folding_advance_fails_the_monotonicity_check(self):
        spec = pm.nonlinear_toy(advance_coupling=3.0)
        with pytest.raises(MonotonicityError, match="not strictly increasing"):
            pm.solve_invariant_curve(spec, 0.37, 0.2,
                                     pm.CurveConfig(n_nodes=64))

    def test_sweep_leaving_the_disc(self):
        with pytest.raises(pm.DomainError, match="left the radius-r1 disc"):
            pm.solve_invariant_curve(pm.linear_shear(), 0.25, 1.2,
                                     pm.CurveConfig(n_nodes=64))

    def test_doubled_window_without_convergence(self, e1):
        cfg = pm.CurveConfig(n_nodes=64, max_iter=1)
        with pytest.raises(pm.ConvergenceError,
                           match="doubled-window solve did not converge"):
            pm.periodicity_defect(e1, 0.25, 0.01, cfg)

    def test_single_node_curve(self):
        with pytest.raises(ValueError, match="n_nodes >= 2"):
            pm.PeriodicGridFn(1.0, [[0.5]])

    @pytest.mark.parametrize("seed, what", [
        (pm.PeriodicGridFn.zeros(2.0, 64), "period 2.0 differs from 1.0"),
        (pm.PeriodicGridFn.zeros(1.0, 32), "node count 32 differs from 64"),
        (pm.PeriodicGridFn.zeros(1.0, 64, 2), "k2 2 differs from 1"),
    ], ids=["period", "n_nodes", "k2"])
    def test_mismatched_seed_curve(self, e1, seed, what):
        def no_eval(*args):
            raise AssertionError("map evaluated")

        spec = replace(e1, alpha=no_eval, beta=no_eval)
        with pytest.raises(ValueError, match=what):
            pm.solve_invariant_curve(spec, 0.25, 0.01, pm.CurveConfig(
                n_nodes=64, seed_curve=seed))

    def test_curve_outside_the_disc(self, e1):
        curve = pm.PeriodicGridFn(1.0, np.full((16, 1), 1.5))
        with pytest.raises(pm.DomainError, match="candidate curve exceeds"):
            pm.graph_transform(e1, 0.25, 0.0, curve)
        with pytest.raises(pm.DomainError, match="seed curve exceeds"):
            pm.solve_invariant_curve(e1, 0.25, 0.0, pm.CurveConfig(
                n_nodes=16, seed_curve=curve))


def _restarting_map():
    """alpha depends on y and beta is quadratic, so the sweep update grows
    twice on the way to the fixed point."""
    two_pi = 2.0 * np.pi

    def alpha(omega, eps, x, y):
        return 1.0 + 0.01 * np.sin(two_pi * x) + 0.1 * y

    def beta(omega, eps, x, y):
        return 0.89 * y + 0.49 * y**2 + eps * np.sin(two_pi * x)

    return pm.MapSpec(k1=1, k2=1, r1=1.0, alpha=alpha, beta=beta,
                      periodic_coord=1, period=1.0)


def _forced_mode_map(m):
    """alpha depends on y, and beta is forced at mode m: at n = 64 nodes a
    large m puts the curve's wiggles near the grid's resolution."""
    def alpha(omega, eps, x, y):
        return 1.0 + 0.1 * np.sin(2 * np.pi * x) + 0.1 * y

    def beta(omega, eps, x, y):
        return 0.5 * y + eps * np.sin(2 * np.pi * m * x)

    return pm.MapSpec(k1=1, k2=1, r1=1.0, alpha=alpha, beta=beta,
                      periodic_coord=1, period=1.0)


class TestConvergedGate:
    """``converged`` must say whether the spline resolves the curve."""

    CFG = pm.CurveConfig(n_nodes=64)

    def test_resolved_forcing_converges(self):
        _, rep = pm.solve_invariant_curve(_forced_mode_map(5), 0.37, 0.01,
                                          self.CFG)
        assert rep.converged and rep.invariance_residual <= 1e-5

    # the fourth-difference gate scales with the roughness it should catch:
    # it passes these curves at invariance residuals 1.1e-3 and 1.4e-2
    @pytest.mark.xfail(strict=True, reason="the converged gate passes "
                       "curves the 64-node spline does not resolve")
    @pytest.mark.parametrize("m", [16, 31])
    def test_unresolved_forcing_is_not_converged(self, m):
        _, rep = pm.solve_invariant_curve(_forced_mode_map(m), 0.37, 0.01,
                                          self.CFG)
        assert not rep.converged


class TestRarePaths:
    def test_anderson_history_restarts(self):
        spec = _restarting_map()
        seed = pm.PeriodicGridFn.zeros(1.0, 64, 1)
        _, updates, _, hit_tol = _iterate_to_fixed_point(
            spec, 0.25, 0.026, seed, 1e-12, 100)
        assert hit_tol and len(updates) == 36
        grew = [k for k in range(1, len(updates)) if updates[k] > updates[k - 1]]
        assert grew == [6, 25]  # sweeps 7 and 26 clear the history
        _, report = pm.solve_invariant_curve(
            spec, 0.25, 0.026, pm.CurveConfig(n_nodes=64, tol=1e-12))
        assert report.converged and report.invariance_residual < 1e-8

    def test_fold_hidden_between_the_nodes(self):
        """The advance folds between the nodes, where it equals x + omega, so
        every sweep keeps the nodes' order; the off-node residual shows the
        fold and the solve reports no convergence."""
        spec = pm.MapSpec(
            k1=1, k2=1, r1=1.0,
            alpha=lambda w, e, x, y: 1.0 + 0.2 * np.sin(2 * np.pi * 32 * x),
            beta=lambda w, e, x, y: 0.5 * y + e * np.sin(2 * np.pi * x),
            periodic_coord=1, period=1.0)
        _, report = pm.solve_invariant_curve(spec, 0.37, 0.01,
                                             pm.CurveConfig(n_nodes=64))
        assert not report.converged
        assert report.invariance_residual > 1e-4

    def test_sup_norm_of_a_vector_curve(self):
        xs = np.arange(64) / 64
        curve = pm.PeriodicGridFn(
            1.0, np.column_stack([np.cos(2 * np.pi * xs), np.sin(2 * np.pi * xs)]))
        assert curve.sup_norm() == pytest.approx(1.0, abs=1e-12)

    def test_ratio_band_without_nonzero_eps(self, e1):
        rows = pm.continuity_in_eps(e1, 0.25, [0.0], CFG)
        lo, hi = pm.invariant_graph.ratio_band(rows)
        assert np.isnan(lo) and np.isnan(hi)
