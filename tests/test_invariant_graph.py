from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.interpolate import CubicSpline
from scipy.linalg import LinAlgError
from scipy.optimize import brentq

import perimap as pm
from perimap.exceptions import MonotonicityError
from perimap.invariant_graph import (_cyclic_solve, _iterate_to_fixed_point,
                                     _Spline, _sweep)

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

    @pytest.mark.parametrize("period", [0.0, -1.0, float("nan"),
                                        float("inf")])
    def test_period_checked(self, period):
        # 0 and -1 raised numpy's LinAlgError; nan and inf gave a curve of
        # nan values
        with pytest.raises(ValueError, match="period must be positive"):
            pm.PeriodicGridFn(period, np.zeros((8, 1)))

    def test_negative_arguments(self):
        f = pm.PeriodicGridFn(1.0, np.arange(8, dtype=float)[:, None])
        assert_allclose(f.eval(-0.25), f.eval(0.75), atol=1e-14)

    def test_values_cannot_go_stale(self):
        # the spline is built once, so the values it was built on are frozen
        vals = np.sin(2 * np.pi * np.arange(16) / 16)[:, None]
        f = pm.PeriodicGridFn(1.0, vals)
        fresh = float(f.eval(1 / 32)[0])
        with pytest.raises(FrozenInstanceError):
            f.values = 0.5 * vals
        with pytest.raises(ValueError, match="read-only"):
            f.values[1, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            f.nodes[1] = 0.0
        vals[1, 0] = 0.0  # the caller's array is copied, not aliased
        assert float(f.eval(1 / 32)[0]) == fresh == pytest.approx(0.19508,
                                                                  abs=1e-5)


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

    def test_rates_near_q(self, e1, e2):
        # the shear's second push meets tol before it measures a rate
        _, shear = pm.solve_invariant_curve(e1, 0.25, 0.01, CFG)
        assert shear.iterations == 2 and shear.measured_rates == []
        _, rep = pm.solve_invariant_curve(e2, 0.25, 0.01, CFG)
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
        # the plain iteration at rate 0.5 needs 35 pushes to tol 1e-12; the
        # shear is its own linear part, so one preconditioned step solves it
        _, shear = pm.solve_invariant_curve(e1, 0.25, 0.01, CFG)
        _, toy = pm.solve_invariant_curve(e2, 0.25, 0.01, CFG)
        assert shear.iterations == 2 and toy.iterations <= 12

    @pytest.mark.parametrize("strong, eps, pushes", [(True, 0.1, 35),
                                                     (False, 0.01, 32)],
                             ids=["strong-toy", "forced-mode-5"])
    def test_advance_varying_along_x(self, strong, eps, pushes):
        # the push's shift is far from omega alpha(0) on all but the lowest
        # modes, so the preconditioner gains little; Anderson alone needs
        # ``pushes``
        spec = (pm.nonlinear_toy(advance_coupling=3.0, y2_coupling=2.0)
                if strong else _forced_mode_map(5))
        _, rep = pm.solve_invariant_curve(spec, 0.37, eps, CFG)
        assert rep.converged and rep.iterations <= pushes

    @pytest.mark.parametrize("n", [256, 4096])
    @pytest.mark.parametrize("omega", [0.37, (np.sqrt(5.0) - 1.0) / 2.0],
                             ids=["0.37", "golden"])
    @pytest.mark.parametrize("q", [0.95, 0.98])
    def test_weakly_attracting_curve(self, q, omega, n):
        # the plain iteration contracts at q: Anderson alone needs 130-490
        # pushes at 256 nodes, the preconditioned steps 5-6.  At 4096 nodes
        # the modes above the band limit, where the push's shift differs
        # from omega alpha(0) by more than 1/2 rad, would grow under the
        # preconditioner (at q 0.98 and the golden mean the solve would
        # fail); left as they are they contract at q
        _, rep = pm.solve_invariant_curve(pm.nonlinear_toy(q=q), omega, 0.01,
                                          pm.CurveConfig(n_nodes=n))
        assert rep.converged and rep.iterations <= 10
        assert abs(rep.measured_rates[0] - q) <= 1e-3

    def test_two_modes_of_equal_modulus(self):
        # beta forces mode 1 and the half-frequency mode over the doubled
        # window; both contract at 0.5, and one preconditioned step takes
        # out both
        [(curve, updates, _, hit_tol)] = _iterate_to_fixed_point(
            _half_frequency_map(), 0.37, [1e-3], 2.0, np.zeros((1, 4096, 1)),
            1e-12, 100)
        assert hit_tol and len(updates) <= 4

    def test_coupled_k2_map(self):
        # k2 = 2: one 2 x 2 solve per mode; Anderson alone needs 30 pushes
        _, rep = pm.solve_invariant_curve(
            _coupled_map(), 0.37, 0.05, pm.CurveConfig(n_nodes=64, tol=1e-12))
        assert rep.converged and rep.invariance_residual <= 4e-8
        assert rep.iterations <= 20

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


def _coupled_map():
    """A closed-form k2 = 2 map: alpha depends on both y_j and beta mixes
    them, so B = beta_y(0) is a full 2 x 2 matrix."""
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
                      periodic_coord=1, period=1.0)


class TestSpline:
    """The package's one periodic cubic spline, `_Spline`."""

    @pytest.mark.parametrize("n", [2, 3, 16, 256])
    def test_matches_periodic_cubic_spline(self, n):
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
        S = _Spline(t, window, np.eye(n))(xs)
        assert_allclose(S @ y, spline(xs), rtol=0.0, atol=1e-12)
        own = _Spline(t, window, y[:, None])
        assert_allclose(own(xs)[:, 0], spline(xs), rtol=0.0, atol=1e-12)
        assert_allclose(own.slopes()[:, 0], spline(t, 1), rtol=0.0,
                        atol=1e-12)

    def test_not_positive_definite_raises(self):
        # diag[0] = -1 leaves the tridiagonal part's first pivot at -2
        diag, off = np.array([-1.0, 2.0, 2.0]), np.full(3, 0.1)
        with pytest.raises(LinAlgError,
                           match="1th leading minor not positive definite"):
            _cyclic_solve(diag, off, np.ones((3, 1)))


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

    def test_images_past_the_window(self):
        # omega alpha runs from 2.25 to 2.35 windows: the images start past
        # the window and end more than one window ahead, and the push
        # re-grids them without reordering them
        spec = pm.MapSpec(
            k1=1, k2=1, r1=1.0,
            alpha=lambda w, e, x, y: 2.3 + 0.05 * np.sin(2 * np.pi * x),
            beta=lambda w, e, x, y: (0.5 * y + 0.2 * y**2
                                     + e * np.cos(2 * np.pi * x)),
            periodic_coord=1, period=1.0)
        xs = np.arange(64) / 64
        v = (0.05 * np.sin(2 * np.pi * xs) + 0.02 * np.cos(6 * np.pi * xs)
             )[:, None]
        [g], [a], [failure] = _sweep(spec, 1.0, [self.EPS], xs, v[None], 1.0)
        assert failure is None
        assert np.array_equal(a, spec.alpha(1.0, self.EPS, xs[:, None], v)[:, 0])
        img = xs + a
        assert img[0] > 1.0 and img[-1] - img[0] < 1.0 < img[-1] - 2.0
        t0 = img[0] - 2.0
        y = spec.beta(1.0, self.EPS, xs[:, None], v)[:, 0]
        reference = CubicSpline(np.append(img - 2.0, t0 + 1.0),
                                np.append(y, y[0]), bc_type="periodic")
        assert_allclose(g[:, 0], reference(t0 + np.mod(xs - t0, 1.0)),
                        rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("alpha", [
        lambda w, e, x, y: -2.0 * x,  # x -> -x reverses the nodes
        lambda w, e, x, y: x,         # x -> 2x wraps the window twice
    ], ids=["reversed", "wrapped-twice"])
    def test_order_breaking_push_raises(self, alpha):
        spec = pm.MapSpec(k1=1, k2=1, r1=1.0, alpha=alpha,
                          beta=lambda w, e, x, y: 0.5 * y,
                          periodic_coord=1, period=1.0)
        xs = np.linspace(0.0, 1.0, 64, endpoint=False)
        _, _, [failure] = _sweep(spec, 1.0, [0.0], xs, np.zeros((1, 64, 1)),
                                 1.0)
        with pytest.raises(MonotonicityError):
            raise failure


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
                                 y_radius=0.03)
        rates = rep.rates[np.isfinite(rep.rates)]
        assert rates.size >= 10
        assert np.all(rates == 0.5)
        assert rep.escaped == 0

    def test_start_radius_beyond_r1_rejected(self):
        # the sampled starts would lie outside the map's domain
        seen = []

        def beta(w, e, x, y):
            seen.append(float(np.max(np.abs(y))))
            return shear.beta(w, e, x, y)

        shear = pm.linear_shear(r1=0.1)
        spec = replace(shear, beta=beta)
        with pytest.raises(pm.DomainError, match="y_radius = 0.3 exceeds"):
            pm.attraction_test(spec, 0.25, 0.0,
                               pm.PeriodicGridFn.zeros(1.0, 8), y_radius=0.3)
        assert seen == []

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
                                 y_radius=0.03)
        assert pm.rate_bound_from_q(0.5) == pytest.approx(0.5 + 2 * 0.5 / 3)
        assert rep.max_rate() <= pm.rate_bound_from_q(0.5)

    def test_rates_above_the_representation_error(self):
        # the strong toy's curve has invariance residual 9.6e-8 at 256
        # nodes; a floor of DISTANCE_FLOOR alone rates the quotient
        # 2.0e-10 -> 4.5e-8 of interpolation noise as 50.8.  The curve
        # attracts at about 0.5
        spec = pm.nonlinear_toy(advance_coupling=3.0, y2_coupling=2.0)
        curve, _ = pm.solve_invariant_curve(spec, 0.37, 0.1, CFG)
        rep = pm.attraction_test(spec, 0.37, 0.1, curve, y_radius=0.05)
        assert 0.45 <= rep.max_rate() <= 0.6


def _aperiodic_map():
    """beta is forced at period sqrt 2 as well as 1, so no invariant curve
    of the map is T-periodic."""
    def beta(w, e, x, y):
        return 0.5 * y + e * (np.sin(2 * np.pi * x)
                              + np.sin(2 * np.pi * x / np.sqrt(2.0)))

    return pm.MapSpec(k1=1, k2=1, r1=1.0,
                      alpha=lambda w, e, x, y: np.ones_like(x),
                      beta=beta, periodic_coord=1, period=1.0)


def _half_frequency_map():
    """beta is forced at period 2 = 2T, so the map's invariant curve is
    smooth over the doubled window but not T-periodic."""
    def beta(w, e, x, y):
        return 0.5 * y + e * (np.sin(2 * np.pi * x) + np.sin(np.pi * x))

    return pm.MapSpec(k1=1, k2=1, r1=1.0,
                      alpha=lambda w, e, x, y: np.ones_like(x),
                      beta=beta, periodic_coord=1, period=1.0)


def _unresolved_map():
    """beta is forced at mode 600, which a grid of 512 nodes aliases."""
    return pm.MapSpec(
        k1=1, k2=1, r1=1.0, alpha=lambda w, e, x, y: np.ones_like(x),
        beta=lambda w, e, x, y: 0.5 * y + e * np.sin(1200 * np.pi * x),
        periodic_coord=1, period=1.0)


class TestPeriodicityDefect:
    def test_linear_shear_small(self, e1):
        assert pm.periodicity_defect(e1, 0.25, 0.01, CFG) <= 1e-6

    def test_eps0_tiny(self, e1):
        assert pm.periodicity_defect(e1, 0.25, 0.0, CFG) <= 1e-12

    def test_aperiodic_term_large(self):
        assert pm.periodicity_defect(_aperiodic_map(), 0.25, 0.01, CFG) > 1e-3

    @pytest.mark.parametrize("system", ["e1", "e2"])
    def test_emerges_from_a_seed_that_flips_sign(self, system, request):
        # 0.2 sin(pi x) changes sign under x -> x + 1, so the iteration starts
        # far from T-periodic and only the 2T-periodic grid is imposed
        spec = request.getfixturevalue(system)
        seed = pm.PeriodicGridFn(2.0, 0.2 * np.sin(np.pi * np.arange(512)
                                                   / 256)[:, None])
        xs = np.linspace(0.0, 1.0, 1024, endpoint=False)
        assert np.max(np.abs(seed.eval(xs + 1.0) - seed.eval(xs))) > 0.39
        [(curve, _, _, hit_tol)] = _iterate_to_fixed_point(
            spec, 0.25, [0.01], seed.period, seed.values[None], 1e-12, 100)
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
    """beta(0) is not 0: the curve lies near y = 0.3, where beta_y is about
    0.5, but the preconditioner takes B = beta_y(0) = 0.8.  So the first
    step overshoots the curve, and the update grows twice on the way to it.
    A map with beta(0) = 0 is linearized right by B near eps = 0, and no
    probe of such maps made the update grow above the rounding level."""
    two_pi = 2.0 * np.pi

    def alpha(omega, eps, x, y):
        return np.ones_like(x)

    def beta(omega, eps, x, y):
        return (0.3 + 0.5 * (y - 0.3) - 0.5 * (y - 0.3)**2
                + eps * np.sin(two_pi * x))

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


def _off_origin_map(c0, q, c2):
    """The curve lies near y = c0, where beta_y is about q, but the
    preconditioner takes B = beta_y(0) = q - 2 c2 c0 from the origin."""
    two_pi = 2.0 * np.pi

    def alpha(omega, eps, x, y):
        return 1.0 + 0.1 * y

    def beta(omega, eps, x, y):
        return (c0 + q * (y - c0) + c2 * (y - c0)**2
                + eps * np.sin(two_pi * x))

    return pm.MapSpec(k1=1, k2=1, r1=1.0, alpha=alpha, beta=beta,
                      periodic_coord=1, period=1.0)


def _fails_with(error, reason):
    return pytest.mark.xfail(strict=True, raises=error, reason=reason)


class TestPreconditionerOvershoot:
    """Maps with beta(0) != 0 whose curves plain Anderson pushes found in
    19-54 pushes; B = beta_y(0) overshoots there."""

    @pytest.mark.parametrize("c0, q, c2", [
        pytest.param(0.3, 0.5, -0.5, marks=_fails_with(
            pm.ConvergenceError, "the update grows every other push")),
        pytest.param(0.5, 0.3, -0.5, marks=_fails_with(
            pm.ConvergenceError, "the update grows every other push")),
        pytest.param(0.5, 0.7, -0.2, marks=_fails_with(
            MonotonicityError, "an overshooting push loses the nodes' order")),
    ])
    def test_off_origin_curve_is_solved(self, c0, q, c2):
        _, rep = pm.solve_invariant_curve(_off_origin_map(c0, q, c2), 0.25,
                                          0.01, pm.CurveConfig(n_nodes=64))
        assert rep.converged


class TestRarePaths:
    def test_anderson_history_restarts(self):
        spec = _restarting_map()
        seed = pm.PeriodicGridFn.zeros(1.0, 64, 1)
        [(_, updates, _, hit_tol)] = _iterate_to_fixed_point(
            spec, 0.25, [0.01], seed.period, seed.values[None], 1e-12, 100)
        assert hit_tol and len(updates) == 15
        grew = [k for k in range(1, len(updates)) if updates[k] > updates[k - 1]]
        assert grew == [1, 5]  # pushes 2 and 6 clear the history
        _, report = pm.solve_invariant_curve(
            spec, 0.25, 0.01, pm.CurveConfig(n_nodes=64, tol=1e-12))
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


def _counted(spec):
    """``spec`` with an alpha that records the rows of each call."""
    rows = []

    def alpha(w, e, x, y):
        rows.append(len(x))
        return spec.alpha(w, e, x, y)

    return replace(spec, alpha=alpha), rows


@pytest.fixture
def cold(monkeypatch):
    """Runs a call with no grid large enough for a coarse start."""
    def call(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(pm.invariant_graph, "COARSE_MIN_NODES", 2**62)
            return fn(*args)
    return call


class TestCoarseStart:
    """A cold solve on n >= COARSE_MIN_NODES nodes starts from a solve on
    n // COARSE_FACTOR nodes; only the count of fine pushes may change."""

    N = 8192

    @pytest.mark.parametrize("eps", [1.3e-3, 1.4e-2])
    @pytest.mark.parametrize("omega", [0.25, 0.37])
    @pytest.mark.parametrize("system", ["e1", "e2"])
    def test_matches_the_cold_solve(self, system, omega, eps, cold, request):
        spec, rows = _counted(request.getfixturevalue(system))
        cfg = pm.CurveConfig(n_nodes=self.N, tol=1e-12)
        curve, rep = pm.solve_invariant_curve(spec, omega, eps, cfg)
        fine = rows.count(self.N)
        ref, ref_rep = cold(pm.solve_invariant_curve, spec, omega, eps, cfg)
        assert 1 <= fine <= 2 and fine < rep.iterations
        assert rep.converged and ref_rep.converged
        assert np.max(np.abs(curve.values - ref.values)) <= 1e-12

    def test_few_fine_pushes(self, e2):
        n = 16384
        spec, rows = _counted(e2)
        _, rep = pm.solve_invariant_curve(spec, 0.25, 1e-2,
                                          pm.CurveConfig(n_nodes=n, tol=1e-12))
        coarse = rows.count(n // pm.invariant_graph.COARSE_FACTOR)
        fine = rows.count(n)
        assert coarse >= 5 and 1 <= fine <= 2
        assert rep.iterations == coarse + fine
        # a level of k >= 2 pushes measures k - 2 rates, none on its first or
        # last push
        assert len(rep.measured_rates) == coarse - 2 + max(fine - 2, 0)
        assert rep.converged and rep.final_update <= 1e-12

    def test_unresolved_forcing(self, cold):
        # mode 600 aliases on the 512-node coarse grid, so the coarse curve
        # is no seed and the fine level makes the cold solve's pushes
        spec, rows = _counted(_unresolved_map())
        cfg = pm.CurveConfig(n_nodes=self.N, tol=1e-12)
        curve, _ = pm.solve_invariant_curve(spec, 0.37, 0.01, cfg)
        fine = rows.count(self.N)
        rows.clear()
        ref, _ = cold(pm.solve_invariant_curve, spec, 0.37, 0.01, cfg)
        assert 1 <= fine <= rows.count(self.N)
        assert np.max(np.abs(curve.values - ref.values)) <= 1e-12

    @pytest.mark.parametrize("trust", ["checked", "forced"])
    def test_a_seed_the_fine_level_cannot_finish(self, trust, cold,
                                                 monkeypatch):
        # "checked": the aliased coarse curve fails the resolution check.
        # "forced" lets it past and makes the fine level from it miss tol:
        # the preconditioned step solves this affine map from any seed in
        # two pushes, so that level is held to one.  Either way the fine
        # level is redone from zeros
        spec = _unresolved_map()
        cfg = pm.CurveConfig(n_nodes=self.N, tol=1e-12, max_iter=10)
        ref, ref_rep = cold(pm.solve_invariant_curve, spec, 0.37, 0.01, cfg)
        if trust == "forced":
            estimate = pm.invariant_graph._interp_error_estimate
            iterate = _iterate_to_fixed_point

            def seeded_fine_level_fails(spec, omega, eps, period, values, tol,
                                        max_iter):
                if values.shape[1] == self.N and np.any(values != 0.0):
                    max_iter = 1
                return iterate(spec, omega, eps, period, values, tol,
                               max_iter)

            monkeypatch.setattr(
                pm.invariant_graph, "_interp_error_estimate",
                lambda values: 0.0 if len(values) < self.N else estimate(values))
            monkeypatch.setattr(pm.invariant_graph, "_iterate_to_fixed_point",
                                seeded_fine_level_fails)
        curve, rep = pm.solve_invariant_curve(spec, 0.37, 0.01, cfg)
        assert np.array_equal(curve.values, ref.values)
        assert rep.to_json_dict() == ref_rep.to_json_dict()

    @pytest.mark.parametrize("failure", ["order", "disc", "max_iter",
                                         "sampled_off_disc"])
    def test_a_failed_coarse_level_gives_the_cold_solve(self, e2, failure,
                                                        cold, monkeypatch):
        iterate = _iterate_to_fixed_point

        def coarse_fails(spec, omega, eps, period, values, tol, max_iter):
            if values.shape[1] == self.N:
                return iterate(spec, omega, eps, period, values, tol, max_iter)
            if failure == "order":
                return [MonotonicityError("coarse pushes lost their order")]
            if failure == "disc":
                return [pm.DomainError("coarse push left the disc")]
            if failure == "max_iter":
                max_iter = 2
            [(curve, updates, rates, hit_tol)] = iterate(
                spec, omega, eps, period, values, tol, max_iter)
            if failure == "sampled_off_disc":
                curve = curve.with_values(curve.values + 1.5 * spec.r1)
            return [(curve, updates, rates, hit_tol)]

        cfg = pm.CurveConfig(n_nodes=self.N, tol=1e-12)
        ref, ref_rep = cold(pm.solve_invariant_curve, e2, 0.25, 0.01, cfg)
        monkeypatch.setattr(pm.invariant_graph, "_iterate_to_fixed_point",
                            coarse_fails)
        curve, rep = pm.solve_invariant_curve(e2, 0.25, 0.01, cfg)
        assert np.array_equal(curve.values, ref.values)
        assert rep.to_json_dict() == ref_rep.to_json_dict()

    @pytest.mark.parametrize("spec, omega, eps, max_iter, error", [
        (pm.nonlinear_toy(advance_coupling=3.0), 0.37, 0.2, 100,
         MonotonicityError),
        (pm.linear_shear(), 0.25, 1.2, 100, pm.DomainError),
        (pm.nonlinear_toy(), 0.25, 0.01, 3, pm.ConvergenceError),
    ], ids=["order", "disc", "max_iter"])
    def test_a_failing_solve_fails_alike(self, spec, omega, eps, max_iter,
                                         error, cold):
        cfg = pm.CurveConfig(n_nodes=self.N, max_iter=max_iter)
        with pytest.raises(error):
            cold(pm.solve_invariant_curve, spec, omega, eps, cfg)
        with pytest.raises(error):
            pm.solve_invariant_curve(spec, omega, eps, cfg)

    @pytest.mark.parametrize("n", [256, 4096])
    def test_one_level_below_the_threshold(self, e2, n):
        spec, rows = _counted(e2)
        _, rep = pm.solve_invariant_curve(spec, 0.25, 0.01,
                                          pm.CurveConfig(n_nodes=n, tol=1e-12))
        # every call is a push of the n nodes, but the 5-row origin stencil
        # of this fresh spec after the first and the 512-row residual last
        assert rows == ([n, 5] + [n] * (rep.iterations - 1)
                        + [pm.invariant_graph.RESIDUAL_SAMPLES])

    def test_cold_seeds_cost_no_fine_curve(self, e2, monkeypatch):
        built = []
        zeros = pm.PeriodicGridFn.zeros.__func__

        def record_zeros(cls, period, n_nodes, k2=1):
            built.append(n_nodes)
            return zeros(cls, period, n_nodes, k2)

        def no_norm(self):
            raise AssertionError("a cold seed was normed")

        monkeypatch.setattr(pm.PeriodicGridFn, "zeros",
                            classmethod(record_zeros))
        monkeypatch.setattr(pm.PeriodicGridFn, "sup_norm", no_norm)
        for n in (64, 16384):
            pm.solve_invariant_curve(e2, 0.25, 0.01, pm.CurveConfig(n_nodes=n))
        assert built == [64, 16384 // pm.invariant_graph.COARSE_FACTOR]

    @pytest.mark.parametrize("trusted, eps", [(False, 0.01), (True, 1e-3)],
                             ids=["aperiodic", "half_frequency"])
    def test_doubled_window(self, trusted, eps, cold):
        # 2n = 8192 nodes over 2T start from 512 nodes over 2T; a T-periodic
        # seed would make the test vacuous on a T-periodic map.  The
        # aperiodic map's doubled curve breaks at 2T, so its coarse curve is
        # no seed; the half-frequency one's is smooth, and at this eps
        # resolved well enough to seed the fine level
        bad = _half_frequency_map() if trusted else _aperiodic_map()
        pushes = []

        def alpha(w, e, x, y):
            pushes.append((len(x), float(np.max(x)), float(np.max(np.abs(y)))))
            return bad.alpha(w, e, x, y)

        spec = replace(bad, alpha=alpha)
        cfg = pm.CurveConfig(n_nodes=self.N // 2, tol=1e-12)
        defect = pm.periodicity_defect(spec, 0.25, eps, cfg)
        coarse = [x_max for rows, x_max, _ in pushes
                  if rows == self.N // pm.invariant_graph.COARSE_FACTOR]
        fine = [y_max for rows, _, y_max in pushes if rows == self.N]
        assert coarse and min(coarse) > 1.99
        # the fine level starts from the coarse curve or from zeros
        assert (fine[0] > 0.0) == trusted
        assert defect > 1e-3
        ref = cold(pm.periodicity_defect, spec, 0.25, eps, cfg)
        assert abs(defect - ref) <= 1e-12
