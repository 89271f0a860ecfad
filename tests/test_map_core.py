from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import perimap as pm
from perimap import cli, map_core
from perimap.exceptions import ConfigError, DomainError, EvaluationError


class TestEvalMap:
    def test_linear_shear_at_eps0(self, e1):
        x, y = pm.eval_map(e1, 1.0, 0.0, [0.0], [0.4])
        assert_allclose(x, [1.0], rtol=0, atol=0)
        assert_allclose(y, [0.2], rtol=0, atol=0)

    def test_sine_forcing(self, e1):
        x, y = pm.eval_map(e1, 1.0, 0.01, [0.25], [0.0])
        assert_allclose(x, [1.25])
        assert_allclose(y, [0.01 * np.sin(np.pi / 2)])

    def test_omega_zero_freezes_x(self, e1):
        for x0 in (0.0, 0.3, -1.7):
            x, y = pm.eval_map(e1, 0.0, 0.37, [x0], [0.0])
            assert x[0] == x0
            assert_allclose(y, [0.37 * np.sin(2 * np.pi * x0)])

    def test_domain_error(self, e1):
        with pytest.raises(DomainError):
            pm.eval_map(e1, 1.0, 0.0, [0.0], [1.5])


class TestIterate:
    def test_geometric_decay(self, e1):
        tr = pm.iterate(e1, 0.25, 0.0, [0.0], [0.1], 3)
        assert_allclose(tr.ys[:, 0], [0.1, 0.05, 0.025, 0.0125], rtol=0)
        assert not tr.escaped

    def test_converges_to_invariant_curve(self, e1, shear_oracle):
        phi, _ = shear_oracle(0.25, 0.5, 0.01)
        tr = pm.iterate(e1, 0.25, 0.01, [0.0], [0.0], 80)
        gap = abs(tr.ys[-1, 0] - phi(tr.xs[-1, 0]))
        assert gap < 1e-12

    def test_escape_detected_after_one_step(self):
        spec = pm.linear_shear(q=0.5, r1=0.1)
        tr = pm.iterate(spec, 1.0, 0.2, [0.25], [0.05], 10)
        assert tr.escaped
        assert len(tr) == 2
        assert np.linalg.norm(tr.ys[-1]) > 0.1

    def test_reproducible_bit_for_bit(self, e2):
        a = pm.iterate(e2, 0.3, 0.01, [0.12], [0.05], 25)
        b = pm.iterate(e2, 0.3, 0.01, [0.12], [0.05], 25)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    def test_points_reproduce_under_reevaluation(self, e2):
        tr = pm.iterate(e2, 0.3, 0.01, [0.12], [0.05], 10)
        for j in range(len(tr) - 1):
            x, y = pm.eval_map(e2, 0.3, 0.01, tr.xs[j], tr.ys[j])
            assert np.array_equal(x, tr.xs[j + 1])
            assert np.array_equal(y, tr.ys[j + 1])


class TestOrbits:
    # expanding in y: the rows leave the disc at steps 6 and 3, one never
    # does, and one starts outside it
    SPEC = pm.nonlinear_toy(q=1.5, r1=0.1)
    X = np.array([[0.0], [0.3], [0.7], [0.1]])
    Y = np.array([[0.0], [0.01], [-0.03], [0.2]])

    def test_batch_equals_rows_bit_for_bit(self):
        xs, ys, inside = pm.map_core.orbits(self.SPEC, 0.3, 0.002, self.X,
                                            self.Y, 12)
        lengths = []
        for i in range(3):
            tr = pm.iterate(self.SPEC, 0.3, 0.002, self.X[i], self.Y[i], 12)
            m = len(tr)
            lengths.append(m)
            assert np.array_equal(xs[:m, i], tr.xs)
            assert np.array_equal(ys[:m, i], tr.ys)
            assert np.all(np.isnan(xs[m:, i])) and np.all(np.isnan(ys[m:, i]))
            assert inside[i] == (not tr.escaped)
        assert lengths == [13, 7, 4]
        assert list(inside) == [True, False, False, False]

    def test_rows_outside_are_never_evaluated(self):
        seen = []

        def alpha(w, e, x, y):
            seen.append(np.abs(y).max())
            return self.SPEC.alpha(w, e, x, y)

        spec = replace(self.SPEC, alpha=alpha)
        xs, ys, _ = pm.map_core.orbits(spec, 0.3, 0.002, self.X, self.Y, 12)
        assert max(seen) <= spec.r1
        assert np.all(np.isnan(ys[1:, 3]))

    def test_negative_step_count_rejected(self, e1):
        with pytest.raises(ValueError, match="n must be at least 0, got -1"):
            pm.map_core.orbits(e1, 0.25, 0.0, [[0.0]], [[0.1]], -1)


class TestCheckAssumptions:
    def test_linear_shear_report(self, e1):
        rep = pm.check_assumptions(e1, n_samples=64, seed=1)
        assert abs(rep.q_estimate - 0.5) <= 1e-12
        assert_allclose(rep.beta_y0, [[0.5]], rtol=0, atol=1e-14)
        assert rep.beta_y0_invertible
        assert rep.a2_defect <= 1e-14
        assert rep.periodicity_defect <= 1e-14

    def test_zero_beta(self):
        spec = pm.MapSpec(k1=1, k2=1, r1=1.0,
                          alpha=lambda w, e, x, y: np.ones_like(x),
                          beta=lambda w, e, x, y: np.zeros_like(y))
        rep = pm.check_assumptions(spec, n_samples=32, seed=0)
        assert rep.q_estimate == 0.0
        assert not rep.beta_y0_invertible

    def test_nonlinear_toy_at_eps0(self, e2):
        box = pm.SamplingBox(eps=(0.0, 0.0))
        rep = pm.check_assumptions(e2, box=box, n_samples=64, seed=2)
        assert abs(rep.q_estimate - 0.5) <= 1e-12

    def test_deterministic(self, e2):
        a = pm.check_assumptions(e2, n_samples=32, seed=9)
        b = pm.check_assumptions(e2, n_samples=32, seed=9)
        assert a.q_estimate == b.q_estimate
        assert a.bounds == b.bounds

    def test_a2_consistency_at_fresh_samples(self, e2):
        # a small a2_defect really does mean omega/x independence at eps=0
        rep = pm.check_assumptions(e2, n_samples=64, seed=3)
        assert rep.a2_defect <= 1e-12
        rng = np.random.default_rng(99)
        for _ in range(20):
            w, x = rng.uniform(-1, 2), rng.uniform(-3, 3)
            y = rng.uniform(-0.9, 0.9)
            _, y1 = pm.eval_map(e2, w, 0.0, [x], [y])
            _, y0 = pm.eval_map(e2, 0.0, 0.0, [0.0], [y])
            assert np.max(np.abs(y1 - y0)) <= 1e-12

    def test_periodicity_predicate_literal(self, e1):
        # f(x + T e_k) - f(x) differs only by T in the x output
        rep = pm.check_assumptions(e1, n_samples=32, seed=4)
        assert rep.periodicity_defect <= 1e-12
        rng = np.random.default_rng(5)
        for _ in range(20):
            w, e = rng.uniform(0, 1), rng.uniform(-0.5, 0.5)
            x, y = rng.uniform(-2, 2), rng.uniform(-0.9, 0.9)
            x1, y1 = pm.eval_map(e1, w, e, [x], [y])
            x2, y2 = pm.eval_map(e1, w, e, [x + e1.period], [y])
            assert abs((x2[0] - x1[0]) - e1.period) <= 1e-12
            assert np.max(np.abs(y2 - y1)) <= 1e-12


class TestEscapeMonotonicity:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.01, 0.09), st.integers(1, 30))
    def test_no_points_after_escape(self, y0, n):
        spec = pm.linear_shear(q=2.0, r1=0.1)  # expanding: must escape
        tr = pm.iterate(spec, 0.25, 0.0, [0.0], [y0], n)
        if tr.escaped:
            assert np.all(np.linalg.norm(tr.ys[:-1], axis=1) <= 0.1)
            assert np.linalg.norm(tr.ys[-1]) > 0.1


def torus_shear_2d():
    """k1 = 2, k2 = 2 map, periodic in the second x coordinate."""

    def alpha(w, e, x, y):
        out = np.ones_like(x)
        out[:, :1] = 1.0 + 0.1 * e * np.sin(2 * np.pi * x[:, 1:])
        return out

    def beta(w, e, x, y):
        b = np.empty_like(y)
        b[:, :1] = 0.3 * y[:, :1] + 0.2 * y[:, 1:] \
            + e * np.sin(2 * np.pi * x[:, 1:])
        b[:, 1:] = -0.2 * y[:, :1] + 0.3 * y[:, 1:] \
            + e * np.cos(2 * np.pi * x[:, 1:])
        return b

    return pm.MapSpec(k1=2, k2=2, r1=1.0, alpha=alpha, beta=beta,
                      periodic_coord=2, period=1.0)


class TestHigherDimensional:
    def test_eval_and_iterate(self):
        spec = torus_shear_2d()
        x, y = pm.eval_map(spec, 0.5, 0.0, [0.0, 0.25], [0.1, -0.2])
        assert x.shape == (2,) and y.shape == (2,)
        tr = pm.iterate(spec, 0.5, 0.01, [0.0, 0.0], [0.1, 0.1], 40)
        assert not tr.escaped
        # the linear part is a contraction, so orbits stay small
        assert np.linalg.norm(tr.ys[-1]) < 0.1

    def test_check_assumptions(self):
        spec = torus_shear_2d()
        rep = pm.check_assumptions(spec, n_samples=64, seed=6)
        # ||B||_2 for the rotation-like block [[.3,.2],[-.2,.3]]
        assert abs(rep.q_estimate - np.sqrt(0.13)) <= 1e-12
        assert rep.beta_y0_invertible
        assert rep.a2_defect <= 1e-12
        assert rep.periodicity_defect <= 1e-12

    def test_curve_solver_rejects_k1_2(self):
        spec = torus_shear_2d()
        with pytest.raises(ValueError):
            pm.solve_invariant_curve(spec, 0.5, 0.01)


class TestBuiltins:
    def test_json_roundtrip(self):
        spec = cli.system_from_json(
            {"name": "linear-shear", "params": {"q": 0.25, "period": 2.0}})
        assert spec.period == 2.0
        x, y = pm.eval_map(spec, 1.0, 0.0, [0.0], [0.4])
        assert_allclose(y, [0.1])

    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigError):
            pm.make_system("no-such-system")

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError):
            pm.make_system("linear-shear", bogus=1.0)

    def test_unknown_json_key_rejected(self):
        with pytest.raises(ConfigError):
            cli.system_from_json({"name": "linear-shear", "stuff": 1})


def _const_spec(alpha_value, beta_value):
    """A k1 = k2 = 1 map whose evaluators return the given constants."""
    return pm.MapSpec(
        k1=1, k2=1, r1=1.0,
        alpha=lambda w, e, x, y: np.tile(alpha_value, (len(x), 1)),
        beta=lambda w, e, x, y: np.full_like(y, beta_value))


class TestTypedFailures:
    @pytest.mark.parametrize("fields, message", [
        ({"k1": 0}, "k1 and k2 must be positive"),
        ({"r1": 0.0}, "r1 must be positive"),
        ({"periodic_coord": 2, "period": 1.0}, "periodic_coord must lie"),
        ({"periodic_coord": 1}, "period must be positive"),
    ], ids=["k1-zero", "r1-zero", "coord-above-k1", "no-period"])
    def test_malformed_spec(self, fields, message):
        kw = {"k1": 1, "k2": 1, "r1": 1.0, **fields}
        with pytest.raises(ValueError, match=message):
            pm.MapSpec(alpha=None, beta=None, **kw)

    @pytest.mark.parametrize("fields", [
        {"r1": float("inf")},
        {"r1": float("nan")},
        {"periodic_coord": 1, "period": float("inf")},
        {"periodic_coord": 1, "period": float("nan")},
        {"periodic_coord": 1, "period": -1.0},
    ], ids=["r1-inf", "r1-nan", "period-inf", "period-nan", "period-negative"])
    def test_nonfinite_scale_rejected(self, fields):
        # a period of inf was accepted, and the curve solver then raised a
        # MonotonicityError
        kw = {"k1": 1, "k2": 1, "r1": 1.0, **fields}
        with pytest.raises(ValueError, match="must be positive and finite"):
            pm.MapSpec(alpha=None, beta=None, **kw)

    @pytest.mark.parametrize("builder", [pm.linear_shear, pm.nonlinear_toy])
    @pytest.mark.parametrize("period", [0.0, float("inf")])
    def test_builder_period_checked(self, builder, period):
        # period 0 was a ZeroDivisionError in the builder
        with pytest.raises(ValueError, match="period must be positive"):
            builder(period=period)

    def test_x_of_two_components(self, e1):
        with pytest.raises(EvaluationError, match="x must have 1 components"):
            pm.eval_map(e1, 0.1, 0.0, [0.1, 0.2], [0.1])

    def test_alpha_of_wrong_shape(self):
        spec = _const_spec(np.ones(2), 0.0)
        with pytest.raises(EvaluationError, match=r"alpha \(1, 2\)"):
            pm.eval_map(spec, 0.1, 0.0, [0.1], [0.1])

    def test_nan_beta(self):
        spec = _const_spec(np.ones(1), np.nan)
        with pytest.raises(EvaluationError, match="non-finite"):
            pm.eval_map(spec, 0.1, 0.0, [0.1], [0.1])

    def test_start_outside_the_disc(self, e1):
        with pytest.raises(DomainError, match=r"\|\|y0\|\| = 1.5"):
            pm.iterate(e1, 0.1, 0.0, [0.1], [1.5], 3)

    def test_single_sample_rejected(self, e1):
        with pytest.raises(ValueError, match="n_samples must be at least 2"):
            pm.check_assumptions(e1, n_samples=1)

    def test_box_radius_above_r1(self, e1):
        # the box's y ball reached ||y|| = 2.88 for r1 = 1 and a report was
        # returned; attraction_test refuses the same radius
        calls = []

        def counted(fn):
            def evaluator(*args):
                calls.append(fn)
                return fn(*args)
            return evaluator

        spec = replace(e1, alpha=counted(e1.alpha), beta=counted(e1.beta))
        with pytest.raises(DomainError, match="y_radius = 3 exceeds r1 = 1"):
            pm.check_assumptions(spec, pm.SamplingBox(y_radius=3.0),
                                 n_samples=16)
        assert calls == []

    @pytest.mark.parametrize("radius", [-0.5, 0.0, np.nan, np.inf])
    def test_box_radius_not_positive_and_finite(self, e1, radius):
        # a radius of -0.5 sampled only the sphere ||y|| = 0.5
        def no_call(*args):
            raise AssertionError("an evaluator was called")

        spec = replace(e1, alpha=no_call, beta=no_call)
        with pytest.raises(ValueError, match="y_radius must be positive"):
            map_core.pairwise_q(spec, np.random.default_rng(0), 16, radius)
        with pytest.raises(ValueError, match="y_radius must be positive"):
            pm.check_assumptions(spec, pm.SamplingBox(y_radius=radius),
                                 n_samples=16)


def _strong_toy():
    return pm.nonlinear_toy(advance_coupling=3.0, y2_coupling=2.0)


def _broadcasting_shear():
    """linear-shear written with 1-D slices: right for a float eps, but a
    column eps broadcasts beta to (n, n)."""
    def beta(w, e, x, y):
        return np.column_stack([0.5 * y[:, 0] + e * np.sin(2 * np.pi * x[:, 0])])

    return replace(pm.linear_shear(), beta=beta)


class TestPerRowOmegaEps:
    """omega and eps reach an evaluator as floats or as (n, 1) columns, one
    value per row."""

    @staticmethod
    def _rows(n=16):
        rng = np.random.default_rng(11)
        return (rng.uniform(-1.0, 2.0, (n, 1)), rng.uniform(-1.0, 1.0, (n, 1)),
                rng.uniform(-2.0, 2.0, (n, 1)), rng.uniform(-1.0, 1.0, (n, 1)))

    @pytest.mark.parametrize("builder", [pm.linear_shear, pm.nonlinear_toy,
                                         _strong_toy])
    def test_columns_equal_scalar_rows(self, builder):
        spec = builder()
        W, E, X, Y = self._rows()
        a, b = map_core.eval_batch(spec, W, E, X, Y)
        for i in range(len(X)):
            a_i, b_i = map_core.eval_batch(spec, float(W[i, 0]), float(E[i, 0]),
                                           X[i:i + 1], Y[i:i + 1])
            assert a[i].tobytes() == a_i[0].tobytes()
            assert b[i].tobytes() == b_i[0].tobytes()

    def test_broadcasting_evaluator_is_a_typed_error(self):
        spec = _broadcasting_shear()
        W, E, X, Y = self._rows()
        map_core.eval_batch(spec, 0.5, 0.1, X, Y)  # floats are fine
        with pytest.raises(EvaluationError,
                           match=r"beta \(16, 16\), expected .* \(16, 1\)"):
            map_core.eval_batch(spec, W, E, X, Y)

    @pytest.mark.parametrize("entry", ["certificate", "check-assumptions"])
    def test_broadcasting_evaluator_fails_the_sampled_checks(self, entry):
        with pytest.raises(EvaluationError,
                           match=r"beta \((\d+), \1\), expected"):
            _ENTRY_POINTS[entry](_broadcasting_shear())


def _nan_beyond(fun):
    """``fun`` with its rows at x > 0.7 replaced by nan."""
    return lambda w, e, x, y: np.where(x[:, :1] > 0.7, np.nan, fun(w, e, x, y))


def _flattened(fun):
    """``fun`` returning shape (n,) in place of (n, 1)."""
    return lambda w, e, x, y: fun(w, e, x, y)[:, 0]


_SHEAR = pm.linear_shear()
_MALFORMED = {
    "beta-nan-beyond-0.7": replace(_SHEAR, beta=_nan_beyond(_SHEAR.beta)),
    "alpha-nan-beyond-0.7": replace(_SHEAR, alpha=_nan_beyond(_SHEAR.alpha)),
    "alpha-of-shape-n": replace(_SHEAR, alpha=_flattened(_SHEAR.alpha)),
    "beta-of-shape-n": replace(_SHEAR, beta=_flattened(_SHEAR.beta)),
}
_ZERO_CURVE = pm.PeriodicGridFn.zeros(1.0, 64)
_ENTRY_POINTS = {
    "solve": lambda spec: pm.solve_invariant_curve(
        spec, 0.25, 0.01, pm.CurveConfig(n_nodes=64, tol=1e-10)),
    "residual": lambda spec: pm.invariance_residual(
        spec, 0.25, 0.01, _ZERO_CURVE, 64, 0),
    "attraction": lambda spec: pm.attraction_test(
        spec, 0.25, 0.01, _ZERO_CURVE, 8, 10, seed=0, y_radius=0.1),
    "certificate": lambda spec: pm.certificate(spec, n_samples=16, seed=0),
    "check-assumptions": lambda spec: pm.check_assumptions(
        spec, n_samples=16, seed=0),
}


class TestMalformedEvaluators:
    """Evaluator output that is nan on part of the domain, or of shape (n,)
    in place of (n, 1), raises `EvaluationError` from every sampled path,
    never a LAPACK error, a misleading `MonotonicityError`, a nan result or
    a silently broadcast one."""

    @pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
    @pytest.mark.parametrize("spec", list(_MALFORMED))
    def test_raises_evaluation_error(self, spec, entry):
        with pytest.raises(EvaluationError):
            _ENTRY_POINTS[entry](_MALFORMED[spec])


def _nan_at_origin(fun):
    """``fun`` with its rows at (x, y) = (0, 0) replaced by nan."""
    def at(w, e, x, y):
        origin = np.all(x == 0, axis=1) & np.all(y == 0, axis=1)
        return np.where(origin[:, None], np.nan, fun(w, e, x, y))
    return at


_ALPHA_NAN_AT_ORIGIN = replace(_SHEAR, alpha=_nan_at_origin(_SHEAR.alpha))
_ORIGIN_ENTRY_POINTS = {
    # the seed curves keep every push off y = 0, so only the preconditioner's
    # read of the origin meets the nan
    "solve": lambda spec: pm.uniqueness_test(
        spec, 0.25, 0.01, pm.CurveConfig(n_nodes=64),
        [pm.PeriodicGridFn.constant(1.0, 64, [0.1])] * 2),
    "certificate": _ENTRY_POINTS["certificate"],
    "embedding-params": lambda spec: pm.embedding.embedding_params(
        spec, 0.5, 0.5),
    "conjugacy-residual": lambda spec: pm.conjugacy_residual(
        spec, 0.5, 0.1, 0.01, [0.2], [0.1]),
    "tilde-alpha": lambda spec: pm.tilde_alpha(
        spec, 0.5, 0.1, 0.01, [0.2], [0.1]),
    "check-assumptions": _ENTRY_POINTS["check-assumptions"],
}


class TestOriginFaults:
    """alpha that is nan only at the origin, where the constants alpha(0)
    and beta_y(0) of the model map are read, raises `EvaluationError`."""

    @pytest.mark.parametrize("entry", list(_ORIGIN_ENTRY_POINTS))
    def test_raises_evaluation_error(self, entry):
        with pytest.raises(EvaluationError, match="non-finite"):
            _ORIGIN_ENTRY_POINTS[entry](_ALPHA_NAN_AT_ORIGIN)


class TestOriginCache:
    def test_bounded_over_fresh_specs(self):
        bound = pm.map_core.ORIGIN_CACHE_SIZE
        for q in np.linspace(0.1, 0.5, 40):
            pm.map_core.origin(pm.linear_shear(q=q))
            assert pm.map_core.origin.cache_info().currsize <= bound

    def test_one_stencil_per_certificate(self):
        misses = pm.map_core.origin.cache_info().misses
        pm.certificate(pm.linear_shear(q=0.3), n_samples=16, seed=0)
        assert pm.map_core.origin.cache_info().misses == misses + 1

    def test_read_only(self, e1):
        for constant in pm.map_core.origin(e1):
            with pytest.raises(ValueError, match="read-only"):
                constant[...] = 0.0
