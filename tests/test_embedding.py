import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import perimap as pm
from perimap import embedding as emb
from perimap.exceptions import CertificateError, ConvergenceError


class TestBetaY0:
    def test_linear_shear(self, e1):
        assert_allclose(pm.beta_y0(e1), [[0.5]], rtol=0, atol=1e-13)

    def test_nonlinear_vanishes_at_eps0(self, e2):
        assert_allclose(pm.beta_y0(e2), [[0.5]], rtol=0, atol=1e-10)

    def test_two_dim_linear(self):
        def beta(w, e, x, y):
            return np.stack([y[..., 1], -0.25 * y[..., 0]], axis=-1)

        spec = pm.MapSpec(k1=1, k2=2, r1=1.0,
                          alpha=lambda w, e, x, y: np.ones_like(x), beta=beta)
        assert_allclose(pm.beta_y0(spec), [[0.0, 1.0], [-0.25, 0.0]],
                        rtol=0, atol=1e-12)


class TestTilde:
    def test_linear_beta_makes_tilde_vanish(self, e1):
        ta = pm.tilde_alpha(e1, 0.1, 1.0, 0.0, [0.3], [0.2])
        tb = pm.tilde_beta(e1, 0.1, 1.0, 0.0, [0.3], [0.2])
        assert_allclose(ta, np.zeros(3), atol=1e-14)
        assert_allclose(tb, [0.0], atol=1e-14)

    def test_sine_term_at_quarter(self, e1):
        tb = pm.tilde_beta(e1, 0.1, 1.0, 1.0, [0.25], [0.0])
        assert_allclose(tb, [0.1], rtol=1e-12)

    def test_a2_forces_zero_at_origin(self, e2):
        for lam in (0.5, 0.125):
            tb = pm.tilde_beta(e2, lam, 0.7, 0.0, [1.3], [0.0])
            assert_allclose(tb, [0.0], atol=1e-12)


class TestBump:
    def test_plateau_exact_one(self):
        b = pm.BumpSpec(1.0)
        assert pm.bump_psi(b, 0.5, 0.0, [0.0]) == 1.0
        assert pm.bump_psi(b, 0.0, 0.49, [0.3]) == 1.0

    def test_outside_exact_zero(self):
        b = pm.BumpSpec(1.0)
        assert pm.bump_psi(b, 3.0, 0.0, [0.0]) == 0.0
        assert pm.bump_psi(b, 0.5, 1.5, [0.0]) == 0.0
        assert pm.bump_psi(b, 0.5, 0.0, [1.2]) == 0.0

    def test_transition_value(self):
        b = pm.BumpSpec(1.0)
        v = pm.bump_psi(b, -0.5, 0.0, [0.0])
        assert 0.0 < v < 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-3, 4), st.floats(-2, 2), st.floats(-2, 2))
    @example(w=-7.83834915567464e-16, e=0.0, y=0.0)  # smoothstep rounds above 1
    def test_range(self, w, e, y):
        v = pm.bump_psi(pm.BumpSpec(1.0), w, e, [y])
        assert 0.0 <= v <= 1.0

    def test_c1_at_breakpoints(self):
        # one-sided difference mismatch across every transition breakpoint
        b = pm.BumpSpec(1.0)
        h = 1e-8

        def mismatch(f, t):
            left = (f(t) - f(t - h)) / h
            right = (f(t + h) - f(t)) / h
            return abs(left - right)

        worst = 0.0
        for t in b.omega_breaks:
            worst = max(worst, mismatch(lambda w: pm.bump_psi(b, w, 0.0, [0.0]), t))
        for t in b.eps_breaks:
            worst = max(worst, mismatch(lambda e: pm.bump_psi(b, 0.5, e, [0.0]), t))
        for t in b.y_breaks:
            worst = max(worst, mismatch(lambda y: pm.bump_psi(b, 0.5, 0.0, [y]), t))
        assert worst <= 1e-6


class TestFAndG:
    def test_first_two_rows_identity(self, e2):
        params = emb.embedding_params(e2, 0.25, 0.5)
        out = pm.eval_F_lambda(e2, params, 0.7, 0.3, [0.2], [0.5])
        assert out[0] == 0.7 and out[1] == 0.3
        out = pm.eval_G_lambda(e2, params, 0.7, 0.3, [0.2], [0.5])
        assert out[0] == 0.7 and out[1] == 0.3

    def test_g_linear_outside_bump(self, e2):
        params = emb.embedding_params(e2, 0.25, 0.5)
        # lam*omega = 10 is far outside the omega window
        out = pm.eval_G_lambda(e2, params, 40.0, 0.3, [0.2], [0.5])
        lin = np.concatenate([params.A_lambda @ [40.0, 0.3, 0.2],
                              params.B @ [0.5]])
        assert np.array_equal(out, lin)

    def test_g_equals_f_on_plateau(self, e1):
        params = emb.embedding_params(e1, 0.1, 0.5)
        for w, e, x, y in [(1.0, 0.1, 0.2, 0.1), (5.0, -0.2, -1.0, 0.3)]:
            # lam*omega in [0,1], |eps| < r1/2, ||y|| <= r1/2: bump equals 1
            f = pm.eval_F_lambda(e1, params, w, e, [x], [y])
            g = pm.eval_G_lambda(e1, params, w, e, [x], [y])
            assert_allclose(f, g, rtol=0, atol=0)

    def test_origin_fixed_at_zero_parameters(self, e2):
        params = emb.embedding_params(e2, 0.25, 0.5)
        for x in (0.0, 1.1, -2.3):
            out = pm.eval_G_lambda(e2, params, 0.0, 0.0, [x], [0.0])
            assert_allclose(out, [0.0, 0.0, x, 0.0], atol=1e-12)


class TestConjugacy:
    def test_identity_at_lambda_one(self, e1):
        assert pm.conjugacy_residual(e1, 1.0, 0.7, 0.3, [0.2], [0.5]) == 0.0

    def test_exact_for_linear_shear(self, e1):
        rng = np.random.default_rng(1)
        for _ in range(30):
            w, e = rng.uniform(0, 1), rng.uniform(-0.1, 0.1)
            x, y = rng.uniform(-2, 2), rng.uniform(-0.99, 0.99)
            assert pm.conjugacy_residual(e1, 0.25, w, e, [x], [y]) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 1.0), st.floats(0, 1), st.floats(-0.1, 0.1),
           st.floats(-2, 2), st.floats(-0.99, 0.99))
    def test_identity_any_scale(self, lam, w, e, x, y):
        e2 = pm.nonlinear_toy()
        assert pm.conjugacy_residual(e2, lam, w, e, [x], [y]) <= 1e-12


class TestInvertG:
    def test_linear_region_single_step(self, e1):
        params = emb.embedding_params(e1, 0.05, 0.5)
        target = np.array([50.0, 0.0, 0.3, 0.2])  # lam*omega far outside window
        z = pm.invert_G(e1, params, target, tol=1e-13)
        assert_allclose(np.linalg.solve(
            np.block([[params.A_lambda, np.zeros((3, 1))],
                      [np.zeros((1, 3)), params.B]]), target), z, atol=1e-12)

    def test_roundtrip(self, e1):
        params = emb.embedding_params(e1, 0.05, 0.5)
        rng = np.random.default_rng(5)
        for _ in range(25):
            z0 = np.array([rng.uniform(-1, 15), rng.uniform(-0.4, 0.4),
                           rng.uniform(-2, 2), rng.uniform(-0.9, 0.9)])
            target = pm.eval_G_lambda(e1, params, z0[0], z0[1], z0[2:3], z0[3:4])
            z = pm.invert_G(e1, params, target, tol=1e-12)
            assert np.linalg.norm(z - z0) <= 1e-10

    def test_nonconvergence_above_threshold(self):
        # strong x-coupling at lam = 1 breaks the contraction regime
        spec = pm.linear_shear(q=0.5, coupling=60.0)
        params = emb.embedding_params(spec, 1.0, 0.5)
        target = np.array([0.5, 0.4, 0.1, 0.1])
        with pytest.raises(ConvergenceError):
            pm.invert_G(spec, params, target, tol=1e-12, max_iter=60)


class TestLambda0:
    def test_linear_shear_frozen_eps_passes_everywhere(self, e1):
        lam0 = pm.estimate_lambda0(e1, 0.1, eps_range=(0.0, 0.0),
                                   n_samples=32, seed=1)
        assert lam0 == 1.0

    def test_delta_zero_fails(self, e1):
        assert pm.estimate_lambda0(e1, 0.0) is None

    def test_nonlinear_toy_monotone_shrinkage(self, e2):
        lam0 = pm.estimate_lambda0(e2, 0.1, n_samples=32, seed=1)
        assert lam0 is not None and lam0 > 0
        sup_at = {}
        for lam in (lam0, lam0 / 2):
            sa, sb = emb._tilde_sup(e2, lam, (-1.0, 1.0), (0.0, 1.0), 32, 1)
            sup_at[lam] = max(sa, sb)
        assert sup_at[lam0 / 2] <= sup_at[lam0]
        assert sup_at[lam0] <= 0.1


class TestSpectralGap:
    def test_mu_formula(self, e1):
        params = emb.embedding_params(e1, 0.25, 0.5)
        mu, _ = pm.spectral_gap(params)
        assert mu == 0.75

    def test_identity_B_rejected(self):
        spec = pm.MapSpec(k1=1, k2=1, r1=1.0,
                          alpha=lambda w, e, x, y: np.ones_like(x),
                          beta=lambda w, e, x, y: 1.0 * y)
        params = emb.embedding_params(spec, 0.25, 1.0)
        _, ok = pm.spectral_gap(params)
        assert not ok

    def test_certified_gap_at_lambda0(self, e1):
        cert = pm.certificate(e1, n_samples=32, seed=1)
        sv = np.linalg.svd(cert.A_lambda, compute_uv=False)
        assert 1.0 / sv[-1] <= 1.0 / 0.75
        mu, ok = pm.spectral_gap(cert)
        assert ok and mu == 0.75


class TestCertificate:
    def test_constant_relations_exact(self, e1):
        cert = pm.certificate(e1, n_samples=32, seed=1)
        assert cert.eps0 == e1.r1 * cert.lambda0**2 / 2.0
        assert cert.r0 == cert.lambda0 * e1.r1
        assert cert.q < 1.0 and np.linalg.norm(cert.B, 2) <= cert.q

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_q_raised_to_beta_y0_norm(self, seed):
        # the sampled pairs see the cubic term and undershoot ||beta_y(0)||
        spec = pm.MapSpec(
            k1=1, k2=1, r1=1.0, alpha=lambda w, e, x, y: np.ones_like(x),
            beta=lambda w, e, x, y: (0.5 * y - 0.2 * y**3
                                     + e * np.sin(2 * np.pi * x)),
            periodic_coord=1, period=1.0)
        norm_B = np.linalg.norm(pm.beta_y0(spec), 2)
        sampled = pm.check_assumptions(spec, n_samples=32, seed=seed)
        assert sampled.q_estimate < norm_B
        cert = pm.certificate(spec, n_samples=32, seed=seed)
        assert cert.q == norm_B

    def test_expanding_map_refused(self):
        spec = pm.linear_shear(q=1.5)
        with pytest.raises(CertificateError):
            pm.certificate(spec, n_samples=32, seed=1)

    def test_json_serialization(self, e1):
        cert = pm.certificate(e1, n_samples=32, seed=1)
        d = cert.to_json_dict()
        assert d["eps0"] == cert.eps0 and d["lambda0"] == cert.lambda0


class TestCertificateFailures:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_derivative_above_one_at_zero(self, seed):
        # ||beta_y(0)|| = 0.5 + 0.6 while sampled pairs, which see tanh
        # saturated, give q near 0.5
        def beta(omega, eps, x, y):
            return (0.5 * y + 6e-4 * np.tanh(y / 1e-3)
                    + eps * np.sin(2.0 * np.pi * x))

        spec = pm.MapSpec(k1=1, k2=1, r1=1.0,
                          alpha=lambda omega, eps, x, y: np.ones_like(x),
                          beta=beta, periodic_coord=1, period=1.0)
        with pytest.raises(CertificateError, match=r"\|\|beta_y\(0\)\|\|"):
            pm.certificate(spec, seed=seed)

    def test_no_ladder_scale(self, e1):
        with pytest.raises(CertificateError, match="no ladder scale"):
            pm.certificate(e1, delta=1e-9, n_samples=32, seed=1)
