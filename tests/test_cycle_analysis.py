import numpy as np
import pytest
from numpy.testing import assert_allclose

import perimap as pm
from perimap import cycle_analysis as ca
from perimap.exceptions import CertificateError

KAPPA_OVER_E = 0.5 / np.e


class TestFixedPoint:
    def test_converges_to_cycle(self, handle):
        u, _, _ = pm.find_fixed_point(handle, [0.1])
        assert np.max(np.abs(u)) <= 1e-10

    def test_fixed_guess_returns_immediately(self, handle):
        u0, _, _ = pm.find_fixed_point(handle, [0.1])
        u1, _, _ = pm.find_fixed_point(handle, u0)
        assert np.array_equal(u0, u1)

    def test_missing_return_surfaces_from_newton(self, handle):
        # a horizon shorter than the return lag makes P undefined everywhere;
        # the failure must surface instead of being masked by the iteration
        from dataclasses import replace

        short = replace(handle, max_time=0.5)
        with pytest.raises(pm.NoReturnError):
            pm.find_fixed_point(short, [0.1])


class TestJacobian:
    def test_matches_logistic_derivative(self, handle):
        u, _, _ = pm.find_fixed_point(handle, [0.0])
        J, eigs, rich = pm.jacobian_and_spectrum(handle, u)
        assert abs(J[0, 0] - KAPPA_OVER_E) <= 1e-6
        assert rich <= 1e-5
        assert abs(abs(eigs[0]) - KAPPA_OVER_E) <= 1e-6

    def test_kappa_zero_not_certifiable(self):
        sys_ = pm.polar_hybrid(kappa=0.0)
        h = pm.prepare_handle(sys_)
        rep = ca.analyze_cycle(h)
        assert abs(rep.jacobian[0, 0]) <= 1e-6
        assert not rep.spectrum_ok  # zero eigenvalue excluded

    def test_kappa_e_boundary_not_certifiable(self):
        sys_ = pm.polar_hybrid(kappa=float(np.e))
        h = pm.prepare_handle(sys_)
        u, _, _ = pm.find_fixed_point(h, [0.0])
        J, eigs, _ = pm.jacobian_and_spectrum(h, u)
        assert abs(J[0, 0] - 1.0) <= 1e-5
        moduli = np.abs(np.array(eigs))
        assert not np.all(moduli <= 1.0 - ca.EIG_CEIL_MARGIN)

    def test_expanding_jump_not_certifiable(self):
        sys_ = pm.polar_hybrid(kappa=1.2 * float(np.e))
        h = pm.prepare_handle(sys_)
        rep = ca.analyze_cycle(h)
        assert rep.spectral_radius > 1.0
        assert not rep.spectrum_ok

    def test_chart_rescaling_similarity_invariance(self, e3):
        # reparametrizing the chart by u -> 2u conjugates the Jacobian
        sys2 = pm.HybridSystem(
            dim=2, X=e3.X, g=e3.g, Delta=e3.Delta, H=e3.H,
            D=lambda u: e3.D(2.0 * np.asarray(u, float)),
            D_inverse=lambda x: 0.5 * e3.D_inverse(x),
            T_g=0.8, r1=0.25)
        h1 = pm.prepare_handle(e3)
        h2 = pm.prepare_handle(sys2)
        _, eig1, _ = pm.jacobian_and_spectrum(h1, np.zeros(1))
        _, eig2, _ = pm.jacobian_and_spectrum(h2, np.zeros(1))
        assert abs(abs(eig1[0]) - abs(eig2[0])) <= 1e-8


class TestAdaptedNorm:
    def test_scalar_case(self):
        an = pm.adapted_norm(np.array([[KAPPA_OVER_E]]))
        assert an.m == 1
        assert abs(an.induced_sampled - KAPPA_OVER_E) <= 1e-12
        assert an.induced_bound < 1.0

    def test_nilpotent_needs_second_power(self):
        an = pm.adapted_norm(np.array([[0.0, 4.0], [0.0, 0.0]]))
        assert an.m == 2
        assert an.induced_bound < 1.0
        assert an.induced_sampled < 1.0

    def test_scaled_rotation(self):
        th = 0.7
        B = 0.9 * np.array([[np.cos(th), -np.sin(th)],
                            [np.sin(th), np.cos(th)]])
        an = pm.adapted_norm(B)
        assert an.induced_sampled <= 0.9 + 1e-9

    def test_sampled_certificate_holds(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((3, 3))
        B *= 0.8 / np.max(np.abs(np.linalg.eigvals(B)))
        an = pm.adapted_norm(B)
        v = rng.standard_normal((10_000, 3))
        q_cert = max(an.induced_bound, an.induced_sampled)
        assert np.all(an.norm(v @ B.T) <= q_cert * an.norm(v) * (1 + 1e-12))

    def test_unstable_rejected(self):
        with pytest.raises(CertificateError):
            pm.adapted_norm(np.array([[1.01]]))

    def test_spectrum_consistency(self, handle):
        rep = ca.analyze_cycle(handle)
        det = abs(np.linalg.det(rep.jacobian))
        prod = np.prod(np.abs(np.array(rep.eigenvalues)))
        assert abs(det - prod) <= 1e-8


class TestCertifyContraction:
    def test_near_derivative_at_small_radius(self, handle):
        an = pm.adapted_norm(np.array([[KAPPA_OVER_E]]))
        q, ok = pm.certify_contraction(handle, 0.004, (0.0, 0.0), an,
                                       n_samples=20, seed=2)
        assert ok
        assert abs(q - KAPPA_OVER_E) <= 1e-3

    def test_margin_at_forced_range(self, handle):
        an = pm.adapted_norm(np.array([[KAPPA_OVER_E]]))
        q, ok = pm.certify_contraction(handle, 0.05, (-0.01, 0.01), an,
                                       n_samples=16, seed=2)
        assert ok and q < 0.5

    def test_expanding_jump_fails(self):
        sys_ = pm.polar_hybrid(kappa=1.2 * float(np.e))
        h = pm.prepare_handle(sys_)
        an = pm.AdaptedNorm(powers=np.eye(1)[None, :, :], rho_hat=1.0,
                            induced_bound=1.0, induced_sampled=1.0)
        q, ok = pm.certify_contraction(h, 0.05, (0.0, 0.0), an,
                                       n_samples=12, seed=2)
        assert not ok

    def test_largest_contracting_radius(self, handle):
        an = pm.adapted_norm(np.array([[KAPPA_OVER_E]]))
        r, q = ca.largest_contracting_radius(handle, (0.0, 0.0), an,
                                             n_samples=12, seed=2)
        assert r == handle.sys.r1  # the whole chart contracts here
        assert q < 1.0


def _per_pair_q(handle, u_range, eps_range, norm, n_samples, seed):
    """q of `certify_contraction` rebuilt with one flow per sample pair."""
    from perimap.sampling import ball_points, latin_hypercube, scale_to

    rng = np.random.default_rng(seed)
    k2 = handle.sys.k2
    u = latin_hypercube(rng, n_samples, 2 + 2 * k2)
    taus = scale_to(u[:, 0], 0.0, handle.sys.T_g)
    epses = scale_to(u[:, 1], *eps_range)
    u1 = ball_points(u[:, 2:2 + k2], u_range)
    u2 = ball_points(u[:, 2 + k2:], u_range)
    degenerate = np.linalg.norm(u1 - u2, axis=1) < 1e-12
    u2[degenerate] += u_range * 0.1
    q = 0.0
    for tau, e, a, b in zip(taus, epses, u1, u2):
        _, outs = pm.p_eps_batch(handle, [tau, tau], np.vstack([a, b]),
                                 float(e))
        q = max(q, norm.norm(outs[0] - outs[1]) / norm.norm(a - b))
    return q


class TestContractionFlow:
    ARGS = (0.25, (-0.01, 0.015))

    def test_q_matches_per_pair_flows(self, handle):
        an = pm.adapted_norm(np.array([[KAPPA_OVER_E]]))
        q, ok = pm.certify_contraction(handle, *self.ARGS, an, n_samples=8,
                                       seed=3)
        assert ok
        assert abs(q - _per_pair_q(handle, *self.ARGS, an, 8, 3)) <= 1e-9

    def test_one_flow(self, handle, monkeypatch):
        calls = []
        flow_batch = pm.poincare.flow_batch

        def counted(*args, **kwargs):
            calls.append(len(args[2]))
            return flow_batch(*args, **kwargs)

        monkeypatch.setattr(pm.poincare, "flow_batch", counted)
        an = pm.adapted_norm(np.array([[KAPPA_OVER_E]]))
        pm.certify_contraction(handle, *self.ARGS, an, n_samples=8, seed=3)
        assert calls == [16]


class TestJacobianFlow:
    def test_one_flow(self, handle, monkeypatch):
        calls = []
        flow_batch = pm.poincare.flow_batch

        def counted(*args, **kwargs):
            calls.append(len(args[2]))
            return flow_batch(*args, **kwargs)

        monkeypatch.setattr(pm.poincare, "flow_batch", counted)
        J, _, richardson = ca.jacobian_and_spectrum(handle, np.zeros(1))
        assert calls == [4]
        assert abs(J[0, 0] - KAPPA_OVER_E) <= 1e-8
        assert richardson <= 1e-6


class TestAnalyzePipeline:
    def test_T_star_bitwise_time_to_return(self, handle, monkeypatch):
        stencils = []
        p_stencil = ca._p_stencil

        def recorded(handle_, rows):
            out = p_stencil(handle_, rows)
            stencils.append((np.atleast_2d(rows), *out))
            return out

        monkeypatch.setattr(ca, "_p_stencil", recorded)
        rep = ca.analyze_cycle(handle)
        # T* and the residual are lane 0 of the last Newton stencil flow,
        # the one before the Jacobian's
        rows, times, outs = stencils[-2]
        assert np.array_equal(rows[0], rep.u_star)
        assert rep.T_star == times[0]
        assert rep.fixed_point_residual == np.linalg.norm(outs[0] - rows[0])
        assert rep.fixed_point_residual <= ca.NEWTON_TOL
        # alone, the same return agrees to the batch-composition bound
        x = np.asarray(handle.sys.D(rep.u_star[None, :]), float)[0]
        assert (abs(rep.T_star - pm.time_to_return(handle, 0.0, x, 0.0))
                <= 10 * handle.rtol)

    def test_full_report(self, handle):
        rep = ca.analyze_cycle(handle)
        assert np.max(np.abs(rep.u_star)) <= 1e-10
        assert abs(rep.T_star - 1.0) <= 1e-9
        assert abs(rep.jacobian[0, 0] - KAPPA_OVER_E) <= 1e-6
        assert rep.spectrum_ok
        assert abs(rep.transversality - 2 * np.pi) <= 1e-6
        assert rep.adapted is not None
        d = rep.to_json_dict()
        assert d["spectrum_ok"] is True

    def test_contraction_in_the_adapted_norm(self, handle):
        args = {"u_range": 0.25, "eps_range": (0.0, 0.01), "n_samples": 8,
                "seed": 3}
        rep = ca.analyze_cycle(handle, contraction=args)
        q, ok = pm.certify_contraction(handle, norm=rep.adapted, **args)
        assert rep.q_certified == q and rep.q_ok == ok
        assert rep.q_ok


class TestNewtonFailures:
    @pytest.mark.parametrize("f, u0, phrase", [
        # Newton on cbrt doubles |u| every step, so the residual grows
        (np.cbrt, 1.0, "Newton diverged"),
        # P(u) = u + 2**-30, exact at the stencil points around 0: the
        # difference quotient is exactly 1, so the Newton matrix is zero
        (lambda u: np.full_like(u, 2.0**-30), 0.0, "singular Newton step"),
        # P(u) = u + exp(u): the residual falls by e per step, too slowly
        (np.exp, 0.0, "no fixed point after"),
    ], ids=["diverged", "singular", "max-iter"])
    def test_typed_failure(self, handle, monkeypatch, f, u0, phrase):
        def fake(handle_, rows):
            rows = np.atleast_2d(rows)
            return np.zeros(len(rows)), rows + f(rows)

        monkeypatch.setattr(ca, "_p_stencil", fake)
        with pytest.raises(pm.ConvergenceError, match=phrase):
            pm.find_fixed_point(handle, [u0])
