"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

import perimap as pm
from perimap import cycle_analysis as ca
from perimap import embedding as emb


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {n}] FAIL  {desc}")
        raise
    print(f"[criterion {n}] PASS  {desc}")


def test_criterion_1_closed_form_curve(e1, shear_oracle):
    with criterion(1, "closed-form curve of the linear shear, < 1 s"):
        phi, c = shear_oracle(0.25, 0.5, 0.01)
        cfg = pm.CurveConfig(n_nodes=256, tol=1e-12)
        t0 = time.perf_counter()
        curve, report = pm.solve_invariant_curve(e1, 0.25, 0.01, cfg)
        elapsed = time.perf_counter() - t0
        xs = np.linspace(0.0, 1.0, 4096, endpoint=False)
        sup_err = float(np.max(np.abs(curve.eval(xs)[:, 0] - phi(xs))))
        phi0 = float(curve.eval(0.0)[0])
        assert report.converged
        assert sup_err <= 1e-8, f"sup error {sup_err:.3g}"
        assert abs(phi0 - (-0.008)) <= 1e-8
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_invariance(e2, handle, wrapped):
    with criterion(2, "invariance residual <= 1e-9 at 1000 off-node samples, "
                      "< 30 s including ODE returns"):
        t0 = time.perf_counter()
        cfg = pm.CurveConfig(n_nodes=256, tol=1e-12)
        curve2, rep2 = pm.solve_invariant_curve(e2, 0.25, 0.01, cfg)
        res2 = pm.invariance_residual(e2, 0.25, 0.01, curve2, 1000, 17)

        hcfg = pm.CurveConfig(n_nodes=256, tol=1e-12, max_iter=60,
                              preimage_tol=1e-11)
        curve_h, rep_h = pm.solve_invariant_curve(wrapped, 1.0, 0.01, hcfg)
        res_h = pm.invariance_residual(wrapped, 1.0, 0.01, curve_h, 1000, 17)
        elapsed = time.perf_counter() - t0
        assert rep2.converged and rep_h.converged
        assert res2 <= 1e-9, f"nonlinear-toy residual {res2:.3g}"
        assert res_h <= 1e-9, f"hybrid residual {res_h:.3g}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_attraction_rate(e1, e2):
    with criterion(3, "attraction factors: exact 0.5 for the linear shear, "
                      "<= q + 2(1-q)/3 for the nonlinear toy"):
        r0_e1 = pm.certificate(e1, n_samples=32, seed=1).r0
        curve1, _ = pm.solve_invariant_curve(e1, 0.25, 0.0,
                                             pm.CurveConfig(n_nodes=256))
        rep1 = pm.attraction_test(e1, 0.25, 0.0, curve1, n_trajectories=20,
                                  n_steps=50, seed=11, y_radius=r0_e1)
        rates = rep1.rates[np.isfinite(rep1.rates)]
        assert rates.size >= 10
        assert np.max(np.abs(rates - 0.5)) <= 1e-12
        assert rep1.escaped == 0

        r0_e2 = pm.certificate(e2, n_samples=32, seed=1).r0
        curve2, _ = pm.solve_invariant_curve(e2, 0.25, 0.01,
                                             pm.CurveConfig(n_nodes=256))
        rep2 = pm.attraction_test(e2, 0.25, 0.01, curve2, n_trajectories=20,
                                  n_steps=50, seed=11, y_radius=r0_e2)
        bound = pm.rate_bound_from_q(0.5)
        assert bound == pytest.approx(0.5 + 2.0 * (1.0 - 0.5) / 3.0)
        assert rep2.max_rate() <= bound
        assert rep2.escaped == 0
        assert rep2.final_max_distance <= 1e-6


def test_criterion_4_emergent_periodicity(e1):
    with criterion(4, "doubled-window periodicity: emergent for the shear, "
                      "absent for the aperiodic counterexample"):
        cfg = pm.CurveConfig(n_nodes=256, tol=1e-12)
        defect = pm.periodicity_defect(e1, 0.25, 0.01, cfg)
        assert defect <= 1e-6, f"defect {defect:.3g}"

        def beta(w, e, x, y):
            return 0.5 * y + e * (np.sin(2 * np.pi * x)
                                  + np.sin(2 * np.pi * x / np.sqrt(2.0)))

        violating = pm.MapSpec(
            k1=1, k2=1, r1=1.0,
            alpha=lambda w, e, x, y: np.ones_like(x),
            beta=beta, periodic_coord=1, period=1.0)
        bad = pm.periodicity_defect(violating, 0.25, 0.01, cfg)
        assert bad > 1e-3, f"counterexample defect only {bad:.3g}"


def test_criterion_5_uniqueness(e2):
    with criterion(5, "distinct seed curves converge within 1e-9"):
        cfg = pm.CurveConfig(n_nodes=256, tol=1e-12)
        seeds = (pm.PeriodicGridFn.zeros(1.0, 256),
                 pm.PeriodicGridFn.constant(1.0, 256, [0.05]))
        gap = pm.uniqueness_test(e2, 0.25, 0.01, cfg, seeds)
        assert gap <= 1e-9, f"seed gap {gap:.3g}"


def test_criterion_6_eps_scaling(e1, e2):
    with criterion(6, "sup||phi_eps|| / eps matches 1/sqrt(1.25) and is "
                      "eps-stable"):
        cfg = pm.CurveConfig(n_nodes=256, tol=1e-12)
        rows = pm.continuity_in_eps(e1, 0.25, [1e-3, 1e-2], cfg)
        target = 1.0 / np.sqrt(1.25)
        ratios = [r.ratio for r in rows]
        for r in ratios:
            assert abs(r - target) / target <= 1e-6
        assert abs(ratios[0] - ratios[1]) / target <= 1e-6

        rows2 = pm.continuity_in_eps(e2, 0.25, [1e-3, 1e-2], cfg)
        lo, hi = pm.invariant_graph.ratio_band(rows2)
        assert hi / lo <= 1.10


def test_criterion_7_hybrid_pipeline(handle, wrapped):
    with criterion(7, "hybrid pipeline: fixed point, P'(0), return-time "
                      "shift, forced T_g-periodic curve with stable scaling"):
        u_star, *_ = pm.find_fixed_point(handle, [0.1])
        assert np.max(np.abs(u_star)) <= 1e-10

        J, _, _ = pm.jacobian_and_spectrum(handle, u_star)
        assert abs(J[0, 0] - 0.5 / np.e) <= 1e-6

        worst = 0.0
        for eps in (1e-3, 1e-2):
            for tau in np.linspace(0.0, 1.6, 5):
                t0 = pm.time_to_return(handle, tau, [1.05, 0.0], eps)
                tp = pm.time_to_return(handle, tau + 0.8, [1.05, 0.0], eps)
                worst = max(worst, abs(tp - t0 - 0.8))
        assert worst <= 1e-8, f"return-shift defect {worst:.3g}"

        cfg = pm.CurveConfig(n_nodes=128, tol=1e-11, max_iter=60,
                             preimage_tol=1e-11)
        sups = {}
        for eps in (1e-3, 1e-2):
            defect = pm.periodicity_defect(wrapped, 1.0, eps, cfg)
            assert defect <= 1e-6, f"eps={eps}: defect {defect:.3g}"
            curve, rep = pm.solve_invariant_curve(wrapped, 1.0, eps, cfg)
            assert rep.converged
            sups[eps] = curve.sup_norm()
        ratio = (sups[1e-2] / 1e-2) / (sups[1e-3] / 1e-3)
        assert abs(ratio - 1.0) <= 0.10, f"scaling ratio {ratio:.4f}"


def test_criterion_8_embedding_identities(e2, e1):
    with criterion(8, "conjugacy/bump/inversion identities and exact "
                      "certificate constants"):
        rng = np.random.default_rng(42)
        worst = 0.0
        for lam in (1.0, 0.5, 0.25):
            for _ in range(100):
                w = rng.uniform(0.0, 1.0)
                e = rng.uniform(-0.1, 0.1)
                x = rng.uniform(-2.0, 2.0)
                y = rng.uniform(-0.99, 0.99)
                worst = max(worst, pm.conjugacy_residual(e2, lam, w, e,
                                                         [x], [y]))
        assert worst <= 1e-12, f"conjugacy residual {worst:.3g}"

        h = 1e-8  # across the breakpoints of the bump with r1 = 1

        def mismatch(f, t):
            return abs((f(t) - f(t - h)) / h - (f(t + h) - f(t)) / h)

        c1 = 0.0
        for t in (-1.0, 0.0, 1.0, 2.0):
            c1 = max(c1, mismatch(lambda w: pm.bump_psi(1.0, w, 0.0, [0.0]), t))
        for t in (-1.0, -0.5, 0.5, 1.0):
            c1 = max(c1, mismatch(lambda s: pm.bump_psi(1.0, 0.5, s, [0.0]), t))
        for t in (0.5, 1.0):
            c1 = max(c1, mismatch(lambda s: pm.bump_psi(1.0, 0.5, 0.0, [s]), t))
        assert c1 <= 1e-6, f"bump C1 defect {c1:.3g}"

        params = emb.embedding_params(e1, 0.05, 0.5)
        worst_rt = 0.0
        for _ in range(50):
            z0 = np.array([rng.uniform(-1, 15), rng.uniform(-0.4, 0.4),
                           rng.uniform(-2, 2), rng.uniform(-0.9, 0.9)])
            target = pm.eval_G_lambda(e1, params, z0[0], z0[1],
                                      z0[2:3], z0[3:4])
            z = pm.invert_G(e1, params, target, tol=1e-12)
            worst_rt = max(worst_rt, float(np.linalg.norm(z - z0)))
        assert worst_rt <= 1e-10, f"inversion roundtrip {worst_rt:.3g}"

        cert = pm.certificate(e1, n_samples=32, seed=1)
        assert cert.eps0 == e1.r1 * cert.lambda0**2 / 2.0
        assert cert.r0 == cert.lambda0 * e1.r1


def test_criterion_9_assumption_predicates(e1):
    with criterion(9, "assumption predicates on the linear shear"):
        rep = pm.check_assumptions(e1, n_samples=128, seed=1)
        assert abs(rep.q_estimate - 0.5) <= 1e-12
        assert rep.a2_defect <= 1e-12
        assert rep.periodicity_defect <= 1e-12
        params = emb.embedding_params(e1, 0.25, rep.q_estimate)
        mu, _ = pm.spectral_gap(params)
        assert mu == 0.75
