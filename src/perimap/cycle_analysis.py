"""Reduced-cycle analysis: fixed point of P, its spectrum, and adapted norms.

The section map of a hybrid system with an attracting cycle has a fixed point
u* with P'(u*) spectrum strictly inside the unit circle (and away from 0).
Stability enters the curve solver through a Lipschitz constant q < 1, which
may require a norm adapted to P'(u*); the construction here telescopes the
power norms ||B^i v|| so the certificate is basis-free and checkable by
sampling.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import CertificateError, ConvergenceError
from .hybrid_ode import check_transversality
from .poincare import p_eps_batch
from .sampling import ball_points, latin_hypercube, require_count, scale_to

Array = np.ndarray

EIG_FLOOR = 1e-8      # numerical stand-in for invertibility of P'(0)
EIG_CEIL_MARGIN = 1e-6  # "strictly below 1" margin for sampled eigenvalues
NEWTON_TOL = 1e-12    # |P(u) - u| that ends the fixed-point Newton iteration
NEWTON_MAX_ITER = 25
FD_STEP = 1e-6        # central-difference step of P', relative to max(1, |u|)
ADAPTED_M_MAX = 64    # largest power tried by `adapted_norm`
SPHERE_SAMPLES = 4096  # unit vectors (seed 0) that sample the induced norm
RADIUS_FRACTIONS = (1.0, 0.75, 0.5, 0.25, 0.1)  # chart radii tried, shrinking


@dataclass
class AdaptedNorm:
    """|v| = sum_i ||B^i v||_2 / rho_hat^i for i < m, with a certified bound.

    ``induced_bound`` is the analytic telescoping bound
    max(rho_hat, ||B^m|| / rho_hat^(m-1)); ``induced_sampled`` is the largest
    ratio |Bv|/|v| seen on a sampled sphere.
    """

    powers: Array       # (m, k2, k2)
    rho_hat: float
    induced_bound: float
    induced_sampled: float

    @property
    def m(self):
        return self.powers.shape[0]

    def norm(self, v):
        v = np.asarray(v, dtype=float)
        single = v.ndim == 1
        V = np.atleast_2d(v)
        weights = self.rho_hat ** -np.arange(self.m)
        total = np.zeros(V.shape[0])
        for i in range(self.m):
            total += weights[i] * np.linalg.norm(V @ self.powers[i].T, axis=-1)
        return float(total[0]) if single else total

    def to_json_dict(self):
        return {
            "m": int(self.m),
            "rho_hat": self.rho_hat,
            "induced_bound": self.induced_bound,
            "induced_sampled": self.induced_sampled,
        }


@dataclass
class CycleReport:
    """Fixed point, spectrum and contraction certificate of the section map."""

    u_star: Array
    T_star: float
    jacobian: Array
    eigenvalues: list
    spectral_radius: float
    transversality: float
    fixed_point_residual: float
    richardson_defect: float
    spectrum_ok: bool
    adapted: Optional[AdaptedNorm] = None
    q_certified: Optional[float] = None
    q_ok: Optional[bool] = None

    def to_json_dict(self):
        d = {
            "u_star": self.u_star.tolist(),
            "T_star": self.T_star,
            "jacobian": self.jacobian.tolist(),
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "spectral_radius": self.spectral_radius,
            "transversality": self.transversality,
            "fixed_point_residual": self.fixed_point_residual,
            "richardson_defect": self.richardson_defect,
            "spectrum_ok": bool(self.spectrum_ok),
            "adapted_norm": None if self.adapted is None
            else self.adapted.to_json_dict(),
            "q_certified": self.q_certified,
            "q_ok": self.q_ok,
        }
        return d


def _p_stencil(handle, rows):
    """Return times and reduced map on a stacked stencil, one batched flow."""
    rows = np.atleast_2d(rows)
    return p_eps_batch(handle, np.zeros(len(rows)), rows, 0.0)


def find_fixed_point(handle, u_guess=None):
    """Newton iteration for P(u) = u with a finite-difference Jacobian.

    Returns (u*, T* = T(0, D(u*)), ||P(u*) - u*|| <= `NEWTON_TOL`), the last
    two from lane 0 of the stencil flow whose residual passed the tolerance.
    """
    k2 = handle.sys.k2
    u = np.zeros(k2) if u_guess is None else np.asarray(u_guess, float).copy()
    h = FD_STEP
    best = np.inf
    for _ in range(NEWTON_MAX_ITER):
        stencil = np.vstack([u, u + np.diag(np.full(k2, h)),
                             u - np.diag(np.full(k2, h))])
        times, vals = _p_stencil(handle, stencil)
        res = vals[0] - u
        rnorm = float(np.linalg.norm(res))
        if rnorm <= NEWTON_TOL:
            return u, float(times[0]), rnorm
        if rnorm > 10.0 * max(best, 1.0):
            raise ConvergenceError(f"Newton diverged (residual {rnorm:.3g})")
        best = min(best, rnorm)
        J = (vals[1:1 + k2] - vals[1 + k2:]).T / (2.0 * h)
        M = J - np.eye(k2)
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[-1] <= 1e-12 * max(1.0, float(sv[0])):
            raise ConvergenceError("singular Newton step (P'(u) has eigenvalue 1)")
        u = u - np.linalg.solve(M, res)
    raise ConvergenceError(f"no fixed point after {NEWTON_MAX_ITER} Newton steps")


def jacobian_and_spectrum(handle, u_star):
    """Central-difference Jacobian of P at u*, with a Richardson half-step check.

    The step-h and step-h/2 stencils go through one batched flow, so the
    integrator error is shared across all their columns.  Returns (jacobian,
    eigenvalues, richardson_defect) where the defect is the relative h vs
    h/2 disagreement.
    """
    u_star = np.asarray(u_star, dtype=float)
    k2 = u_star.size
    h = FD_STEP * max(1.0, float(np.linalg.norm(u_star)))
    steps = (h, h / 2.0)
    stencil = np.vstack([u_star + sign * np.diag(np.full(k2, step))
                         for step in steps for sign in (1.0, -1.0)])
    # vals[i, 0] and vals[i, 1]: the +/- columns of stencil i, shape (k2, k2)
    vals = _p_stencil(handle, stencil)[1].reshape(2, 2, k2, k2)
    J, J_half = ((v[0] - v[1]).T / (2.0 * step) for v, step in zip(vals, steps))
    scale = max(1.0, float(np.max(np.abs(J))))
    richardson = float(np.max(np.abs(J - J_half))) / scale
    eigs = np.linalg.eigvals(J)
    return J, list(eigs), richardson


def adapted_norm(B):
    """Norm in which a spectrally stable matrix is certifiably contracting.

    Finds the smallest m <= `ADAPTED_M_MAX` with ||B^m|| < 1, sets
    rho_hat = (spectral_radius + 1)/2 and weights the power norms; if the
    telescoping bound is not below 1 the power m is increased.  Raises
    `CertificateError` when the spectral radius is not below 1 or no m works.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    rho = float(np.max(np.abs(np.linalg.eigvals(B))))
    if rho >= 1.0:
        raise CertificateError(f"spectral radius {rho:.6g} is not below 1")
    rho_hat = (rho + 1.0) / 2.0
    powers = [np.eye(B.shape[0])]
    bound = None
    for m in range(1, ADAPTED_M_MAX + 1):
        powers.append(powers[-1] @ B)
        norm_m = float(np.linalg.norm(powers[m], 2))
        if norm_m < 1.0:
            cand = max(rho_hat, norm_m / rho_hat ** (m - 1))
            if cand < 1.0:
                bound = cand
                break
    if bound is None:
        raise CertificateError(f"no power m <= {ADAPTED_M_MAX} certifies contraction")
    stack = np.array(powers[:m])
    rng = np.random.default_rng(0)
    v = rng.standard_normal((SPHERE_SAMPLES, B.shape[0]))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    an = AdaptedNorm(powers=stack, rho_hat=rho_hat, induced_bound=bound,
                     induced_sampled=0.0)
    sampled = float(np.max(an.norm(v @ B.T) / an.norm(v)))
    an.induced_sampled = sampled
    return an


def certify_contraction(handle, u_range, eps_range, norm, n_samples=64, seed=0):
    """Sampled Lipschitz constant of u -> beta(tau, u, eps) in the adapted norm.

    Pairs are drawn in the ``u_range`` ball with tau over one forcing period
    and eps over ``eps_range``; this is the q fed to the curve solver's rate
    bound.  Both points of every pair, each lane with its own tau and eps,
    go through one batched flow.  Returns (q, q < 1).
    """
    require_count("n_samples", n_samples)
    rng = np.random.default_rng(seed)
    sys = handle.sys
    k2 = sys.k2
    u = latin_hypercube(rng, n_samples, 2 + 2 * k2)
    taus = scale_to(u[:, 0], 0.0, sys.T_g)
    epses = scale_to(u[:, 1], *eps_range)
    u1 = ball_points(u[:, 2:2 + k2], u_range)
    u2 = ball_points(u[:, 2 + k2:], u_range)
    degenerate = np.linalg.norm(u1 - u2, axis=1) < 1e-12
    u2[degenerate] += u_range * 0.1
    n = len(taus)
    _, outs = p_eps_batch(handle, np.concatenate([taus, taus]),
                          np.vstack([u1, u2]), np.concatenate([epses, epses]))
    q = float(np.max(norm.norm(outs[:n] - outs[n:]) / norm.norm(u1 - u2)))
    return q, bool(q < 1.0)


def largest_contracting_radius(handle, eps_range, norm, n_samples=32, seed=0):
    """Largest sampled chart sub-radius on which the section map contracts.

    Walks the shrinking ladder `RADIUS_FRACTIONS` of the chart radius and
    returns (radius, q) for the first level with sampled q < 1; raises
    `CertificateError` when even the smallest level fails.
    """
    r1 = handle.sys.r1
    for frac in RADIUS_FRACTIONS:
        q, ok = certify_contraction(handle, frac * r1, eps_range, norm,
                                    n_samples=n_samples, seed=seed)
        if ok:
            return frac * r1, q
    raise CertificateError("no sampled sub-radius of the chart contracts")


def analyze_cycle(handle, u_guess=None, contraction=None):
    """Full pipeline: fixed point -> spectrum -> transversality -> certificate.

    ``contraction``, when given, is a dict of `certify_contraction` arguments
    (u_range, eps_range, n_samples, seed); the sampled q then lands in the
    report.
    """
    u_star, T_star, res = find_fixed_point(handle, u_guess)
    J, eigs, richardson = jacobian_and_spectrum(handle, u_star)
    moduli = np.abs(np.array(eigs))
    rho = float(np.max(moduli))
    spectrum_ok = bool(np.all(moduli >= EIG_FLOOR)
                 and np.all(moduli <= 1.0 - EIG_CEIL_MARGIN))
    trans = check_transversality(handle.sys, u_star)
    adapted = None
    q_cert = None
    q_ok = None
    if spectrum_ok:
        adapted = adapted_norm(J)
        if contraction is not None:
            q_cert, q_ok = certify_contraction(handle, norm=adapted,
                                               **contraction)
    return CycleReport(
        u_star=u_star,
        T_star=T_star,
        jacobian=J,
        eigenvalues=eigs,
        spectral_radius=rho,
        transversality=trans,
        fixed_point_residual=res,
        richardson_defect=richardson,
        spectrum_ok=spectrum_ok,
        adapted=adapted,
        q_certified=q_cert,
        q_ok=q_ok,
    )
