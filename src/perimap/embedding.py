"""Embedding of a perturbed map into a globally defined model map.

The map f is embedded into F_lam acting on (omega, eps, x, y): the first two
rows are identities, the x-row advances by lam*omega times the alpha
evaluator at rescaled arguments, and the y-row splits into its linearization
B y plus a small remainder.  A C1 bump Psi then kills the remainders outside
a compact window, producing G_lam, which is invertible by a contraction
argument once lam is small.  This module computes all of those objects
numerically, together with the smallness scale lam0 and the derived constants

    eps0 = r1 * lam0**2 / 2,      r0 = lam0 * r1,

collected in an `EmbeddingParams` certificate.  Each `certificate` rung is
`embedding_params` tested by `spectral_gap` and the remainder bound of
`estimate_lambda0`.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from . import map_core
from .exceptions import CertificateError, ConvergenceError, DomainError
from .numdiff import first_step
from .sampling import ball_points, latin_hypercube, scale_to

log = logging.getLogger(__name__)

Array = np.ndarray

LADDER = tuple(0.5**k for k in range(21))  # probe scales 1, 1/2, ..., 2^-20


@dataclass(frozen=True)
class EmbeddingParams:
    """Constants of the embedded model map; a certificate once lambda0 is set."""

    lam: float
    B: Array
    A_lambda: Array
    mu: float
    q: float
    lambda0: Optional[float] = None
    eps0: Optional[float] = None
    r0: Optional[float] = None

    def to_json_dict(self):
        d = {
            "lambda": self.lam,
            "B": self.B.tolist(),
            "A_lambda": self.A_lambda.tolist(),
            "mu": self.mu,
            "q": self.q,
        }
        if self.lambda0 is not None:
            d.update({"lambda0": self.lambda0, "eps0": self.eps0, "r0": self.r0})
        return d


@dataclass(frozen=True)
class BumpSpec:
    """Windows of the product bump: plateau [0,1] x (-r1/2, r1/2) x (r1/2)D,
    support [-1,2] x (-r1, r1) x r1*D, each factor a piecewise-cubic smoothstep."""

    r1: float

    @property
    def omega_breaks(self):
        return (-1.0, 0.0, 1.0, 2.0)

    @property
    def eps_breaks(self):
        return (-self.r1, -self.r1 / 2.0, self.r1 / 2.0, self.r1)

    @property
    def y_breaks(self):
        return (self.r1 / 2.0, self.r1)


def _smooth_up(t, a, b):
    s = np.clip((np.asarray(t, float) - a) / (b - a), 0.0, 1.0)
    # rounding takes 3 s^2 - 2 s^3 to 1 + 2^-52 for s just below 1
    return np.clip(3.0 * s**2 - 2.0 * s**3, 0.0, 1.0)


def _window(t, lo_out, lo_in, hi_in, hi_out):
    return _smooth_up(t, lo_out, lo_in) * (1.0 - _smooth_up(t, hi_in, hi_out))


def bump_psi(bump, omega, eps, y):
    """Product bump Psi(omega, eps, y): exactly 1 on the plateau, 0 outside."""
    ob = bump.omega_breaks
    eb = bump.eps_breaks
    yb = bump.y_breaks
    y = np.asarray(y, float)
    r = np.linalg.norm(np.atleast_1d(y), axis=-1)
    val = (_window(omega, ob[0], ob[1], ob[2], ob[3])
           * _window(eps, eb[0], eb[1], eb[2], eb[3])
           * (1.0 - _smooth_up(r, yb[0], yb[1])))
    return val if val.ndim else float(val)


@lru_cache(maxsize=None)
def _alpha_origin(spec):
    """alpha at the origin of all arguments; by the eps = 0 independence this
    is the alpha(0) entering the linear part A_lam."""
    a0 = np.asarray(
        spec.alpha(0.0, 0.0, np.zeros((1, spec.k1)), np.zeros((1, spec.k2))),
        dtype=float,
    )
    return a0[0]


@lru_cache(maxsize=None)
def beta_y0(spec):
    """`map_core.beta_y0`, computed once per spec and read-only."""
    B = map_core.beta_y0(spec)
    B.setflags(write=False)
    return B


def embedding_params(spec, lam, q):
    """Constants of the model map at scale lam: B = beta_y(0), mu =
    (||B|| + 1)/2 and the (k1+2) x (k1+2) linear part A_lam acting on
    (omega, eps, x)."""
    B = beta_y0(spec)
    A = np.eye(spec.k1 + 2)
    A[2:, 0] = lam * _alpha_origin(spec)
    mu = (float(np.linalg.norm(B, 2)) + 1.0) / 2.0
    return EmbeddingParams(lam=float(lam), B=B, A_lambda=A, mu=mu, q=float(q))


# ----------------------------------------------------------------------------
# the rescaled nonlinearities and the embedded maps
# ----------------------------------------------------------------------------

def _check_lam(lam):
    if not (lam > 0):
        raise DomainError("lambda must be positive")


def _tilde_batch(spec, lam, omega, eps, X, Y):
    """alpha-tilde (n, k1+2) and beta-tilde (n, k2) at scalar (omega, eps)."""
    _check_lam(lam)
    if np.max(np.linalg.norm(lam * Y, axis=-1)) > spec.r1 * (1 + 1e-12):
        raise DomainError("||lam * y|| exceeds r1")
    a0 = _alpha_origin(spec)
    a = np.asarray(spec.alpha(lam * omega, lam**2 * eps, X, lam * Y), dtype=float)
    b = np.asarray(spec.beta(lam * omega, lam**2 * eps, X, lam * Y), dtype=float)
    B = beta_y0(spec)
    ta = np.zeros((len(X), spec.k1 + 2))
    ta[:, 2:] = lam * omega * (a - a0)
    tb = b / lam - Y @ B.T
    return ta, tb


def tilde_alpha(spec, lam, omega, eps, x, y):
    x = np.asarray(x, float).reshape(1, spec.k1)
    y = np.asarray(y, float).reshape(1, spec.k2)
    return _tilde_batch(spec, lam, float(omega), float(eps), x, y)[0][0]


def tilde_beta(spec, lam, omega, eps, x, y):
    x = np.asarray(x, float).reshape(1, spec.k1)
    y = np.asarray(y, float).reshape(1, spec.k2)
    return _tilde_batch(spec, lam, float(omega), float(eps), x, y)[1][0]


def eval_F_lambda(spec, params, omega, eps, x, y):
    """F_lam(omega, eps, x, y) in R^{k1+k2+2}; first two rows are (omega, eps)."""
    x = np.asarray(x, float).reshape(spec.k1)
    y = np.asarray(y, float).reshape(spec.k2)
    ta, tb = _tilde_batch(spec, params.lam, float(omega), float(eps),
                          x[None, :], y[None, :])
    top = params.A_lambda @ np.concatenate(([omega, eps], x)) + ta[0]
    bottom = params.B @ y + tb[0]
    return np.concatenate([top, bottom])


def _bumped_tilde(spec, lam, z):
    """psi * (alpha-tilde, beta-tilde) at z = (omega, eps, x, y), the
    remainder of G_lam bumped by ``BumpSpec(spec.r1)``; zero off its
    support."""
    n_top = spec.k1 + 2
    omega, eps, x, y = z[0], z[1], z[2:n_top], z[n_top:]
    psi = bump_psi(BumpSpec(spec.r1), lam * omega, eps, y)
    out = np.zeros_like(z)
    if psi > 0.0:
        # inside the support the rescaled arguments stay in the map's domain
        ta, tb = _tilde_batch(spec, lam, float(omega), float(eps),
                              x[None, :], y[None, :])
        out[:n_top] = psi * ta[0]
        out[n_top:] = psi * tb[0]
    return out


def eval_G_lambda(spec, params, omega, eps, x, y):
    """Bumped globalization of F_lam by the bump ``BumpSpec(spec.r1)``;
    defined on all of R^{k1+k2+2}."""
    x = np.asarray(x, float).reshape(spec.k1)
    y = np.asarray(y, float).reshape(spec.k2)
    top = params.A_lambda @ np.concatenate(([omega, eps], x))
    bottom = params.B @ y
    z = np.concatenate(([omega, eps], x, y))
    return np.concatenate([top, bottom]) + _bumped_tilde(spec, params.lam, z)


def h_lambda(lam, omega, eps, x, y):
    """The rescaling conjugacy (omega, eps, x, y) -> (omega/lam, eps/lam^2, x, y/lam)."""
    _check_lam(lam)
    return (omega / lam, eps / lam**2, np.asarray(x, float),
            np.asarray(y, float) / lam)


def conjugacy_residual(spec, lam, omega, eps, x, y):
    """|| F_lam(h_lam(z)) - h_lam(F_1(z)) ||; an algebraic identity up to rounding."""
    _check_lam(lam)
    params1 = embedding_params(spec, 1.0, q=0.0)
    params_lam = embedding_params(spec, lam, q=0.0)
    f1 = eval_F_lambda(spec, params1, omega, eps, x, y)
    w1, e1 = f1[0], f1[1]
    xbar, ybar = f1[2:2 + spec.k1], f1[2 + spec.k1:]
    hw, he, hx, hy = h_lambda(lam, omega, eps, x, y)
    lhs = eval_F_lambda(spec, params_lam, hw, he, hx, hy)
    rw, re, rx, ry = h_lambda(lam, w1, e1, xbar, ybar)
    rhs = np.concatenate([[rw, re], rx, ry])
    return float(np.linalg.norm(lhs - rhs))


# ----------------------------------------------------------------------------
# inversion of G_lam and the smallness certificates
# ----------------------------------------------------------------------------

def invert_G(spec, params, target, tol=1e-12, max_iter=100):
    """Solve G_lam(z) = target by the fixed point z -> L^{-1}(target - g(z)).

    L is the block-diagonal linear part; g is the bumped remainder of
    `eval_G_lambda`.  Raises `ConvergenceError` when the iteration fails,
    which signals that lam is too large for the contraction regime.
    """
    target = np.asarray(target, float).reshape(spec.k1 + spec.k2 + 2)
    n_top = spec.k1 + 2
    L = np.zeros((spec.k1 + spec.k2 + 2,) * 2)
    L[:n_top, :n_top] = params.A_lambda
    L[n_top:, n_top:] = params.B
    sv = np.linalg.svd(L, compute_uv=False)
    if sv[-1] <= 1e-14 * max(1.0, sv[0]):
        raise ConvergenceError("linear part of G_lambda is numerically singular")

    z = np.linalg.solve(L, target)
    best = np.inf
    stall = 0
    for _ in range(int(max_iter)):
        Gz = L @ z + _bumped_tilde(spec, params.lam, z)
        res = float(np.linalg.norm(Gz - target))
        if res <= tol:
            return z
        if res < best * 0.999:
            best = res
            stall = 0
        else:
            stall += 1
            if stall >= 8:
                break
        z = np.linalg.solve(L, target - _bumped_tilde(spec, params.lam, z))
    raise ConvergenceError(
        f"invert_G did not reach tol={tol:g} (last residual {res:.3g}); "
        "lambda is likely above the contraction threshold"
    )


def _tilde_sup(spec, lam, eps_range, x_range, n_samples, seed):
    """Sampled sup of ||tilde|| + ||D tilde|| for both remainders at scale lam,
    with omega in [-1/lam, 2/lam]."""
    rng = np.random.default_rng(seed)
    n_groups = max(4, min(8, n_samples // 4))
    m = max(2, int(np.ceil(n_samples / n_groups)))
    oe = latin_hypercube(rng, n_groups, 2)
    omegas = scale_to(oe[:, 0], -1.0 / lam, 2.0 / lam)
    epses = scale_to(oe[:, 1], *eps_range)
    sup_a = sup_b = 0.0
    d = 2 + spec.k1 + spec.k2
    # derivatives are taken along the sampled family: a degenerate eps range
    # (the frozen eps-slice {0}) contributes no derivative direction
    skip_eps = eps_range[0] == eps_range[1]

    for g in range(n_groups):
        u = latin_hypercube(rng, m, spec.k1 + spec.k2)
        X = scale_to(u[:, : spec.k1], *x_range)
        Y = ball_points(u[:, spec.k1:], spec.r1)
        w, e = float(omegas[g]), float(epses[g])

        ta0, tb0 = _tilde_batch(spec, lam, w, e, X, Y)
        Ja = np.zeros((m, spec.k1 + 2, d))
        Jb = np.zeros((m, spec.k2, d))
        for j in range(d):
            if j == 0:
                h = float(first_step(w))
                ap, bp = _tilde_batch(spec, lam, w + h, e, X, Y)
                am, bm = _tilde_batch(spec, lam, w - h, e, X, Y)
            elif j == 1:
                if skip_eps:
                    continue
                h = float(first_step(e))
                ap, bp = _tilde_batch(spec, lam, w, e + h, X, Y)
                am, bm = _tilde_batch(spec, lam, w, e - h, X, Y)
            elif j < 2 + spec.k1:
                c = j - 2
                h = float(first_step(max(1.0, np.max(np.abs(X[:, c])))))
                Xp, Xm = X.copy(), X.copy()
                Xp[:, c] += h
                Xm[:, c] -= h
                ap, bp = _tilde_batch(spec, lam, w, e, Xp, Y)
                am, bm = _tilde_batch(spec, lam, w, e, Xm, Y)
            else:
                c = j - 2 - spec.k1
                h = float(first_step(1.0))
                Yp, Ym = Y.copy(), Y.copy()
                # keep the probe inside the domain ||lam*y|| <= r1
                Yp[:, c] = np.minimum(Yp[:, c] + h, spec.r1 / lam)
                Ym[:, c] = np.maximum(Ym[:, c] - h, -spec.r1 / lam)
                hcols = (Yp[:, c] - Ym[:, c]) / 2.0
                ap, bp = _tilde_batch(spec, lam, w, e, X, Yp)
                am, bm = _tilde_batch(spec, lam, w, e, X, Ym)
                Ja[:, :, j] = (ap - am) / (2.0 * hcols[:, None])
                Jb[:, :, j] = (bp - bm) / (2.0 * hcols[:, None])
                continue
            Ja[:, :, j] = (ap - am) / (2.0 * h)
            Jb[:, :, j] = (bp - bm) / (2.0 * h)

        na = np.linalg.norm(ta0, axis=1) + np.linalg.svd(Ja, compute_uv=False)[:, 0]
        nb = np.linalg.norm(tb0, axis=1) + np.linalg.svd(Jb, compute_uv=False)[:, 0]
        sup_a = max(sup_a, float(np.max(na)))
        sup_b = max(sup_b, float(np.max(nb)))
    return sup_a, sup_b


def _remainders_pass(spec, lam, delta, eps_range, n_samples, seed):
    """Whether both sampled remainder sups at scale lam are <= delta, and
    the sups (alpha, beta); x ranges over one period, else (-2, 2)."""
    x_range = ((0.0, spec.period) if spec.periodic_coord is not None
               else (-2.0, 2.0))
    sups = _tilde_sup(spec, lam, eps_range, x_range, n_samples, seed)
    return all(s <= delta for s in sups), sups


def estimate_lambda0(spec, delta, eps_range=None, n_samples=64, seed=0):
    """Largest ladder scale at which both rescaled remainders stay below delta.

    The sup is sampled over omega in [-1/lam, 2/lam], eps in ``eps_range``
    (default (-r1, r1)), x over one period or a default box, and
    ||y|| <= r1, with derivatives by central differences.  This is the
    remainder test of each `certificate` rung.  Returns ``None`` when no
    probed scale passes; the failure is logged with the offending bound.
    """
    if not (delta > 0):
        return None
    eps_range = eps_range if eps_range is not None else (-spec.r1, spec.r1)
    last = None
    for lam in LADDER:
        ok, sups = _remainders_pass(spec, lam, delta, eps_range, n_samples,
                                    seed)
        if ok:
            return lam
        last = (lam, *sups)
    log.info("no lambda0 found: at lam=%g the bounds were alpha %.3g, beta %.3g "
             "(delta=%g)", last[0], last[1], last[2], delta)
    return None


def spectral_gap(params):
    """mu = (||B|| + 1)/2 and the gap predicate at the certificate's scale."""
    mu = params.mu
    norm_B = float(np.linalg.norm(params.B, 2))
    sv = np.linalg.svd(params.A_lambda, compute_uv=False)
    norm_Ainv = 1.0 / float(sv[-1])
    ok = (norm_B <= params.q < 1.0) and (norm_Ainv <= 1.0 / mu)
    return mu, bool(ok)


def certificate(spec, delta=None, n_samples=64, seed=0):
    """Issue an `EmbeddingParams` certificate (lambda0, eps0, r0, mu, q).

    q is `map_core.pairwise_q` over max(``n_samples``, 32) points of the r1
    ball, raised to ||beta_y(0)|| if it falls below.  lambda0 is the first
    ladder scale whose `embedding_params` pass `spectral_gap` and keep both
    remainders below ``delta`` (default (1 - q)/3, eps in (-r1, r1)).
    Raises `CertificateError` when q or ||beta_y(0)|| is not below 1, or
    when no scale passes.
    """
    q = map_core.pairwise_q(spec, np.random.default_rng(seed),
                            max(n_samples, 32), spec.r1)
    if not q < 1.0:
        raise CertificateError(f"sampled contraction q = {q:.6g} is not < 1")
    norm_B = float(np.linalg.norm(beta_y0(spec), 2))
    if not norm_B <= q:
        # sampled pairs may slightly undershoot the derivative norm
        q = norm_B
        if not q < 1.0:
            raise CertificateError(f"||beta_y(0)|| = {norm_B:.6g} is not < 1")
    if delta is None:
        delta = (1.0 - q) / 3.0
    for lam in LADDER:
        params = embedding_params(spec, lam, q)
        if spectral_gap(params)[1] and _remainders_pass(
                spec, lam, delta, (-spec.r1, spec.r1), n_samples, seed)[0]:
            return replace(params, lambda0=lam,
                           eps0=spec.r1 * lam**2 / 2.0, r0=lam * spec.r1)
    raise CertificateError(
        f"no ladder scale satisfies the delta={delta:g} remainder bound "
        "together with the spectral gap"
    )
