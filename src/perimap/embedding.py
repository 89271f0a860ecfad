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
`embedding_params` tested by `spectral_gap` and by the sampled remainder
bound of `_tilde_sup`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg

from . import map_core
from .exceptions import CertificateError, ConvergenceError, DomainError
from .numdiff import coordinate_probes, first_step
from .sampling import require_count, scale_to, stratified_groups

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


def _smooth_up(t, a, b):
    s = np.clip((np.asarray(t, float) - a) / (b - a), 0.0, 1.0)
    # rounding takes 3 s^2 - 2 s^3 to 1 + 2^-52 for s just below 1
    return np.clip(3.0 * s**2 - 2.0 * s**3, 0.0, 1.0)


def _window(t, lo_out, lo_in, hi_in, hi_out):
    return _smooth_up(t, lo_out, lo_in) * (1.0 - _smooth_up(t, hi_in, hi_out))


def bump_psi(r1, omega, eps, y):
    """Product bump Psi(omega, eps, y): exactly 1 on the plateau [0,1] x
    [-r1/2, r1/2] x (r1/2)D, 0 off the support [-1,2] x (-r1, r1) x r1*D;
    each factor is a piecewise-cubic smoothstep."""
    r = np.linalg.norm(np.atleast_1d(np.asarray(y, float)), axis=-1)
    val = (_window(omega, -1.0, 0.0, 1.0, 2.0)
           * _window(eps, -r1, -r1 / 2.0, r1 / 2.0, r1)
           * (1.0 - _smooth_up(r, r1 / 2.0, r1)))
    return val if val.ndim else float(val)


def embedding_params(spec, lam, q):
    """Constants of the model map at scale lam: B = beta_y(0), mu =
    (||B|| + 1)/2 and the (k1+2) x (k1+2) linear part A_lam acting on
    (omega, eps, x)."""
    a0, _, B = map_core.origin(spec)
    A = np.eye(spec.k1 + 2)
    A[2:, 0] = lam * a0
    mu = (float(np.linalg.norm(B, 2)) + 1.0) / 2.0
    return EmbeddingParams(lam=float(lam), B=B, A_lambda=A, mu=mu, q=float(q))


# ----------------------------------------------------------------------------
# the rescaled nonlinearities and the embedded maps
# ----------------------------------------------------------------------------

def _check_lam(lam):
    if not (lam > 0):
        raise DomainError("lambda must be positive")


def _tilde_batch(spec, lam, omega, eps, X, Y):
    """(alpha-tilde, beta-tilde) as one (n, k1+2+k2) array; ``omega`` and
    ``eps`` are each a float or an (n, 1) column, one value per row, as for
    the evaluators.  A misshaped evaluation raises `EvaluationError`."""
    _check_lam(lam)
    if np.max(np.linalg.norm(lam * Y, axis=-1)) > spec.r1 * (1 + 1e-12):
        raise DomainError("||lam * y|| exceeds r1")
    a0, _, B = map_core.origin(spec)
    a, b = map_core.eval_batch(spec, lam * omega, lam**2 * eps, X, lam * Y)
    n_top = spec.k1 + 2
    out = np.zeros((len(X), n_top + spec.k2))
    out[:, 2:n_top] = lam * omega * (a - a0)
    out[:, n_top:] = b / lam - Y @ B.T
    return out


def _point(spec, omega, eps, x, y):
    """The model-map point z = (omega, eps, x, y) in R^{k1+2+k2}."""
    return np.concatenate(([omega, eps], np.asarray(x, float).reshape(spec.k1),
                           np.asarray(y, float).reshape(spec.k2)))


def _tilde_row(spec, lam, z):
    """(alpha-tilde, beta-tilde) at the one point z."""
    n_top = spec.k1 + 2
    return _tilde_batch(spec, lam, float(z[0]), float(z[1]),
                        z[None, 2:n_top], z[None, n_top:])[0]


def _linear(params, z):
    """L z for the linear part L = diag(A_lam, B), applied blockwise."""
    n_top = len(params.A_lambda)
    return np.concatenate([params.A_lambda @ z[:n_top], params.B @ z[n_top:]])


def tilde_alpha(spec, lam, omega, eps, x, y):
    return _tilde_row(spec, lam, _point(spec, omega, eps, x, y))[:spec.k1 + 2]


def tilde_beta(spec, lam, omega, eps, x, y):
    return _tilde_row(spec, lam, _point(spec, omega, eps, x, y))[spec.k1 + 2:]


def _F(spec, params, z):
    """F_lam at the point z."""
    return _linear(params, z) + _tilde_row(spec, params.lam, z)


def eval_F_lambda(spec, params, omega, eps, x, y):
    """F_lam(omega, eps, x, y) in R^{k1+k2+2}; first two rows are (omega, eps)."""
    return _F(spec, params, _point(spec, omega, eps, x, y))


def _bumped_tilde(spec, lam, z):
    """psi * (alpha-tilde, beta-tilde) at z, the remainder of G_lam bumped
    by ``bump_psi(spec.r1, ...)``; zero off its support."""
    psi = bump_psi(spec.r1, lam * z[0], z[1], z[spec.k1 + 2:])
    if not psi > 0.0:
        return np.zeros_like(z)
    # inside the support the rescaled arguments stay in the map's domain
    return psi * _tilde_row(spec, lam, z)


def eval_G_lambda(spec, params, omega, eps, x, y):
    """Bumped globalization of F_lam by ``bump_psi(spec.r1, ...)``; defined
    on all of R^{k1+k2+2} for 0 < lam <= 1, where the bump's support keeps
    ||lam * y|| below r1 (a larger lam raises `DomainError` for some y)."""
    z = _point(spec, omega, eps, x, y)
    return _linear(params, z) + _bumped_tilde(spec, params.lam, z)


def h_lambda(spec, lam, z):
    """The rescaling conjugacy z = (omega, eps, x, y) -> (omega/lam,
    eps/lam^2, x, y/lam)."""
    _check_lam(lam)
    n_top = spec.k1 + 2
    return np.concatenate(([z[0] / lam, z[1] / lam**2], z[2:n_top],
                           z[n_top:] / lam))


def conjugacy_residual(spec, lam, omega, eps, x, y):
    """|| F_lam(h_lam(z)) - h_lam(F_1(z)) ||; an algebraic identity up to rounding."""
    z = _point(spec, omega, eps, x, y)
    f1 = _F(spec, embedding_params(spec, 1.0, q=0.0), z)
    lhs = _F(spec, embedding_params(spec, lam, q=0.0), h_lambda(spec, lam, z))
    return float(np.linalg.norm(lhs - h_lambda(spec, lam, f1)))


# ----------------------------------------------------------------------------
# inversion of G_lam and the smallness certificates
# ----------------------------------------------------------------------------

def invert_G(spec, params, target, tol=1e-12, max_iter=100):
    """Solve G_lam(z) = target by the fixed point z -> L^{-1}(target - g(z)).

    L is the block-diagonal linear part; g is the bumped remainder of
    `eval_G_lambda`.  Raises `ConvergenceError` when the iteration fails,
    which signals that lam is too large for the contraction regime, and
    ``max_iter`` below 1 raises `ValueError` before any evaluation.
    """
    require_count("max_iter", max_iter)
    target = np.asarray(target, float).reshape(spec.k1 + spec.k2 + 2)
    L = scipy.linalg.block_diag(params.A_lambda, params.B)
    sv = np.linalg.svd(L, compute_uv=False)
    if sv[-1] <= 1e-14 * max(1.0, sv[0]):
        raise ConvergenceError("linear part of G_lambda is numerically singular")

    z = np.linalg.solve(L, target)
    best = np.inf
    stall = 0
    for _ in range(int(max_iter)):
        tilde = _bumped_tilde(spec, params.lam, z)
        res = float(np.linalg.norm(L @ z + tilde - target))
        if res <= tol:
            return z
        if res < best * 0.999:
            best = res
            stall = 0
        else:
            stall += 1
            if stall >= 8:
                break
        z = np.linalg.solve(L, target - tilde)
    raise ConvergenceError(
        f"invert_G did not reach tol={tol:g} (last residual {res:.3g}); "
        "lambda is likely above the contraction threshold"
    )


def _remainder_groups(spec, eps_range, x_range, n_samples, seed):
    """The `stratified_groups` draw of `_tilde_sup` from ``seed``, with its
    omega column over [0, 1): one draw serves every scale of a ladder."""
    return stratified_groups(np.random.default_rng(seed), n_samples, 4,
                             (0.0, 1.0), eps_range, x_range, spec.r1,
                             spec.k1, spec.k2)


def _tilde_sup(spec, lam, groups):
    """Sampled sup of ||tilde|| + ||D tilde|| for both remainders at scale lam
    over ``groups``, a `_remainder_groups` draw, with omega in [-1/lam,
    2/lam]: a copy's omega column is rescaled from the draw's exact u, so
    the rows are those of a fresh draw over that range, bit for bit.  One
    Jacobian holds the centred differences in every coordinate, alpha-tilde
    rows above beta-tilde rows.

    A coordinate moves by +/-h, `first_step` of its largest |entry| within
    the group for omega, eps and x and of 1 for y.  The centre and the
    probes of every coordinate of every group, each row with its own
    (omega, eps), go to one `_tilde_batch` call.
    """
    n_top = spec.k1 + 2
    y_max = spec.r1 / lam
    Z = groups.copy()
    Z[..., 0] = scale_to(groups[..., 0], -1.0 / lam, 2.0 / lam)
    G, m, d = Z.shape
    h = first_step(np.max(np.abs(Z), axis=1, keepdims=True))  # (G, 1, d)
    h[..., n_top:] = first_step(1.0)
    up, down, span = Z + h, Z - h, np.broadcast_to(2.0 * h, Z.shape).copy()
    # a y-probe of column c stays in ||lam*y|| <= r1 while |y_c| <= edge
    sq = Z[..., n_top:]**2
    edge = np.sqrt(np.maximum(
        y_max * y_max - (sq.sum(axis=-1, keepdims=True) - sq), 0.0))
    up[..., n_top:] = np.minimum(up[..., n_top:], edge)
    down[..., n_top:] = np.maximum(down[..., n_top:], -edge)
    span[..., n_top:] = up[..., n_top:] - down[..., n_top:]
    # row blocks: the centre, then (plus, minus) of every coordinate
    blocks = coordinate_probes(Z, (up, down))
    rows = np.concatenate(blocks).reshape(-1, d)
    t = _tilde_batch(spec, lam, rows[:, :1], rows[:, 1:2], rows[:, 2:n_top],
                     rows[:, n_top:]).reshape(len(blocks), G * m, -1)
    t0 = t[0]
    # J[row, output, coordinate]
    J = np.moveaxis((t[1::2] - t[2::2])
                    / span.reshape(G * m, d).T[:, :, None], 0, -1)
    map_core.require_finite(t0, J)
    na = np.linalg.norm(t0[:, :n_top], axis=1) + np.linalg.svd(
        J[:, :n_top], compute_uv=False)[:, 0]
    nb = np.linalg.norm(t0[:, n_top:], axis=1) + np.linalg.svd(
        J[:, n_top:], compute_uv=False)[:, 0]
    return float(np.max(na)), float(np.max(nb))


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
    remainders below ``delta`` (default (1 - q)/3).  The remainder sup is
    sampled over omega in [-1/lam, 2/lam], eps in (-r1, r1), x over one
    period or the box (-2, 2), and ||y|| <= r1, with derivatives by central
    differences; its groups are drawn once per ladder walk
    (`_remainder_groups`) and each rung rescales their omega column.  An
    ``n_samples`` below 1 (nan included) raises `ValueError` before any
    evaluation; `CertificateError` when q or ||beta_y(0)|| is not below 1,
    or when no scale passes.
    """
    require_count("n_samples", n_samples)
    q = map_core.pairwise_q(spec, np.random.default_rng(seed),
                            max(n_samples, 32), spec.r1)
    if not q < 1.0:
        raise CertificateError(f"sampled contraction q = {q:.6g} is not < 1")
    norm_B = float(np.linalg.norm(map_core.beta_y0(spec), 2))
    if not norm_B <= q:
        # sampled pairs may slightly undershoot the derivative norm
        q = norm_B
        if not q < 1.0:
            raise CertificateError(f"||beta_y(0)|| = {norm_B:.6g} is not < 1")
    if delta is None:
        delta = (1.0 - q) / 3.0
    x_range = ((0.0, spec.period) if spec.periodic_coord is not None
               else (-2.0, 2.0))
    groups = _remainder_groups(spec, (-spec.r1, spec.r1), x_range, n_samples,
                               seed)
    for lam in LADDER:
        params = embedding_params(spec, lam, q)
        if spectral_gap(params)[1] and all(
                s <= delta for s in _tilde_sup(spec, lam, groups)):
            return replace(params, lambda0=lam,
                           eps0=spec.r1 * lam**2 / 2.0, r0=lam * spec.r1)
    raise CertificateError(
        f"no ladder scale satisfies the delta={delta:g} remainder bound "
        "together with the spectral gap"
    )
