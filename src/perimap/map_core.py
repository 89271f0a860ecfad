"""Periodically perturbed maps: evaluation, iteration and runtime assumption checks.

The map class handled throughout the package sends (x, y) in R^k1 x r1*D^k2 to

    (x + omega * alpha(omega, eps, x, y),  beta(omega, eps, x, y)).

``alpha`` and ``beta`` are user evaluators that must be vectorized over a
leading batch axis: for inputs x of shape (n, k1) and y of shape (n, k2) they
return (n, k1) and (n, k2).  ``omega`` and ``eps`` are always scalars.  All
operations here are pure functions of their inputs (`origin` keeps its
read-only results), so a `MapSpec` can be shared freely across threads.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .exceptions import ConfigError, DomainError, EvaluationError
from .numdiff import central_jacobian, first_step, second_step
from .sampling import (ball_points, latin_hypercube, require_positive,
                       stratified_groups)

Array = np.ndarray

ORIGIN_CACHE_SIZE = 8  # specs whose `origin` is kept; a certificate reads one


@dataclass(frozen=True)
class MapSpec:
    """A periodically perturbed map given by its alpha/beta evaluators.

    ``periodic_coord`` is the 1-based index k of the x-coordinate in which
    alpha and beta are declared ``period``-periodic; ``None`` means no
    periodicity is claimed (and the invariant-curve solver is unavailable).

    The curve solver treats every spec alike, closed-form or a wrapped
    Poincare map whose call is one batched flow: each push is one call of
    alpha, then of beta, at the nodes (see `invariant_graph`).
    """

    k1: int
    k2: int
    r1: float
    alpha: Callable[..., Array]
    beta: Callable[..., Array]
    periodic_coord: Optional[int] = None
    period: Optional[float] = None
    label: str = ""

    def __post_init__(self):
        if self.k1 < 1 or self.k2 < 1:
            raise ValueError("k1 and k2 must be positive")
        require_positive("r1", self.r1)
        if self.periodic_coord is not None:
            if not 1 <= self.periodic_coord <= self.k1:
                raise ValueError("periodic_coord must lie in [1, k1]")
            require_positive("period", self.period)


@dataclass
class Trajectory:
    """Finite orbit of the map; ``escaped`` marks an exit from the y-disc.

    When ``escaped`` is True the final recorded point is the one that left
    r1*D^k2 and no further points are appended.
    """

    xs: Array
    ys: Array
    escaped: bool

    def __len__(self):
        return self.xs.shape[0]


@dataclass(frozen=True)
class SamplingBox:
    """Box over (omega, eps, x, y) used by the sampled assumption checks.

    ``eps`` defaults to (-r1, r1) and ``y_radius`` to r1 of the spec at hand.
    """

    omega: tuple = (-1.0, 2.0)
    eps: Optional[tuple] = None
    x: tuple = (-2.0, 2.0)
    y_radius: Optional[float] = None


@dataclass
class AssumptionReport:
    """Sampled certificates for the standing assumptions of the map class."""

    q_estimate: float
    beta_y0: Array
    beta_y0_invertible: bool
    a2_defect: float
    periodicity_defect: float
    bounds: dict
    n_samples: int
    seed: int

    def to_json_dict(self):
        return {
            "q_estimate": self.q_estimate,
            "beta_y0": self.beta_y0.tolist(),
            "beta_y0_invertible": bool(self.beta_y0_invertible),
            "a2_defect": self.a2_defect,
            "periodicity_defect": self.periodicity_defect,
            "bounds": dict(self.bounds),
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


# ----------------------------------------------------------------------------
# evaluation and iteration
# ----------------------------------------------------------------------------

def eval_batch(spec, omega, eps, X, Y):
    """alpha, then beta, at the rows (X, Y), checked for the shapes (n, k1)
    and (n, k2).  Finiteness is the caller's to test, once per batch or
    group (`require_finite`), not once per call of a stencil."""
    n = len(X)
    a = np.asarray(spec.alpha(omega, eps, X, Y), dtype=float)
    b = np.asarray(spec.beta(omega, eps, X, Y), dtype=float)
    if a.shape != (n, spec.k1) or b.shape != (n, spec.k2):
        raise EvaluationError(
            f"evaluator shape mismatch: alpha {a.shape}, beta {b.shape}, "
            f"expected {(n, spec.k1)} and {(n, spec.k2)}")
    return a, b


def require_finite(*values):
    """`EvaluationError` unless every entry of ``values`` is finite."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise EvaluationError("alpha/beta returned non-finite values")


def orbits(spec, omega, eps, X, Y, n):
    """Orbits (xs, ys) of the rows (X, Y) under ``n`` >= 0 steps, each
    (n + 1, m, k), and ``inside`` (m,), true where a whole orbit stayed in
    the r1 disc.  A step evaluates only the rows still inside (`eval_batch`,
    `require_finite`); a row keeps its exit point and is nan after it."""
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    omega, eps = float(omega), float(eps)
    xs = np.full((n + 1,) + np.shape(X), np.nan)
    ys = np.full((n + 1,) + np.shape(Y), np.nan)
    xs[0], ys[0] = X, Y
    inside = np.linalg.norm(ys[0], axis=-1) <= spec.r1
    for j in range(n):
        if not inside.any():
            break
        a, b = eval_batch(spec, omega, eps, xs[j, inside], ys[j, inside])
        require_finite(a, b)
        xs[j + 1, inside] = xs[j, inside] + omega * a
        ys[j + 1, inside] = b
        inside[inside] = np.linalg.norm(b, axis=-1) <= spec.r1
    return xs, ys, inside


def _start(spec, x, y, suffix):
    """The point (x, y), named x``suffix`` and y``suffix``, as rows (1, k1)
    and (1, k2): `EvaluationError` for a size, `DomainError` if ||y|| > r1."""
    x, y = (np.asarray(v, dtype=float).reshape(1, -1) for v in (x, y))
    for v, k, name in ((x, spec.k1, "x"), (y, spec.k2, "y")):
        if v.size != k:
            raise EvaluationError(
                f"{name}{suffix} must have {k} components, got {v.size}")
    if np.linalg.norm(y) > spec.r1:
        raise DomainError(f"||y{suffix}|| = {np.linalg.norm(y):.3g} exceeds "
                          f"r1 = {spec.r1}")
    return x, y


def eval_map(spec, omega, eps, x, y):
    """One application of the map (`orbits`).  Requires ||y|| <= r1."""
    xs, ys, _ = orbits(spec, omega, eps, *_start(spec, x, y, ""), 1)
    return xs[1, 0], ys[1, 0]


def iterate(spec, omega, eps, x0, y0, n):
    """Trajectory of length <= n+1 (`orbits`); stops early (escaped) if y
    leaves the disc."""
    xs, ys, inside = orbits(spec, omega, eps, *_start(spec, x0, y0, "0"), n)
    m = int(np.sum(np.isfinite(ys[:, 0, 0])))
    return Trajectory(xs[:m, 0], ys[:m, 0], not inside[0])


# ----------------------------------------------------------------------------
# assumption checks
# ----------------------------------------------------------------------------

def _coordinate_diff_sups(fun, omega, eps, X, Y):
    """Values and column sups of centered first and second differences over
    all arguments.

    ``fun(omega, eps, X, Y)`` returns (n, c) columns; omega/eps are scalars
    here, so differencing in those coordinates shifts the scalar while the
    (x, y) batch is shared.  A column of X or Y shifts as a whole, with steps
    sized by its largest entry.  Returns (f, sup_d1, sup_d2): f at the
    stencil's centre, (n, c), and the sups over rows and coordinates, (c,).
    """
    args = (omega, eps, X, Y)
    f0 = fun(*args)
    sup_d1 = sup_d2 = np.zeros(f0.shape[1])

    def shifted(a, j, step):
        moved = list(args)
        if j is None:
            moved[a] = args[a] + step
        else:
            moved[a] = args[a].copy()
            moved[a][:, j] += step
        return fun(*moved)

    # (argument, column): omega, eps, then every column of X and of Y
    coords = [(0, None), (1, None)] + [(a, j) for a in (2, 3)
                                       for j in range(args[a].shape[1])]
    for a, j in coords:
        scale = args[a] if j is None else max(
            1.0, float(np.max(np.abs(args[a][:, j]))))
        h1, h2 = float(first_step(scale)), float(second_step(scale))
        plus1, minus1, plus2, minus2 = (shifted(a, j, step)
                                        for step in (h1, -h1, h2, -h2))
        sup_d1 = np.maximum(sup_d1, np.max(np.abs(plus1 - minus1) / (2.0 * h1),
                                           axis=0))
        sup_d2 = np.maximum(sup_d2, np.max(
            np.abs(plus2 - 2.0 * f0 + minus2) / h2**2, axis=0))
    return f0, sup_d1, sup_d2


def pairwise_q(spec, rng, n_samples, y_radius):
    """Lipschitz constant of y -> beta(0,0,0,y) over all pairs of
    max(8, ``n_samples``) points of the ``y_radius`` ball, the first draw of
    ``rng``."""
    n_q = max(8, n_samples)
    ys = ball_points(latin_hypercube(rng, n_q, spec.k2), y_radius)
    a, b = eval_batch(spec, 0.0, 0.0, np.zeros((n_q, spec.k1)), ys)
    require_finite(a, b)
    dy = np.linalg.norm(ys[:, None, :] - ys[None, :, :], axis=-1)
    db = np.linalg.norm(b[:, None, :] - b[None, :, :], axis=-1)
    mask = dy > 0
    return float(np.max(db[mask] / dy[mask])) if np.any(mask) else 0.0


@lru_cache(maxsize=ORIGIN_CACHE_SIZE)
def origin(spec):
    """(alpha(0), beta(0), beta_y(0)), read-only, from one `central_jacobian`
    stencil of y -> (alpha, beta)(0,0,0,y); by the eps = 0 independence
    alpha(0) and B = beta_y(0) are the linear part of the model map."""
    def both(Y):
        a, b = eval_batch(spec, 0.0, 0.0, np.zeros((len(Y), spec.k1)), Y)
        require_finite(a, b)
        return np.hstack((a, b))

    f0, J, _ = central_jacobian(both, np.zeros(spec.k2))
    constants = (f0[:spec.k1], f0[spec.k1:], J[spec.k1:])
    for c in constants:
        c.setflags(write=False)
    return constants


def beta_y0(spec):
    """beta_y(0), read-only: the central-difference Jacobian of
    y -> beta(0,0,0,y) at the origin (see `origin`)."""
    return origin(spec)[2]


def check_assumptions(spec, box=None, n_samples=128, seed=0):
    """Sampled predicates for the standing assumptions; deterministic in ``seed``.

    * q_estimate: `pairwise_q`, the first draw of ``default_rng(seed)``.
    * beta_y(0) from `origin`, with an invertibility flag.
    * a2_defect: sup deviation of alpha/beta at eps=0 from their values at
      (omega, x) = 0, plus ||beta(0)||.
    * periodicity_defect: sup of |f(x + T e_k) - f(x)| when a periodic
      coordinate is declared.
    * bounds: sup-norms of alpha, beta and their sampled first/second
      differences over the box (noisy for integrator-backed evaluators; these
      fields are diagnostics, not certificates).

    Each stencil point evaluates alpha and then beta, so a wrapped Poincare
    map answers beta from its memo.  A misshaped or non-finite evaluation
    raises `EvaluationError`.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    box = box or SamplingBox()
    eps_range = box.eps if box.eps is not None else (-spec.r1, spec.r1)
    y_radius = box.y_radius if box.y_radius is not None else spec.r1
    rng = np.random.default_rng(seed)
    k1 = spec.k1

    def both(w, e, X, Y):  # alpha's columns, then beta's
        return np.hstack(eval_batch(spec, w, e, X, Y))

    q_estimate = pairwise_q(spec, rng, n_samples, y_radius)
    _, beta_0, B = origin(spec)
    sv = np.linalg.svd(B, compute_uv=False)
    invertible = bool(sv[-1] > 1e-12 * max(1.0, float(sv[0])))

    a2 = float(np.linalg.norm(beta_0))
    per = 0.0
    sup = d1 = d2 = np.zeros(k1 + spec.k2)

    if spec.periodic_coord is not None:
        shift = np.zeros(k1)
        shift[spec.periodic_coord - 1] = spec.period

    # stratified (omega, eps) groups with (x, y) sub-batches
    for w, e, X, Y in stratified_groups(rng, n_samples, 2, box.omega,
                                        eps_range, box.x, y_radius,
                                        k1, spec.k2):
        # at eps=0 the outputs must not see omega or x
        a2_g = float(np.max(np.abs(both(w, 0.0, X, Y)
                                   - both(0.0, 0.0, np.zeros_like(X), Y))))
        f, d1_g, d2_g = _coordinate_diff_sups(both, w, e, X, Y)
        # declared periodicity in the k-th x coordinate; f is at (w, e, X, Y)
        per_g = (float(np.max(np.abs(both(w, e, X + shift, Y) - f)))
                 if spec.periodic_coord is not None else 0.0)
        require_finite(f, d1_g, d2_g, a2_g, per_g)
        a2, per = max(a2, a2_g), max(per, per_g)
        sup = np.maximum(sup, np.max(np.abs(f), axis=0))
        d1, d2 = np.maximum(d1, d1_g), np.maximum(d2, d2_g)

    bounds = {
        "sup_alpha": float(np.max(sup[:k1])),
        "sup_beta": float(np.max(sup[k1:])),
        "sup_dalpha": float(np.max(d1[:k1])),
        "sup_dbeta": float(np.max(d1[k1:])),
        "sup_d2alpha": float(np.max(d2[:k1])),
        "sup_d2beta": float(np.max(d2[k1:])),
    }
    return AssumptionReport(
        q_estimate=q_estimate,
        beta_y0=B,
        beta_y0_invertible=invertible,
        a2_defect=a2,
        periodicity_defect=per,
        bounds=bounds,
        n_samples=int(n_samples),
        seed=int(seed),
    )


# ----------------------------------------------------------------------------
# built-in systems
# ----------------------------------------------------------------------------

def linear_shear(q=0.5, coupling=1.0, period=1.0, r1=1.0):
    """Scalar shear with linear contraction:  beta = q*y + eps*c*sin(2 pi x / T)."""
    require_positive("period", period)
    two_pi = 2.0 * np.pi / period

    def alpha(omega, eps, x, y):
        return np.ones_like(x)

    def beta(omega, eps, x, y):
        return q * y + eps * coupling * np.sin(two_pi * x)

    return MapSpec(k1=1, k2=1, r1=r1, alpha=alpha, beta=beta,
                   periodic_coord=1, period=period, label="linear-shear")


def nonlinear_toy(q=0.5, coupling=1.0, y2_coupling=0.1, advance_coupling=0.1,
                  period=1.0, r1=1.0):
    """Nonlinear variant: quadratic y-coupling and an eps-dependent advance."""
    require_positive("period", period)
    two_pi = 2.0 * np.pi / period

    def alpha(omega, eps, x, y):
        return 1.0 + advance_coupling * eps * np.cos(two_pi * x)

    def beta(omega, eps, x, y):
        return q * y + eps * coupling * np.sin(two_pi * x) + y2_coupling * eps * y**2

    return MapSpec(k1=1, k2=1, r1=r1, alpha=alpha, beta=beta,
                   periodic_coord=1, period=period, label="nonlinear-toy")


_BUILTIN_MAPS = {"linear-shear": linear_shear, "nonlinear-toy": nonlinear_toy}


def registered_builder(registry, name, params):
    """The builder that ``registry`` holds under ``name``; `ConfigError` for an
    unknown name or for a key of ``params`` that is not one of the builder's
    parameters (its signature is the system's parameter list)."""
    if name not in registry:
        raise ConfigError(f"unknown system '{name}' (have {sorted(registry)})")
    builder = registry[name]
    unknown = set(params) - set(inspect.signature(builder).parameters)
    if unknown:
        raise ConfigError(f"unknown parameters for '{name}': {sorted(unknown)}")
    return builder


def make_system(name, **params):
    """Construct a built-in map by name with parameter overrides."""
    return registered_builder(_BUILTIN_MAPS, name, params)(**params)
