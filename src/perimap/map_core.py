"""Periodically perturbed maps: evaluation, iteration and runtime assumption checks.

The map class handled throughout the package sends (x, y) in R^k1 x r1*D^k2 to

    (x + omega * alpha(omega, eps, x, y),  beta(omega, eps, x, y)).

``alpha`` and ``beta`` are user evaluators that must be vectorized over a
leading batch axis: for inputs x of shape (n, k1) and y of shape (n, k2) they
return (n, k1) and (n, k2).  ``omega`` and ``eps`` are always scalars.  All
operations here are pure functions of their inputs, so a `MapSpec` can be
shared freely across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import ConfigError, DomainError, EvaluationError
from .numdiff import central_jacobian, first_step, second_step
from .sampling import ball_points, latin_hypercube, stratified_groups

Array = np.ndarray


@dataclass(frozen=True)
class MapSpec:
    """A periodically perturbed map given by its alpha/beta evaluators.

    ``periodic_coord`` is the 1-based index k of the x-coordinate in which
    alpha and beta are declared ``period``-periodic; ``None`` means no
    periodicity is claimed (and the invariant-curve solver is unavailable).

    ``batched`` declares that one call of alpha (then of beta at the same
    points) on a few hundred points costs about as much as on one, as for a
    wrapped Poincare map, where a call is one batched flow.  The curve solver
    then spends extra points on the derivatives of a Newton step
    (see `invariant_graph`); the evaluators' results do not depend on it.
    """

    k1: int
    k2: int
    r1: float
    alpha: Callable[..., Array]
    beta: Callable[..., Array]
    periodic_coord: Optional[int] = None
    period: Optional[float] = None
    label: str = ""
    batched: bool = False

    def __post_init__(self):
        if self.k1 < 1 or self.k2 < 1:
            raise ValueError("k1 and k2 must be positive")
        if not (self.r1 > 0):
            raise ValueError("r1 must be positive")
        if self.periodic_coord is not None:
            if not 1 <= self.periodic_coord <= self.k1:
                raise ValueError("periodic_coord must lie in [1, k1]")
            if self.period is None or not (self.period > 0):
                raise ValueError("period must be positive when periodic_coord is set")


@dataclass
class Trajectory:
    """Finite orbit of the map; ``escaped`` marks an exit from the y-disc.

    When ``escaped`` is True the final recorded point is the one that left
    r1*D^k2 and no further points are appended.
    """

    xs: Array
    ys: Array
    omega: float
    eps: float
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

def _as_point(v, k, name):
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != k:
        raise EvaluationError(f"{name} must have {k} components, got {v.size}")
    return v


def _eval_raw(spec, omega, eps, x, y):
    """Single-point map evaluation without the domain check."""
    a = np.asarray(spec.alpha(omega, eps, x[None, :], y[None, :]), dtype=float)
    b = np.asarray(spec.beta(omega, eps, x[None, :], y[None, :]), dtype=float)
    if a.shape != (1, spec.k1) or b.shape != (1, spec.k2):
        raise EvaluationError(
            f"evaluator shape mismatch: alpha {a.shape}, beta {b.shape}"
        )
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise EvaluationError("alpha/beta returned non-finite values")
    return x + omega * a[0], b[0]


def eval_map(spec, omega, eps, x, y):
    """One application of the map.  Requires ||y|| <= r1."""
    x = _as_point(x, spec.k1, "x")
    y = _as_point(y, spec.k2, "y")
    if np.linalg.norm(y) > spec.r1:
        raise DomainError(f"||y|| = {np.linalg.norm(y):.3g} exceeds r1 = {spec.r1}")
    return _eval_raw(spec, float(omega), float(eps), x, y)


def iterate(spec, omega, eps, x0, y0, n):
    """Trajectory of length <= n+1; stops early (escaped) if y leaves the disc."""
    x = _as_point(x0, spec.k1, "x0")
    y = _as_point(y0, spec.k2, "y0")
    if np.linalg.norm(y) > spec.r1:
        raise DomainError(f"||y0|| = {np.linalg.norm(y):.3g} exceeds r1 = {spec.r1}")
    xs, ys = [x], [y]
    escaped = False
    for _ in range(int(n)):
        x, y = _eval_raw(spec, float(omega), float(eps), x, y)
        xs.append(x)
        ys.append(y)
        if np.linalg.norm(y) > spec.r1:
            escaped = True
            break
    return Trajectory(np.array(xs), np.array(ys), float(omega), float(eps), escaped)


# ----------------------------------------------------------------------------
# assumption checks
# ----------------------------------------------------------------------------

def _coordinate_diff_sups(fun, omega, eps, X, Y):
    """Sup of |f|, centered first and second differences over all arguments.

    ``fun(omega, eps, X, Y)`` is one of the spec evaluators; omega/eps are
    scalars here, so differencing in those coordinates shifts the scalar while
    the (x, y) batch is shared.  A column of X or Y shifts as a whole, with
    steps sized by its largest entry.  Returns (sup_f, sup_d1, sup_d2).
    """
    args = (omega, eps, X, Y)
    f0 = np.asarray(fun(*args), dtype=float)
    sup_f = float(np.max(np.abs(f0))) if f0.size else 0.0
    sup_d1 = 0.0
    sup_d2 = 0.0

    def shifted(a, j, step):
        moved = list(args)
        if j is None:
            moved[a] = args[a] + step
        else:
            moved[a] = args[a].copy()
            moved[a][:, j] += step
        return np.asarray(fun(*moved), dtype=float)

    # (argument, column): omega, eps, then every column of X and of Y
    coords = [(0, None), (1, None)] + [(a, j) for a in (2, 3)
                                       for j in range(args[a].shape[1])]
    for a, j in coords:
        scale = args[a] if j is None else max(
            1.0, float(np.max(np.abs(args[a][:, j]))))
        h1, h2 = float(first_step(scale)), float(second_step(scale))
        plus1, minus1, plus2, minus2 = (shifted(a, j, step)
                                        for step in (h1, -h1, h2, -h2))
        sup_d1 = max(sup_d1, float(np.max(np.abs(plus1 - minus1) / (2.0 * h1))))
        sup_d2 = max(
            sup_d2, float(np.max(np.abs(plus2 - 2.0 * f0 + minus2) / h2**2)))
    return sup_f, sup_d1, sup_d2


def pairwise_q(spec, rng, n_samples, y_radius):
    """Lipschitz constant of y -> beta(0,0,0,y) over all pairs of
    max(8, ``n_samples``) points of the ``y_radius`` ball, the first draw of
    ``rng``."""
    n_q = max(8, n_samples)
    ys = ball_points(latin_hypercube(rng, n_q, spec.k2), y_radius)
    b = np.asarray(spec.beta(0.0, 0.0, np.zeros((n_q, spec.k1)), ys), dtype=float)
    dy = np.linalg.norm(ys[:, None, :] - ys[None, :, :], axis=-1)
    db = np.linalg.norm(b[:, None, :] - b[None, :, :], axis=-1)
    mask = dy > 0
    return float(np.max(db[mask] / dy[mask])) if np.any(mask) else 0.0


def beta_y0(spec):
    """beta_y(0): central finite-difference Jacobian of y -> beta(0,0,0,y)
    at the origin."""
    def beta_at_y(Y):
        return spec.beta(0.0, 0.0, np.zeros((len(Y), spec.k1)), Y)

    return central_jacobian(beta_at_y, np.zeros(spec.k2))[1]


def check_assumptions(spec, box=None, n_samples=128, seed=0):
    """Sampled predicates for the standing assumptions; deterministic in ``seed``.

    * q_estimate: `pairwise_q`, the first draw of ``default_rng(seed)``.
    * beta_y(0) by `beta_y0`, with an invertibility flag.
    * a2_defect: sup deviation of alpha/beta at eps=0 from their values at
      (omega, x) = 0, plus ||beta(0)||.
    * periodicity_defect: sup of |f(x + T e_k) - f(x)| when a periodic
      coordinate is declared.
    * bounds: sup-norms of alpha, beta and their sampled first/second
      differences over the box (noisy for integrator-backed evaluators; these
      fields are diagnostics, not certificates).
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    box = box or SamplingBox()
    eps_range = box.eps if box.eps is not None else (-spec.r1, spec.r1)
    y_radius = box.y_radius if box.y_radius is not None else spec.r1
    rng = np.random.default_rng(seed)

    zeros_x = np.zeros((1, spec.k1))
    zeros_y = np.zeros((1, spec.k2))

    q_estimate = pairwise_q(spec, rng, n_samples, y_radius)
    B = beta_y0(spec)
    sv = np.linalg.svd(B, compute_uv=False)
    invertible = bool(sv[-1] > 1e-12 * max(1.0, float(sv[0])))

    a2 = float(np.linalg.norm(np.asarray(
        spec.beta(0.0, 0.0, zeros_x, zeros_y), dtype=float)))
    per = 0.0
    sup_a = sup_b = d1_a = d1_b = d2_a = d2_b = 0.0

    if spec.periodic_coord is not None:
        shift = np.zeros(spec.k1)
        shift[spec.periodic_coord - 1] = spec.period

    # stratified (omega, eps) groups with (x, y) sub-batches
    for w, e, X, Y in stratified_groups(rng, n_samples, 2, box.omega,
                                        eps_range, box.x, y_radius,
                                        spec.k1, spec.k2):
        # at eps=0 the outputs must not see omega or x
        a_w = np.asarray(spec.alpha(w, 0.0, X, Y), dtype=float)
        b_w = np.asarray(spec.beta(w, 0.0, X, Y), dtype=float)
        a_0 = np.asarray(spec.alpha(0.0, 0.0, np.zeros_like(X), Y), dtype=float)
        b_0 = np.asarray(spec.beta(0.0, 0.0, np.zeros_like(X), Y), dtype=float)
        a2 = max(a2, float(np.max(np.abs(a_w - a_0))), float(np.max(np.abs(b_w - b_0))))

        # declared periodicity in the k-th x coordinate
        if spec.periodic_coord is not None:
            a_s = np.asarray(spec.alpha(w, e, X + shift, Y), dtype=float)
            b_s = np.asarray(spec.beta(w, e, X + shift, Y), dtype=float)
            a_p = np.asarray(spec.alpha(w, e, X, Y), dtype=float)
            b_p = np.asarray(spec.beta(w, e, X, Y), dtype=float)
            per = max(per, float(np.max(np.abs(a_s - a_p))),
                      float(np.max(np.abs(b_s - b_p))))

        sa, da, dda = _coordinate_diff_sups(spec.alpha, w, e, X, Y)
        sb, db_, ddb = _coordinate_diff_sups(spec.beta, w, e, X, Y)
        sup_a, d1_a, d2_a = max(sup_a, sa), max(d1_a, da), max(d2_a, dda)
        sup_b, d1_b, d2_b = max(sup_b, sb), max(d1_b, db_), max(d2_b, ddb)

    bounds = {
        "sup_alpha": sup_a,
        "sup_beta": sup_b,
        "sup_dalpha": d1_a,
        "sup_dbeta": d1_b,
        "sup_d2alpha": d2_a,
        "sup_d2beta": d2_b,
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
    two_pi = 2.0 * np.pi / period

    def alpha(omega, eps, x, y):
        return 1.0 + advance_coupling * eps * np.cos(two_pi * x)

    def beta(omega, eps, x, y):
        return q * y + eps * coupling * np.sin(two_pi * x) + y2_coupling * eps * y**2

    return MapSpec(k1=1, k2=1, r1=r1, alpha=alpha, beta=beta,
                   periodic_coord=1, period=period, label="nonlinear-toy")


_BUILTIN_MAPS = {
    "linear-shear": (linear_shear, {"q", "coupling", "period", "r1"}),
    "nonlinear-toy": (nonlinear_toy, {"q", "coupling", "y2_coupling",
                                      "advance_coupling", "period", "r1"}),
}


def make_system(name, **params):
    """Construct a built-in map by name with parameter overrides."""
    if name not in _BUILTIN_MAPS:
        raise ConfigError(f"unknown system '{name}' (have {sorted(_BUILTIN_MAPS)})")
    builder, allowed = _BUILTIN_MAPS[name]
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(f"unknown parameters for '{name}': {sorted(unknown)}")
    return builder(**params)

