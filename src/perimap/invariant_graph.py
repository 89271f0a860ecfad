"""Graph-transform solver for T-periodic attracting invariant curves (k1 = 1).

A candidate curve phi is pushed forward through the map: the image of its
graph is re-expressed as a graph over the same grid by solving, for every
target node s, the scalar advance equation

    x + omega * alpha(omega, eps, x, phi(x)) = s   (mod window)

by safeguarded bracketed root-finding, and setting the new value at s to
beta(omega, eps, x, phi(x)).  Iterating this transform contracts (rate about
q in the y-Lipschitz constant of beta) to the unique invariant curve.

The root solve drives all nodes in lockstep, so each of its iterations is
one batched advance evaluation -- one batched flow when the map is a wrapped
Poincare map, whose cost hardly depends on the number of lanes.  The
measured bracket endpoints a(0) and a(window) ride in the first evaluation
of each sweep; sweep 1 instead starts from the grid that the monotonicity
check has already evaluated, and later sweeps from the previous preimages.

Curves are stored on a uniform grid.  The standard representation is an
exactly periodic cubic spline; the doubled-window variant used by the
emergent-periodicity test keeps a clamped (non-periodic) spline on [0, 2T)
while only the advance equation wraps, so any periodicity of the solution has
to emerge from the dynamics rather than from the representation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .exceptions import (BracketingError, ConvergenceError, DomainError,
                         MonotonicityError)

Array = np.ndarray


def _reduce_mod(x, period):
    # fmod is exact, so eval(x + T) == eval(x) bit-for-bit whenever x + T is
    # itself exact in floating point
    r = np.fmod(x, period)
    return np.where(r < 0, r + period, r)


@dataclass(eq=False)
class PeriodicGridFn:
    """T-periodic vector-valued function on a uniform grid with spline interpolation.

    ``values`` has shape (n_nodes, k2) with node i at x = i*T/n_nodes.
    Evaluation reduces the argument mod T first, so the representation is
    exactly periodic by construction.
    """

    period: float
    values: Array
    _spline: CubicSpline = field(init=False, repr=False)

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.ndim != 2 or self.values.shape[0] < 2:
            raise ValueError("values must be (n_nodes >= 2, k2)")
        n = self.values.shape[0]
        xs = np.linspace(0.0, self.period, n + 1)
        vals = np.vstack([self.values, self.values[:1]])
        self._spline = CubicSpline(xs, vals, bc_type="periodic", axis=0)

    @classmethod
    def zeros(cls, period, n_nodes, k2=1):
        return cls(period, np.zeros((n_nodes, k2)))

    @classmethod
    def constant(cls, period, n_nodes, value):
        value = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(period, np.tile(value, (n_nodes, 1)))

    @property
    def n_nodes(self):
        return self.values.shape[0]

    @property
    def k2(self):
        return self.values.shape[1]

    @property
    def nodes(self):
        return np.linspace(0.0, self.period, self.n_nodes + 1)[:-1]

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        return self._spline(_reduce_mod(x, self.period))

    def with_values(self, values):
        return PeriodicGridFn(self.period, values)

    def sup_norm(self):
        """Sup of ||phi|| over one period.

        Exact (up to the cubic pieces) for k2 = 1 via the extrema of the
        spline; a dense-sampling estimate for k2 > 1.
        """
        if self.k2 == 1:
            roots = self._spline.derivative().roots(extrapolate=False)
            if isinstance(roots, np.ndarray) and roots.dtype == object:
                parts = [np.atleast_1d(np.asarray(r, float)) for r in roots.ravel()]
                roots = np.concatenate(parts) if parts else np.array([])
            crit = np.asarray(roots, float).ravel()
            crit = crit[np.isfinite(crit)]  # flat pieces report nan roots
            xs = np.concatenate([self._spline.x, crit])
            vals = np.atleast_2d(self._spline(xs))
            return float(np.max(np.abs(vals)))
        xs = np.linspace(0.0, self.period, 16 * self.n_nodes, endpoint=False)
        return float(np.max(np.linalg.norm(self.eval(xs), axis=-1)))


def _edge_slope(values, h, left):
    """4th-order one-sided slope estimate from the first/last five nodes."""
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    if left:
        return (c @ values[:5]) / h
    return -(c @ values[-1:-6:-1]) / h


@dataclass(eq=False)
class WindowGridFn:
    """Non-periodic (clamped-spline) curve on [0, length]; nodes inclusive.

    Used by the doubled-window periodicity test: only the advance equation
    wraps mod ``length``; the representation carries no periodic constraint.
    """

    length: float
    values: Array  # (n_nodes + 1, k2), nodes at i * length / n_nodes
    _spline: CubicSpline = field(init=False, repr=False)

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        n = self.values.shape[0] - 1
        if n < 5:
            raise ValueError("need at least 6 window nodes")
        xs = np.linspace(0.0, self.length, n + 1)
        h = self.length / n
        bc = ((1, _edge_slope(self.values, h, True)),
              (1, _edge_slope(self.values, h, False)))
        self._spline = CubicSpline(xs, self.values, bc_type=bc, axis=0)

    @classmethod
    def zeros(cls, length, n_nodes, k2=1):
        return cls(length, np.zeros((n_nodes + 1, k2)))

    @property
    def nodes(self):
        return np.linspace(0.0, self.length, self.values.shape[0])

    @property
    def k2(self):
        return self.values.shape[1]

    def eval(self, x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, self.length)
        return self._spline(x)

    def with_values(self, values):
        return WindowGridFn(self.length, values)


@dataclass
class SolverReport:
    """Verification record of one invariant-curve solve."""

    iterations: int
    final_update: float
    invariance_residual: float
    periodicity_defect: Optional[float]
    measured_rates: list
    rate_bound: Optional[float]
    converged: bool
    n_nodes: int
    tol: float

    def to_json_dict(self):
        return {
            "iterations": self.iterations,
            "final_update": self.final_update,
            "invariance_residual": self.invariance_residual,
            "periodicity_defect": self.periodicity_defect,
            "measured_rates": list(self.measured_rates),
            "rate_bound": self.rate_bound,
            "converged": bool(self.converged),
            "n_nodes": self.n_nodes,
            "tol": self.tol,
        }


@dataclass
class AttractionReport:
    """Distances to the curve along sampled trajectories and their decay rates."""

    distances: Array  # (n_steps + 1, n_traj)
    rates: Array      # per-step max over valid trajectories of d_{j+1}/d_j
    rate_bound: Optional[float]
    escaped: int

    @property
    def final_max_distance(self):
        return float(np.max(self.distances[-1]))

    def max_rate(self, transient=5):
        valid = self.rates[transient:]
        valid = valid[np.isfinite(valid)]
        return float(np.max(valid)) if valid.size else float("nan")


@dataclass
class CurveConfig:
    """Knobs of the fixed-point iteration; defaults sized for the test systems.

    ``preimage_tol`` is the advance-equation residual at which a node's
    preimage solve stops (besides the 1e-14 bracket); evaluators backed by an
    adaptive integrator have a noise floor near their integration tolerance,
    below which tighter values only burn iterations.
    """

    n_nodes: int = 256
    tol: float = 1e-12
    max_iter: int = 100
    seed_curve: Optional[PeriodicGridFn] = None
    residual_samples: int = 512
    seed: int = 0
    q: Optional[float] = None  # feeds the reported rate bound q + 2(1-q)/3
    preimage_tol: float = 1e-14


def rate_bound_from_q(q):
    return q + 2.0 * (1.0 - q) / 3.0


# ----------------------------------------------------------------------------
# the transform
# ----------------------------------------------------------------------------

def _advance_closure(spec, omega, eps, curve):
    def advance(xs):
        y = curve.eval(xs)
        a = np.asarray(spec.alpha(omega, eps, xs[:, None], y), dtype=float)
        return xs + omega * a[:, 0]

    return advance


def _check_monotone(advance, window, n_check):
    """Raise unless advance is strictly increasing on a grid of the window;
    returns the grid and its values, ``(xs, advance(xs))``."""
    xs = np.linspace(0.0, window, n_check + 1)
    vals = advance(xs)
    if np.any(np.diff(vals) <= 0.0):
        raise MonotonicityError(
            "x-advance map is not strictly increasing on the window; "
            "the graph transform is undefined at these parameters"
        )
    return xs, vals


def _solve_preimages(advance, targets, window, x0=None, grid=None,
                     f_tol=1e-14, bracket_tol=1e-14, max_iter=200):
    """Vectorized bracketed solve of advance(x) = targets (mod window).

    All lanes are driven in lockstep, so every iteration is one batched
    advance evaluation (one batched flow for integrator-backed maps).  The
    targets are shifted into [a(0), a(0) + window) and bracketed by
    [0, window].  The endpoint values a(0) and a(window) are measured, never
    inferred from periodicity, because the doubled-window curve is not
    periodic; they ride in the first batched evaluation, next to the start
    points.  A lane whose target lies above a(window) has its upper end
    widened by window/8, at most four times, before `BracketingError`.

    The start is ``x0`` (the previous sweep's preimages), else the bracket
    midpoint.  Sweep 1 passes ``grid = (xs, advance(xs))`` on [0, window]
    instead -- the monotonicity check's evaluations: the grid supplies a(0)
    and a(window), and the start interpolates its inverse.  Inside the
    bracket a unit-slope Newton step is tried first -- the advance maps here
    are near-rigid, making it converge in a handful of iterations -- and
    every candidate falls back to bisection whenever it leaves the open
    bracket, so convergence is guaranteed by the monotonicity precondition.
    """
    if x0 is not None and grid is not None:
        raise ValueError("give at most one of x0 and grid")
    targets = np.asarray(targets, dtype=float)
    n = targets.size
    lo = np.zeros(n)
    hi = np.full(n, float(window))
    if grid is None:
        x = (0.5 * hi if x0 is None
             else np.clip(np.asarray(x0, dtype=float), lo, hi))
        a = advance(np.concatenate([[0.0, window], x]))
        a0, a_hi, a_x = a[0], a[1], a[2:]
        t = targets + window * np.ceil((a0 - targets) / window)
    else:
        xs, vals = grid
        a0, a_hi = vals[0], vals[-1]
        t = targets + window * np.ceil((a0 - targets) / window)
        x = np.clip(np.interp(t, vals, xs), lo, hi)
        a_x = advance(x)
    f = a_x - t

    # a(window) should clear the largest shifted target; widen on fp slack
    # or a non-periodic advance
    f_hi = a_hi - t
    for k in range(1, 5):
        bad = f_hi < 0.0
        if not np.any(bad):
            break
        x_hi = window * (1.0 + k / 8.0)
        hi[bad] = x_hi
        f_hi[bad] = advance(np.array([x_hi]))[0] - t[bad]
    if np.any(f_hi < 0.0):
        raise BracketingError("could not bracket the advance-map preimages")

    done = np.abs(f) <= f_tol
    for k in range(int(max_iter)):
        if np.all(done | (hi - lo <= bracket_tol)):
            break
        neg = f < 0.0
        lo = np.where(~done & neg, x, lo)
        hi = np.where(~done & ~neg, x, hi)
        cand = x - f  # unit-slope Newton; exact for rigid advance maps
        mid = 0.5 * (lo + hi)
        take_mid = (cand <= lo) | (cand >= hi) | (k % 4 == 3)
        cand = np.where(take_mid, mid, cand)
        active = ~done & (hi - lo > bracket_tol)
        if not np.any(active):
            break
        x_new = np.where(active, cand, x)
        f_new = f.copy()
        f_new[active] = advance(x_new[active]) - t[active]
        x, f = x_new, f_new
        done = done | (np.abs(f) <= f_tol)
    else:
        raise ConvergenceError("preimage solve exhausted its iteration budget")
    return x


def _sweep(spec, omega, eps, curve, window, x0=None, grid=None, f_tol=1e-14):
    """One graph-transform pass; returns (new node values, preimages).

    ``x0`` and ``grid`` select the preimage solve's start (see
    `_solve_preimages`).
    """
    targets = curve.nodes
    if omega == 0.0:
        # identity advance: the transform degenerates to a per-x update
        pre = targets.copy()
    else:
        advance = _advance_closure(spec, omega, eps, curve)
        pre = _solve_preimages(advance, targets, window, x0=x0, grid=grid,
                               f_tol=f_tol)
    y_pre = curve.eval(pre)
    new_vals = np.asarray(spec.beta(omega, eps, pre[:, None], y_pre), dtype=float)
    if np.max(np.linalg.norm(new_vals, axis=-1)) > spec.r1:
        raise DomainError("graph transform left the radius-r1 disc")
    return new_vals, pre


def _require_scalar_periodic(spec):
    if spec.k1 != 1 or spec.periodic_coord != 1 or spec.period is None:
        raise ValueError(
            "invariant-curve solving requires k1 == 1 with periodic_coord set"
        )


def graph_transform(spec, omega, eps, phi):
    """Image of the graph of ``phi`` under the map, re-gridded over the nodes."""
    _require_scalar_periodic(spec)
    if phi.sup_norm() > spec.r1:
        raise DomainError("candidate curve exceeds the radius-r1 disc")
    grid = None
    if omega != 0.0:
        grid = _check_monotone(_advance_closure(spec, omega, eps, phi),
                               phi.period, 2 * phi.n_nodes)
    new_vals, _ = _sweep(spec, float(omega), float(eps), phi, phi.period,
                         grid=grid)
    return phi.with_values(new_vals)


# ----------------------------------------------------------------------------
# the solver and its verification operations
# ----------------------------------------------------------------------------

def _interp_error_estimate(values):
    """Spline-discretization scale from cyclic 4th differences of the nodes."""
    v = values
    d4 = (np.roll(v, 2, axis=0) - 4 * np.roll(v, 1, axis=0) + 6 * v
          - 4 * np.roll(v, -1, axis=0) + np.roll(v, -2, axis=0))
    return (5.0 / 384.0) * float(np.max(np.abs(d4)))


def _iterate_to_fixed_point(spec, omega, eps, curve, window, tol, max_iter,
                            f_tol=1e-14):
    updates = []
    pre = grid = None
    if omega != 0.0:
        grid = _check_monotone(_advance_closure(spec, omega, eps, curve),
                               window, 2 * (curve.values.shape[0]))
    for it in range(1, int(max_iter) + 1):
        # sweep 1 starts from the monotonicity grid, later ones from the
        # previous preimages
        new_vals, pre = _sweep(spec, omega, eps, curve, window, x0=pre,
                               grid=grid, f_tol=f_tol)
        grid = None
        upd = float(np.max(np.abs(new_vals - curve.values)))
        curve = curve.with_values(new_vals)
        updates.append(upd)
        if upd <= tol:
            return curve, updates, True
    return curve, updates, False


def solve_invariant_curve(spec, omega, eps, config=None):
    """Iterate the graph transform from the seed curve until the node update
    falls below ``tol``; returns the curve and a `SolverReport`.

    ``converged`` additionally requires the off-node invariance residual to be
    explainable by the spline discretization: residual <= 10 * (tol + est),
    where est is the standard interpolation-error scale computed from fourth
    differences of the node values.  This keeps the stall guard of the
    stopping rule without demanding sub-discretization residuals.
    """
    config = config or CurveConfig()
    _require_scalar_periodic(spec)
    omega, eps = float(omega), float(eps)
    curve = config.seed_curve or PeriodicGridFn.zeros(
        spec.period, config.n_nodes, spec.k2)
    if curve.sup_norm() > spec.r1:
        raise DomainError("seed curve exceeds the radius-r1 disc")

    curve, updates, hit_tol = _iterate_to_fixed_point(
        spec, omega, eps, curve, spec.period, config.tol, config.max_iter,
        f_tol=config.preimage_tol)
    if not hit_tol:
        raise ConvergenceError(
            f"no convergence after {config.max_iter} sweeps "
            f"(last update {updates[-1]:.3g})"
        )

    rates = [updates[i + 1] / updates[i]
             for i in range(len(updates) - 1) if updates[i] > 1e-300]
    residual = invariance_residual(spec, omega, eps, curve,
                                   config.residual_samples, config.seed)
    gate = 10.0 * (config.tol + _interp_error_estimate(curve.values))
    report = SolverReport(
        iterations=len(updates),
        final_update=updates[-1],
        invariance_residual=residual,
        periodicity_defect=None,
        measured_rates=rates,
        rate_bound=None if config.q is None else rate_bound_from_q(config.q),
        converged=bool(updates[-1] <= config.tol and residual <= gate),
        n_nodes=config.n_nodes,
        tol=config.tol,
    )
    return curve, report


def invariance_residual(spec, omega, eps, phi, n_samples=512, seed=0):
    """sup over sampled x of || beta(x, phi(x)) - phi(x + omega*alpha(...)) ||.

    ``phi`` may be any object with ``eval`` and ``period`` (duck-typed), so
    closed-form oracles can be checked directly.
    """
    rng = np.random.default_rng(seed)
    period = phi.period
    xs = rng.uniform(0.0, period, int(n_samples))
    y = phi.eval(xs)
    a = np.asarray(spec.alpha(omega, eps, xs[:, None], y), dtype=float)
    b = np.asarray(spec.beta(omega, eps, xs[:, None], y), dtype=float)
    img = phi.eval(xs + omega * a[:, 0])
    return float(np.max(np.linalg.norm(b - img, axis=-1)))


def attraction_test(spec, omega, eps, phi, n_trajectories=20, n_steps=50,
                    seed=0, y_radius=None, q=None, distance_floor=1e-9,
                    x_range=None):
    """Track d_j = ||y_j - phi(x_j)|| along sampled trajectories.

    Initial conditions are drawn from x in ``x_range`` (default one period
    plus margin) and y in the ``y_radius`` ball.  Per-step rates take the max
    of d_{j+1}/d_j over trajectories whose distance is still above
    ``distance_floor``; once distances reach the curve's representation-error
    level the quotients measure interpolation noise, not contraction, so the
    floor must sit above that level.
    """
    rng = np.random.default_rng(seed)
    y_radius = y_radius if y_radius is not None else 0.5 * spec.r1
    period = phi.period
    if x_range is None:
        x_range = (-1.0, period + 1.0)
    xs = rng.uniform(*x_range, n_trajectories)[:, None]
    raw = rng.uniform(-1.0, 1.0, (n_trajectories, spec.k2))
    nrm = np.linalg.norm(raw, axis=1, keepdims=True)
    ys = np.where(nrm > 1.0, raw / nrm, raw) * y_radius

    alive = np.ones(n_trajectories, dtype=bool)
    dist = np.full((n_steps + 1, n_trajectories), np.nan)
    dist[0] = np.linalg.norm(ys - phi.eval(xs[:, 0]), axis=-1)
    for j in range(n_steps):
        a = np.asarray(spec.alpha(omega, eps, xs, ys), dtype=float)
        b = np.asarray(spec.beta(omega, eps, xs, ys), dtype=float)
        xs = np.where(alive[:, None], xs + omega * a, xs)
        ys = np.where(alive[:, None], b, ys)
        alive = alive & (np.linalg.norm(ys, axis=-1) <= spec.r1)
        d = np.linalg.norm(ys - phi.eval(xs[:, 0]), axis=-1)
        dist[j + 1] = np.where(alive, d, np.nan)

    rates = np.full(n_steps, np.nan)
    for j in range(n_steps):
        ok = np.isfinite(dist[j]) & np.isfinite(dist[j + 1]) & (dist[j] >= distance_floor)
        if np.any(ok):
            rates[j] = np.max(dist[j + 1][ok] / dist[j][ok])
    return AttractionReport(
        distances=dist,
        rates=rates,
        rate_bound=None if q is None else rate_bound_from_q(q),
        escaped=int(np.sum(~alive)),
    )


def periodicity_defect(spec, omega, eps, config=None):
    """Emergent-periodicity test: re-solve on the doubled window [0, 2T).

    The representation is a clamped spline with no periodic wrap; only the
    advance equation is taken mod 2T.  Returns sup over x in [0, T) of
    ||phi(x + T) - phi(x)|| for the converged doubled curve.
    """
    config = config or CurveConfig()
    _require_scalar_periodic(spec)
    omega, eps = float(omega), float(eps)
    T = spec.period
    window = 2.0 * T
    curve = WindowGridFn.zeros(window, 2 * config.n_nodes, spec.k2)
    curve, updates, hit_tol = _iterate_to_fixed_point(
        spec, omega, eps, curve, window, config.tol, config.max_iter,
        f_tol=config.preimage_tol)
    if not hit_tol:
        raise ConvergenceError(
            f"doubled-window solve did not converge (last update {updates[-1]:.3g})"
        )
    xs = np.linspace(0.0, T, 4 * config.n_nodes, endpoint=False)
    gap = curve.eval(xs + T) - curve.eval(xs)
    return float(np.max(np.linalg.norm(gap, axis=-1)))


def uniqueness_test(spec, omega, eps, config, seeds):
    """Sup-distance between the curves converged from two seed curves."""
    seed_a, seed_b = seeds
    curve_a, _ = solve_invariant_curve(spec, omega, eps,
                                       replace(config, seed_curve=seed_a))
    curve_b, _ = solve_invariant_curve(spec, omega, eps,
                                       replace(config, seed_curve=seed_b))
    xs = np.linspace(0.0, spec.period, 4 * config.n_nodes, endpoint=False)
    return float(np.max(np.linalg.norm(curve_a.eval(xs) - curve_b.eval(xs),
                                       axis=-1)))


@dataclass
class EpsContinuityRow:
    eps: float
    sup_norm: float
    ratio: Optional[float]  # sup_norm / |eps|, None at eps = 0
    converged: bool


def continuity_in_eps(spec, omega, eps_list, config=None):
    """Table of (eps, sup||phi_eps||, sup/|eps|) sorted by eps."""
    config = config or CurveConfig()
    rows = []
    for eps in sorted(eps_list):
        curve, report = solve_invariant_curve(spec, omega, eps, config)
        sup = curve.sup_norm()
        rows.append(EpsContinuityRow(
            eps=float(eps), sup_norm=sup,
            ratio=None if eps == 0 else sup / abs(eps),
            converged=report.converged))
    return rows


def ratio_band(rows):
    """(min, max) of the nonzero-eps scaling ratios of a continuity table."""
    ratios = [r.ratio for r in rows if r.ratio is not None]
    if not ratios:
        return (math.nan, math.nan)
    return (min(ratios), max(ratios))


# ----------------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------------

def write_csv(path, header, rows):
    """A header line of column names, then every value of ``rows`` as %.16e."""
    np.savetxt(path, np.asarray(rows, dtype=float), fmt="%.16e",
               delimiter=",", header=",".join(header), comments="")


def curve_table(curve):
    """CSV header and rows (x, phi1..phik2) of a curve's node values."""
    header = ["x"] + [f"phi{j + 1}" for j in range(curve.k2)]
    return header, np.column_stack([curve.nodes, curve.values])


def curve_to_json_dict(curve, report=None):
    d = {
        "period": curve.period,
        "n_nodes": curve.n_nodes,
        "values": curve.values.tolist(),
    }
    if report is not None:
        d["report"] = report.to_json_dict()
    return d
