"""Graph-transform solver for T-periodic attracting invariant curves (k1 = 1).

A candidate curve phi, held by its values at uniform nodes, is pushed
forward through the map: alpha and beta are evaluated once per sweep at the
nodes (x_i, phi(x_i)), which go to the images x_i + omega * alpha_i with new
values beta_i.  If the images keep the nodes' cyclic order (else
`MonotonicityError`), they are reduced mod the window and rotated into
increasing order, and the window-periodic cubic spline through them is
sampled back at the nodes.  For a wrapped Poincare map a sweep is one
batched flow, whose cost hardly depends on the number of lanes: beta reads
the returns that alpha flowed from the memo.

The invariant curve is the fixed point of this transform, which contracts
at a rate of about q, the y-Lipschitz constant of beta.  How the node values
are iterated depends on what an evaluation costs:
- a ``batched`` map (`MapSpec.batched`, such as the wrapped Poincare map) at
  n * k2 <= `NEWTON_NODES` takes Newton steps on G(v) = v, the step of the
  parameterization method (Haro, Canadell, Figueras, Luque & Mondelo, The
  Parameterization Method for Invariant Manifolds, Springer 2016).  The
  push evaluates the nodes and k2 difference rows per node in one call, so
  each step is still one flow, and 2-3 steps replace 7-10 Anderson sweeps;
- every other map, every closed-form map included, uses type-II Anderson
  acceleration of depth `ANDERSON_DEPTH` (Walker & Ni, SIAM J. Numer.
  Anal. 49, 2011), because a dense (I - DG) solve costs more there than the
  sweeps it saves.
Both fall back on the plain image when a step leaves the r1 disc.

Curves, pushes and the Newton operator share one periodic cubic spline in
moment form (`_moments`, `_spline_eval`, `_knot_slopes`).  The
emergent-periodicity test solves for a curve of period 2T on twice the nodes:
only 2T-periodicity is imposed, so T-periodicity has to emerge from the
dynamics rather than from the representation.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.linalg import solveh_banded

from .exceptions import ConvergenceError, DomainError, MonotonicityError
from .sampling import ball_points, require_count

Array = np.ndarray

ANDERSON_DEPTH = 3  # residual differences in each Anderson least-squares fit
NEWTON_NODES = 256  # largest n * k2 of a batched map's Newton push
NEWTON_STEP = 1e-7  # y-step of the push's forward differences
RESIDUAL_SAMPLES = 512  # sampled x of a solve's invariance residual
DISTANCE_FLOOR = 1e-9  # least distance to the curve `attraction_test` rates


def _cyclic_solve(diag, off, rhs):
    """X with A X = ``rhs`` for the symmetric, diagonally dominant cyclic
    tridiagonal A with A[i, i] = diag_i and A[i, i+1] = A[i+1, i] = off_i,
    indices mod n.

    A = B + u v^T, where B is tridiagonal and u v^T carries the two corners
    (Numerical Recipes, 3rd ed., section 2.7.2): one banded Cholesky solve
    of B for ``rhs`` and u, then a Sherman-Morrison correction.  For n = 2
    the corners add to the off-diagonals, as in A.
    """
    gamma, corner = -diag[0], off[-1]
    band = np.vstack([np.append(0.0, off[:-1]), diag])
    band[1, 0] -= gamma
    band[1, -1] -= corner * corner / gamma
    u = np.zeros(len(diag))
    u[0], u[-1] = gamma, corner
    sol = solveh_banded(band, np.column_stack([rhs, u]), check_finite=False)
    y, z = sol[:, :-1], sol[:, -1]
    vy = y[0] + y[-1] * corner / gamma
    vz = z[0] + z[-1] * corner / gamma
    return y - z[:, None] * (vy / (1.0 + vz))[None, :]


def _moments(t, window, y):
    """Knot second derivatives M (n, m) of the window-periodic cubic spline
    through the values ``y`` (n, m) at the n increasing knots ``t`` in
    [t[0], t[0] + window): the moment equations h_{i-1} M_{i-1} / 6 +
    (h_{i-1} + h_i) M_i / 3 + h_i M_{i+1} / 6 = d_i - d_{i-1}, with
    h_i = t_{i+1} - t_i and d_i = (y_{i+1} - y_i) / h_i (indices mod n), in
    one cyclic banded solve (`_cyclic_solve`)."""
    h = np.diff(np.append(t, t[0] + window))
    d = (np.roll(y, -1, axis=0) - y) / h[:, None]
    return _cyclic_solve((np.roll(h, 1) + h) / 3.0, h / 6.0,
                         d - np.roll(d, 1, axis=0))


def _spline_eval(t, window, y, moments, x):
    """The spline of knots ``t``, values ``y`` and `_moments` ``moments`` at
    the points ``x`` (k,), any reals: (k, m)."""
    u = np.fmod(x - t[0], window)  # exact: an exact x + window evaluates as x
    u = np.where(u < 0, u + window, u)
    i = np.searchsorted(t - t[0], u, side="right") - 1
    i1, h = (i + 1) % len(t), np.diff(np.append(t, t[0] + window))[i][:, None]
    u = (u - (t[i] - t[0]))[:, None]
    w = h - u
    return (w * y[i] + u * y[i1] + w * (w * w - h * h) / 6.0 * moments[i]
            + u * (u * u - h * h) / 6.0 * moments[i1]) / h


def _knot_slopes(t, window, y, moments):
    """The spline's slopes s'(t_i) = d_i - h_i (2 M_i + M_{i+1}) / 6 at its
    knots (see `_moments`): (n, m)."""
    h = np.diff(np.append(t, t[0] + window))[:, None]
    return ((np.roll(y, -1, axis=0) - y) / h
            - h * (2.0 * moments + np.roll(moments, -1, axis=0)) / 6.0)


@dataclass(eq=False)
class PeriodicGridFn:
    """T-periodic vector-valued function on a uniform grid, held as the
    T-periodic cubic spline through its nodes (`_moments`, `_spline_eval`).

    ``values`` has shape (n_nodes, k2) with node i at x = i*T/n_nodes.
    Evaluation reduces the argument mod T first, so the representation is
    exactly periodic by construction.
    """

    period: float
    values: Array
    _m: Array = field(init=False, repr=False)  # the spline's `_moments`

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.ndim != 2 or self.values.shape[0] < 2:
            raise ValueError("values must be (n_nodes >= 2, k2)")
        self._m = _moments(self.nodes, self.period, self.values)

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
        y = _spline_eval(self.nodes, self.period, self.values, self._m,
                         x.ravel())
        return y.reshape(x.shape + (self.k2,))

    def with_values(self, values):
        return PeriodicGridFn(self.period, values)

    def sup_norm(self):
        """Sup of ||phi|| over one period.

        Exact up to rounding for k2 = 1: the spline's slope on the piece at
        node i is the quadratic s'(t_i) + M_i u + (M_{i+1} - M_i) u^2 / (2h),
        u in [0, h], whose roots join the nodes as candidates.  A
        dense-sampling estimate for k2 > 1.
        """
        if self.k2 == 1:
            t, h, m = self.nodes, self.period / self.n_nodes, self._m[:, 0]
            c = _knot_slopes(t, self.period, self.values, self._m)[:, 0]
            a = (np.roll(m, -1) - m) / (2.0 * h)
            with np.errstate(divide="ignore", invalid="ignore"):
                q = -0.5 * (m + np.copysign(np.sqrt(m * m - 4.0 * a * c), m))
                u = np.concatenate([q / a, c / q])  # nan or inf if none
            ok = (u >= 0.0) & (u <= h)
            xs = np.concatenate([t, (np.tile(t, 2) + u)[ok]])
            return float(np.max(np.abs(self.eval(xs))))
        xs = np.linspace(0.0, self.period, 16 * self.n_nodes, endpoint=False)
        return float(np.max(np.linalg.norm(self.eval(xs), axis=-1)))


# an alias kept only because perfbench/tracing.py reads
# `WindowGridFn.__post_init__` when it is imported
WindowGridFn = PeriodicGridFn


@dataclass
class SolverReport:
    """Verification record of one invariant-curve solve."""

    iterations: int
    final_update: float
    invariance_residual: float
    measured_rates: list
    converged: bool
    n_nodes: int
    tol: float

    def to_json_dict(self):
        return {
            "iterations": self.iterations,
            "final_update": self.final_update,
            "invariance_residual": self.invariance_residual,
            "measured_rates": list(self.measured_rates),
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

    ``preimage_tol`` has no effect: the forward push solves no preimage
    equation.  It is still accepted so that existing configurations keep
    working.
    """

    n_nodes: int = 256
    tol: float = 1e-12
    max_iter: int = 100
    seed_curve: Optional[PeriodicGridFn] = None
    seed: int = 0
    preimage_tol: float = 1e-14


def rate_bound_from_q(q):
    return q + 2.0 * (1.0 - q) / 3.0


# ----------------------------------------------------------------------------
# the transform
# ----------------------------------------------------------------------------

def _sweep(spec, omega, eps, xs, values, window):
    """One forward push: the graph values ``values`` at the nodes ``xs`` of
    [0, window), mapped and re-gridded at the same nodes.  Returns the image
    G(values) and, for a ``batched`` spec with n * k2 <= `NEWTON_NODES`,
    its derivative DG as an (n k2, n k2) matrix; else None.

    alpha and beta are evaluated once each, at the nodes.  Unless the images
    keep the nodes' cyclic order (`MonotonicityError`, the solver's only
    order check), they are reduced mod the window and rotated into
    increasing order, and the window-periodic cubic spline through them
    (`_moments`) is sampled at ``xs`` (`_spline_eval`).

    For DG the same two calls also take the rows (x_i, v_i + h s_ij e_j),
    j < k2, with h = `NEWTON_STEP` and s_ij = -sign(v_ij), so no row moves
    away from the disc centre; forward differences give alpha_y and beta_y.
    A shift d_i of node i moves its image by omega alpha_y d_i and its value
    by beta_y d_i, so the spline's value at the image moves by c_i d_i with
    c_i = beta_y,i - omega s'(t_i) alpha_y,i, s' being the new spline's
    slope at the image t_i (`_knot_slopes`).  DG = S_t diag(c) P: P rotates
    the nodes into the images' order and S_t, the same spline code applied to
    the identity, holds the cardinal splines through the images, sampled at
    ``xs``.  DG holds that spline space fixed:
    it leaves out S_t's change as the knots move with v, which is nil when
    alpha does not depend on y, third order in the node spacing on smooth
    iterates and large on rough ones.
    """
    n, k2 = values.shape
    newton = spec.batched and n * k2 <= NEWTON_NODES
    x = xs[:, None]
    y = values
    if newton:
        dirs = NEWTON_STEP * np.where(values > 0.0, -1.0, 1.0)
        y = np.concatenate([values] + [values + dirs[:, [j]] * np.eye(k2)[j]
                                       for j in range(k2)])
        x = np.tile(x, (k2 + 1, 1))
    a = np.asarray(spec.alpha(omega, eps, x, y), dtype=float)[:, 0]
    b = np.asarray(spec.beta(omega, eps, x, y), dtype=float)
    a, a_moved, b, b_moved = a[:n], a[n:], b[:n], b[n:]
    if np.max(np.linalg.norm(b, axis=-1)) > spec.r1:
        raise DomainError("graph transform left the radius-r1 disc")
    img = xs + omega * a
    if not np.all(np.diff(np.append(img, img[0] + window)) > 0.0):
        raise MonotonicityError(
            "x-advance map is not strictly increasing at the nodes: the "
            "pushed nodes do not keep their cyclic order; "
            "the graph transform is undefined at these parameters"
        )
    img -= window * np.floor(img[0] / window)
    k = np.searchsorted(img, window)  # images from k on wrap past the window
    t = np.concatenate([img[k:] - window, img[:k]])
    y = np.roll(b, -k, axis=0)
    if newton:  # the spline of the identity is the operator S_t
        y = np.hstack([y, np.eye(n)])
    m = _moments(t, window, y)
    g = _spline_eval(t, window, y, m, xs)
    if not newton:
        return g, None
    g, S = g[:, :k2], np.roll(g[:, k2:], k, axis=1)
    # [i, j]: the derivative in y_j at node i, alpha (n, k2), beta (n, k2, k2)
    a_y = ((a_moved.reshape(k2, n) - a) / dirs.T).T
    b_y = ((b_moved.reshape(k2, n, k2) - b)
           / dirs.T[:, :, None]).transpose(1, 2, 0)
    slope = np.roll(_knot_slopes(t, window, y[:, :k2], m[:, :k2]), k, axis=0)
    c = b_y - omega * slope[:, :, None] * a_y[:, None, :]
    dg = S[:, None, :, None] * c.transpose(1, 0, 2)[None]
    return g, dg.reshape(n * k2, n * k2)


def _require_scalar_periodic(spec):
    if spec.k1 != 1 or spec.periodic_coord != 1 or spec.period is None:
        raise ValueError(
            "invariant-curve solving requires k1 == 1 with periodic_coord set"
        )


def graph_transform(spec, omega, eps, phi):
    """Image of the graph of ``phi`` under the map, re-gridded over the nodes
    by one forward push; `MonotonicityError` if the pushed nodes lose their
    cyclic order.  The push evaluates the nodes only, batched spec or not."""
    _require_scalar_periodic(spec)
    if phi.sup_norm() > spec.r1:
        raise DomainError("candidate curve exceeds the radius-r1 disc")
    g, _ = _sweep(replace(spec, batched=False), float(omega), float(eps),
                  phi.nodes, phi.values, phi.period)
    return phi.with_values(g)


# ----------------------------------------------------------------------------
# the solver and its verification operations
# ----------------------------------------------------------------------------

def _interp_error_estimate(values):
    """Spline-discretization scale from cyclic 4th differences of the nodes."""
    v = values
    d4 = (np.roll(v, 2, axis=0) - 4 * np.roll(v, 1, axis=0) + 6 * v
          - 4 * np.roll(v, -1, axis=0) + np.roll(v, -2, axis=0))
    return (5.0 / 384.0) * float(np.max(np.abs(d4)))


def _iterate_to_fixed_point(spec, omega, eps, curve, tol, max_iter):
    """Newton or Anderson-accelerated push iteration from ``curve`` over its
    period.

    Sweep k pushes v_k to its plain image G(v_k).  When the push also returns
    DG (a ``batched`` spec, see `_sweep`), the next input is the Newton
    iterate v_k + (I - DG)^-1 (G(v_k) - v_k); otherwise it is the type-II
    Anderson combination of the last ``ANDERSON_DEPTH`` + 1 images, whose
    weights minimize the matching combination of residuals G(v) - v.  The
    plain image is taken instead when the step leaves the r1 disc or the
    residual has grown (which also clears the Anderson history).  Stops once
    max|G(v) - v| <= ``tol``; returns (G(v) as a curve, the updates
    max|G(v_k) - v_k|, the secant rates, whether ``tol`` was met).  The
    secant rate ||G(v_k) - G(v_{k-1})|| / ||v_k - v_{k-1}|| (sup norms) is the
    contraction of the plain transform measured on the iterates.
    """
    xs, v = curve.nodes, curve.values
    updates, rates, d_res, d_img = [], [], [], []
    for _ in range(int(max_iter)):
        g, dg = _sweep(spec, omega, eps, xs, v, curve.period)
        res = g - v
        updates.append(float(np.max(np.abs(res))))
        if updates[-1] <= tol:
            return curve.with_values(g), updates, rates, True
        grew = len(updates) > 1 and updates[-1] > updates[-2]
        if len(updates) > 1:
            step = float(np.max(np.abs(v - v_prev)))
            if step > 1e-300:
                rates.append(float(np.max(np.abs(g - g_prev))) / step)
            if grew:
                d_res.clear()
                d_img.clear()
            else:
                d_res = (d_res + [(res - res_prev).ravel()])[-ANDERSON_DEPTH:]
                d_img = (d_img + [(g - g_prev).ravel()])[-ANDERSON_DEPTH:]
        v_prev, g_prev, res_prev, mixed = v, g, res, None
        if dg is not None and not grew:
            mixed = v + np.linalg.solve(np.eye(len(dg)) - dg,
                                        res.ravel()).reshape(g.shape)
        elif d_res:
            gamma = np.linalg.lstsq(np.column_stack(d_res), res.ravel(),
                                    rcond=None)[0]
            mixed = g - (np.column_stack(d_img) @ gamma).reshape(g.shape)
        v = g
        if (mixed is not None
                and np.max(np.linalg.norm(mixed, axis=-1)) <= spec.r1):
            v = mixed
    return curve.with_values(g), updates, rates, False


def solve_invariant_curve(spec, omega, eps, config=None):
    """Iterate the graph transform from the seed curve until the node update
    falls below ``tol``; returns the curve and a `SolverReport`.

    A ``batched`` spec with n_nodes * k2 <= `NEWTON_NODES` is solved by
    Newton steps, any other by Anderson-accelerated sweeps (see
    `_iterate_to_fixed_point`); both stop on the same rule and return the
    last plain image, so their curves agree to about ``tol``.  ``iterations``
    counts pushes, one map call each, and ``measured_rates`` holds the secant
    contraction rates of the plain transform on the iterates either way.

    A ``seed_curve`` whose period, node count or k2 differs from
    ``spec.period``, ``n_nodes`` or ``spec.k2`` raises `ValueError` before
    any evaluation; missing ``tol`` in ``max_iter`` sweeps raises
    `ConvergenceError`.  ``converged`` then requires the off-node invariance
    residual to be explainable by the spline discretization: residual <=
    10 * (tol + est), where est is the standard interpolation-error scale
    computed from fourth differences of the node values.  This keeps the
    stall guard of the stopping rule without demanding sub-discretization
    residuals.
    """
    config = config or CurveConfig()
    _require_scalar_periodic(spec)
    omega, eps = float(omega), float(eps)
    curve = config.seed_curve or PeriodicGridFn.zeros(
        spec.period, config.n_nodes, spec.k2)
    for name, got, want in (("period", curve.period, spec.period),
                            ("node count", curve.n_nodes, config.n_nodes),
                            ("k2", curve.k2, spec.k2)):
        if got != want:
            raise ValueError(f"seed curve {name} {got} differs from {want}")
    if curve.sup_norm() > spec.r1:
        raise DomainError("seed curve exceeds the radius-r1 disc")

    curve, updates, rates, hit_tol = _iterate_to_fixed_point(
        spec, omega, eps, curve, config.tol, config.max_iter)
    if not hit_tol:
        raise ConvergenceError(
            f"no convergence after {config.max_iter} sweeps "
            f"(last update {updates[-1]:.3g})"
        )

    residual = invariance_residual(spec, omega, eps, curve, seed=config.seed)
    gate = 10.0 * (config.tol + _interp_error_estimate(curve.values))
    report = SolverReport(
        iterations=len(updates),
        final_update=updates[-1],
        invariance_residual=residual,
        measured_rates=rates,
        converged=bool(residual <= gate),
        n_nodes=config.n_nodes,
        tol=config.tol,
    )
    return curve, report


def invariance_residual(spec, omega, eps, phi, n_samples=RESIDUAL_SAMPLES,
                        seed=0):
    """sup over sampled x of || beta(x, phi(x)) - phi(x + omega*alpha(...)) ||.

    ``phi`` may be any object with ``eval`` and ``period`` (duck-typed), so
    closed-form oracles can be checked directly.
    """
    require_count("n_samples", n_samples)
    rng = np.random.default_rng(seed)
    period = phi.period
    xs = rng.uniform(0.0, period, int(n_samples))
    y = phi.eval(xs)
    a = np.asarray(spec.alpha(omega, eps, xs[:, None], y), dtype=float)
    b = np.asarray(spec.beta(omega, eps, xs[:, None], y), dtype=float)
    img = phi.eval(xs + omega * a[:, 0])
    return float(np.max(np.linalg.norm(b - img, axis=-1)))


def attraction_test(spec, omega, eps, phi, n_trajectories=20, n_steps=50,
                    seed=0, y_radius=None, q=None):
    """Track d_j = ||y_j - phi(x_j)|| along sampled trajectories.

    Initial conditions are drawn from x in [-1, T + 1], with T the period
    of ``phi``, and y in the ``y_radius`` ball.  Per-step rates take the max of
    d_{j+1}/d_j over trajectories whose distance is still at least
    `DISTANCE_FLOOR`; once distances reach the curve's representation-error
    level the quotients measure interpolation noise, not contraction, so the
    floor must sit above that level.
    """
    require_count("n_trajectories", n_trajectories)
    rng = np.random.default_rng(seed)
    y_radius = y_radius if y_radius is not None else 0.5 * spec.r1
    xs = rng.uniform(-1.0, phi.period + 1.0, n_trajectories)[:, None]
    ys = ball_points(rng.random((n_trajectories, spec.k2)), y_radius)

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
        ok = (np.isfinite(dist[j]) & np.isfinite(dist[j + 1])
              & (dist[j] >= DISTANCE_FLOOR))
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

    The curve is a 2T-periodic grid function of 2 * ``n_nodes`` nodes, so
    only 2T-periodicity is imposed.  Returns sup over x in [0, T) of
    ||phi(x + T) - phi(x)|| for the converged doubled curve.
    """
    config = config or CurveConfig()
    _require_scalar_periodic(spec)
    omega, eps = float(omega), float(eps)
    T = spec.period
    curve = PeriodicGridFn.zeros(2.0 * T, 2 * config.n_nodes, spec.k2)
    curve, updates, _, hit_tol = _iterate_to_fixed_point(
        spec, omega, eps, curve, config.tol, config.max_iter)
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


def write_json(path, obj):
    """``obj`` as JSON with sorted keys and a 2-space indent, then a newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
