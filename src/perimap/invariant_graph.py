"""Graph-transform solver for T-periodic attracting invariant curves (k1 = 1).

A candidate curve phi, held by its values at uniform nodes, is pushed
forward through the map: alpha and beta are evaluated once per push at the
nodes (x_i, phi(x_i)), which go to the images x_i + omega * alpha_i with new
values beta_i; the pushes of a stack of problems share that call.  If the
images keep the nodes' cyclic order (else `MonotonicityError`), the
window-periodic cubic spline through them is sampled back at the nodes.
For a wrapped Poincare map a push round is one batched flow, whose cost
hardly depends on the number of lanes: beta reads the returns that alpha
flowed from the memo.

The invariant curve is the fixed point of this transform, which contracts
at a rate of about q, the y-Lipschitz constant of beta: slowly for a weakly
attracting curve, Levinson's setting.  Every map is iterated alike
(`_iterate_to_fixed_point`): each push's residual G(v) - v is preconditioned
by the inverse of I minus the push's linear part at (eps, phi) = (0, 0),
which the eps = 0 autonomy makes v -> B v(. - omega alpha(0)), a circulant
on the nodes (`_linear_part_inverse`, the step of the parameterization
method), and type-II Anderson acceleration of depth `ANDERSON_DEPTH` mixes
the preconditioned steps.  A step that leaves the r1 disc falls back on the
plain image.

A solve starts cold, from the zero curve (seed curves enter only through
`uniqueness_test`), except on n >= `COARSE_MIN_NODES` nodes.  There it
first solves on n // `COARSE_FACTOR` nodes and, if that grid resolves the
curve to the tolerance scale, samples the coarse curve at the n nodes, so
one or two fine pushes replace about five (nested iteration,
`_solve_cold`).  The reported ``iterations`` and ``measured_rates`` then
span both levels, and ``max_iter`` bounds each level; a coarse seed that is
not trusted, or from which the fine level fails, leaves the cold solve's
result.

Curves, pushes and the preconditioner's symbol share one periodic cubic
spline in moment form, `_Spline`, built once per curve or push.  The
emergent-periodicity test solves for a curve of period 2T on twice the nodes:
only 2T-periodicity is imposed, so T-periodicity has to emerge from the
dynamics rather than from the representation.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dptsv

from .exceptions import (ConvergenceError, DomainError, MonotonicityError,
                         PerimapError)
from .map_core import (eval_batch, orbits, origin_constants, origin_rows,
                       require_finite)
from .sampling import ball_points, require_count, require_positive

Array = np.ndarray

ANDERSON_DEPTH = 3  # residual differences in each Anderson least-squares fit
COARSE_MIN_NODES = 8192  # least n of a cold solve that starts on a coarse grid
COARSE_FACTOR = 16  # n over the node count of that coarse grid
# most nodes, summed over its problems, that one stack pushes: a stack saves
# per-call work, which is small beside the per-node work of larger pushes,
# whose larger temporaries cost more than it saves
STACK_NODES = 8192
RESIDUAL_SAMPLES = 512  # sampled x of a solve's invariance residual
DISTANCE_FLOOR = 1e-9  # least floor of the distances `attraction_test` rates
RATE_TRANSIENT = 5  # leading rates that `AttractionReport.max_rate` skips


def _cyclic(v, k):
    """``np.roll(v, -k, axis=-2)`` from one concatenate: row i of the
    result, along the second-to-last axis, is row (i + k) mod n of ``v``."""
    k %= v.shape[-2]
    return np.concatenate((v[..., k:, :], v[..., :k, :]), axis=-2)


def _nodes(period, n):
    """The n uniform nodes i period / n of [0, period), the bits of
    ``np.linspace(0.0, period, n + 1)[:-1]`` from one multiply."""
    return np.arange(n) * (period / n)


def _max_norm(v):
    """The largest Euclidean norm of the rows (last axis) of ``v`` (..., n,
    k): (...).  It is the square root of the largest squared norm, bit for
    bit the max of ``np.linalg.norm(v, axis=-1)``, as the correctly rounded
    square root is monotone."""
    return np.sqrt(np.max((v * v).sum(axis=-1), axis=-1))


def _cyclic_solve(diag, off, rhs):
    """X with A X = ``rhs`` for each of a stack of symmetric, diagonally
    dominant cyclic tridiagonal A with A[i, i] = diag_i and
    A[i, i+1] = A[i+1, i] = off_i, indices mod n: ``diag`` and ``off`` are
    (..., n) and ``rhs`` (..., n, m).

    A = B + u v^T, where B is tridiagonal and u v^T carries the two corners
    (Numerical Recipes, 3rd ed., section 2.7.2): one LAPACK ``dptsv``
    (tridiagonal LDL^T) solve for ``rhs`` and u, then a Sherman-Morrison
    correction per A; `LinAlgError` if a B is not positive definite.  The
    stack's B are the diagonal blocks of one system whose off-diagonal is 0
    between blocks, so the recurrence restarts at each block and every
    block gets the bits of its lone solve.  For n = 2 the corners add to
    the off-diagonals, as in A.
    """
    m, axes = rhs.shape[-1], tuple(range(diag.ndim))
    gamma, corner = -diag[..., 0], off[..., -1]
    d = diag.copy()
    d[..., 0] -= gamma
    d[..., -1] -= corner * corner / gamma
    e = off.copy()
    e[..., -1] = 0.0  # uncouples the blocks of a stack
    # the right-hand sides column by column, (m + 1, ..., n): rhs, then u
    b = np.zeros((m + 1,) + diag.shape)
    b[:m] = rhs.transpose((diag.ndim,) + axes)
    b[m, ..., 0], b[m, ..., -1] = gamma, corner
    _, _, sol, info = dptsv(d.ravel(), e.ravel()[:-1], b.reshape(m + 1, -1).T,
                            overwrite_d=1, overwrite_e=1, overwrite_b=1)
    if info > 0:
        raise LinAlgError(f"{info}th leading minor not positive definite")
    v = b[..., 0] + b[..., -1] * corner / gamma  # b holds y, then z
    x = b[:m] - b[m] * (v[:m] / (1.0 + v[m]))[..., None]
    return x.transpose(axes[1:] + (diag.ndim, 0))


class _Spline:
    """The window-periodic cubic spline through the values ``y`` (n, m) at
    the n increasing knots ``t`` (n,) in [t[0], t[0] + window), in moment
    form; or a stack of E such splines, one per problem, from ``t`` (E, n)
    and ``y`` (E, n, m).  A stack of one is held as one spline.

    The build solves h_{i-1} M_{i-1} / 6 + (h_{i-1} + h_i) M_i / 3 +
    h_i M_{i+1} / 6 = d_i - d_{i-1}, with h_i = t_{i+1} - t_i and
    d_i = (y_{i+1} - y_i) / h_i (indices mod n), for the knot second
    derivatives M, one `_cyclic_solve` for the whole stack.  It keeps the
    knots closed by t[0] + window (not offsets from t[0], whose rounding
    would perturb h), M and ``y``.
    """

    def __init__(self, t, window, y):
        self.one_of_stack = t.ndim == 2 and len(t) == 1
        if self.one_of_stack:
            t, y = t[0], y[0]
        self.window, self.y = window, y
        self.knots = np.concatenate((t, t[..., :1] + window), axis=-1)
        h = np.diff(self.knots, axis=-1)[..., None]
        d = (_cyclic(y, 1) - y) / h
        self.m = _cyclic_solve(((_cyclic(h, -1) + h) / 3.0)[..., 0],
                               (h / 6.0)[..., 0], d - _cyclic(d, -1))

    def __call__(self, x):
        """The spline at the points ``x`` (k,), any reals: (k, m); for a
        stack, every spline at ``x``: (E, k, m), from one search per spline
        and gathers through flat indices into the stacked arrays."""
        knots, y, m, window = self.knots, self.y, self.m, self.window
        t0 = knots[..., :1] if knots.ndim == 2 else knots[0]
        u = np.fmod(x - t0, window)  # exact: x + window reads as x
        x = t0 + np.where(u < 0, u + window, u)
        n = y.shape[-2]
        if knots.ndim == 1:
            i = np.searchsorted(knots[:-1], x, side="right") - 1
            ik, i1 = i, (i + 1) % n
        else:
            i = np.stack([np.searchsorted(row[:-1], row_x, side="right")
                          for row, row_x in zip(knots, x)]) - 1
            base = np.arange(len(knots))[:, None]
            ik, i, i1 = i + (n + 1) * base, i + n * base, (i + 1) % n + n * base
            knots, y, m = knots.ravel(), y.reshape(-1, y.shape[-1]), m.reshape(
                -1, m.shape[-1])
        h = (knots[ik + 1] - knots[ik])[..., None]
        u = (x - knots[ik])[..., None]
        w = h - u
        out = (w * y[i] + u * y[i1] + w * (w * w - h * h) / 6.0 * m[i]
               + u * (u * u - h * h) / 6.0 * m[i1]) / h
        return out[None] if self.one_of_stack else out

    def slopes(self):
        """Slopes s'(t_i) = d_i - h_i (2 M_i + M_{i+1}) / 6 of the value
        columns at the knots: (..., n, m)."""
        h = np.diff(self.knots, axis=-1)[..., None]
        y, m = self.y, self.m
        return ((_cyclic(y, 1) - y) / h
                - h * (2.0 * m + _cyclic(m, 1)) / 6.0)

    def turning_points(self):
        """The points inside a piece where the first column's slope, the
        quadratic s'(t_i) + M_i u + (M_{i+1} - M_i) u^2 / (2 h_i) in
        u in [0, h_i], vanishes; of every spline of a stack, flattened."""
        h, m = np.diff(self.knots, axis=-1)[..., None], self.m[..., :1]
        c = self.slopes()[..., :1]
        a = (_cyclic(m, 1) - m) / (2.0 * h)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -0.5 * (m + np.copysign(np.sqrt(m * m - 4.0 * a * c), m))
            u = np.stack([q / a, c / q])  # nan or inf if none
        return (self.knots[..., :-1, None] + u)[(u >= 0.0) & (u <= h)]


@dataclass(frozen=True, eq=False)
class PeriodicGridFn:
    """T-periodic vector-valued function on a uniform grid, held as the
    T-periodic cubic spline through its nodes (`_Spline`), built once.

    ``values`` has shape (n_nodes, k2) with node i at x = i*T/n_nodes; it is
    a read-only copy of the array passed in, so the spline cannot go stale.
    Evaluation reduces the argument mod T first, so the representation is
    exactly periodic by construction.  T must be positive and finite (else
    `ValueError`).
    """

    period: float
    values: Array
    _spline: _Spline = field(init=False, repr=False)

    def __post_init__(self):
        require_positive("period", self.period)
        values = np.atleast_2d(np.array(self.values, dtype=float))
        if values.ndim != 2 or values.shape[0] < 2:
            raise ValueError("values must be (n_nodes >= 2, k2)")
        values.setflags(write=False)
        nodes = _nodes(self.period, values.shape[0])
        spline = _Spline(nodes, self.period, values)
        spline.knots.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_spline", spline)

    @classmethod
    def zeros(cls, period, n_nodes, k2=1):
        return cls(period, np.zeros((n_nodes, k2)))

    @classmethod
    def constant(cls, period, n_nodes, value):
        return cls(period, np.tile(value, (n_nodes, 1)))

    @property
    def n_nodes(self):
        return self.values.shape[0]

    @property
    def k2(self):
        return self.values.shape[1]

    @property
    def nodes(self):
        return self._spline.knots[:-1]

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        return self._spline(x.ravel()).reshape(x.shape + (self.k2,))

    def with_values(self, values):
        return PeriodicGridFn(self.period, values)

    def sup_norm(self):
        """Sup of ||phi|| over one period.

        Exact up to rounding for k2 = 1: the candidates are the nodes and
        the spline's turning points, and only the turning points are
        evaluated.  At node i the spline's formula reduces to
        (h_i y_i) / h_i, which can differ from y_i in the last bit, so the
        node candidates are that product and quotient of ``values``: the
        bits of an evaluation there.  A dense-sampling estimate for k2 > 1.
        """
        if self.k2 == 1:
            h = np.diff(self._spline.knots)[:, None]
            return float(np.max(np.abs(np.concatenate(
                [h * self.values / h,
                 self.eval(self._spline.turning_points())]))))
        xs = _nodes(self.period, 16 * self.n_nodes)
        return float(_max_norm(self.eval(xs)))


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
        return asdict(self)


@dataclass
class AttractionReport:
    """Distances to the curve along sampled trajectories and their decay rates."""

    distances: Array  # (n_steps + 1, n_traj)
    rates: Array      # per-step max over valid trajectories of d_{j+1}/d_j
    escaped: int

    @property
    def final_max_distance(self):
        return float(np.max(self.distances[-1]))

    def max_rate(self):
        """Largest finite rate after the first `RATE_TRANSIENT` steps."""
        valid = self.rates[RATE_TRANSIENT:]
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
    seed: int = 0
    preimage_tol: float = 1e-14


def rate_bound_from_q(q):
    return q + 2.0 * (1.0 - q) / 3.0


# ----------------------------------------------------------------------------
# the transform
# ----------------------------------------------------------------------------

def _eval_stack(spec, omega, eps, xs, values, stencil):
    """alpha (E, n) and beta (E, n, k2) at the nodes ``xs`` of every problem
    of a stack, with the values ``values`` (E, n, k2), problem e at eps[e];
    each problem's failure, None where it held, its rows then 0; and the
    values (a, b) at the rows (X, Y) of ``stencil`` at omega = eps = 0, or
    the `PerimapError` that they raised (None for no stencil).

    All the rows go to one `eval_batch` call, eps and, with a stencil,
    omega as (N, 1) columns.  If that call raises a `PerimapError`, or it
    would hold one problem alone, each problem and the stencil are
    evaluated alone at their scalar (omega, eps), so a failure keeps its
    problem.  A problem's misshaped or non-finite (`require_finite`) result
    is its `EvaluationError`; the stencil's values are left unchecked.
    """
    E, n, k2 = values.shape
    failed, at_stencil, a = [None] * E, None, None
    if E > 1 or stencil is not None:
        X, Y = np.tile(xs, E)[:, None], values.reshape(E * n, k2)
        P, W = np.repeat(eps, n)[:, None], omega
        if stencil is not None:
            zeros = np.zeros((len(stencil[0]), 1))
            X = np.concatenate((X, stencil[0]))
            Y = np.concatenate((Y, stencil[1]))
            P = np.concatenate((P, zeros))
            W = np.concatenate((np.full((E * n, 1), omega), zeros))
        try:
            a_all, b_all = eval_batch(spec, W, P, X, Y)
        except PerimapError:
            pass
        else:
            a = a_all[:E * n, 0].reshape(E, n)
            b = b_all[:E * n].reshape(E, n, k2)
            if stencil is not None:
                at_stencil = a_all[E * n:], b_all[E * n:]
    if a is None:
        a, b = np.zeros((E, n)), np.zeros(values.shape)
        for e, eps_e in enumerate(eps):
            try:
                a_e, b_e = eval_batch(spec, omega, eps_e, xs[:, None],
                                      values[e])
            except PerimapError as exc:
                failed[e] = exc
            else:
                a[e], b[e] = a_e[:, 0], b_e
        if stencil is not None:
            try:
                at_stencil = eval_batch(spec, 0.0, 0.0, *stencil)
            except PerimapError as exc:
                at_stencil = exc
    finite = np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=(1, 2))
    for e in np.flatnonzero(~finite):
        try:
            require_finite(a[e], b[e])
        except PerimapError as exc:
            failed[e] = exc
    for e, exc in enumerate(failed):
        if exc is not None:
            a[e], b[e] = 0.0, 0.0
    return a, b, failed, at_stencil


def _sweep(spec, omega, eps, xs, values, window, stencil):
    """One forward push of each problem of a stack: the graph values
    ``values`` (E, n, k2) at the nodes ``xs`` of [0, window), problem e's
    taken at eps[e], mapped and re-gridded at the same nodes.  Returns the
    images G(values) (E, n, k2), alpha at the nodes (E, n), each problem's
    failure, None where its push held, and the values at the rows of
    ``stencil``, or the `PerimapError` they raised (None for no stencil).

    alpha and beta are evaluated once for the whole stack (`_eval_stack`):
    the E n node rows, each with its problem's (omega, eps), and the rows
    (X, Y) of ``stencil`` at omega = eps = 0.  A misshaped or non-finite
    result of a problem (`require_finite`) is an `EvaluationError`, and any
    `PerimapError` the evaluators raise for it fails that problem alone.
    The images, shifted by whole windows so that the first lies in
    [0, window), must keep the nodes' cyclic order (`MonotonicityError`,
    the solver's only order check); the window-periodic cubic splines
    through them (`_Spline`, one build for the stack) are sampled at xs.  A
    failed problem's rows are a push of the zero curve and mean nothing.
    """
    a, b, failed, at_stencil = _eval_stack(spec, omega, eps, xs, values,
                                           stencil)
    outside = _max_norm(b) > spec.r1
    img = xs + omega * a
    img -= window * np.floor(img[:, :1] / window)
    ordered = np.all(np.diff(np.concatenate((img, img[:, :1] + window),
                                            axis=1), axis=1) > 0.0, axis=1)
    for e in np.flatnonzero(outside | ~ordered):
        failed[e] = (
            DomainError("graph transform left the radius-r1 disc")
            if outside[e] else MonotonicityError(
                "x-advance map is not strictly increasing at the nodes: the "
                "pushed nodes do not keep their cyclic order; "
                "the graph transform is undefined at these parameters"))
        img[e], b[e] = xs, 0.0
    return _Spline(img, window, b)(xs), a, failed, at_stencil


def _linear_part_inverse(spec, omega, xs, window, alpha, at_origin):
    """The symbols of P = I - B (x) S_s, one per problem of a stack, by which
    `_precondition` inverts P on node values at the uniform nodes ``xs`` of
    [0, window): (E, n // 2 + 1, k2, k2).  P is the identity less the push's
    linear part at (eps, phi) = (0, 0).

    The eps = 0 map is autonomous, so that part is the model map's
    v -> B v(. - s), with s = omega alpha(0) and B = beta_y(0), which
    `map_core.origin_constants` reads from ``at_origin``: alpha's and
    beta's values at `map_core.origin_rows`, or the `PerimapError` that
    their evaluation raised, which is raised here, as is the
    `EvaluationError` of a non-finite value.  On the nodes S_s, the spline
    through the values at the shifted nodes sampled at the nodes, is
    circulant: its symbol is the DFT of one column, `_Spline` through a
    unit vector, built once for the stack.  Solving P x = r mode by mode (a
    division for k2 = 1, one k2 x k2 solve for k2 > 1) is the
    constant-coefficient step of the parameterization method (Haro,
    Canadell, Figueras, Luque & Mondelo, Springer 2016).

    The push shifts node x by omega alpha(x, phi(x)), not by s, so mode k's
    phase is off by up to 2 pi |k| |omega| max|alpha - alpha(0)| / window.
    A problem's P^-1 acts only on the modes where that is at most 1/2, the
    max read from its row of ``alpha`` (E, n), the values of its first push,
    and is the identity above them.
    """
    if isinstance(at_origin, PerimapError):
        raise at_origin
    alpha0, _, B = origin_constants(spec, *at_origin)
    n, k2 = len(xs), spec.k2
    column = _Spline(xs + omega * alpha0[0], window, np.eye(n, 1))(xs)
    symbol = np.fft.rfft(column[:, 0])
    spread = 4.0 * np.pi * abs(omega) * np.max(np.abs(alpha - alpha0[0]),
                                               axis=1)
    above = spread[:, None] * np.arange(len(symbol)) > window  # P = I there
    return np.eye(k2) - np.where(above, 0.0, symbol)[..., None, None] * B


def _precondition(p, r):
    """P^-1 r for the symbols ``p`` of `_linear_part_inverse` and the node
    values ``r`` (E, n, k2): one rfft and one irfft along the node axis."""
    r_hat = np.fft.rfft(r, axis=1)[..., None]
    x_hat = r_hat / p if p.shape[-1] == 1 else np.linalg.solve(p, r_hat)
    return np.fft.irfft(x_hat[..., 0], r.shape[1], axis=1)


def _require_scalar_periodic(spec):
    if spec.k1 != 1 or spec.periodic_coord != 1 or spec.period is None:
        raise ValueError(
            "invariant-curve solving requires k1 == 1 with periodic_coord set"
        )


def graph_transform(spec, omega, eps, phi):
    """Image of the graph of ``phi`` under the map, re-gridded over the nodes
    by one forward push (`_sweep`); `MonotonicityError` if the pushed nodes
    lose their cyclic order."""
    _require_scalar_periodic(spec)
    if phi.sup_norm() > spec.r1:
        raise DomainError("candidate curve exceeds the radius-r1 disc")
    g, _, [failure], _ = _sweep(spec, float(omega), [float(eps)], phi.nodes,
                                phi.values[None], phi.period, None)
    if failure is not None:
        raise failure
    return phi.with_values(g[0])


# ----------------------------------------------------------------------------
# the solver and its verification operations
# ----------------------------------------------------------------------------

def _interp_error_estimate(values):
    """Spline-discretization scale from cyclic 4th differences of the nodes."""
    v = values
    d4 = (_cyclic(v, -2) - 4 * _cyclic(v, -1) + 6 * v
          - 4 * _cyclic(v, 1) + _cyclic(v, 2))
    return (5.0 / 384.0) * float(np.max(np.abs(d4)))


def _iterate_to_fixed_point(spec, omega, eps, period, starts, tol, max_iter):
    """Preconditioned, Anderson-accelerated push iteration of the problems
    {i: start node values (n, k2)} of ``starts``, problem i at eps[i], all
    on the n uniform nodes of [0, ``period``): {i: its outcome}.

    For each problem, push k maps v_k to its plain image G(v_k).  The
    iteration solves v = H(v) = v + P^-1 (G(v) - v), with P^-1 from
    `_linear_part_inverse`, built after the first push; the next input is
    the type-II Anderson combination (Walker & Ni, SIAM J. Numer. Anal. 49,
    2011) of the last ``ANDERSON_DEPTH`` + 1 values of H, whose weights
    minimize the matching combination of preconditioned residuals.  The
    plain image is taken instead when that step leaves the r1 disc or the
    update max|G(v) - v| has grown, which also clears the Anderson history.
    A problem stops once max|G(v) - v| <= ``tol``.  The secant rate
    ||G(v_k) - G(v_{k-1})|| / ||v_k - v_{k-1}|| (sup norms) is the
    contraction of the plain transform measured on the iterates.

    The problems are iterated in stacks of at most `STACK_NODES` nodes in
    all (one problem at least).  Each round is one `_sweep` of a stack's
    problems still iterating, one evaluator call for all of them, and a
    problem leaves its stack once it meets ``tol``, fails or has made its
    ``max_iter``-th push; every problem's arithmetic is that of its lone
    iteration, and so are its values on a closed-form map (on a wrapped
    map the lanes of a call share one step sequence).  A stack's first
    round also evaluates the rows of the origin stencil
    (`map_core.origin_rows`) in that call, and P^-1 takes alpha(0) and B
    from their values, so a value there that is not finite, or an error of
    their evaluation, fails the stack's problems only when P^-1 is built: a
    problem that meets ``tol`` at its first push never reads them.  An
    outcome is (G(v) as a curve, the updates max|G(v_k) - v_k|, the secant
    rates) once it met ``tol``, or the `PerimapError` that stopped it, a
    `ConvergenceError` if ``max_iter`` pushes missed ``tol``.  A
    ``max_iter`` below 1, or a ``tol`` that is not positive and finite,
    raises `ValueError` before any push.
    """
    require_count("max_iter", max_iter)
    require_positive("tol", tol)
    problems, outcomes = list(starts), {}
    size = max(1, STACK_NODES // len(starts[problems[0]])) if starts else 1
    for k in range(0, len(problems), size):
        live = problems[k:k + size]  # the problem of each row of the stack
        updates, rates = {i: [] for i in live}, {i: [] for i in live}
        d_res, d_out = {i: [] for i in live}, {i: [] for i in live}
        v, p, prev = np.stack([starts[i] for i in live]), None, None
        xs = _nodes(period, v.shape[1])
        for push in range(1, int(max_iter) + 1):
            g, alpha, failed, got = _sweep(
                spec, omega, [eps[i] for i in live], xs, v, period,
                origin_rows(spec) if push == 1 else None)
            if push == 1:
                at_origin = got
            update = g - v
            change = np.abs(update).max(axis=(1, 2)).tolist()
            keep = []
            for row, i in enumerate(live):
                if failed[row] is not None:
                    outcomes[i] = failed[row]
                    continue
                updates[i].append(change[row])
                if change[row] <= tol:
                    outcomes[i] = (PeriodicGridFn(period, g[row]), updates[i],
                                   rates[i])
                elif push == int(max_iter):
                    outcomes[i] = ConvergenceError(
                        f"no convergence after {max_iter} sweeps "
                        f"(last update {change[row]:.3g})")
                else:
                    keep.append(row)
            if not keep:
                break
            if len(keep) < len(live):
                live = [live[row] for row in keep]
                v, g, update, alpha = (a[keep] for a in (v, g, update, alpha))
                p = None if p is None else p[keep]
                prev = None if prev is None else [a[keep] for a in prev]
            if p is None:
                try:
                    p = _linear_part_inverse(spec, omega, xs, period, alpha,
                                             at_origin)
                except PerimapError as exc:
                    outcomes.update(dict.fromkeys(live, exc))
                    break
            res = _precondition(p, update)
            out = v + res
            grew = np.zeros(len(live), dtype=bool)
            if prev is not None:
                v_prev, g_prev, res_prev, out_prev = prev
                step = np.abs(v - v_prev).max(axis=(1, 2)).tolist()
                moved = np.abs(g - g_prev).max(axis=(1, 2)).tolist()
                new_res, new_out = res - res_prev, out - out_prev
                for row, i in enumerate(live):
                    grew[row] = updates[i][-1] > updates[i][-2]
                    if step[row] > 1e-300:
                        rates[i].append(moved[row] / step[row])
                    if grew[row]:
                        d_res[i].clear()
                        d_out[i].clear()
                    else:
                        d_res[i] = (d_res[i] + [new_res[row].ravel()]
                                    )[-ANDERSON_DEPTH:]
                        d_out[i] = (d_out[i] + [new_out[row].ravel()]
                                    )[-ANDERSON_DEPTH:]
            prev = [v, g, res, out]
            mixed = out
            for row, i in enumerate(live):
                if d_res[i]:
                    gamma = np.linalg.lstsq(np.column_stack(d_res[i]),
                                            res[row].ravel(), rcond=None)[0]
                    if mixed is out:
                        mixed = out.copy()
                    mixed[row] = out[row] - (np.column_stack(d_out[i]) @ gamma
                                             ).reshape(out.shape[1:])
            plain = grew | (_max_norm(mixed) > spec.r1)
            v = (np.where(plain[:, None, None], g, mixed) if plain.any()
                 else mixed)
    return outcomes


def _solve_cold(spec, omega, eps, period, n_nodes, tol, max_iter):
    """`_iterate_to_fixed_point` over ``period`` on ``n_nodes`` nodes for a
    nonempty list of problems given no seed curve: {problem index: its
    outcome}, each curve's updates and rates covering every push it rests
    on.

    Below `COARSE_MIN_NODES` nodes this iterates from the zero curve, one
    build for all problems (which rejects fewer than 2 nodes before any
    evaluation).  At or above it, a problem's start is nested iteration, the
    first step of full multigrid (Briggs, Henson & McCormick, A Multigrid
    Tutorial, 2nd ed., SIAM 2000): its cold solve on n_nodes //
    `COARSE_FACTOR` nodes over the same period, sampled at the n_nodes
    nodes.  The samples fix the fine nodes to about the coarse spline's
    error, so the coarse curve is trusted as a seed only when the coarse
    grid resolves it: when the interpolation-error scale of its node values
    (`_interp_error_estimate`, the ``converged`` gate's est) is at most
    10 ``tol``.  Then the fine level needs a push or two where a cold one
    needs about five.  The coarse level is only a seed: if its outcome is a
    `DomainError`, `MonotonicityError` or `ConvergenceError`, its curve
    fails that check, or a sampled node leaves the r1 disc, the problem's
    fine level starts from zeros; if the fine level from the samples ends in
    one of those errors, its pushes are dropped and it is redone from zeros.
    The result is then the cold solve's, report, outcome and all.

    The rules hold per problem, and each level (coarse, fine, redone from
    zeros) is one `_iterate_to_fixed_point` call.
    """
    if n_nodes < COARSE_MIN_NODES:
        zeros = PeriodicGridFn.zeros(period, n_nodes, spec.k2).values
        return _iterate_to_fixed_point(spec, omega, eps, period,
                                       dict.fromkeys(range(len(eps)), zeros),
                                       tol, max_iter)
    restart = (DomainError, MonotonicityError, ConvergenceError)
    outcomes = _solve_cold(spec, omega, eps, period, n_nodes // COARSE_FACTOR,
                           tol, max_iter)
    nodes, zeros = _nodes(period, n_nodes), np.zeros((n_nodes, spec.k2))
    starts, seeded = {}, []
    for i, got in outcomes.items():
        if isinstance(got, tuple):
            starts[i] = zeros
            if _interp_error_estimate(got[0].values) <= 10.0 * tol:
                values = got[0].eval(nodes)
                if _max_norm(values) <= spec.r1:
                    starts[i] = values
                    seeded.append(i)
        elif isinstance(got, restart):
            starts[i] = zeros
    fine = _iterate_to_fixed_point(spec, omega, eps, period, starts, tol,
                                   max_iter)
    redo = {i: zeros for i in seeded if isinstance(fine[i], restart)}
    for i in seeded:
        if isinstance(fine[i], tuple):  # the coarse pushes come first
            curve, updates, rates = fine[i]
            fine[i] = (curve, outcomes[i][1] + updates, outcomes[i][2] + rates)
    outcomes.update(fine)
    outcomes.update(_iterate_to_fixed_point(spec, omega, eps, period, redo,
                                            tol, max_iter))
    return outcomes


def _solve_curves(spec, omega, eps, config, seed_curves):
    """The curves of the problems (spec, omega, eps[e]), solved as one stack
    (see `solve_invariant_curve`, whose rules each problem keeps): one
    outcome per problem, (curve, `SolverReport`) or the `PerimapError` that
    stopped it.  ``seed_curves`` gives each problem its seed curve
    (`uniqueness_test` is the one caller that passes them); with None every
    problem starts cold.  A seed count other than the eps count, or a seed
    of the wrong period, node count or k2, raises `ValueError` before any
    evaluation, as do a ``max_iter`` below 1 and a ``tol`` that is not
    positive and finite; a seed outside the r1 disc is a `DomainError` of
    its problem.
    """
    _require_scalar_periodic(spec)
    omega, eps = float(omega), [float(e) for e in eps]
    if seed_curves is not None and len(seed_curves) != len(eps):
        raise ValueError(f"{len(seed_curves)} seed curves for {len(eps)} eps")
    if not eps:
        return []
    if seed_curves is None:
        outcomes = _solve_cold(spec, omega, eps, spec.period, config.n_nodes,
                               config.tol, config.max_iter)
    else:
        for seed in seed_curves:
            for name, got, want in (("period", seed.period, spec.period),
                                    ("node count", seed.n_nodes,
                                     config.n_nodes),
                                    ("k2", seed.k2, spec.k2)):
                if got != want:
                    raise ValueError(
                        f"seed curve {name} {got} differs from {want}")
        outcomes = {e: DomainError("seed curve exceeds the radius-r1 disc")
                    for e, seed in enumerate(seed_curves)
                    if seed.sup_norm() > spec.r1}
        outcomes.update(_iterate_to_fixed_point(
            spec, omega, eps, spec.period,
            {e: seed.values for e, seed in enumerate(seed_curves)
             if e not in outcomes}, config.tol, config.max_iter))
    return [outcomes[e] if isinstance(outcomes[e], PerimapError)
            else _verified(spec, omega, eps_e, outcomes[e], config)
            for e, eps_e in enumerate(eps)]


def _verified(spec, omega, eps, outcome, config):
    """(curve, `SolverReport`) of a curve, its updates and its rates that
    met tol, or the `PerimapError` that its invariance residual raised."""
    curve, updates, rates = outcome
    try:
        residual = invariance_residual(spec, omega, eps, curve,
                                       seed=config.seed)
    except PerimapError as exc:
        return exc
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


def solve_invariant_curve(spec, omega, eps, config=None):
    """Iterate the graph transform from a cold start until the node update
    falls below ``tol``; returns the curve and a `SolverReport`.

    Every spec is solved by the same preconditioned, Anderson-accelerated
    pushes (`_iterate_to_fixed_point`), which stop on the update of the plain
    transform and return its last image.  ``iterations`` counts pushes, one
    map call each, and ``measured_rates`` holds the secant contraction rates
    of the plain transform on the iterates.  The first push's call also
    evaluates the origin stencil, whose values give the model map's
    constants (`map_core.origin_constants`, with no call of the cached
    `map_core.origin`); once a push misses ``tol`` with another push
    allowed the solve reads them, so an alpha that is not finite at the
    origin raises `EvaluationError`.  The solve is a stack of one problem
    (`_solve_curves`); `continuity_in_eps` stacks its whole eps list.

    The solve starts cold (`_solve_cold`): from the zero curve, or for
    n_nodes >= `COARSE_MIN_NODES` from a solve on n_nodes // `COARSE_FACTOR`
    nodes when that grid resolves the curve.  ``iterations`` and
    ``measured_rates`` then list the coarse pushes and rates first, then the
    fine ones; ``final_update`` is the fine level's, and ``max_iter`` bounds
    each level.  The stopping rule and the returned plain image are the
    same, so the curve lies within about ``tol`` of the one from the zero
    curve, and a solve that fails from the coarse seed is redone from zeros,
    so it fails only as the cold solve does.

    A ``max_iter`` below 1, or a ``tol`` that is not positive and finite,
    raises `ValueError` before any evaluation; missing ``tol`` in
    ``max_iter`` sweeps raises `ConvergenceError`.  ``converged`` then
    requires the off-node invariance residual to be explainable by the
    spline discretization: residual <= 10 * (tol + est), where est is the
    standard interpolation-error scale computed from fourth differences of
    the node values.  This keeps the stall guard of the stopping rule
    without demanding sub-discretization residuals.
    """
    [got] = _solve_curves(spec, omega, [eps], config or CurveConfig(), None)
    if isinstance(got, PerimapError):
        raise got
    return got


def invariance_residual(spec, omega, eps, phi, n_samples=RESIDUAL_SAMPLES,
                        seed=0):
    """sup over sampled x of || beta(x, phi(x)) - phi(x + omega*alpha(...)) ||.

    ``phi`` may be any object with ``eval`` and ``period`` (duck-typed), so
    closed-form oracles can be checked directly.  A misshaped or non-finite
    evaluation raises `EvaluationError`.
    """
    require_count("n_samples", n_samples)
    rng = np.random.default_rng(seed)
    period = phi.period
    xs = rng.uniform(0.0, period, int(n_samples))
    y = phi.eval(xs)
    a, b = eval_batch(spec, omega, eps, xs[:, None], y)
    require_finite(a, b)
    img = phi.eval(xs + omega * a[:, 0])
    return float(_max_norm(b - img))


def attraction_test(spec, omega, eps, phi, n_trajectories=20, n_steps=50,
                    seed=0, y_radius=None):
    """Track d_j = ||y_j - phi(x_j)|| along sampled trajectories (`orbits`).

    Initial conditions are drawn from x in [-1, T + 1], with T the period
    of ``phi``, and y in the ``y_radius`` ball (default r1 / 2); a radius
    that is not positive and finite raises `ValueError`, and one above r1
    `DomainError`, before any evaluation.  Only the
    trajectories still inside the r1 disc are evaluated, and d is nan from
    a trajectory's exit point on.  Per-step rates take the max of
    d_{j+1}/d_j over trajectories whose distance is still at least the
    floor max(`DISTANCE_FLOOR`, 10 r), r being the curve's
    `invariance_residual` with the same ``seed``: once distances reach the
    curve's representation error the quotients measure interpolation noise,
    not contraction.
    """
    require_count("n_trajectories", n_trajectories)
    y_radius = y_radius if y_radius is not None else 0.5 * spec.r1
    require_positive("y_radius", y_radius)
    if y_radius > spec.r1:
        raise DomainError(f"y_radius = {y_radius:.3g} exceeds r1 = {spec.r1}")
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.0, phi.period + 1.0, n_trajectories)[:, None]
    y0 = ball_points(rng.random((n_trajectories, spec.k2)), y_radius)
    xs, ys, inside = orbits(spec, omega, eps, x0, y0, n_steps)
    floor = max(DISTANCE_FLOOR,
                10.0 * invariance_residual(spec, omega, eps, phi, seed=seed))

    dist = np.full(xs.shape[:2], np.nan)
    kept = np.linalg.norm(ys, axis=-1) <= spec.r1  # false at nan
    dist[kept] = np.linalg.norm(ys[kept] - phi.eval(xs[kept][:, 0]), axis=-1)
    ok = np.isfinite(dist[1:]) & (dist[:-1] >= floor)
    quotients = np.divide(dist[1:], dist[:-1], where=ok,
                          out=np.full(ok.shape, -np.inf))
    rates = np.where(ok.any(axis=1), quotients.max(axis=1), np.nan)
    return AttractionReport(distances=dist, rates=rates,
                            escaped=int(np.sum(~inside)))


def periodicity_defect(spec, omega, eps, config=None):
    """Emergent-periodicity test: re-solve on the doubled window [0, 2T).

    The curve is a 2T-periodic grid function of 2 * ``n_nodes`` nodes, so
    only 2T-periodicity is imposed.  It starts cold like
    `solve_invariant_curve` (`_solve_cold`): at 2 * n_nodes >=
    `COARSE_MIN_NODES` from a solve on a coarse grid that is also over
    [0, 2T), never from a T-periodic seed, which the push of a T-periodic
    map would keep T-periodic.  ``max_iter`` bounds each level (below 1,
    `ValueError` before any evaluation), and the iterations and rates span
    both.  Returns sup over x in [0, T) of ||phi(x + T) - phi(x)|| for the
    converged doubled curve; a `ConvergenceError` outcome is raised as
    ``doubled-window solve did not converge: <its message>``, chained to it.
    """
    config = config or CurveConfig()
    _require_scalar_periodic(spec)
    T = spec.period
    got = _solve_cold(spec, float(omega), [float(eps)], 2.0 * T,
                      2 * config.n_nodes, config.tol, config.max_iter)[0]
    if isinstance(got, ConvergenceError):
        raise ConvergenceError(
            f"doubled-window solve did not converge: {got}") from got
    if isinstance(got, PerimapError):
        raise got
    xs = _nodes(T, 4 * config.n_nodes)
    gap = got[0].eval(xs + T) - got[0].eval(xs)
    return float(_max_norm(gap))


def uniqueness_test(spec, omega, eps, config, seeds):
    """Sup-distance between the curves converged from two seed curves,
    solved as one stack; the first seed's failure is raised first.  A seed
    count other than two, or a seed whose period, node count or k2 differs
    from ``spec.period``, ``n_nodes`` or ``spec.k2``, is a `ValueError`
    before any evaluation, and a seed whose sup norm exceeds r1 a
    `DomainError`."""
    solved = _solve_curves(spec, omega, [eps, eps], config, list(seeds))
    for got in solved:
        if isinstance(got, PerimapError):
            raise got
    (curve_a, _), (curve_b, _) = solved
    xs = _nodes(spec.period, 4 * config.n_nodes)
    return float(_max_norm(curve_a.eval(xs) - curve_b.eval(xs)))


@dataclass
class EpsContinuityRow:
    eps: float
    sup_norm: float
    ratio: Optional[float]  # sup_norm / |eps|, None at eps = 0
    converged: bool


def continuity_in_eps(spec, omega, eps_list, config=None):
    """Table of (eps, sup||phi_eps||, sup/|eps|) sorted by eps.

    The sorted list is solved as one stack (`_solve_curves`), each eps of a
    closed-form map to the bits of its lone `solve_invariant_curve`; a
    wrapped map flows the stack's lanes together, so its values agree with
    the lone solves to integration accuracy.  If an eps fails, the
    first failing eps in sorted order raises its error again, of the same
    type, with the message ``eps=<value>: <original>`` and chained to it.
    """
    config = config or CurveConfig()
    eps_sorted = [float(e) for e in sorted(eps_list)]
    solved = _solve_curves(spec, omega, eps_sorted, config, None)
    rows = []
    for eps, got in zip(eps_sorted, solved):
        if isinstance(got, PerimapError):
            raise type(got)(f"eps={eps}: {got}") from got
        curve, report = got
        sup = curve.sup_norm()
        rows.append(EpsContinuityRow(
            eps=eps, sup_norm=sup,
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
    """A header line of column names, then every value of ``rows`` as %.16e,
    comma-separated, one line per row (a flat ``rows`` is one column): the
    bytes of ``np.savetxt(fmt="%.16e", delimiter=",", comments="")``,
    written in one call."""
    table = np.asarray(rows, dtype=float)
    if table.ndim == 1:
        table = table[:, None]
    fmt = ",".join(["%.16e"] * table.shape[1])
    lines = [",".join(header)] + [fmt % tuple(row) for row in table.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, obj):
    """``obj`` as JSON with sorted keys and a 2-space indent, then a newline,
    written in one call (the bytes of ``json.dump`` plus that newline)."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


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
