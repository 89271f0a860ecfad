"""Graph-transform solver for T-periodic attracting invariant curves (k1 = 1).

A candidate curve phi, held by its values at uniform nodes, is pushed
forward through the map: alpha and beta are evaluated once per push at the
nodes (x_i, phi(x_i)), which go to the images x_i + omega * alpha_i with new
values beta_i.  If the images keep the nodes' cyclic order (else
`MonotonicityError`), the window-periodic cubic spline through them is
sampled back at the nodes.  For a wrapped Poincare map a push is one
batched flow, whose cost hardly depends on the number of lanes: beta reads
the returns that alpha flowed from the memo.

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

A solve given no seed curve starts from the zero curve, except on
n >= `COARSE_MIN_NODES` nodes.  There it first solves on n // `COARSE_FACTOR`
nodes and, if that grid resolves the curve to the tolerance scale, samples
the coarse curve at the n nodes, so one or two fine pushes replace about
five (nested iteration, `_solve_cold`).  The reported ``iterations`` and
``measured_rates`` then span both levels, and ``max_iter`` bounds each
level; a coarse seed that is not trusted, or from which the fine level
fails, leaves the cold solve's result.

Curves, pushes and the preconditioner's symbol share one periodic cubic
spline in moment form, `_Spline`, built once per curve or push.  The
emergent-periodicity test solves for a curve of period 2T on twice the nodes:
only 2T-periodicity is imposed, so T-periodicity has to emerge from the
dynamics rather than from the representation.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dptsv

from .exceptions import ConvergenceError, DomainError, MonotonicityError
from .map_core import eval_batch, orbits, origin, require_finite
from .sampling import ball_points, require_count, require_positive

Array = np.ndarray

ANDERSON_DEPTH = 3  # residual differences in each Anderson least-squares fit
COARSE_MIN_NODES = 8192  # least n of a cold solve that starts on a coarse grid
COARSE_FACTOR = 16  # n over the node count of that coarse grid
RESIDUAL_SAMPLES = 512  # sampled x of a solve's invariance residual
DISTANCE_FLOOR = 1e-9  # least floor of the distances `attraction_test` rates
RATE_TRANSIENT = 5  # leading rates that `AttractionReport.max_rate` skips


def _cyclic(v, k):
    """``np.roll(v, -k, axis=0)`` from one concatenate: row i of the
    result is row (i + k) mod len(v) of ``v``."""
    k %= len(v)
    return np.concatenate((v[k:], v[:k]))


def _cyclic_solve(diag, off, rhs):
    """X with A X = ``rhs`` for the symmetric, diagonally dominant cyclic
    tridiagonal A with A[i, i] = diag_i and A[i, i+1] = A[i+1, i] = off_i,
    indices mod n.

    A = B + u v^T, where B is tridiagonal and u v^T carries the two corners
    (Numerical Recipes, 3rd ed., section 2.7.2): one LAPACK ``dptsv``
    (tridiagonal LDL^T) solve of B for ``rhs`` and u, then a
    Sherman-Morrison correction; `LinAlgError` if B is not positive
    definite.  For n = 2 the corners add to the off-diagonals, as in A.
    """
    gamma, corner = -diag[0], off[-1]
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= corner * corner / gamma
    u = np.zeros(len(diag))
    u[0], u[-1] = gamma, corner
    _, _, sol, info = dptsv(d, off[:-1], np.column_stack([rhs, u]),
                            overwrite_d=1, overwrite_b=1)
    if info > 0:
        raise LinAlgError(f"{info}th leading minor not positive definite")
    y, z = sol[:, :-1], sol[:, -1]
    vy = y[0] + y[-1] * corner / gamma
    vz = z[0] + z[-1] * corner / gamma
    return y - z[:, None] * (vy / (1.0 + vz))[None, :]


class _Spline:
    """The window-periodic cubic spline through the values ``y`` (n, m) at
    the n increasing knots ``t`` in [t[0], t[0] + window), in moment form.

    The build solves h_{i-1} M_{i-1} / 6 + (h_{i-1} + h_i) M_i / 3 +
    h_i M_{i+1} / 6 = d_i - d_{i-1}, with h_i = t_{i+1} - t_i and
    d_i = (y_{i+1} - y_i) / h_i (indices mod n), for the knot second
    derivatives M (`_cyclic_solve`).  It keeps the knots closed by
    t[0] + window (not offsets from t[0], whose rounding would perturb h),
    M and ``y``.
    """

    def __init__(self, t, window, y):
        self.window, self.y = window, y
        self.knots = np.append(t, t[0] + window)
        h = np.diff(self.knots)
        d = (_cyclic(y, 1) - y) / h[:, None]
        self.m = _cyclic_solve((_cyclic(h, -1) + h) / 3.0, h / 6.0,
                               d - _cyclic(d, -1))

    def __call__(self, x):
        """The spline at the points ``x`` (k,), any reals: (k, m)."""
        knots, y, m, t0 = self.knots, self.y, self.m, self.knots[0]
        u = np.fmod(x - t0, self.window)  # exact: x + window reads as x
        x = t0 + np.where(u < 0, u + self.window, u)
        i = np.searchsorted(knots[:-1], x, side="right") - 1
        h = (knots[i + 1] - knots[i])[:, None]
        u = (x - knots[i])[:, None]
        i1 = (i + 1) % len(y)
        w = h - u
        return (w * y[i] + u * y[i1] + w * (w * w - h * h) / 6.0 * m[i]
                + u * (u * u - h * h) / 6.0 * m[i1]) / h

    def slopes(self):
        """Slopes s'(t_i) = d_i - h_i (2 M_i + M_{i+1}) / 6 of the value
        columns at the knots: (n, m)."""
        h = np.diff(self.knots)[:, None]
        y, m = self.y, self.m
        return ((_cyclic(y, 1) - y) / h
                - h * (2.0 * m + _cyclic(m, 1)) / 6.0)

    def turning_points(self):
        """The points inside a piece where the first column's slope, the
        quadratic s'(t_i) + M_i u + (M_{i+1} - M_i) u^2 / (2 h_i) in
        u in [0, h_i], vanishes."""
        h, m = np.diff(self.knots), self.m[:, 0]
        c = self.slopes()[:, 0]
        a = (_cyclic(m, 1) - m) / (2.0 * h)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -0.5 * (m + np.copysign(np.sqrt(m * m - 4.0 * a * c), m))
            u = np.stack([q / a, c / q])  # nan or inf if none
        return (self.knots[:-1] + u)[(u >= 0.0) & (u <= h)]


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
        nodes = np.linspace(0.0, self.period, values.shape[0] + 1)[:-1]
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

        Exact up to rounding for k2 = 1: the spline's turning points join
        the nodes as candidates.  A dense-sampling estimate for k2 > 1.
        """
        if self.k2 == 1:
            xs = np.concatenate([self.nodes, self._spline.turning_points()])
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
    seed_curve: Optional[PeriodicGridFn] = None
    seed: int = 0
    preimage_tol: float = 1e-14


def rate_bound_from_q(q):
    return q + 2.0 * (1.0 - q) / 3.0


# ----------------------------------------------------------------------------
# the transform
# ----------------------------------------------------------------------------

def _sweep(spec, omega, eps, xs, values, window):
    """One forward push: the graph values ``values`` (n, k2) at the nodes
    ``xs`` of [0, window), mapped and re-gridded at the same nodes.  Returns
    the image G(values) and alpha at the nodes, (n,).

    alpha and beta are evaluated once each, at the nodes; a misshaped or
    non-finite result raises `EvaluationError`.  The images, shifted by whole
    windows so that the first lies in [0, window), must keep the nodes'
    cyclic order (`MonotonicityError`, the solver's only order check); the
    window-periodic cubic spline through them (`_Spline`) is sampled at xs.
    """
    a, b = eval_batch(spec, omega, eps, xs[:, None], values)
    require_finite(a, b)
    if np.max(np.linalg.norm(b, axis=-1)) > spec.r1:
        raise DomainError("graph transform left the radius-r1 disc")
    a = a[:, 0]
    img = xs + omega * a
    img -= window * np.floor(img[0] / window)
    if not np.all(np.diff(np.append(img, img[0] + window)) > 0.0):
        raise MonotonicityError(
            "x-advance map is not strictly increasing at the nodes: the "
            "pushed nodes do not keep their cyclic order; "
            "the graph transform is undefined at these parameters"
        )
    return _Spline(img, window, b)(xs), a


def _linear_part_inverse(spec, omega, xs, window, alpha):
    """P^-1, as a function of node values r (n, k2) at the uniform nodes
    ``xs`` of [0, window), for P = I - B (x) S_s: the identity less the
    push's linear part at (eps, phi) = (0, 0).

    The eps = 0 map is autonomous, so that part is the model map's
    v -> B v(. - s), with s = omega alpha(0) and B = beta_y(0) from
    `map_core.origin`.  On the nodes S_s, the spline through the values at
    the shifted nodes sampled at the nodes, is circulant: its symbol is the
    DFT of one column, `_Spline` through a unit vector.  Solving P x = r mode
    by mode (a division for k2 = 1, one k2 x k2 solve for k2 > 1) is the
    constant-coefficient step of the parameterization method (Haro,
    Canadell, Figueras, Luque & Mondelo, Springer 2016).

    The push shifts node x by omega alpha(x, phi(x)), not by s, so mode k's
    phase is off by up to 2 pi |k| |omega| max|alpha - alpha(0)| / window.
    P^-1 acts only on the modes where that is at most 1/2, the max read
    from ``alpha``, the first push's values, and is the identity above them.
    """
    alpha0, _, B = origin(spec)
    n, k2 = len(xs), spec.k2
    column = _Spline(xs + omega * alpha0[0], window, np.eye(n, 1))(xs)
    symbol = np.fft.rfft(column[:, 0])
    spread = 4.0 * np.pi * abs(omega) * np.max(np.abs(alpha - alpha0[0]))
    symbol[spread * np.arange(len(symbol)) > window] = 0.0  # P = I there
    p = np.eye(k2) - symbol[:, None, None] * B

    def solve(r):
        r_hat = np.fft.rfft(r, axis=0)[:, :, None]
        x_hat = r_hat / p if k2 == 1 else np.linalg.solve(p, r_hat)
        return np.fft.irfft(x_hat[:, :, 0], n, axis=0)

    return solve


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
    g, _ = _sweep(spec, float(omega), float(eps), phi.nodes, phi.values,
                  phi.period)
    return phi.with_values(g)


# ----------------------------------------------------------------------------
# the solver and its verification operations
# ----------------------------------------------------------------------------

def _interp_error_estimate(values):
    """Spline-discretization scale from cyclic 4th differences of the nodes."""
    v = values
    d4 = (_cyclic(v, -2) - 4 * _cyclic(v, -1) + 6 * v
          - 4 * _cyclic(v, 1) + _cyclic(v, 2))
    return (5.0 / 384.0) * float(np.max(np.abs(d4)))


def _iterate_to_fixed_point(spec, omega, eps, period, values, tol, max_iter):
    """Preconditioned, Anderson-accelerated push iteration from the node
    values ``values`` (n, k2) at the n uniform nodes of [0, ``period``).

    Push k maps v_k to its plain image G(v_k).  The iteration solves
    v = H(v) = v + P^-1 (G(v) - v), with P^-1 from `_linear_part_inverse`,
    built after the first push; the next input is the type-II Anderson
    combination (Walker & Ni, SIAM J. Numer. Anal. 49, 2011) of the last
    ``ANDERSON_DEPTH`` + 1 values of H, whose weights minimize the matching
    combination of preconditioned residuals.  The plain image is taken
    instead when that step leaves the r1 disc or the update max|G(v) - v|
    has grown, which also clears the Anderson history.  Stops once
    max|G(v) - v| <= ``tol``; returns (G(v) as a curve, the updates
    max|G(v_k) - v_k|, the secant rates, whether ``tol`` was met).  The
    secant rate ||G(v_k) - G(v_{k-1})|| / ||v_k - v_{k-1}|| (sup norms) is the
    contraction of the plain transform measured on the iterates.
    ``max_iter`` below 1 raises `ValueError` before any push.
    """
    require_count("max_iter", max_iter)
    xs, v = np.linspace(0.0, period, len(values) + 1)[:-1], values
    updates, rates, d_res, d_out, precondition = [], [], [], [], None
    for _ in range(int(max_iter)):
        g, alpha = _sweep(spec, omega, eps, xs, v, period)
        updates.append(float(np.max(np.abs(g - v))))
        if updates[-1] <= tol:
            return PeriodicGridFn(period, g), updates, rates, True
        if precondition is None:
            precondition = _linear_part_inverse(spec, omega, xs, period, alpha)
        res = precondition(g - v)
        out = v + res
        grew = len(updates) > 1 and updates[-1] > updates[-2]
        if len(updates) > 1:
            step = float(np.max(np.abs(v - v_prev)))
            if step > 1e-300:
                rates.append(float(np.max(np.abs(g - g_prev))) / step)
            if grew:
                d_res.clear()
                d_out.clear()
            else:
                d_res = (d_res + [(res - res_prev).ravel()])[-ANDERSON_DEPTH:]
                d_out = (d_out + [(out - out_prev).ravel()])[-ANDERSON_DEPTH:]
        v_prev, g_prev, res_prev, out_prev = v, g, res, out
        if d_res:
            gamma = np.linalg.lstsq(np.column_stack(d_res), res.ravel(),
                                    rcond=None)[0]
            out = out - (np.column_stack(d_out) @ gamma).reshape(g.shape)
        v = (g if grew or np.max(np.linalg.norm(out, axis=-1)) > spec.r1
             else out)
    return PeriodicGridFn(period, g), updates, rates, False


def _solve_cold(spec, omega, eps, period, n_nodes, tol, max_iter):
    """`_iterate_to_fixed_point` over ``period`` on ``n_nodes`` nodes when no
    seed curve is given; returns its (curve, updates, secant rates, whether
    ``tol`` was met), the updates and rates covering every push the
    returned curve rests on.

    Below `COARSE_MIN_NODES` nodes this iterates from the zero curve (whose
    build rejects fewer than 2 nodes before any evaluation).  At or above
    it, the start is nested iteration, the first step of full multigrid
    (Briggs, Henson & McCormick, A Multigrid Tutorial, 2nd ed., SIAM 2000):
    a cold solve on n_nodes // `COARSE_FACTOR` nodes over the same period,
    sampled at the n_nodes nodes.  The samples fix the fine nodes to about
    the coarse spline's error, so the coarse curve is trusted as a seed only
    when the coarse grid resolves it: when the interpolation-error scale of
    its node values (`_interp_error_estimate`, the ``converged`` gate's est)
    is at most 10 ``tol``.  Then the fine level needs a push or two where a
    cold one needs about five.  The coarse level is only a seed: if it raises
    `DomainError` or `MonotonicityError`, misses ``tol`` in ``max_iter``
    pushes, fails that check, or a sampled node leaves the r1 disc, or if
    the fine iteration from the samples raises either error or misses
    ``tol``, its pushes are dropped and the fine level iterates from zeros.
    The result is then the cold solve's, report, outcome and all.
    """
    if n_nodes < COARSE_MIN_NODES:
        zeros = PeriodicGridFn.zeros(period, n_nodes, spec.k2).values
        return _iterate_to_fixed_point(spec, omega, eps, period, zeros, tol,
                                       max_iter)
    try:
        coarse, updates, rates, hit_tol = _solve_cold(
            spec, omega, eps, period, n_nodes // COARSE_FACTOR, tol, max_iter)
        if hit_tol and _interp_error_estimate(coarse.values) <= 10.0 * tol:
            values = coarse.eval(np.linspace(0.0, period, n_nodes + 1)[:-1])
            if np.max(np.linalg.norm(values, axis=-1)) <= spec.r1:
                curve, more, more_rates, hit_tol = _iterate_to_fixed_point(
                    spec, omega, eps, period, values, tol, max_iter)
                if hit_tol:
                    return curve, updates + more, rates + more_rates, True
    except (DomainError, MonotonicityError):
        pass
    return _iterate_to_fixed_point(spec, omega, eps, period,
                                   np.zeros((n_nodes, spec.k2)), tol, max_iter)


def solve_invariant_curve(spec, omega, eps, config=None):
    """Iterate the graph transform from the seed curve until the node update
    falls below ``tol``; returns the curve and a `SolverReport`.

    Every spec is solved by the same preconditioned, Anderson-accelerated
    pushes (`_iterate_to_fixed_point`), which stop on the update of the plain
    transform and return its last image.  ``iterations`` counts pushes, one
    map call each, and ``measured_rates`` holds the secant contraction rates
    of the plain transform on the iterates.  Once a push misses ``tol``,
    the solve also reads the model map's constants (`map_core.origin`,
    cached per spec), so an alpha that is not finite at the origin raises
    `EvaluationError`.

    With no ``seed_curve`` the solve starts cold (`_solve_cold`): from the
    zero curve, or for n_nodes >= `COARSE_MIN_NODES` from a solve on
    n_nodes // `COARSE_FACTOR` nodes when that grid resolves the curve.
    ``iterations`` and ``measured_rates`` then list the coarse pushes and
    rates first, then the fine ones; ``final_update`` is the fine level's,
    and ``max_iter`` bounds each level.  The stopping rule and the returned
    plain image are the same, so the curve lies within about ``tol`` of the
    one from the zero curve, and a solve that fails from the coarse seed is
    redone from zeros, so it fails only as the cold solve does.

    A ``seed_curve`` whose period, node count or k2 differs from
    ``spec.period``, ``n_nodes`` or ``spec.k2`` raises `ValueError` before
    any evaluation, as does a ``max_iter`` below 1, and one whose sup norm
    exceeds r1 raises `DomainError`; missing ``tol`` in ``max_iter`` sweeps
    raises `ConvergenceError`.  ``converged`` then requires the off-node
    invariance residual to be explainable by the spline discretization:
    residual <= 10 * (tol + est), where est is the standard
    interpolation-error scale computed from fourth differences of the node
    values.  This keeps the stall guard of the stopping rule without
    demanding sub-discretization residuals.
    """
    config = config or CurveConfig()
    _require_scalar_periodic(spec)
    omega, eps = float(omega), float(eps)
    seed = config.seed_curve
    if seed is None:
        curve, updates, rates, hit_tol = _solve_cold(
            spec, omega, eps, spec.period, config.n_nodes, config.tol,
            config.max_iter)
    else:
        for name, got, want in (("period", seed.period, spec.period),
                                ("node count", seed.n_nodes, config.n_nodes),
                                ("k2", seed.k2, spec.k2)):
            if got != want:
                raise ValueError(
                    f"seed curve {name} {got} differs from {want}")
        if seed.sup_norm() > spec.r1:
            raise DomainError("seed curve exceeds the radius-r1 disc")
        curve, updates, rates, hit_tol = _iterate_to_fixed_point(
            spec, omega, eps, spec.period, seed.values, config.tol,
            config.max_iter)
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
    return float(np.max(np.linalg.norm(b - img, axis=-1)))


def attraction_test(spec, omega, eps, phi, n_trajectories=20, n_steps=50,
                    seed=0, y_radius=None):
    """Track d_j = ||y_j - phi(x_j)|| along sampled trajectories (`orbits`).

    Initial conditions are drawn from x in [-1, T + 1], with T the period
    of ``phi``, and y in the ``y_radius`` ball (default r1 / 2); a radius
    above r1 raises `DomainError` before any evaluation.  Only the
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
    converged doubled curve.
    """
    config = config or CurveConfig()
    _require_scalar_periodic(spec)
    omega, eps = float(omega), float(eps)
    T = spec.period
    curve, updates, _, hit_tol = _solve_cold(
        spec, omega, eps, 2.0 * T, 2 * config.n_nodes, config.tol,
        config.max_iter)
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
