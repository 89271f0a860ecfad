"""Hybrid systems: forced flows with event-accurate switching-surface detection.

A `HybridSystem` bundles the reduced vector field X, the forcing g (T_g
periodic in time), the jump map Delta applied on the switching surface
S = {H = 0}, and a chart D of S.  `flow_batch` integrates a batch of lanes of

    dx/dt = X(x) + eps * g(t, x, eps)

(`forced_rhs`) through `dopri.integrate` (Dormand-Prince 8(5,3)) and finds
each lane's first admissible crossing of S.  Crossings are directional (sign
of dH/dt must match the configured direction) and detection is suppressed
until |H| has once exceeded an arming threshold, so a trajectory started on
or near S by a jump does not retrigger at departure.

The eighth-order steps are long (about 20-40 per revolution of the built-in
cycle), so a sign check at the step ends is not enough.  Each accepted step
first gets one batched H call on its eleven interior stage states, which the
stepper already holds.  A step on which every watched lane keeps the sign
of its start, at least `FAR_LEVEL` from S, at both ends and at every stage
state cannot reach S: it is not scanned, and its dense output is never
built (see `dopri`).  Any other step is scanned: H is sampled at the 9
points theta = i/8 of the step's interpolant, and the first admissible sign
change among them is bracketed between two samples.  On a step whose
samples keep one sign but come near S, the extremum of H along the step's
interpolant is refined by safeguarded successive parabolic interpolation.
That extremum feeds the grazing flag, and when it lies across S the step
holds two crossings; the admissible one is bracketed between the extremum
and a sample.  After the flow each bracket is closed on `dopri.dense_value`
of its step by Illinois (Anderson-Bjorck) regula falsi, started from the H
values the scan already holds.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dopri import P, DensePath, dense_value, integrate
from .exceptions import ConfigError, IntegrationError
from .numdiff import central_jacobian
from .sampling import (latin_hypercube, require_count, require_positive,
                       scale_to)

Array = np.ndarray

LOCALIZE_HALVINGS = 64   # iteration cap of one event localization
MAX_SEGMENTS = 1000      # flow segments `simulate_hybrid` may run
SEGMENT_SAMPLES = 64     # dense samples of each segment it returns
REFINE_LEVEL = 0.05      # sampled |H| below which a step's extremum is refined
# stage |H| from which a step is not scanned; twice REFINE_LEVEL leaves room
# for the interpolant between the stage states
FAR_LEVEL = 2.0 * REFINE_LEVEL
EXTREMUM_ITERS = 30      # iteration cap of that refinement
EXTREMUM_TOL = 1e-6      # theta step at which that refinement has converged
H_TOL = 1e-12            # |H| at a localized crossing
T_TOL = 1e-12            # time-bracket width of a localization
ARM_LEVEL = 10.0 * H_TOL  # |H| that arms a lane's crossing detection
GRAZING_TOL = 1e-6       # |H| proximity that flags a non-crossing touch
# a crossing pair inside one step must pass S by this much; a smaller pass is
# within the integration noise of a tangential touch
PASS_LEVEL = max(ARM_LEVEL, 0.01 * GRAZING_TOL)
# theta at the 9 sample points of a step (both ends included), and the
# dense-output powers theta**1..p (rows) at the 7 interior ones (columns)
_THETA_GRID = np.linspace(0.0, 1.0, 9)
_THETA_POWERS = _THETA_GRID[1:-1] ** np.arange(1, P.shape[1] + 1)[:, None]
_SAMPLE_INDEX = np.arange(_THETA_GRID.size)
_GOLDEN = (3.0 - np.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class HybridSystem:
    """Forced hybrid system; all evaluators vectorized over a leading batch axis.

    ``X(x)``: (..., d) -> (..., d); ``Delta``, ``H``, ``D`` and
    ``D_inverse`` likewise batched.  The forcing ``g(t, x, eps)`` is always
    called per lane: x of shape (K, d), t and eps of shape (K,), and it
    returns (K, d).  ``D`` maps the chart ball r1*D^{k2} into S.  ``T_g``
    and ``r1`` must be positive and finite (else `ValueError`).
    """

    dim: int
    X: Callable[..., Array]
    g: Callable[..., Array]
    Delta: Callable[..., Array]
    H: Callable[..., Array]
    D: Callable[..., Array]
    D_inverse: Callable[..., Array]
    T_g: float
    r1: float
    label: str = ""

    def __post_init__(self):
        require_positive("T_g", self.T_g)
        require_positive("r1", self.r1)

    @property
    def k2(self):
        return self.dim - 1


@dataclass(frozen=True)
class EventConfig:
    """Directional surface-crossing detection (thresholds: `H_TOL` etc.).

    ``direction`` is the sign of dH/dt at a crossing, 1 or -1 (else
    `ValueError`); `poincare.prepare_handle` takes the cycle's.
    """

    direction: int = 1

    def __post_init__(self):
        if self.direction not in (1, -1):
            raise ValueError(f"direction must be 1 or -1, got "
                             f"{self.direction!r}")


@dataclass
class FlowResult:
    """Per-lane ends of a `flow_batch` call and its ``path`` in local time."""

    end_times: Array
    end_states: Array
    event_hit: Array
    grazing: Array
    stats: dict
    path: DensePath = field(repr=False)


def _localize_crossings(h_fun, y_old, q, t_old, h, t_lo, t_hi, f_lo, f_hi):
    """Vectorized Illinois regula falsi for H = 0 in per-lane brackets.

    Lane i changes sign on [t_lo[i], t_hi[i]], where H is f_lo[i] and
    f_hi[i]; the bracket lies inside its accepted step: start ``t_old[i]``,
    length ``h[i]``, state ``y_old[i]`` and dense coefficients ``q[i]``
    (see `dense_value`).  Each iteration evaluates H once, at the regula
    falsi point of every lane still open; an end that the new point does
    not replace keeps its place with its H weighted down (Anderson-Bjorck,
    or halved as in the Illinois method).  The point stays `T_TOL`/2 inside
    the bracket (Brent's minimum step), so the bracket also closes from the
    far side of the root; a bracket too narrow for that, or a failed
    secant, is bisected.  A lane closes once its bracket is at most `T_TOL`
    wide and |H| <= `H_TOL` at an end, within `LOCALIZE_HALVINGS`
    iterations.  Returns the bracket end with the smaller |H|, its state
    and the worst |H| there; `IntegrationError` is raised if a lane misses
    `H_TOL` at both ends.
    """
    t_a, f_a, w_a = t_lo.copy(), f_lo.copy(), f_lo.copy()
    t_b, f_b = t_hi.copy(), f_hi.copy()     # b is the newest point
    for _ in range(LOCALIZE_HALVINGS):
        open_ = ((np.abs(t_b - t_a) > T_TOL)
                 | (np.minimum(np.abs(f_a), np.abs(f_b)) > H_TOL))
        if not open_.any():
            break
        i = np.nonzero(open_)[0]
        a, b, fb = t_a[i], t_b[i], f_b[i]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = b - fb * (b - a) / (fb - w_a[i])
        c = np.clip(c, lo + 0.5 * T_TOL, hi - 0.5 * T_TOL)
        c = np.where(np.isfinite(c) & (hi - lo > T_TOL), c, 0.5 * (lo + hi))
        fc = h_fun(dense_value(y_old[i], q[i], h[i], (c - t_old[i]) / h[i]))
        # c on the side of b: a stays an end, with its weight scaled down
        same = fc * fb > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            m = 1.0 - fc / fb
        w_a[i] = np.where(same, w_a[i] * np.where(m > 0.0, m, 0.5), fb)
        f_a[i] = np.where(same, f_a[i], fb)
        t_a[i] = np.where(same, a, b)
        t_b[i], f_b[i] = c, fc
    t_star = np.where(np.abs(f_a) <= np.abs(f_b), t_a, t_b)
    y_star = dense_value(y_old, q, h, (t_star - t_old) / h)
    h_max = float(np.max(np.abs(h_fun(y_star))))
    if h_max > H_TOL:
        raise IntegrationError(
            f"event localization ended at |H| = {h_max:.3g} > H_TOL = "
            f"{H_TOL:.3g} after {LOCALIZE_HALVINGS} iterations")
    return t_star, y_star, h_max


def _extremum(h_fun, y_old, q, h, sign, theta, f):
    """Safeguarded parabolic minimum of sign * H along each lane's step.

    Row i starts from three points ``theta[i]`` (ascending) of the
    polynomial ``dense_value(y_old[i], q[i], h, theta)``, with
    ``f[i] = sign[i] * H`` there, and searches [theta[i, 0], theta[i, 2]].
    Each iteration moves to the minimum of the parabola through the three
    best points evaluated so far: its vertex inside the bracket, or the
    best point itself when that lies on the bracket's edge the parabola
    points past.  Any other parabola gives a golden-section step into the
    larger side of the best point.  A lane has converged once its step is at
    most `EXTREMUM_TOL`; at most `EXTREMUM_ITERS` evaluations are made.
    Returns the best theta and H there.
    """
    lo, hi = theta[:, 0], theta[:, 2]
    order = np.argsort(f, axis=1, kind="stable")
    x, w, v = np.take_along_axis(theta, order, axis=1).T
    fx, fw, fv = np.take_along_axis(f, order, axis=1).T
    done = np.zeros(len(lo), dtype=bool)
    for _ in range(EXTREMUM_ITERS):
        with np.errstate(divide="ignore", invalid="ignore"):
            d1 = (fw - fx) / (w - x)
            curv = (d1 - (fv - fx) / (v - x)) / (w - v)
            u = np.clip(0.5 * (x + w) - 0.5 * d1 / curv, lo, hi)
        edge = (x == lo) | (x == hi)
        u = np.where(curv > 0.0, u, np.where(edge, x, np.nan))
        inside = (u > lo) & (u < hi)
        golden = np.where(hi - x > x - lo, x + _GOLDEN * (hi - x),
                          x - _GOLDEN * (x - lo))
        u = np.where(inside | (u == x), u, golden)
        done |= np.abs(u - x) <= EXTREMUM_TOL
        if done.all():
            break
        u = np.where(done, x, u)
        fu = sign * h_fun(dense_value(y_old, q, h, u))
        better = fu < fx
        lo = np.where(better, np.where(u > x, x, lo), np.where(u < x, u, lo))
        hi = np.where(better, np.where(u > x, hi, x), np.where(u > x, u, hi))
        pts = np.stack([x, w, v, u], axis=1)
        vals = np.stack([fx, fw, fv, fu], axis=1)
        order = np.argsort(vals, axis=1, kind="stable")[:, :3]
        x, w, v = np.take_along_axis(pts, order, axis=1).T
        fx, fw, fv = np.take_along_axis(vals, order, axis=1).T
    return x, sign * fx


def _far_from_s(h_states, h_prev, h_new, watched, min_h_armed):
    """True if no watched lane can reach S inside the step.

    ``h_states`` (11, K) is H at the step's interior stage states, and
    ``h_prev`` and ``h_new`` at its ends.  A lane is far if all of them have
    the sign of ``h_prev`` and |H| >= `FAR_LEVEL`.  When every watched lane
    is far, their least |H| lowers ``min_h_armed`` (in place).
    """
    sign = np.sign(h_prev)
    reach = np.minimum.reduce(h_states * sign, axis=0)
    np.minimum(reach, h_prev * sign, out=reach)
    np.minimum(reach, h_new * sign, out=reach)
    if not np.logical_and.reduce(reach >= FAR_LEVEL, where=watched):
        return False
    np.minimum(min_h_armed, reach, out=min_h_armed, where=watched)
    return True


def _scan_step(h_fun, direction, t_old, t_new, y_old, q, h_prev, h_new,
               watched, min_h_armed, pending, bracket):
    """Bracket the first admissible crossing inside one accepted step.

    ``watched`` lanes are armed and still pending.  H is sampled at the 9
    points theta = i/8 of every lane (the ends are ``h_prev`` and
    ``h_new``), and the samples lower ``min_h_armed`` (in place).  An
    interior sample within `PASS_LEVEL` of S counts as a touch: the sample
    before it is held over it.  The first sign change of the held samples
    whose new sign is the configured direction is the lane's crossing: the
    lane stops pending (in place) and its column of ``bracket`` (rows t_lo,
    t_hi, H(t_lo), H(t_hi); in place) gets the two samples around it.  A
    zero at a step end counts as the far side of the change into it.

    On lanes whose held samples keep the sign of both ends and whose
    sampled |H| drops below `REFINE_LEVEL`, the extremum of H around the
    smallest sample is refined by `_extremum`, which lowers ``min_h_armed``
    too.  When it lies across S by at least `PASS_LEVEL` the step holds two
    crossings, one on each side of it; the admissible one is bracketed
    between the extremum and the nearest held sample.
    """
    h = t_new - t_old
    # sample i of every lane in row i: reductions over the 9 samples then
    # run across lanes
    incr = (q.reshape(-1, q.shape[-1]) @ _THETA_POWERS).T
    samples = np.empty((_THETA_GRID.size,) + h_prev.shape)
    samples[0], samples[-1] = h_prev, h_new
    samples[1:-1] = h_fun(y_old + h * incr.reshape((-1,) + y_old.shape))
    min_s = np.abs(samples).min(axis=0)
    np.minimum(min_h_armed, min_s, out=min_h_armed, where=watched)
    # only lanes with samples on both sides of S, or on it, can cross here
    touch = watched & (samples.min(axis=0) <= 0.0)
    touch &= samples.max(axis=0) >= 0.0
    refine = watched & ~touch & (min_s < REFINE_LEVEL)
    if touch.any():
        lanes = np.nonzero(touch)[0]
        s = samples[:, lanes].T
        kept = np.abs(s) >= PASS_LEVEL
        kept[:, [0, -1]] = True
        held_at = np.maximum.accumulate(np.where(kept, _SAMPLE_INDEX, 0),
                                        axis=1)
        held = np.take_along_axis(s, held_at, axis=1)
        lead, trail = held[:, :-1], held[:, 1:]
        change = (lead * trail <= 0.0) & (lead != 0.0)
        ok = change & (lead * direction < 0.0)
        hit = ok.any(axis=1)
        j = np.argmax(ok[hit], axis=1)
        i_lo = held_at[hit, j]
        bracket[:, lanes[hit]] = (t_old + _THETA_GRID[i_lo] * h,
                                  t_old + _THETA_GRID[j + 1] * h,
                                  s[hit, i_lo], s[hit, j + 1])
        pending[lanes[hit]] = False
        # no change once touches are held over, and both ends on one side:
        # refined like the lanes that keep one sign
        refine[lanes] = ~change.any(axis=1) & (s[:, 0] * s[:, -1] > 0.0)
        refine[lanes] &= min_s[lanes] < REFINE_LEVEL
    if not refine.any():
        return
    lanes = np.nonzero(refine)[0]
    s = samples[:, lanes].T
    sign = np.sign(s[:, 0])
    cols = np.clip(np.argmin(np.abs(s), axis=1), 1, 7)[:, None] + [-1, 0, 1]
    theta_e, h_e = _extremum(
        h_fun, y_old[lanes], q[lanes], h, sign, _THETA_GRID[cols],
        sign[:, None] * np.take_along_axis(s, cols, axis=1))
    min_h_armed[lanes] = np.minimum(min_h_armed[lanes], np.abs(h_e))
    passed = (h_e * sign < 0.0) & (np.abs(h_e) >= PASS_LEVEL)
    if not passed.any():
        return
    lanes, s, sign = lanes[passed], s[passed], sign[passed]
    theta_e, h_e = theta_e[passed], h_e[passed]
    # the nearest samples on the side of h_prev around the extremum
    side = s * sign[:, None] > 0.0
    before = _THETA_GRID < theta_e[:, None]
    i_lo = np.max(np.where(side & before, _SAMPLE_INDEX, 0), axis=1)
    i_hi = np.min(np.where(side & ~before, _SAMPLE_INDEX, 8), axis=1)
    # the first crossing runs from the sign of h_prev to the other one
    first = -sign == direction
    t_e = t_old + theta_e * h
    rows = np.arange(lanes.size)
    bracket[:, lanes] = (
        np.where(first, t_old + _THETA_GRID[i_lo] * h, t_e),
        np.where(first, t_e, t_old + _THETA_GRID[i_hi] * h),
        np.where(first, s[rows, i_lo], h_e),
        np.where(first, h_e, s[rows, i_hi]))
    pending[lanes] = False


def forced_rhs(sys, taus, eps):
    """Right-hand side (s, y) -> X(y) + eps * g(taus + s, y, eps) in local time.

    Lane i of the batch y started at absolute time ``taus[i]``.  ``eps`` is
    a scalar, spread over the lanes here, or one value per lane, shape (K,)
    with K = len(taus); any other shape raises `ValueError`.  Lane i follows
    X + eps[i] * g, and ``g`` receives the (K,) times and eps with the
    (K, d) states.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    K = taus.size
    eps = np.asarray(eps, dtype=float)
    if eps.ndim == 0:
        eps = np.full(K, eps)
    elif eps.shape != (K,):
        raise ValueError(f"eps must be a scalar or have shape ({K},), "
                         f"got {eps.shape}")
    forced = bool(np.any(eps != 0.0))
    weight = eps[:, None]
    X, g = sys.X, sys.g

    def rhs(s, y):
        out = np.asarray(X(y), dtype=float)
        if forced:
            out = out + weight * np.asarray(g(taus + s, y, eps), dtype=float)
        return out

    return rhs


def flow_batch(sys, taus, vs, eps, *, event, max_time=20.0, rtol=1e-10,
               atol=1e-12):
    """Flow a batch of lanes, each in its own shifted time, to S.

    Lane i of the K >= 1 lanes (else `ValueError`) starts at absolute time
    ``taus[i]`` in state ``vs[i]`` of width ``sys.dim`` (else `ValueError`);
    one tau may serve all lanes, else a count other than K raises
    `ValueError`.  ``eps`` is a scalar or one value per lane.  Everything
    runs in the local time s = t - tau of `forced_rhs`, so the whole batch
    shares one adaptive step sequence (which keeps evaluation errors
    correlated across finite-difference stencils); the result's ``path`` is
    in local time.  ``event`` must be an `EventConfig`, else `TypeError`.

    `dopri.integrate` runs up to ``max_time`` with a per-step scan as its
    ``stop`` hook, which ends the integration once every lane has an
    admissible crossing.  A lane without one ends at ``max_time``, its
    ``event_hit`` false; whether that is a failure is the caller's call
    (`poincare` raises `NoReturnError`).  The hook skips a step on which
    every watched lane is `_far_from_s`; only scanned steps build their
    dense output, so ``stats["nfev"]`` is 2 + 12 per step + 11 per rejected
    attempt + 3 per scanned step (``stats["n_dense"]``).

    Each hit lane's crossing is bracketed by the per-step scan and closed
    by regula falsi on the step's interpolant; the lane ends at the end of
    its final bracket (at most `T_TOL` wide) with the smaller |H|, so |H|
    <= `H_TOL` there; ``stats["event_h_max"]`` is the worst such |H| (0.0
    when no lane hit).  A localization that still misses `H_TOL` after
    `LOCALIZE_HALVINGS` iterations raises `IntegrationError`.
    ``stats["event_h_evals"]`` counts the flow's batched calls of H: step
    ends, stage states, scan samples, extremum refinements and
    localization.  Detection on a lane is armed once its |H| reaches
    `ARM_LEVEL`.  Two crossings
    inside one step are found when H passes S between them by at least
    `PASS_LEVEL`; a shallower pass counts as a touch, and a lane that never
    crosses but comes within `GRAZING_TOL` of S is flagged grazing.

    Batch composition: a lane's result depends on the other lanes of its
    batch only through the shared step sequence (the error norm is the max
    over lanes).  Its stages, dense output, event scan and localization use
    its own values only, so moving a lane to another batch changes its
    result by integration error only, within a few ``rtol``.
    """
    if not isinstance(event, EventConfig):
        raise TypeError(f"event must be an EventConfig, got {event!r}")
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    K = vs.shape[0]
    require_count("the number of lanes in vs", K)
    if vs.shape[1] != sys.dim:
        raise ValueError(f"the width of vs must be {sys.dim}, got {vs.shape[1]}")
    if taus.size == 1:
        taus = np.full(K, taus[0])
    elif taus.shape != (K,):
        raise ValueError(f"taus must have 1 or {K} entries, got {taus.size}")
    rhs = forced_rhs(sys, taus, eps)

    n_h = 0

    def h_of(y):
        nonlocal n_h
        n_h += 1
        return np.asarray(sys.H(y), dtype=float)

    h_prev = h_of(vs)
    armed = np.abs(h_prev) >= ARM_LEVEL
    all_armed = armed.all()  # then the hook stops updating ``armed``
    min_h_armed = np.where(armed, np.abs(h_prev), np.inf)
    # per-lane bracket of the crossing: t_lo, t_hi, H(t_lo), H(t_hi)
    bracket = np.zeros((4, K))
    pending = np.ones(K, dtype=bool)

    def scan(step):
        nonlocal armed, all_armed, h_prev
        h_new = h_of(step.y_new)
        watched = armed & pending
        if watched.any() and not _far_from_s(h_of(step.states), h_prev,
                                              h_new, watched, min_h_armed):
            _scan_step(h_of, event.direction, step.t_old, step.t_new,
                       step.y_old, step.q, h_prev, h_new, watched,
                       min_h_armed, pending, bracket)
        if not all_armed:
            armed |= np.abs(h_new) >= ARM_LEVEL
            all_armed = armed.all()
        h_prev = h_new
        return not pending.any()

    path, stats = integrate(rhs, vs, max_time, rtol=rtol, atol=atol,
                            stop=scan)
    grazing = pending & (min_h_armed <= GRAZING_TOL)
    end_times = taus + path.t[-1]
    end_states = path.y[-1].copy()
    hit_lanes = np.nonzero(~pending)[0]
    h_max = 0.0
    if hit_lanes.size:
        t_lo, t_hi, f_lo, f_hi = bracket[:, hit_lanes]
        seg = np.searchsorted(path.t, t_lo, side="right") - 1
        # each hit step was scanned, so its dense output is built
        q = np.array([path.steps[i].q[lane]
                      for i, lane in zip(seg, hit_lanes)])
        s_star, y_star, h_max = _localize_crossings(
            h_of, path.y[seg, hit_lanes], q, path.t[seg], path.h[seg], t_lo,
            t_hi, f_lo, f_hi)
        end_times[hit_lanes] = taus[hit_lanes] + s_star
        end_states[hit_lanes] = y_star
    stats["event_h_max"] = h_max
    stats["event_h_evals"] = n_h
    return FlowResult(end_times, end_states, ~pending, grazing, stats, path)


def simulate_hybrid(sys, tau, v, eps, duration, *, event, rtol=1e-10,
                    atol=1e-12):
    """Execute the hybrid dynamics for ``duration``: flow, jump at S, repeat.

    ``event`` is required, as in `flow_batch`; a handle's ``event`` crosses
    S in the direction of the system's cycle.  Returns the segments, each a
    pair (absolute times, states) of `SEGMENT_SAMPLES` points, and the
    jumps, each a pair (time, state before Delta).  Raises `IntegrationError`
    if `MAX_SEGMENTS` segments end before ``duration`` is covered.
    """
    t = float(tau)
    state = np.asarray(v, dtype=float)
    t_final = t + float(duration)
    segments = []
    jumps = []
    for _ in range(MAX_SEGMENTS):
        remaining = t_final - t
        if remaining <= 0:
            break
        res = flow_batch(sys, [t], state[None, :], eps, event=event,
                         max_time=remaining, rtol=rtol, atol=atol)
        ts = np.linspace(0.0, min(res.end_times[0] - t, res.path.t[-1]),
                         SEGMENT_SAMPLES)
        segments.append((t + ts, res.path.eval_grid(ts)[:, 0, :]))
        t = float(res.end_times[0])
        state = res.end_states[0]
        if not res.event_hit[0]:
            break
        jumps.append((t, state.copy()))
        state = np.asarray(sys.Delta(state[None, :]), dtype=float)[0]
    else:
        if t < t_final:
            raise IntegrationError(
                f"simulate_hybrid stopped at t = {t!r} after {MAX_SEGMENTS} "
                f"segments, before t = {t_final!r}")
    return segments, jumps


# ----------------------------------------------------------------------------
# predicates
# ----------------------------------------------------------------------------

def check_transversality(sys, u_anchor=None):
    """grad H . X at the section anchor D(u); nonzero means S is transversal."""
    u = np.zeros(sys.k2) if u_anchor is None else np.asarray(u_anchor, float)
    x_star = np.asarray(sys.D(u[None, :]), dtype=float)[0]

    def h_batch(X):
        return np.asarray(sys.H(X), dtype=float)[:, None]

    grad = central_jacobian(h_batch, x_star)[1][0]
    field_val = np.asarray(sys.X(x_star[None, :]), dtype=float)[0]
    return float(grad @ field_val)


def check_forcing_period(sys, n_samples=64, seed=0):
    """Sampled sup of ||g(t + T_g, x, eps) - g(t, x, eps)|| over t in
    [-T_g, 2 T_g], eps in [-0.1, 0.1] and x in the box [-2, 2]^dim.

    Each of the ``n_samples`` (t, eps) pairs meets each sampled x, in one
    per-lane ``g`` call per side.
    """
    require_count("n_samples", n_samples)
    rng = np.random.default_rng(seed)
    u = latin_hypercube(rng, n_samples, 2 + sys.dim)
    ts = np.repeat(scale_to(u[:, 0], -sys.T_g, 2.0 * sys.T_g), n_samples)
    epses = np.repeat(scale_to(u[:, 1], -0.1, 0.1), n_samples)
    X = np.tile(scale_to(u[:, 2:], -2.0, 2.0), (n_samples, 1))
    g0 = np.asarray(sys.g(ts, X, epses), dtype=float)
    g1 = np.asarray(sys.g(ts + sys.T_g, X, epses), dtype=float)
    return float(np.max(np.linalg.norm(g1 - g0, axis=-1)))


# ----------------------------------------------------------------------------
# built-in system
# ----------------------------------------------------------------------------

def polar_hybrid(kappa=0.5, T_g=0.8, amp=(1.0, 0.0), r1=0.5):
    """Planar unit cycle (r' = r(1-r), theta' = 2 pi) with a radial jump on
    the positive x1-axis and a cos-forcing of period T_g.

    The section is S = {x2 = 0}; the chart is D(u) = (1 + u, 0); the jump
    contracts the radial deviation by kappa: r -> 1 + kappa (r - 1).
    """
    amp = np.asarray(amp, dtype=float)
    if amp.shape != (2,):
        raise ConfigError("amp must have two components")
    rotation = np.array([[0.0, 2.0 * np.pi], [-2.0 * np.pi, 0.0]])

    def X(x):
        # (shrink x1 - 2 pi x2, shrink x2 + 2 pi x1) with shrink = 1 - |x|,
        # bit for bit on finite x (up to the sign of a zero result): each
        # product with a zero of the rotation is an exact zero, and a - b
        # equals a + (-b)
        x = np.asarray(x, dtype=float)
        sq = x * x
        out = (1.0 - np.sqrt(sq[..., 0] + sq[..., 1]))[..., None] * x
        out += x @ rotation
        return out

    def g(t, x, eps):
        return np.cos(2.0 * np.pi * t / T_g)[:, None] * amp

    def Delta(x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        return (1.0 + kappa * (r - 1.0)) * x / r

    def H(x):
        return np.asarray(x, dtype=float)[..., 1]

    def D(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape[:-1] + (2,))
        out[..., 0] = 1.0 + u[..., 0]
        return out

    def D_inverse(x):
        x = np.asarray(x, dtype=float)
        return x[..., :1] - 1.0

    return HybridSystem(dim=2, X=X, g=g, Delta=Delta, H=H, D=D,
                        D_inverse=D_inverse, T_g=T_g, r1=r1,
                        label="polar-hybrid")


_BUILTIN_HYBRID = {"polar-hybrid": polar_hybrid}

