"""Hybrid systems: forced flows with event-accurate switching-surface detection.

A `HybridSystem` bundles the reduced vector field X, the forcing g (T_g
periodic in time), the jump map Delta applied on the switching surface
S = {H = 0}, and a chart D of S.  `flow_batch` integrates a batch of lanes of

    dx/dt = X(x) + eps * g(t, x, eps)

(`forced_rhs`) through `dopri.integrate` (Dormand-Prince 8(5,3)) and localizes
each lane's first accepted crossing of S by bisection on `dopri.dense_value`
of the one accepted step that holds it, found once per flow.  Crossings are
directional (sign of dH/dt must match the configured direction) and detection
is suppressed until |H| has once exceeded an arming threshold, so a trajectory
started on or near S by a jump does not retrigger at departure.

The eighth-order steps are long (about 20-40 per revolution of the built-in
cycle), so a sign check at the step ends is not enough: H is also sampled
at 7 interior points of every step, and near S the extremum of H along the
step's interpolant is refined by golden-section search.  That extremum feeds
the grazing flag, and when it lies across S the step holds two crossings;
the admissible one is localized on its own bracket inside the step.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dopri import P, DensePath, dense_value, integrate
from .exceptions import ConfigError, IntegrationError, NoReturnError
from .numdiff import central_jacobian
from .sampling import latin_hypercube, require_count, scale_to

Array = np.ndarray

LOCALIZE_HALVINGS = 64   # bisection budget of one event localization
MAX_SEGMENTS = 1000      # flow segments `simulate_hybrid` may run
SEGMENT_SAMPLES = 64     # dense samples of each segment it returns
REFINE_LEVEL = 0.05      # sampled |H| below which a step's extremum is refined
EXTREMUM_ITERS = 30      # golden-section steps of that refinement
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
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class HybridSystem:
    """Forced hybrid system; all evaluators vectorized over a leading batch axis.

    ``X(x)``: (..., d) -> (..., d); ``g(t, x, eps)`` with t and eps each a
    scalar or one value per lane (...,); ``Delta``, ``H``, ``D``,
    ``D_inverse`` likewise batched.  ``D`` maps the chart ball r1*D^{k2}
    into S.
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

    @property
    def k2(self):
        return self.dim - 1


@dataclass(frozen=True)
class EventConfig:
    """Directional surface-crossing detection (thresholds: `H_TOL` etc.)."""

    direction: int = 1          # required sign of dH/dt at the crossing; 0 = any


@dataclass
class FlowResult:
    """Per-lane ends of a `flow_batch` call and its ``path`` in local time."""

    end_times: Array
    end_states: Array
    event_hit: Array
    grazing: Array
    stats: dict
    path: DensePath = field(repr=False)


def _localize_crossings(h_fun, y_old, q, t_old, h, t_lo, t_hi):
    """Vectorized bisection for H = 0 inside per-lane sign-change brackets.

    Lane i changes sign on [t_lo[i], t_hi[i]], which lies inside its
    accepted step: start ``t_old[i]``, length ``h[i]``, state ``y_old[i]``
    and dense coefficients ``q[i]`` (see `dense_value`).  Returns the last
    evaluated midpoints, their states and the worst |H| there.  A lane
    whose midpoint still misses `H_TOL` after `LOCALIZE_HALVINGS` halvings
    ends at its lower bracket end instead when |H| is smaller there;
    `IntegrationError` is raised if a lane misses `H_TOL` at both.
    """
    f_lo = h_fun(dense_value(y_old, q, h, (t_lo - t_old) / h))
    for _ in range(LOCALIZE_HALVINGS):
        t_mid = 0.5 * (t_lo + t_hi)
        y_mid = dense_value(y_old, q, h, (t_mid - t_old) / h)
        f_mid = h_fun(y_mid)
        go_left = f_lo * f_mid <= 0.0
        t_hi = np.where(go_left, t_mid, t_hi)
        t_lo = np.where(go_left, t_lo, t_mid)
        f_lo = np.where(go_left, f_lo, f_mid)
        h_max = float(np.max(np.abs(f_mid)))
        if h_max <= H_TOL and np.all((t_hi - t_lo) <= T_TOL):
            break
    miss = np.abs(f_mid) > H_TOL
    if miss.any():
        # once the bracket is two adjacent floats t_mid rounds onto one end,
        # which can miss H_TOL while t_lo, evaluated as well, meets it
        t_mid = np.where(miss & (np.abs(f_lo) < np.abs(f_mid)), t_lo, t_mid)
        y_mid = dense_value(y_old, q, h, (t_mid - t_old) / h)
        h_max = float(np.max(np.abs(h_fun(y_mid))))
    if h_max > H_TOL:
        raise IntegrationError(
            f"event localization ended at |H| = {h_max:.3g} > H_TOL = "
            f"{H_TOL:.3g} after {LOCALIZE_HALVINGS} halvings")
    return t_mid, y_mid, h_max


def _extremum(h_fun, y_old, q, h, lo, hi, sign):
    """Golden-section minimum of sign * H along each lane's step interpolant.

    Row i searches theta in [lo[i], hi[i]] on the polynomial
    ``dense_value(y_old[i], q[i], h, theta)``.  Returns the best theta and
    H there.
    """
    def f(theta):
        return sign * h_fun(dense_value(y_old, q, h, theta))

    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(EXTREMUM_ITERS):
        left = fc < fd          # the minimum lies in [lo, d]
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        new = np.where(left, hi - _INV_PHI * (hi - lo),
                       lo + _INV_PHI * (hi - lo))
        f_new = f(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
    best = fc < fd
    return np.where(best, c, d), sign * np.where(best, fc, fd)


def _scan_step(h_fun, direction, t_old, t_new, y_old, q, h_prev, h_new,
               watched, min_h_armed, pending, t_lo, t_hi):
    """Look inside one accepted step for grazes and for crossing pairs.

    ``watched`` lanes are armed, still pending and have no admissible
    crossing at the step ends.  H is sampled at the 9 points theta = i/8 of
    every watched lane; on lanes whose ends share a sign and whose sampled
    |H| drops below `REFINE_LEVEL`, the extremum of H near the smallest
    sample is refined by `_extremum`.  Samples and extremum lower
    ``min_h_armed`` (in place).  When H passes S by at least `PASS_LEVEL`
    at a sample or at the extremum, the step holds two crossings: the lane
    stops pending and [t_lo, t_hi] (in place) brackets the first crossing,
    or the second one when only that has the configured direction.
    """
    h = t_new - t_old
    sub = h_fun(y_old[:, None, :] + h * (q @ _THETA_POWERS).swapaxes(1, 2))
    samples = np.concatenate([h_prev[:, None], sub, h_new[:, None]], axis=1)
    abs_s = np.abs(samples)
    np.minimum(min_h_armed, abs_s.min(axis=1), out=min_h_armed, where=watched)
    same = watched & (h_prev * h_new > 0.0)
    flip = (samples * h_prev[:, None] < 0.0) & (abs_s >= PASS_LEVEL)
    theta_x = np.where(flip.any(axis=1), _THETA_GRID[np.argmax(flip, axis=1)],
                       np.nan)
    refine = same & np.isnan(theta_x) & (abs_s.min(axis=1) < REFINE_LEVEL)
    if refine.any():
        lanes = np.nonzero(refine)[0]
        j = np.argmin(abs_s[lanes], axis=1)
        lo = _THETA_GRID[np.maximum(j - 1, 0)]
        hi = _THETA_GRID[np.minimum(j + 1, 8)]
        theta_e, h_e = _extremum(h_fun, y_old[lanes], q[lanes], h, lo, hi,
                                 np.sign(h_prev[lanes]))
        min_h_armed[lanes] = np.minimum(min_h_armed[lanes], np.abs(h_e))
        passed = h_e * h_prev[lanes] < 0.0
        passed &= np.abs(h_e) >= PASS_LEVEL
        theta_x[lanes[passed]] = theta_e[passed]
    pair = same & ~np.isnan(theta_x)
    if not pair.any():
        return
    lanes = np.nonzero(pair)[0]
    t_x = t_old + theta_x[lanes] * h
    # H(t_x) lies across S from both step ends, so the first crossing runs
    # from the sign of h_prev to the other one
    first_ok = (direction == 0) | (np.sign(-h_prev[lanes]) == direction)
    t_lo[lanes] = np.where(first_ok, t_old, t_x)
    t_hi[lanes] = np.where(first_ok, t_x, t_new)
    pending[lanes] = False


def forced_rhs(sys, taus, eps):
    """Right-hand side (s, y) -> X(y) + eps * g(taus + s, y, eps) in local time.

    Lane i of the batch y started at absolute time ``taus[i]``.  ``eps`` is
    a scalar or one value per lane, shape (K,) with K = len(taus); lane i
    then follows X + eps[i] * g and ``g`` receives the (K,) array, as it
    receives the per-lane times.  Any other shape raises `ValueError`.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    K = taus.size
    eps = np.asarray(eps, dtype=float)
    if eps.ndim == 0:
        eps = weight = float(eps)
    elif eps.shape == (K,):
        weight = eps[:, None]
    else:
        raise ValueError(f"eps must be a scalar or have shape ({K},), "
                         f"got {eps.shape}")
    forced = bool(np.any(eps != 0.0))

    def rhs(s, y):
        out = np.asarray(sys.X(y), dtype=float)
        if forced:
            out = out + weight * np.asarray(sys.g(taus + s, y, eps),
                                            dtype=float)
        return out

    return rhs


def flow_batch(sys, taus, vs, eps, *, event, max_time=20.0, rtol=1e-10,
               atol=1e-12, on_no_return="raise"):
    """Flow a batch of lanes, each in its own shifted time, to S.

    Lane i of the K >= 1 lanes (else `ValueError`) starts at absolute time
    ``taus[i]`` in state ``vs[i]``; one tau may serve all lanes, else a
    count other than K raises `ValueError`.  ``eps`` is a scalar or one
    value per lane.  Everything runs in the local time s = t - tau of
    `forced_rhs`, so the whole batch shares one adaptive step sequence
    (which keeps evaluation errors correlated across finite-difference
    stencils); the result's ``path`` is in local time.  ``event`` must be
    an `EventConfig`, else `TypeError`.

    `dopri.integrate` runs up to ``max_time`` with a per-step scan as its
    ``stop`` hook, which ends the integration once every lane has an
    admissible crossing.  Lanes without one raise `NoReturnError`, or with
    ``on_no_return="flag"`` end at ``max_time`` with ``event_hit`` false.

    Each hit lane ends at the last bisection point of its crossing, or at
    its bracket's lower end when only that meets `H_TOL`, so |H| <= `H_TOL`
    there; ``stats["event_h_max"]`` is the worst such |H| (0.0 when no lane
    hit).  A localization that still misses `H_TOL` after
    `LOCALIZE_HALVINGS` halvings raises `IntegrationError`.  Detection on a
    lane is armed once its |H| reaches `ARM_LEVEL`.  Two crossings inside
    one step are found when H passes S between them by at least
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
    if taus.size == 1:
        taus = np.full(K, taus[0])
    elif taus.shape != (K,):
        raise ValueError(f"taus must have 1 or {K} entries, got {taus.size}")
    rhs = forced_rhs(sys, taus, eps)

    def h_of(y):
        return np.asarray(sys.H(y), dtype=float)

    h_prev = h_of(vs)
    armed = np.abs(h_prev) >= ARM_LEVEL
    min_h_armed = np.where(armed, np.abs(h_prev), np.inf)
    t_lo = np.zeros(K)               # per-lane bracket of the crossing
    t_hi = np.zeros(K)
    pending = np.ones(K, dtype=bool)

    def scan(t_old, t_new, y_old, y_new, q):
        nonlocal armed, h_prev, pending
        h_new = h_of(y_new)
        crossing = pending & armed & (h_prev * h_new < 0.0)
        if event.direction != 0:
            crossing &= np.sign(h_new - h_prev) == event.direction
        t_lo[crossing] = t_old
        t_hi[crossing] = t_new
        pending &= ~crossing
        watched = armed & pending
        if watched.any():
            _scan_step(h_of, event.direction, t_old, t_new, y_old, q, h_prev,
                       h_new, watched, min_h_armed, pending, t_lo, t_hi)
        armed |= np.abs(h_new) >= ARM_LEVEL
        h_prev = h_new
        return not pending.any()

    path, stats = integrate(rhs, vs, max_time, rtol=rtol, atol=atol,
                            stop=scan)
    grazing = pending & (min_h_armed <= GRAZING_TOL)
    if np.any(pending) and on_no_return == "raise":
        raise NoReturnError(
            f"{int(np.sum(pending))} of {K} trajectories found no admissible "
            f"crossing within max_time = {max_time}"
        )
    end_times = np.full(K, np.nan)
    end_states = path.y[-1].copy()
    hit_lanes = np.nonzero(~pending)[0]
    h_max = 0.0
    if hit_lanes.size:
        step = np.searchsorted(path.t, t_lo[hit_lanes], side="right") - 1
        s_star, y_star, h_max = _localize_crossings(
            h_of, path.y[step, hit_lanes], path.q[step, hit_lanes],
            path.t[step], path.h[step], t_lo[hit_lanes], t_hi[hit_lanes])
        end_times[hit_lanes] = taus[hit_lanes] + s_star
        end_states[hit_lanes] = y_star
    end_times[pending] = taus[pending] + path.t[-1]
    stats["event_h_max"] = h_max
    return FlowResult(end_times, end_states, ~pending, grazing, stats, path)


def simulate_hybrid(sys, tau, v, eps, duration, *, event=EventConfig(),
                    rtol=1e-10, atol=1e-12):
    """Execute the hybrid dynamics for ``duration``: flow, jump at S, repeat.

    Returns a list of segments, each a pair (absolute times, states) of
    `SEGMENT_SAMPLES` points, with the jump applied at every admissible
    crossing of S.  Raises `IntegrationError` if `MAX_SEGMENTS` segments end
    before ``duration`` is covered.
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
                         max_time=remaining, rtol=rtol, atol=atol,
                         on_no_return="flag")
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

    grad = central_jacobian(h_batch, x_star)[0]
    field_val = np.asarray(sys.X(x_star[None, :]), dtype=float)[0]
    return float(grad @ field_val)


def check_forcing_period(sys, n_samples=64, seed=0):
    """Sampled sup of ||g(t + T_g, x, eps) - g(t, x, eps)|| over t in
    [-T_g, 2 T_g], eps in [-0.1, 0.1] and x in the box [-2, 2]^dim."""
    require_count("n_samples", n_samples)
    rng = np.random.default_rng(seed)
    u = latin_hypercube(rng, n_samples, 2 + sys.dim)
    ts = scale_to(u[:, 0], -sys.T_g, 2.0 * sys.T_g)
    epses = scale_to(u[:, 1], -0.1, 0.1)
    X = scale_to(u[:, 2:], -2.0, 2.0)
    worst = 0.0
    for t, e in zip(ts, epses):
        g0 = np.asarray(sys.g(float(t), X, float(e)), dtype=float)
        g1 = np.asarray(sys.g(float(t) + sys.T_g, X, float(e)), dtype=float)
        worst = max(worst, float(np.max(np.linalg.norm(g1 - g0, axis=-1))))
    return worst


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

    def X(x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        shrink = 1.0 - np.sqrt(x1 * x1 + x2 * x2)
        out = np.empty_like(x)
        out[..., 0] = shrink * x1 - 2.0 * np.pi * x2
        out[..., 1] = shrink * x2 + 2.0 * np.pi * x1
        return out

    def g(t, x, eps):
        t = np.asarray(t, dtype=float)
        if not t.ndim:
            return amp * np.cos(2.0 * np.pi * t / T_g)
        out = np.cos(2.0 * np.pi * t / T_g)[..., None] * amp
        shape = np.shape(x)
        return out if out.shape == shape else np.broadcast_to(out, shape).copy()

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


_BUILTIN_HYBRID = {
    "polar-hybrid": (polar_hybrid, {"kappa", "T_g", "amp", "r1"}),
}

