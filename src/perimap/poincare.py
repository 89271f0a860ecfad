"""Time-to-return and Poincare maps of a hybrid system, and their wrapping
into the perturbed-map form consumed by the invariant-curve solver.

The time-to-return at (tau, x) flows the forced system from the post-jump
state Delta(x) starting at time tau and reports the absolute first admissible
crossing time of S; a return missing within the handle's horizon raises
`NoReturnError`, here and nowhere else.  The Poincare map sends (tau, u) on
the section chart to (new time, chart coordinates of the return point); at
eps = 0 its u-component is autonomous and defines the reduced map P(u).

`extract_alpha_beta` packages the pair (return lag, returned u) as the alpha
and beta evaluators of a `MapSpec` with x := tau, k1 = 1 and period T_g; the
technical omega input is fixed to 1 and ignored.  Both evaluators read a
memo of one request, the last: alpha and beta asked at the same points
share one flow.  A curve-solver push asks alpha, then beta, at the nodes,
so it is one flow of n lanes; the solver's preconditioner reads the model
map's constants from `map_core.origin`, one 5-lane flow per wrapped spec.

`cylinder_table` samples forced trajectories started on a solved invariant
curve: the invariant cylinder that the CLI's `cylinder-data` writes.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ChartError, NoReturnError
from .hybrid_ode import (EventConfig, check_transversality, flow_batch,
                         simulate_hybrid)
from .map_core import MapSpec
from .sampling import ball_points, latin_hypercube, require_count, scale_to

POINCARE_RTOL = 1e-12    # tolerances of a handle's returns (see prepare_handle)
POINCARE_ATOL = 1e-14
CURVE_RTOL = 1e-10       # and of the wrapped map (see extract_alpha_beta)
CURVE_ATOL = 1e-12
PROBE_TIME = 50.0        # horizon of the anchor-return probe
MAX_TIME_LAGS = 10.0     # return horizon, in anchor return lags
CHART_TOL = 1e-8         # largest distance of a return point from the chart
RADIUS_FRACTIONS = (1.0, 0.75, 0.5, 0.25, 0.1)  # chart radii tried, shrinking


@dataclass(frozen=True)
class PoincareHandle:
    """A hybrid system plus the event/integrator configuration of its returns."""

    sys: object
    event: EventConfig
    max_time: float
    rtol: float
    atol: float


def prepare_handle(sys):
    """Probe the anchor return and fix the event direction from the cycle.

    The crossing direction is the sign of the transversality at the anchor
    D(0).  The anchor's return, probed by `time_to_return` on a handle
    whose horizon is `PROBE_TIME` (`NoReturnError` if it misses), sets the
    return horizon ``max_time`` to `MAX_TIME_LAGS` return lags.  Returns run at
    `POINCARE_RTOL` and `POINCARE_ATOL`, tighter than the generic flow
    defaults: Poincare-level constants (fixed points, Jacobians) need the
    extra digits.
    """
    direction = int(np.sign(check_transversality(sys)))
    if direction == 0:
        raise ChartError("the field is tangent to S at the anchor")
    probe = PoincareHandle(sys=sys, event=EventConfig(direction=direction),
                           max_time=PROBE_TIME, rtol=POINCARE_RTOL,
                           atol=POINCARE_ATOL)
    lag = time_to_return(probe, 0.0, sys.D(np.zeros((1, sys.k2)))[0], 0.0)
    return replace(probe, max_time=MAX_TIME_LAGS * lag)


def _return_batch(handle, taus, xs, eps):
    """Flow from (tau, Delta(x)); absolute crossing times and return states,
    or `NoReturnError` if a lane misses S within ``handle.max_time``."""
    sys = handle.sys
    starts = np.asarray(sys.Delta(np.atleast_2d(xs)), dtype=float)
    res = flow_batch(sys, taus, starts, eps, event=handle.event,
                     max_time=handle.max_time, rtol=handle.rtol,
                     atol=handle.atol)
    missed = int(np.sum(~res.event_hit))
    if missed:
        raise NoReturnError(
            f"{missed} of {len(starts)} trajectories found no admissible "
            f"crossing within max_time = {handle.max_time}")
    return res.end_times, res.end_states


def time_to_return(handle, tau, x, eps):
    """Absolute first-hit time of the flow started at (tau, Delta(x))."""
    times, _ = _return_batch(handle, [float(tau)],
                             np.asarray(x, float)[None, :], eps)
    return float(times[0])


def _pull_back(handle, states):
    """Chart coordinates of localized return states (|H| <= H_TOL there)."""
    sys = handle.sys
    us = np.asarray(sys.D_inverse(states), dtype=float)
    back = np.asarray(sys.D(us), dtype=float)
    worst = float(np.max(np.linalg.norm(back - states, axis=-1)))
    if not worst <= CHART_TOL:  # a nan distance fails too
        raise ChartError(
            f"return point lies {worst:.3g} off the chart image "
            f"(tolerance {CHART_TOL:g})"
        )
    return us


def p_eps_batch(handle, taus, us, eps):
    """Vectorized Poincare map: (taus, us) -> (new times, new us).

    ``us`` needs at least one row, each of width ``sys.k2`` (else
    `ValueError`), and ``eps`` is a scalar or one value per row; all rows
    return through one batched flow either way (see `flow_batch`).  A row's
    result depends on the other rows only through the step sequence they
    share, so the same (tau, u, eps) flowed alone or among other rows agrees
    to integration accuracy (within 10 * ``handle.rtol``), not bitwise.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    us = np.atleast_2d(np.asarray(us, dtype=float))
    require_count("the number of rows of us", us.shape[0])
    if us.shape[1] != handle.sys.k2:
        raise ValueError(
            f"the width of us must be {handle.sys.k2}, got {us.shape[1]}")
    xs = np.asarray(handle.sys.D(us), dtype=float)
    times, states = _return_batch(handle, taus, xs, eps)
    return times, _pull_back(handle, states)


def P_eps(handle, tau, u, eps):
    """The forced Poincare map at a single point: (new time, new u)."""
    times, us = p_eps_batch(handle, [float(tau)],
                            np.asarray(u, float)[None, :], eps)
    return float(times[0]), us[0]


def P_reduced(handle, u):
    """u-component of the unforced Poincare map; tau-independent at eps = 0."""
    return P_eps(handle, 0.0, u, 0.0)[1]


def certify_returns(handle, eps_range=(0.0, 0.0), n_samples=32, seed=0):
    """Largest sampled chart radius on which every sample returns.

    Walks the shrinking ladder `RADIUS_FRACTIONS` of the chart radius and
    returns the first radius whose samples all return.  The samples of one
    level, each with its own tau and eps, return through one batched flow;
    `NoReturnError` or `ChartError` from it fails the level.
    """
    require_count("n_samples", n_samples)
    rng = np.random.default_rng(seed)
    sys = handle.sys
    for fraction in RADIUS_FRACTIONS:
        r = fraction * sys.r1
        u = latin_hypercube(rng, n_samples, 2 + sys.k2)
        taus = scale_to(u[:, 0], 0.0, sys.T_g)
        epses = scale_to(u[:, 1], *eps_range)
        us = ball_points(u[:, 2:], r)
        try:
            p_eps_batch(handle, taus, us, epses)
        except (NoReturnError, ChartError):
            continue
        return r
    raise NoReturnError("no sampled chart radius returned reliably")


class _WrappedPoincare:
    """alpha/beta evaluators backed by the Poincare map, with a one-request memo.

    One return flow yields both the lag (alpha) and the new chart point
    (beta).  The memo holds the last request, its eps and copies of its
    taus and us, with the lags and chart points it returned.  A request
    equal to it, such as the beta evaluation that follows alpha at a
    sweep's nodes, is answered without a flow; any other request flows all
    of its rows through one `p_eps_batch` and becomes the memo.  Answers
    are fresh arrays, so a caller cannot alter the memo.
    """

    def __init__(self, handle):
        self.handle = handle
        self._last = None  # (eps, taus, us, lags, outs) of the last request

    def _lookup(self, eps, taus, us):
        last = self._last
        if (last is None or last[0] != eps or not np.array_equal(last[1], taus)
                or not np.array_equal(last[2], us)):
            times, outs = p_eps_batch(self.handle, taus, us, eps)
            last = self._last = (eps, taus.copy(), us.copy(), times - taus,
                                 outs)
        return last[3].copy(), last[4].copy()

    def alpha(self, omega, eps, x, y):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        lags, _ = self._lookup(float(eps), x[:, 0], y)
        return lags[:, None]

    def beta(self, omega, eps, x, y):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        _, outs = self._lookup(float(eps), x[:, 0], y)
        return outs


def extract_alpha_beta(handle):
    """Wrap the Poincare map into the perturbed-map form with x := tau.

    alpha(omega, eps, tau, u) is the return lag T_eps(tau, D(u)) - tau and
    beta is the u-component of the return; omega is fixed to 1 by the wrapper
    and ignored by the evaluators.  The chart radius is the system's ``r1``;
    for the radius that `certify_returns` found, use
    ``dataclasses.replace(spec, r1=radius)``.

    The wrapped evaluators integrate at `CURVE_RTOL` and `CURVE_ATOL`, the
    generic flow tolerance, looser than the handle's Poincare-grade setting,
    because curve solving calls the map thousands of times and only needs
    accuracy at the invariance-residual scale.

    A call is one batched flow, whose cost hardly depends on its number of
    rows.
    """
    wrapper = _WrappedPoincare(replace(handle, rtol=CURVE_RTOL,
                                       atol=CURVE_ATOL))
    sys = handle.sys
    return MapSpec(
        k1=1,
        k2=sys.k2,
        r1=sys.r1,
        alpha=wrapper.alpha,
        beta=wrapper.beta,
        periodic_coord=1,
        period=sys.T_g,
        label=f"poincare[{sys.label or 'hybrid'}]",
    )


def cylinder_table(handle, curve, eps, n_trajectories):
    """Dense forced-flow samples of trajectories started on an invariant curve.

    Trajectory i starts at tau_i = i T_g / n_trajectories from the post-jump
    state Delta(D(curve(tau_i))) and runs for one forcing period, jumps
    included, at the handle's tolerances.  Returns the CSV header and the
    rows (trajectory, t, x1..xd), one row per dense sample.  Raises
    `ValueError` before any flow unless ``n_trajectories`` >= 1.
    """
    require_count("n_trajectories", n_trajectories)
    sys = handle.sys
    taus = np.linspace(0.0, sys.T_g, n_trajectories, endpoint=False)
    rows = []
    for i, tau in enumerate(taus):
        x = np.asarray(sys.D(curve.eval(np.array([tau]))), float)
        start = np.asarray(sys.Delta(x), float)[0]
        segments, _ = simulate_hybrid(sys, float(tau), start, eps, sys.T_g,
                                      event=handle.event, rtol=handle.rtol,
                                      atol=handle.atol)
        rows += [np.column_stack([np.full(len(ts), float(i)), ts, states])
                 for ts, states in segments]
    header = ["trajectory", "t"] + [f"x{j + 1}" for j in range(sys.dim)]
    return header, np.vstack(rows)
