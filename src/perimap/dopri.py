"""Adaptive Dormand-Prince 5(4) stepping over trajectory batches.

The stepper advances a whole batch y of shape (K, d) with a shared adaptive
step (the error norm is the max of the per-trajectory RMS norms), which keeps
the evaluation noise across a batch maximally correlated -- finite-difference
stencils and per-node preimage solves are pushed through as one batch on
purpose.  Every accepted step stores the quartic dense-output coefficients so
events can be localized afterwards without re-integration.

The seven stages of a step live in one flat (7, K*d) buffer, so each stage
sum, the error estimate and the dense coefficients are one small matmul
against the tableau (`A`, `E`, `P`); the step's fixed cost is then mostly the
six right-hand-side calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import IntegrationError

# classic DOPRI5(4) tableau (FSAL: the 7th stage is the next step's first)
C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
              22 / 525, -1 / 40])
# quartic continuous extension (Shampine); rows sum to B
P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ORDER_EXP = -1.0 / 5.0


def _rms_norm(v):
    # max over the batch of the per-trajectory RMS over components; sqrt and
    # the division are monotone, so they are taken once, after the max
    return math.sqrt(float(np.max(np.sum(v * v, axis=-1))) / v.shape[-1])


def _initial_step(rhs, t0, y0, f0, rtol, atol, max_step):
    scale = atol + rtol * np.abs(y0)
    d0 = _rms_norm(y0 / scale)
    d1 = _rms_norm(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = rhs(t0 + h0, y1)
    d2 = _rms_norm((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, max_step)


@dataclass
class DensePath:
    """Accepted-step grid with per-step quartic interpolants.

    ``t`` has shape (m+1,), ``y`` (m+1, K, d), ``q`` (m, K, d, 4).  On step i
    the solution is y[i] + h[i] * sum_p q[i,:,:,p] * theta**(p+1) with
    theta = (t - t[i]) / h[i].
    """

    t: np.ndarray
    y: np.ndarray
    q: np.ndarray

    @property
    def h(self):
        return np.diff(self.t)

    def eval_lanes(self, times, lanes=None):
        """Evaluate lane i at its own time times[i]; returns (n, d)."""
        times = np.asarray(times, dtype=float)
        n = times.size
        lanes = np.arange(n) if lanes is None else np.asarray(lanes)
        seg = np.clip(np.searchsorted(self.t, times, side="right") - 1,
                      0, len(self.t) - 2)
        h = self.h[seg]
        theta = (times - self.t[seg]) / h
        qi = self.q[seg, lanes]
        powers = theta[:, None] ** np.arange(1, 5)[None, :]
        incr = np.einsum("ndp,np->nd", qi, powers)
        return self.y[seg, lanes] + (h)[:, None] * incr

    def eval_grid(self, times):
        """Evaluate all lanes on a common time grid; returns (G, K, d)."""
        times = np.asarray(times, dtype=float)
        seg = np.clip(np.searchsorted(self.t, times, side="right") - 1,
                      0, len(self.t) - 2)
        theta = (times - self.t[seg]) / self.h[seg]
        powers = theta[:, None] ** np.arange(1, 5)[None, :]      # (G, 4)
        incr = np.einsum("gkdp,gp->gkd", self.q[seg], powers)
        return self.y[seg] + self.h[seg][:, None, None] * incr


class Dopri54:
    """Single-pass adaptive stepper over a batch; call `step` until done."""

    def __init__(self, rhs, t0, y0, t_end, rtol=1e-10, atol=1e-12,
                 max_step=np.inf, first_step=None):
        self.rhs = rhs
        self.t = float(t0)
        self.t_end = float(t_end)
        self.y = np.atleast_2d(np.asarray(y0, dtype=float)).copy()
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.max_step = float(max_step)
        self.f = np.asarray(rhs(self.t, self.y), dtype=float)
        self.nfev = 1
        self.n_steps = 0
        self.n_rejected = 0
        if first_step is None:
            span = max(self.t_end - self.t, 1e-12)
            self.h = min(_initial_step(rhs, self.t, self.y, self.f,
                                       self.rtol, self.atol, self.max_step),
                         span)
            self.nfev += 1
        else:
            self.h = float(first_step)

    @property
    def finished(self):
        return self.t >= self.t_end

    def step(self):
        """Advance one accepted step; returns (t_old, t_new, y_old, y_new, q)."""
        if self.finished:
            raise IntegrationError("stepping past t_end")
        shape = self.y.shape
        K = np.empty((7,) + shape)
        Kf = K.reshape(7, -1)  # flat stage buffer: stage sums are matmuls
        y = self.y.reshape(-1)
        while True:
            h = min(self.h, self.max_step, self.t_end - self.t)
            if h <= 1e-14 * max(1.0, abs(self.t)):
                raise IntegrationError(f"step size underflow at t = {self.t!r}")
            K[0] = self.f
            for i in range(1, 7):
                yi = y + h * (A[i, :i] @ Kf[:i])
                K[i] = self.rhs(self.t + C[i] * h, yi.reshape(shape))
            self.nfev += 6
            # yi is now the 5th-order solution: the 7th stage state (FSAL)
            err = h * (E @ Kf)
            scale = np.maximum(np.abs(y), np.abs(yi))
            scale *= self.rtol
            scale += self.atol
            err /= scale
            norm = _rms_norm(err.reshape(shape))
            if norm <= 1.0:
                factor = MAX_FACTOR if norm == 0.0 else min(
                    MAX_FACTOR, max(MIN_FACTOR, SAFETY * norm ** ORDER_EXP))
                q = (Kf.T @ P).reshape(shape + (4,))
                t_old, y_old = self.t, self.y
                self.t = self.t + h
                self.y = yi.reshape(shape)
                self.f = K[6]
                self.h = h * factor
                self.n_steps += 1
                return t_old, self.t, y_old, self.y, q
            self.h = h * min(1.0, max(MIN_FACTOR, SAFETY * norm ** ORDER_EXP))
            self.n_rejected += 1

    def stats(self):
        return {"n_steps": self.n_steps, "n_rejected": self.n_rejected,
                "nfev": self.nfev}


def integrate(rhs, y0, t_end, t0=0.0, rtol=1e-10, atol=1e-12,
              max_step=np.inf, first_step=None):
    """Integrate a batch to ``t_end`` and return (DensePath, stats)."""
    stepper = Dopri54(rhs, t0, y0, t_end, rtol=rtol, atol=atol,
                      max_step=max_step, first_step=first_step)
    ts = [stepper.t]
    ys = [stepper.y.copy()]
    qs = []
    while not stepper.finished:
        _, t_new, _, y_new, q = stepper.step()
        ts.append(t_new)
        ys.append(y_new)
        qs.append(q)
    path = DensePath(t=np.array(ts), y=np.array(ys), q=np.array(qs))
    return path, stepper.stats()
