"""Adaptive Dormand-Prince 8(5,3) stepping over trajectory batches.

`Dopri54` (the name is historical) is the DOP853 method of Hairer, Norsett
and Wanner (Solving ODEs I, Sec. II.5-II.6): an explicit eighth-order pair
with twelve stages, whose last stage f(t + h, y_new) is the next step's
first, so an attempted step costs eleven fresh right-hand-side calls and an
accepted one a twelfth.  The error estimate blends the fifth- and
third-order embedded differences, and the step controller uses the
exponent -1/8.

The stepper advances a whole batch y of shape (K, d) with a shared adaptive
step (the error norm is the max of the per-trajectory norms), which keeps
the evaluation noise across a batch maximally correlated -- finite-difference
stencils and the nodes of a graph-transform sweep are pushed through as one
batch on purpose.  An accepted step is returned as a `Step` whose dense
output is deferred, as in Hairer's code, which evaluates the three extra
stages of the seventh-degree continuous extension only when dense output is
asked for.  `Step.q` builds them and the coefficients in powers of theta on
first request, from the stage buffer the step keeps, with the same
operations on the same inputs as at acceptance; `dense_value` evaluates
that polynomial on a step, so events can be localized afterwards without
re-integration.

The sixteen stages of a step live in one flat (16, K*d) buffer, so each
stage sum, the error estimate and the dense coefficients are one small
matmul against the tableau (`A`, `E3`/`E5`, `P`), and `Dopri54.step` runs
its stage loop inline.  The step's fixed cost is then mostly its
right-hand-side calls: twelve per accepted step, plus three for a step
whose dense output is built.  On the forced polar-hybrid field at one lane
(a 2-core Xeon VM, Python 3.11, NumPy 2.4) an accepted step costs about
165 us, of which the twelve right-hand-side calls take about 110 us and the
stepper itself about 55 us.

Counting: ``nfev`` is 2 (f(t0) and the initial-step probe) + 12 per
accepted step + 11 per rejected attempt + 3 per step whose dense output has
been built (``n_dense`` in `Dopri54.stats`).  `integrate` returns a snapshot
of these counts when its loop ends, so dense stages built later, by
`DensePath.eval_grid` or by a first read of a `Step.q` after the loop, call
the right-hand side without entering those stats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import IntegrationError

# DOP853 coefficients, copied from SciPy's
# scipy/integrate/_ivp/dop853_coefficients.py (BSD-3-Clause license,
# Copyright (c) 2001-2002 Enthought, Inc. and 2003- SciPy Developers),
# which takes them from Hairer's Fortran code.  Stages 0..11 make the step,
# stage 12 is f(t + h, y_new) and stages 13..15 serve the dense output only.
N_STAGES = 12
N_STAGES_EXTENDED = 16

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, :1] = [5.26001519587677318785587544488e-2]
A[2, :2] = [1.97250569845378994544595329183e-2,
    5.91751709536136983633785987549e-2]
A[3, :3] = [2.95875854768068491816892993775e-2, 0.0,
    8.87627564304205475450678981324e-2]
A[4, :4] = [2.41365134159266685502369798665e-1, 0.0,
    -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1]
A[5, :5] = [3.7037037037037037037037037037e-2, 0.0, 0.0,
    1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1]
A[6, :6] = [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2]
A[7, :7] = [3.70920001185047927108779319836e-2, 0.0, 0.0,
    1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
    -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3]
A[8, :8] = [6.24110958716075717114429577812e-1, 0.0, 0.0,
    -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
    2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
    -4.34898841810699588477366255144e1]
A[9, :9] = [4.77662536438264365890433908527e-1, 0.0, 0.0,
    -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
    2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
    -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2]
A[10, :10] = [-9.3714243008598732571704021658e-1, 0.0, 0.0,
    5.18637242884406370830023853209, 1.09143734899672957818500254654,
    -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
    2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
    -3.0467644718982195003823669022]
A[11, :11] = [2.27331014751653820792359768449, 0.0, 0.0,
    -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
    -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
    -2.85899827713502369474065508674, -8.87285693353062954433549289258,
    1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1]
A[12, :12] = [5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2]
A[13, :13] = [5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
    2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
    -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
    8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
    -8.298e-3]
A[14, :14] = [3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
    2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
    -5.49237485713909884646569340306e-2, 0.0, 0.0,
    -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1]
A[15, :15] = [-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
    -4.69762141536116384314449447206, 7.68342119606259904184240953878,
    4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0.0,
    0.0, 0.0, -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149, -9.15095847217987001081870187138]

B = A[N_STAGES, :N_STAGES]
# the weights A[i, :i] of stage i's sum, sliced once
_A_ROWS = [A[i, :i].copy() for i in range(N_STAGES_EXTENDED)]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# higher-order terms of the continuous extension
D = np.zeros((4, N_STAGES_EXTENDED))
D[0, :16] = [-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
    0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
    0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
    -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
    0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
    0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
    -0.44360363875948939664310572000e+1]
D[1, :16] = [0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
    0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
    -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
    0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
    -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
    -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
    0.35816841486394083752465898540e+2]
D[2, :16] = [0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
    -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
    0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
    0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
    0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
    -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
    0.11992291136182789328035130030e+2]
D[3, :16] = [-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
    -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
    0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
    -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
    0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
    0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
    -0.14972683625798562581422125276e+3]

# the dense-output basis theta**a (1 - theta)**b, as (a, b) pairs
_BASIS = ((1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3))


def _dense_matrix():
    """(16, 7) map from the stages to the theta**1..7 dense coefficients.

    SciPy's DOP853 interpolant is y_old + sum_j F_j b_j(theta) with the
    basis b_j = theta**a (1 - theta)**b for (a, b) in `_BASIS` and
    F_0 = dy, F_1 = h f_old - dy, F_2 = 2 dy - h (f_old + f_new),
    F_3..6 = h D @ K, where dy = h B @ K.  Every F_j is h times a fixed
    combination W_j of the stages, so expanding the b_j in powers of theta
    gives one constant matrix.
    """
    W = np.zeros((7, N_STAGES_EXTENDED))
    W[0, :N_STAGES] = B
    W[1, :N_STAGES] = -B
    W[1, 0] += 1.0
    W[2, :N_STAGES] = 2.0 * B
    W[2, 0] -= 1.0
    W[2, N_STAGES] -= 1.0
    W[3:] = D
    M = np.zeros((7, 8))
    for j, (a, b) in enumerate(_BASIS):
        M[j, a:a + b + 1] = [(-1) ** k * math.comb(b, k) for k in range(b + 1)]
    return W.T @ M[:, 1:]


P = _dense_matrix()
# the fifth- and third-order error weights over the stages of the step
_E53 = np.stack([E5[:N_STAGES], E3[:N_STAGES]])

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ORDER_EXP = -1.0 / 8.0
_TINY = np.finfo(float).tiny


def _rms_norm(v):
    # max over the batch of the per-trajectory RMS over components; sqrt and
    # the division are monotone, so they are taken once, after the max
    return math.sqrt(float(np.max(np.sum(v * v, axis=-1))) / v.shape[-1])


def _error_norm(h, err):
    """Max over lanes of h s5 / sqrt(d (s5 + 0.01 s3)).

    ``err`` stacks the scaled fifth- and third-order estimates, shape
    (2, K, d); s5 and s3 are their per-lane sums of squares.
    """
    s5, s3 = np.add.reduce(err * err, axis=-1)
    # s5 <= den, so a lane with den = 0 (both estimates zero) scores 0
    den = np.maximum(s5 + 0.01 * s3, _TINY)
    return h * float((s5 / np.sqrt(den)).max()) / math.sqrt(err.shape[-1])


def _initial_step(rhs, t0, y0, f0, rtol, atol):
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
        h1 = (0.01 / max(d1, d2)) ** -ORDER_EXP
    return min(100 * h0, h1)


def dense_value(y_old, q, h, theta):
    """One step's interpolant y_old + h * sum_p q[..., p-1] * theta**p.

    ``y_old`` has shape (..., d) and ``q`` (..., d, p); the step length
    ``h`` and the fraction ``theta`` of it broadcast against the leading
    axes.  Returns (..., d).
    """
    powers = theta[..., None] ** np.arange(1, q.shape[-1] + 1)
    incr = np.einsum("...dp,...p->...d", q, powers)
    return y_old + np.expand_dims(h, -1) * incr


class Step:
    """One accepted step of a `Dopri54`; its dense output is built on request.

    ``t_old``, ``t_new``, ``y_old`` and ``y_new`` (each (K, d)) are the
    step's ends and ``h`` the length its stages used (``t_new`` is
    ``t_end`` exactly on a step clipped to it).  ``states`` (11, K, d) holds
    the interior stage states y_old + h sum_j A[i, j] k_j of stages 1..11;
    `integrate` drops them once its ``stop`` hook has run.
    """

    __slots__ = ("t_old", "t_new", "y_old", "y_new", "h", "states",
                 "_stepper", "_K", "_q")

    def __init__(self, stepper, t_old, t_new, y_old, y_new, h, K, states):
        self.t_old, self.t_new = t_old, t_new
        self.y_old, self.y_new = y_old, y_new
        self.h = h
        self.states = states
        self._stepper = stepper
        self._K = K
        self._q = None

    @property
    def q(self):
        """Dense coefficients (K, d, 7); the first request evaluates stages
        13..15 (three right-hand-side calls, counted in the stepper's
        ``nfev``) and frees the stage buffer."""
        if self._q is None:
            self._q = self._stepper._dense(self.t_old, self.y_old, self.h,
                                           self._K)
            self._K = None
        return self._q


@dataclass
class DensePath:
    """Accepted-step grid with per-step polynomial interpolants.

    ``t`` has shape (m+1,), ``y`` (m+1, K, d) and ``steps`` holds the m
    `Step`s; on step i the solution is
    ``dense_value(y[i], steps[i].q, h[i], (t - t[i]) / h[i])``.
    """

    t: np.ndarray
    y: np.ndarray
    steps: list

    @property
    def h(self):
        return np.diff(self.t)

    def eval_grid(self, times):
        """Evaluate all lanes at times in [t[0], t[-1]]; returns (G, K, d).

        ``times`` must be 1-D, of shape (G,); a time outside the path (or
        nan) raises `ValueError`, as does any other shape.  Only the steps
        holding one of ``times`` build their dense output; no times give a
        (0, K, d) array.
        """
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise ValueError(f"eval_grid times must be 1-D, of shape (G,); "
                             f"got shape {times.shape}")
        if not np.all((times >= self.t[0]) & (times <= self.t[-1])):
            raise ValueError(
                f"eval_grid times must lie in the path's span "
                f"[{self.t[0]!r}, {self.t[-1]!r}]")
        if not self.steps or not times.size:
            return np.repeat(self.y[:1], times.size, axis=0)
        seg = np.clip(np.searchsorted(self.t, times, side="right") - 1,
                      0, len(self.steps) - 1)
        touched, at = np.unique(seg, return_inverse=True)
        q = np.array([self.steps[i].q for i in touched])[at]
        h = self.h[seg, None]
        theta = (times[:, None] - self.t[seg, None]) / h
        return dense_value(self.y[seg], q, h, theta)


class Dopri54:
    """Single-pass adaptive DOP853 stepper over a batch; call `step` to advance.

    The class keeps its historical name; the method is Dormand-Prince
    8(5,3) with its seventh-degree dense output.  The first step length is
    Hairer's initial-step estimate, capped at the span; ``h`` is the
    length the next attempt tries.
    """

    def __init__(self, rhs, t0, y0, t_end, rtol, atol):
        self.rhs = rhs
        self.t = float(t0)
        self.t_end = float(t_end)
        self.y = np.atleast_2d(np.asarray(y0, dtype=float)).copy()
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.f = np.asarray(rhs(self.t, self.y), dtype=float)
        self.nfev = 2   # f(t0) and the initial-step probe
        self.n_steps = 0
        self.n_rejected = 0
        self.n_dense = 0
        span = max(self.t_end - self.t, 1e-12)
        self.h = min(_initial_step(rhs, self.t, self.y, self.f, self.rtol,
                                   self.atol), span)

    @property
    def finished(self):
        return self.t >= self.t_end

    def _dense(self, t, y_old, h, K):
        """Stages 13..15 and the (K, d, 7) dense coefficients of the step
        from (t, y_old) of length h whose stages 0..12 are in ``K``."""
        Kf = K.reshape(N_STAGES_EXTENDED, -1)
        y = y_old.reshape(-1)
        yi = np.empty_like(y_old)
        yf = yi.reshape(-1)
        for i in range(N_STAGES + 1, N_STAGES_EXTENDED):
            np.add(y, h * (_A_ROWS[i] @ Kf[:i]), out=yf)
            K[i] = self.rhs(t + C[i] * h, yi)
        self.nfev += N_STAGES_EXTENDED - N_STAGES - 1
        self.n_dense += 1
        q = Kf.T @ P
        # pin theta = 1 to y_new: this adds zero in exact arithmetic but
        # cancels the rounding of P's large, cancelling entries
        q[:, -1] += B @ Kf[:N_STAGES] - q.sum(axis=1)
        return q.reshape(y_old.shape + (P.shape[1],))

    def step(self):
        """Advance one accepted step; returns it as a `Step` with its dense
        output deferred."""
        if self.finished:
            raise IntegrationError("stepping past t_end")
        rhs = self.rhs
        shape = self.y.shape
        K = np.empty((N_STAGES_EXTENDED,) + shape)
        Kf = K.reshape(N_STAGES_EXTENDED, -1)  # stage sums are matmuls
        Ks = Kf[:N_STAGES]
        states = np.empty((N_STAGES - 1,) + shape)
        Yf = states.reshape(N_STAGES - 1, -1)
        y = self.y.reshape(-1)
        while True:
            remaining = self.t_end - self.t
            h = min(self.h, remaining)
            if h <= 1e-14 * max(1.0, abs(self.t)):
                raise IntegrationError(f"step size underflow at t = {self.t!r}")
            ts = self.t + C * h
            K[0] = self.f
            # stage i is f at the state y + h sum_j A[i, j] k_j, which is
            # written flat to row i - 1 of the stage states
            for i in range(1, N_STAGES):
                np.add(y, h * (_A_ROWS[i] @ Kf[:i]), out=Yf[i - 1])
                K[i] = rhs(ts[i], states[i - 1])
            self.nfev += N_STAGES - 1
            y_new = y + h * (B @ Ks)
            scale = np.maximum(np.abs(y), np.abs(y_new))
            scale *= self.rtol
            scale += self.atol
            err = (_E53 @ Ks) / scale
            norm = _error_norm(h, err.reshape((2,) + shape))
            if norm <= 1.0:
                factor = MAX_FACTOR if norm == 0.0 else min(
                    MAX_FACTOR, max(MIN_FACTOR, SAFETY * norm ** ORDER_EXP))
                y_new = y_new.reshape(shape)
                # f(t + h, y_new) is stage 12 and the next step's first stage
                K[N_STAGES] = rhs(self.t + h, y_new)
                self.nfev += 1
                t_old, y_old = self.t, self.y
                # t + (t_end - t) can round below t_end; a step clipped to
                # the remaining span ends exactly there
                self.t = self.t_end if h == remaining else self.t + h
                self.y = y_new
                self.f = K[N_STAGES]
                self.h = h * factor
                self.n_steps += 1
                return Step(self, t_old, self.t, y_old, y_new, h, K, states)
            self.h = h * min(1.0, max(MIN_FACTOR, SAFETY * norm ** ORDER_EXP))
            self.n_rejected += 1

    def stats(self):
        return {"n_steps": self.n_steps, "n_rejected": self.n_rejected,
                "nfev": self.nfev, "n_dense": self.n_dense}


def integrate(rhs, y0, t_end, rtol=1e-10, atol=1e-12, stop=None):
    """Integrate a batch from t = 0 to ``t_end``; returns (DensePath, stats).

    This is the one loop that drives `Dopri54.step`.  ``stop``, if given, is
    called with every accepted `Step`, while it still holds its stage
    states; the loop ends after the first step for which it returns true,
    so the path then ends before ``t_end``.  ``stats`` counts the work done
    up to that point (see the module docstring).
    """
    stepper = Dopri54(rhs, 0.0, y0, t_end, rtol, atol)
    ts = [stepper.t]
    ys = [stepper.y.copy()]
    steps = []
    while not stepper.finished:
        step = stepper.step()
        ts.append(step.t_new)
        ys.append(step.y_new)
        steps.append(step)
        done = stop is not None and stop(step)
        step.states = None
        if done:
            break
    path = DensePath(t=np.array(ts), y=np.array(ys), steps=steps)
    return path, stepper.stats()
