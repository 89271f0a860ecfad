"""Machine-speed sampling that shares no code with perimap.

On a 2-vCPU VM (Intel Xeon, Python 3.11, numpy 2.4) the CPU speed drifted
by up to 2x within seconds to minutes, with no steal time to show for it:
one verified hybrid-cycle pass took anywhere from 8.4 s to 12.3 s within
three minutes, and a hybrid-curve pass from 17 s to 31 s within ten.
Process CPU time drifted with it, so it is no remedy.

`SpeedSampler` times a fixed kernel with the character of the program's hot
loop -- many tiny NumPy operations on a (186, 2) batch, as in one batched
Dormand-Prince step -- every `PERIOD_S` seconds from a timer signal, so the
drift shows in the kernel as it shows in the program.  A task's
reference-speed time is its wall time outside the probes, each stretch
rescaled by `REFERENCE_S` over the kernel time measured around it: the time
the task would take on a machine that runs the kernel in `REFERENCE_S`.

Set-up runs in child processes whose cost is interpreter start-up and
imports, which drift differently from the kernel.  Each child times its own
import of perimap's dependencies (numpy, scipy) first, and its set-up time
is rescaled by `IMPORT_REFERENCE_S` over that.

Keep this file fixed: a change to the program cannot move the kernels, so a
faster program reads faster, but a change here rescales every time.
"""
from __future__ import annotations

import bisect
import signal
import time

import numpy as np

REFERENCE_S = 0.010         # kernel time that defines the reference speed
IMPORT_REFERENCE_S = 0.500  # dependency-import time that defines it for set-up
PERIOD_S = 0.25
KERNEL_ITERS = 250

_WEIGHTS = np.array([0.1, 0.2, 0.3, 0.1, 0.05, 0.15, 0.1])
_STAGES = np.random.default_rng(0).standard_normal((7, 186, 2))


def kernel(n=KERNEL_ITERS):
    """Seconds this machine currently takes for the fixed kernel."""
    t0 = time.perf_counter()
    y = np.ones((186, 2))
    for _ in range(n):
        k = np.tensordot(_WEIGHTS, _STAGES, axes=(0, 0))
        r = np.linalg.norm(y, axis=-1, keepdims=True)
        y = y + 1e-3 * (k - r * y)
        float(np.max(np.sqrt(np.mean(y * y, axis=-1))))
    return time.perf_counter() - t0


class SpeedSampler:
    """Kernel timings taken from a timer signal while started.

    Use as a context manager around the timed work; the handler runs in the
    main thread between bytecodes, so it never overlaps the program.
    """

    def __init__(self):
        self.starts = []   # probe start times, increasing
        self.ends = []     # probe end times
        self._previous = None

    def _probe(self, signum=None, frame=None):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        return False

    def times(self, t0, t1):
        """(raw s, reference s) of the interval [t0, t1] outside the probes.

        Between two probes the kernel time is the mean of the two; before
        the first or after the last it is that probe's.
        """
        starts, ends = self.starts, self.ends
        raw = ref = 0.0
        k = max(bisect.bisect_right(ends, t0) - 1, 0)
        while k < len(starts):
            lo = ends[k - 1] if k else -np.inf
            hi = starts[k]
            if lo >= t1:
                break
            span = min(hi, t1) - max(lo, t0)
            if span > 0:
                d_hi = ends[k] - starts[k]
                d_lo = ends[k - 1] - starts[k - 1] if k else d_hi
                raw += span
                ref += span * REFERENCE_S / (0.5 * (d_lo + d_hi))
            k += 1
        if t1 > ends[-1]:
            span = t1 - max(ends[-1], t0)
            raw += span
            ref += span * REFERENCE_S / (ends[-1] - starts[-1])
        return raw, ref
