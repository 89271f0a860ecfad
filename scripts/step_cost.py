#!/usr/bin/env python3
"""Time one accepted DOP853 step on the polar-hybrid vector field, and count
the steps of one polar-hybrid return.

    PYTHONPATH=src python3 scripts/step_cost.py

For each batch size K in `LANES` the right-hand side is X(x) + eps g(t, x)
of the built-in polar-hybrid system, built by `hybrid_ode.forced_rhs` as in
`flow_batch` (eps = 0.01, lane start times spread over one forcing period),
with K lanes started near the unit cycle.  A `Dopri54` at rtol 1e-12,
atol 1e-14 then takes `STEPS` accepted steps, `REPEATS` times from a fresh
start; only the `step` calls are timed.  Then one unforced return from
(1, 0) to the section x2 = 0 is flowed with `flow_batch` at each
(rtol, atol) in `RETURN_TOLS`.

The script prints one JSON object: "step_us" maps K to the minimum over the
repeats of the mean time per accepted step, in microseconds, and "return"
maps each rtol to the return's accepted steps, the steps whose dense output
was built (those the event scan read), right-hand-side evaluations and
batched evaluations of H by the event layer.  BLAS and OpenMP are pinned to one thread.
"""
import json
import os
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import perimap as pm  # noqa: E402
from perimap.dopri import Dopri54  # noqa: E402
from perimap.hybrid_ode import forced_rhs  # noqa: E402

EPS = 0.01
LANES = (1, 16, 256, 4096)
STEPS = 200
REPEATS = 7
# the Poincare handle's and the wrapped evaluators' integrator tolerances
RETURN_TOLS = ((1e-10, 1e-12), (1e-12, 1e-14))


def step_us(n_lanes):
    sys = pm.polar_hybrid()
    rhs = forced_rhs(sys, np.linspace(0.0, sys.T_g, n_lanes, endpoint=False),
                     EPS)
    angle = np.linspace(0.0, 2.0 * np.pi, n_lanes, endpoint=False)
    radius = np.linspace(0.9, 1.1, n_lanes)
    y0 = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    best = np.inf
    for _ in range(REPEATS):
        stepper = Dopri54(rhs, 0.0, y0, 1e6, rtol=1e-12, atol=1e-14)
        t0 = time.perf_counter()
        for _ in range(STEPS):
            stepper.step()
        best = min(best, (time.perf_counter() - t0) / STEPS)
    return 1e6 * best


def return_counts(rtol, atol):
    res = pm.flow_batch(pm.polar_hybrid(), [0.0], [[1.0, 0.0]], 0.0,
                        event=pm.EventConfig(direction=1), rtol=rtol,
                        atol=atol)
    return {"steps": res.stats["n_steps"], "dense": res.stats["n_dense"],
            "nfev": res.stats["nfev"],
            "event_h_evals": res.stats["event_h_evals"]}


def main():
    print(json.dumps({
        "step_us": {str(k): round(step_us(k), 1) for k in LANES},
        "return": {f"{rtol:g}": return_counts(rtol, atol)
                   for rtol, atol in RETURN_TOLS},
    }))


if __name__ == "__main__":
    main()
