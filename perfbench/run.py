"""perimap benchmark: time to a verified invariant curve on three workloads.

    python3 perfbench/run.py --workload hybrid-curve --seed 1 --seconds 30 --trace 0

Run it from the repository root: perimap is imported from ``src/`` of the
same checkout, never from an installed copy, and a checkout without the
sources fails with a nonzero exit status.  Each workload runs in its own
process, pinned to one BLAS/OpenMP thread with ``PERIMAP_THREADS`` unset.

``--trace 0`` measures set-up as the median of three fresh interpreters that
import perimap and build the workload (systems, Poincare handle, inputs),
then repeats whole passes over the workload's verified task list until
``--seconds`` is spent, and prints the end-to-end metrics.  Their times are
given at a reference machine speed (see ``calibration.py``).  ``--trace 1``
runs one untraced pass and two traced passes, requires every counter of the
two traced passes to agree exactly, and prints the per-layer metrics of the
first traced pass.

The last line of standard output is the result object; the line before it
is a record of the run: seed, generated inputs, environment, every task's
time and oracle errors, and in a traced run the full counter table.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "_work")
SETUP_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ERROR_FLOOR = 1e-16  # an oracle error of exactly 0 reads as 16 digits


def pin_environment():
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("PERIMAP_THREADS", None)


def import_workloads():
    """Import perimap from this checkout's sources, then the workloads."""
    if not os.path.isfile(os.path.join(SRC, "perimap", "__init__.py")):
        raise SystemExit(f"error: no perimap sources under {SRC}")
    sys.path.insert(0, SRC)
    import perimap
    found = os.path.dirname(os.path.dirname(os.path.abspath(perimap.__file__)))
    if found != SRC:
        raise SystemExit(f"error: perimap was imported from {found}, not {SRC}")
    import workloads
    return workloads


def environment():
    import numpy
    import scipy
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "PERIMAP_THREADS": os.environ.get("PERIMAP_THREADS")}


def metric_units(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def setup_seconds(args, calibration):
    """(raw s, reference s) of fresh interpreters that import perimap and set
    up the workload.  Each child first times its import of perimap's
    dependencies, which runs at the speed the rest of its set-up sees, and
    the reference time rescales by that."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                             text=True, timeout=120)
        raw = time.perf_counter() - t0
        deps = json.loads(out.stdout.splitlines()[-1])["deps_s"]
        times.append((raw, raw * calibration.IMPORT_REFERENCE_S / deps))
    return times


def run_pass(tasks, label, log):
    """Run every task once, logging its interval, checks and failure."""
    for task in tasks:
        t0 = time.perf_counter()
        checks, error = [], None
        try:
            checks = task.run()
        except Exception as exc:  # a failed task is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        bad = [f"{name}={value:.3g} > {limit:g}" for name, value, limit in checks
               if not (math.isfinite(value) and value <= limit)]
        log.append({"pass": label, "task": task.name, "interval": (t0, t1),
                    "error": error or "; ".join(bad) or None,
                    "checks": {name: value for name, value, _ in checks}})


def timed(log, sampler=None):
    """Replace each logged interval by its raw seconds and, given a sampler,
    its reference-speed seconds (else the raw ones again); returns the
    per-pass (raw, reference) totals in pass order."""
    passes = {}
    for entry in log:
        t0, t1 = entry.pop("interval")
        if sampler is None:
            entry["s"] = entry["ref_s"] = t1 - t0
        else:
            entry["s"], entry["ref_s"] = sampler.times(t0, t1)
        raw, ref = passes.get(entry["pass"], (0.0, 0.0))
        passes[entry["pass"]] = (raw + entry["s"], ref + entry["ref_s"])
    return passes


def measure(tasks, seconds, log, calibration):
    """Whole passes until the next one would overrun ``seconds``; returns
    the (raw, reference) time of each pass."""
    start = time.perf_counter()
    walls = []
    with calibration.SpeedSampler() as sampler:
        while not walls or (time.perf_counter() - start
                            + statistics.median(walls)) <= seconds:
            t0 = time.perf_counter()
            run_pass(tasks, f"pass-{len(walls)}", log)
            walls.append(time.perf_counter() - t0)
    return list(timed(log, sampler).values())


def traced(tasks, log):
    """One untraced and two traced passes; per-layer metrics of the first
    traced pass, and the counters of both traced passes compared.

    No speed sampler runs here: its probes would land inside the spans.
    Times are raw, so ``trace.overhead_frac`` carries the machine's drift.
    """
    import tracing
    tracers = [tracing.Tracer(), tracing.Tracer()]
    run_pass(tasks, "untraced", log)
    for i, tracer in enumerate(tracers):
        tracer.install()
        try:
            run_pass(tasks, f"traced-{i}", log)
        finally:
            tracer.uninstall()
    walls = timed(log)
    counts_a, counts_b = (t.counters() for t in tracers)
    differing = sorted(k for k in counts_a.keys() | counts_b.keys()
                       if counts_a.get(k) != counts_b.get(k))
    metrics = tracers[0].metrics()
    metrics["trace.overhead_frac"] = (walls["traced-0"][0]
                                      / walls["untraced"][0] - 1.0)
    return metrics, {"pass_walls_s": walls, "counters": counts_a,
                     "counters_differing": differing}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("map-sweep", "hybrid-curve", "hybrid-cycle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_environment()
    if args.setup_probe:
        t0 = time.perf_counter()
        import numpy  # noqa: F401  perimap's dependencies, timed on their own
        import scipy.interpolate  # noqa: F401
        deps = time.perf_counter() - t0
        import_workloads().build(args.workload, args.seed, None)
        print(json.dumps({"deps_s": deps}))
        return 0
    workloads = import_workloads()
    import calibration
    workdir = os.path.join(WORK, str(os.getpid()))

    units = metric_units("per_layer" if args.trace else "end_to_end")
    os.makedirs(workdir)
    try:
        t0 = time.perf_counter()
        tasks, inputs = workloads.build(args.workload, args.seed, workdir)
        own_setup = time.perf_counter() - t0
        log = []
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "seconds": args.seconds,
                  "inputs": inputs, "environment": environment(),
                  "own_setup_s": own_setup}
        if args.trace:
            metrics, record["traced_run"] = traced(tasks, log)
        else:
            probes = setup_seconds(args, calibration)
            walls = measure(tasks, args.seconds, log, calibration)
            errors = [v for entry in log for v in entry["checks"].values()]
            worst = max([ERROR_FLOOR] + [v for v in errors if math.isfinite(v)])
            metrics = {
                "setup_s": statistics.median(ref for _, ref in probes),
                "wall_s": statistics.median(ref for _, ref in walls),
                "task_p50_s": statistics.median(
                    statistics.median(e["ref_s"] for e in log
                                      if e["task"] == task.name)
                    for task in tasks),
                "residual_digits": -math.log10(worst),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            record.update(setup_probes_s=probes, pass_walls_s=walls,
                          task_samples=len(log))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    if set(metrics) != set(units):
        raise SystemExit("error: computed metrics "
                         f"{sorted(set(metrics) ^ set(units))} disagree with "
                         "BENCHMARK.json")
    failed = sum(1 for e in log if e["error"] is not None)
    correct = failed == 0 and not (args.trace
                                   and record["traced_run"]["counters_differing"])
    record.update(tasks=log, failed_frac=failed / len(log))
    result = {"correct": correct, "attempted": len(log), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
