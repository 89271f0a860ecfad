"""The three benchmark workloads: inputs drawn from a seed, verified tasks.

Every workload is a list of tasks built once per process by `build`.  A task
calls perimap through its module attributes (so a traced pass sees the
wrapped functions), checks its result against the acceptance oracles, and
returns the oracle errors it measured as ``(name, value, limit)`` triples.
A task fails when it raises or when any value is not finite or exceeds its
limit.  The workload seed fixes every input -- eps and tau grids, sampling
seeds, Newton guesses and trajectory starts -- so two processes with one
seed run identical work.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

from perimap import (cli, cycle_analysis, hybrid_ode, invariant_graph,
                     map_core, poincare)

KAPPA = 0.5
T_G = 0.8

# acceptance-suite oracle limits
INVARIANCE_TOL = 1e-9
SHEAR_TOL = 1e-8
JACOBIAN_TOL = 1e-6
FIXED_POINT_TOL = 1e-10
SHIFT_TOL = 1e-8
DOUBLED_WINDOW_TOL = 1e-6
# simulate_hybrid's jumps must land where time_to_return says they do
JUMP_TOL = 1e-10


class GateError(Exception):
    """A boolean acceptance gate did not hold."""


def require(cond, what):
    if not cond:
        raise GateError(what)


@dataclass
class Task:
    name: str
    run: Callable[[], list]


def _seed_int(rng):
    return int(rng.integers(0, 2**31 - 1))


def _eps_grid(rng, n, lo=1e-3, hi=2e-2):
    """One log-uniform eps per stratum of [lo, hi]: the sweep count of a
    solve grows with log(eps), so stratifying keeps a sweep's work the same
    from seed to seed."""
    edges = np.linspace(np.log(lo), np.log(hi), n + 1)
    return [float(e) for e in np.exp(rng.uniform(edges[:-1], edges[1:]))]


def _near(rng, value):
    return float(value * rng.uniform(0.9, 1.1))


# ----------------------------------------------------------------------------
# map-sweep: the map path through the CLI, no ODE layer
# ----------------------------------------------------------------------------

class _CliRunner:
    """Runs one CLI config per call and checks its exit status and that its
    artifact bytes repeat across the calls of one process."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.digests = {}
        self.calls = 0

    def __call__(self, name, mode, config, check_artifacts=None):
        self.calls += 1
        out = os.path.join(self.workdir, f"{name}-{self.calls}")
        os.makedirs(out)
        cfg_path = os.path.join(out, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        try:
            rc = cli.main([mode, "--config", cfg_path, "--out", out])
            require(rc == 0, f"{mode} exited with status {rc}")
            os.remove(cfg_path)
            digest = hashlib.sha256()
            for fname in sorted(os.listdir(out)):
                with open(os.path.join(out, fname), "rb") as fh:
                    digest.update(fname.encode() + b"\0" + fh.read())
            first = self.digests.setdefault(name, digest.hexdigest())
            require(first == digest.hexdigest(),
                    f"{mode} artifacts differ from the first repetition")
            return check_artifacts(out) if check_artifacts else []
        finally:
            shutil.rmtree(out, ignore_errors=True)


def _shear_checks(omega, eps, q):
    c = eps / (np.exp(2j * np.pi * omega) - q)

    def check_artifacts(out):
        rows = np.loadtxt(os.path.join(out, "curve.csv"), delimiter=",",
                          skiprows=1)
        exact = (c * np.exp(2j * np.pi * rows[:, 0])).imag
        with open(os.path.join(out, "solver_report.json")) as fh:
            report = json.load(fh)["report"]
        return [("shear_sup_error", float(np.max(np.abs(rows[:, 1] - exact))),
                 SHEAR_TOL),
                ("invariance_residual", report["invariance_residual"],
                 INVARIANCE_TOL)]

    return check_artifacts


def _map_sweep(rng, workdir):
    run_cli = _CliRunner(workdir)
    toy = {"name": "nonlinear-toy"}
    omega, q = 0.25, 0.5
    eps_shear = _near(rng, 1e-2)
    eps_window = _near(rng, 1e-2)
    configs = {
        "check-map": {"system": toy,
                      "sampling": {"n_samples": 128, "seed": _seed_int(rng)}},
        "certify": {"system": toy,
                    "sampling": {"n_samples": 64, "seed": _seed_int(rng)}},
        "sweep-256": {"system": toy, "omega": omega,
                      "eps_list": _eps_grid(rng, 8),
                      "solver": {"n_nodes": 256, "tol": 1e-12},
                      "sampling": {"seed": _seed_int(rng)}},
        "sweep-16384": {"system": toy, "omega": omega,
                        "eps_list": _eps_grid(rng, 2),
                        "solver": {"n_nodes": 16384, "tol": 1e-12},
                        "sampling": {"seed": _seed_int(rng)}},
        "solve-shear": {"system": {"name": "linear-shear",
                                   "params": {"q": q}},
                        "omega": omega, "eps": eps_shear,
                        "solver": {"n_nodes": 256, "tol": 1e-12,
                                   "max_iter": 100},
                        "sampling": {"seed": _seed_int(rng)}},
    }
    modes = {"check-map": "check-map", "certify": "certify",
             "sweep-256": "sweep-eps", "sweep-16384": "sweep-eps",
             "solve-shear": "solve-curve"}
    artifact_checks = {"solve-shear": _shear_checks(omega, eps_shear, q)}

    def cli_task(name):
        return Task(name, lambda: run_cli(name, modes[name], configs[name],
                                          artifact_checks.get(name)))

    def doubled_window():
        spec = map_core.make_system("linear-shear", q=q)
        defect = invariant_graph.periodicity_defect(
            spec, omega, eps_window,
            invariant_graph.CurveConfig(n_nodes=256, tol=1e-12))
        return [("doubled_window_defect", defect, DOUBLED_WINDOW_TOL)]

    tasks = [cli_task(name) for name in configs]
    tasks.append(Task("doubled-window", doubled_window))
    inputs = {"configs": configs, "eps_window": eps_window}
    return tasks, inputs


# ----------------------------------------------------------------------------
# hybrid-curve: wrapped-Poincare curve solves, ~200 lanes per flow
# ----------------------------------------------------------------------------

def _polar_handle():
    sys_ = hybrid_ode.polar_hybrid(kappa=KAPPA, T_g=T_G)
    return sys_, poincare.prepare_handle(sys_)


def _hybrid_curve(rng, workdir):
    _, handle = _polar_handle()
    eps_small = _near(rng, 1e-3)
    eps_large = _near(rng, 1e-2)
    eps_window = _near(rng, 1e-2)
    residual_seeds = [_seed_int(rng), _seed_int(rng)]

    # a fresh wrapper per task: the memo would otherwise time the cache
    def solve(eps, seed):
        def run():
            wrapped = poincare.extract_alpha_beta(handle)
            cfg = invariant_graph.CurveConfig(n_nodes=256, tol=1e-12,
                                              max_iter=60, preimage_tol=1e-11,
                                              seed=seed)
            _, report = invariant_graph.solve_invariant_curve(
                wrapped, 1.0, eps, cfg)
            require(report.converged, f"curve at eps={eps:g} not converged")
            return [("invariance_residual", report.invariance_residual,
                     INVARIANCE_TOL)]
        return run

    def doubled_window():
        wrapped = poincare.extract_alpha_beta(handle)
        cfg = invariant_graph.CurveConfig(n_nodes=128, tol=1e-11, max_iter=60,
                                          preimage_tol=1e-11)
        defect = invariant_graph.periodicity_defect(wrapped, 1.0, eps_window,
                                                    cfg)
        return [("doubled_window_defect", defect, DOUBLED_WINDOW_TOL)]

    tasks = [Task("solve-small-eps", solve(eps_small, residual_seeds[0])),
             Task("solve-large-eps", solve(eps_large, residual_seeds[1])),
             Task("doubled-window", doubled_window)]
    inputs = {"eps_small": eps_small, "eps_large": eps_large,
              "eps_window": eps_window, "residual_seeds": residual_seeds}
    return tasks, inputs


# ----------------------------------------------------------------------------
# hybrid-cycle: 1-3 lane flows at Poincare-grade tolerance
# ----------------------------------------------------------------------------

def _hybrid_cycle(rng, workdir):
    sys_, handle = _polar_handle()
    eps_max = float(rng.uniform(0.01, 0.015))
    u_guess = float(rng.uniform(-0.15, 0.15))
    contraction_seed = _seed_int(rng)
    certify_seed = _seed_int(rng)
    shift_eps = [_near(rng, 1e-3), _near(rng, 1e-2)]
    shift_taus = sorted(float(t) for t in rng.uniform(0.0, 2.0 * T_G, 4))
    shift_start = float(rng.uniform(0.02, 0.08))
    sim_starts = [(float(rng.uniform(0.0, T_G)),
                   float(rng.uniform(-0.2, 0.2))) for _ in range(2)]
    sim_eps = float(rng.uniform(0.0, eps_max))

    def analyze():
        report = cycle_analysis.analyze_cycle(
            handle, u_guess=[u_guess],
            contraction={"u_range": 0.25, "eps_range": (0.0, eps_max),
                         "n_samples": 8, "seed": contraction_seed})
        require(report.spectrum_ok, "spectrum of P'(u*) not certified")
        require(bool(report.q_ok), "sampled contraction q is not below 1")
        return [("jacobian_error",
                 abs(report.jacobian[0, 0] - KAPPA / np.e), JACOBIAN_TOL),
                ("fixed_point_error", float(np.max(np.abs(report.u_star))),
                 FIXED_POINT_TOL)]

    def certify():
        # certify_returns records its radius on the handle: keep ours intact
        radius = poincare.certify_returns(dataclasses.replace(handle),
                                          (0.0, eps_max), n_samples=8,
                                          seed=certify_seed)
        require(radius == sys_.r1, f"returns certified only up to {radius:g}")
        return []

    def return_shift(eps):
        def run():
            x = [1.0 + shift_start, 0.0]
            worst = 0.0
            for tau in shift_taus:
                t0 = poincare.time_to_return(handle, tau, x, eps)
                t1 = poincare.time_to_return(handle, tau + T_G, x, eps)
                worst = max(worst, abs(t1 - t0 - T_G))
            return [("return_shift_defect", worst, SHIFT_TOL)]
        return run

    def simulate():
        worst = 0.0
        for tau, u in sim_starts:
            x = np.asarray(sys_.D(np.array([[u]])), float)[0]
            v = np.asarray(sys_.Delta(x[None, :]), float)[0]
            _, jumps = hybrid_ode.simulate_hybrid(
                sys_, tau, v, sim_eps, 2.5 * T_G, event=handle.event,
                rtol=handle.rtol, atol=handle.atol)
            require(jumps, "trajectory made no return")
            t_ret = poincare.time_to_return(handle, tau, x, sim_eps)
            worst = max(worst, abs(jumps[0][0] - t_ret))
        return [("jump_time_error", worst, JUMP_TOL)]

    tasks = [Task("analyze-cycle", analyze),
             Task("certify-returns", certify),
             Task("return-shift-small-eps", return_shift(shift_eps[0])),
             Task("return-shift-large-eps", return_shift(shift_eps[1])),
             Task("simulate", simulate)]
    inputs = {"eps_max": eps_max, "u_guess": u_guess,
              "contraction_seed": contraction_seed,
              "certify_seed": certify_seed, "shift_eps": shift_eps,
              "shift_taus": shift_taus, "shift_start": shift_start,
              "sim_starts": sim_starts, "sim_eps": sim_eps}
    return tasks, inputs


_BUILDERS = {"map-sweep": _map_sweep, "hybrid-curve": _hybrid_curve,
             "hybrid-cycle": _hybrid_cycle}


def build(workload, seed, workdir):
    """Set up ``workload`` for ``seed``: returns (tasks, inputs record)."""
    return _BUILDERS[workload](np.random.default_rng(seed), workdir)
