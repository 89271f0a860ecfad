"""Configuration-driven pipeline: systems -> checks -> certificates -> curves.

Usage:  perimap <mode> --config <path> [--out <dir>] [--seed <n>]

Modes and their artifacts (all JSON/CSV, byte-deterministic for a fixed
config and seed):

    check-map      assumptions.json       sampled assumption predicates
    certify        certificate.json       lambda0, eps0, r0, mu, q
    solve-curve    curve.csv, solver_report.json
    hybrid-analyze cycle_report.json      fixed point, spectrum, adapted norm
    sweep-eps      sweep.csv              eps-continuity table
    cylinder-data  cylinder.csv, curve.csv  dense forced-flow samples started
                                           on the invariant curve

Exit status 0 means every invariant asserted by the selected mode held;
config errors exit 2, runtime failures exit 1.
"""
from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cycle_analysis, embedding, hybrid_ode, invariant_graph, map_core, poincare
from .exceptions import ConfigError, PerimapError

MODES = ("check-map", "certify", "solve-curve", "hybrid-analyze", "sweep-eps",
         "cylinder-data")

_TOP_KEYS = {"system", "mode", "omega", "eps", "eps_list", "solver",
             "sampling", "delta", "tolerances", "n_trajectories"}
_SOLVER_KEYS = {"n_nodes", "tol", "max_iter"}
_SAMPLING_KEYS = {"n_samples", "seed"}


@dataclass
class ExperimentConfig:
    mode: str
    system: dict
    omega: float = 1.0
    eps: float = 0.0
    eps_list: list = field(default_factory=list)
    n_nodes: int = 256
    tol: float = 1e-12
    max_iter: int = 100
    n_samples: int = 128
    seed: Optional[int] = None
    delta: Optional[float] = None
    tolerances: dict = field(default_factory=dict)
    n_trajectories: int = 8


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def parse_config(obj, mode, seed_override=None):
    _require(isinstance(obj, dict), "config must be a JSON object")
    unknown = set(obj) - _TOP_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    _require("system" in obj, "missing config key: system")
    if "mode" in obj:
        _require(obj["mode"] == mode,
                 f"config mode '{obj['mode']}' does not match CLI mode '{mode}'")

    solver = obj.get("solver", {})
    _require(isinstance(solver, dict), "solver must be an object")
    unknown = set(solver) - _SOLVER_KEYS
    _require(not unknown, f"unknown solver keys: {sorted(unknown)}")
    sampling = obj.get("sampling", {})
    _require(isinstance(sampling, dict), "sampling must be an object")
    unknown = set(sampling) - _SAMPLING_KEYS
    _require(not unknown, f"unknown sampling keys: {sorted(unknown)}")

    cfg = ExperimentConfig(
        mode=mode,
        system=obj["system"],
        omega=float(obj.get("omega", 1.0)),
        eps=float(obj.get("eps", 0.0)),
        eps_list=[float(e) for e in obj.get("eps_list", [])],
        n_nodes=int(solver.get("n_nodes", 256)),
        tol=float(solver.get("tol", 1e-12)),
        max_iter=int(solver.get("max_iter", 100)),
        n_samples=int(sampling.get("n_samples", 128)),
        seed=seed_override if seed_override is not None else sampling.get("seed"),
        delta=None if obj.get("delta") is None else float(obj["delta"]),
        tolerances=obj.get("tolerances", {}),
        n_trajectories=int(obj.get("n_trajectories", 8)),
    )
    _require(cfg.tol > 0, "solver key 'tol' must be strictly positive")
    _require(cfg.n_nodes >= 8, "solver key 'n_nodes' must be at least 8")
    _require(cfg.max_iter > 0, "solver key 'max_iter' must be positive")
    _require(cfg.n_samples >= 2, "sampling key 'n_samples' must be at least 2")
    if cfg.delta is not None:
        _require(cfg.delta > 0, "key 'delta' must be strictly positive")
    for key, val in cfg.tolerances.items():
        _require(float(val) > 0, f"tolerance '{key}' must be strictly positive")
    _require(cfg.seed is not None,
             "sampling key 'seed' is mandatory (or pass --seed)")
    cfg.seed = int(cfg.seed)
    return cfg


def _json_dump(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _curve_config(cfg, hybrid=False):
    # integrator-backed evaluators have a noise floor near their tolerance;
    # pushing the preimage residual below it only burns return flows
    return invariant_graph.CurveConfig(
        n_nodes=cfg.n_nodes, tol=cfg.tol, max_iter=cfg.max_iter, seed=cfg.seed,
        preimage_tol=1e-11 if hybrid else 1e-14)


def _map_spec(cfg):
    return map_core.spec_from_json(cfg.system)


def _hybrid(cfg):
    return hybrid_ode.hybrid_from_json(cfg.system)


def _is_hybrid(cfg):
    return cfg.system.get("name") in hybrid_ode._BUILTIN_HYBRID


def _wrapped_spec(cfg):
    # the wrapped Poincare map fixes the technical omega input to 1
    if cfg.omega != 1.0:
        raise ConfigError("omega is fixed to 1 for hybrid systems")
    handle = poincare.prepare_handle(_hybrid(cfg))
    return handle, poincare.extract_alpha_beta(handle)


def _run_check_map(cfg, out):
    spec = _map_spec(cfg)
    report = map_core.check_assumptions(spec, n_samples=cfg.n_samples,
                                        seed=cfg.seed)
    _json_dump(os.path.join(out, "assumptions.json"), report.to_json_dict())
    tol = cfg.tolerances
    ok = (report.beta_y0_invertible
          and report.q_estimate < 1.0
          and report.a2_defect <= float(tol.get("a2", 1e-8))
          and report.periodicity_defect <= float(tol.get("periodicity", 1e-8)))
    return 0 if ok else 1


def _run_certify(cfg, out):
    spec = _map_spec(cfg)
    params = embedding.certificate(spec, delta=cfg.delta,
                                   n_samples=cfg.n_samples, seed=cfg.seed)
    _json_dump(os.path.join(out, "certificate.json"), params.to_json_dict())
    _, gap_ok = embedding.spectral_gap(params)
    ok = (params.lambda0 is not None
          and params.eps0 == spec.r1 * params.lambda0**2 / 2.0
          and params.r0 == params.lambda0 * spec.r1
          and gap_ok)
    return 0 if ok else 1


def _solve_for(cfg, spec, eps, hybrid=False):
    curve, report = invariant_graph.solve_invariant_curve(
        spec, cfg.omega, eps, _curve_config(cfg, hybrid=hybrid))
    return curve, report


def _run_solve_curve(cfg, out):
    hybrid = _is_hybrid(cfg)
    if hybrid:
        _, spec = _wrapped_spec(cfg)
    else:
        spec = _map_spec(cfg)
    curve, report = _solve_for(cfg, spec, cfg.eps, hybrid=hybrid)
    invariant_graph.write_curve_csv(os.path.join(out, "curve.csv"), curve)
    _json_dump(os.path.join(out, "solver_report.json"),
               invariant_graph.curve_to_json_dict(curve, report))
    return 0 if report.converged else 1


def _run_hybrid_analyze(cfg, out):
    handle = poincare.prepare_handle(_hybrid(cfg))
    report = cycle_analysis.analyze_cycle(handle)
    _json_dump(os.path.join(out, "cycle_report.json"), report.to_json_dict())
    ok = (report.fixed_point_residual <= cfg.tol * 10
          and report.spectrum_ok
          and abs(report.transversality) > 1e-8)
    return 0 if ok else 1


def _run_sweep_eps(cfg, out):
    _require(cfg.eps_list, "sweep-eps requires a nonempty eps_list")
    hybrid = _is_hybrid(cfg)
    if hybrid:
        _, spec = _wrapped_spec(cfg)
    else:
        spec = _map_spec(cfg)

    def one(eps):
        curve, report = _solve_for(cfg, spec, eps, hybrid=hybrid)
        return eps, curve.sup_norm(), report.converged

    results = [one(e) for e in sorted(cfg.eps_list)]

    with open(os.path.join(out, "sweep.csv"), "w") as fh:
        fh.write("eps,sup_norm,ratio\n")
        for eps, sup, _ in results:
            ratio = sup / abs(eps) if eps != 0 else float("nan")
            fh.write(",".join("%.16e" % v for v in (eps, sup, ratio)) + "\n")
    ok = all(conv for _, _, conv in results)
    ratios = [sup / abs(eps) for eps, sup, _ in results if eps != 0]
    if len(ratios) >= 2 and min(ratios) > 0:
        ok = ok and (max(ratios) / min(ratios) <= 1.5)
    return 0 if ok else 1


def _run_cylinder(cfg, out):
    _require(_is_hybrid(cfg), "cylinder-data requires a hybrid system")
    handle, spec = _wrapped_spec(cfg)
    sys_ = handle.sys
    curve, report = _solve_for(cfg, spec, cfg.eps, hybrid=True)
    invariant_graph.write_curve_csv(os.path.join(out, "curve.csv"), curve)
    taus = np.linspace(0.0, sys_.T_g, cfg.n_trajectories, endpoint=False)
    all_segments = []
    for ti, tau in enumerate(taus):
        u = curve.eval(np.array([tau]))[0]
        start = np.asarray(sys_.Delta(np.asarray(sys_.D(u[None, :]), float)),
                           float)[0]
        segments, _ = hybrid_ode.simulate_hybrid(
            sys_, float(tau), start, cfg.eps, sys_.T_g,
            event=handle.event, rtol=handle.rtol, atol=handle.atol)
        for ts, states in segments:
            tag = np.full((len(ts), 1), float(ti))
            all_segments.append((np.column_stack([tag, ts[:, None], states])))
    rows = np.vstack(all_segments)
    with open(os.path.join(out, "cylinder.csv"), "w") as fh:
        fh.write("trajectory,t," + ",".join(
            f"x{j+1}" for j in range(rows.shape[1] - 2)) + "\n")
        for row in rows:
            fh.write(",".join("%.16e" % v for v in row) + "\n")
    return 0 if report.converged else 1


_RUNNERS = {
    "check-map": _run_check_map,
    "certify": _run_certify,
    "solve-curve": _run_solve_curve,
    "hybrid-analyze": _run_hybrid_analyze,
    "sweep-eps": _run_sweep_eps,
    "cylinder-data": _run_cylinder,
}


def run(config: ExperimentConfig, out_dir="."):
    os.makedirs(out_dir, exist_ok=True)
    return _RUNNERS[config.mode](config, out_dir)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="perimap",
        description="invariant curves of perturbed maps and hybrid Poincare maps",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=".", help="artifact directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides sampling.seed from the config")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=_sys.stderr)
        return 2
    try:
        cfg = parse_config(raw, args.mode, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    try:
        return run(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except PerimapError as exc:
        print(f"[{args.mode}] failed: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
