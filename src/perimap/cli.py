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
import math
import os
import sys as _sys
from dataclasses import dataclass
from typing import Optional

from . import cycle_analysis, embedding, hybrid_ode, invariant_graph, map_core, poincare
from .exceptions import ConfigError, PerimapError
from .invariant_graph import CurveConfig, curve_table, write_csv, write_json

_TOP_KEYS = {"system", "mode", "omega", "eps", "eps_list", "solver",
             "sampling", "delta", "tolerances", "n_trajectories"}
_SOLVER_KEYS = {"n_nodes", "tol", "max_iter"}
_SAMPLING_KEYS = {"n_samples", "seed"}
_TOLERANCE_KEYS = {"a2", "periodicity"}


@dataclass
class ExperimentConfig:
    mode: str
    system: dict
    omega: float
    eps: float
    eps_list: list
    n_nodes: int
    tol: float
    max_iter: int
    n_samples: int
    seed: int
    delta: Optional[float]
    tolerances: dict
    n_trajectories: int


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _is_number(v):
    """Whether ``v`` is a finite int or float (JSON NaN and Infinity are not)."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _number(section, key, default, where="config"):
    """``section[key]``, else ``default``, required to be a finite number."""
    val = section.get(key, default)
    _require(_is_number(val), f"{where} key '{key}' must be a finite number")
    return float(val)


def _count(section, key, default, where):
    """``section[key]``, else ``default``, required to be an integral number."""
    val = _number(section, key, default, where)
    _require(val.is_integer(), f"{where} key '{key}' must be an integer")
    return int(val)


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

    eps_list = obj.get("eps_list", [])
    _require(isinstance(eps_list, list) and all(map(_is_number, eps_list)),
             "config key 'eps_list' must be a list of finite numbers")
    tolerances = obj.get("tolerances", {})
    _require(isinstance(tolerances, dict)
             and all(map(_is_number, tolerances.values())),
             "config key 'tolerances' must be an object of finite numbers")
    unknown = set(tolerances) - _TOLERANCE_KEYS
    _require(not unknown, f"unknown tolerances keys: {sorted(unknown)}")
    _require(seed_override is not None or "seed" in sampling,
             "sampling key 'seed' is mandatory (or pass --seed)")
    cfg = ExperimentConfig(
        mode=mode,
        system=obj["system"],
        omega=_number(obj, "omega", 1.0),
        eps=_number(obj, "eps", 0.0),
        eps_list=[float(e) for e in eps_list],
        n_nodes=_count(solver, "n_nodes", CurveConfig.n_nodes, "solver"),
        tol=_number(solver, "tol", CurveConfig.tol, "solver"),
        max_iter=_count(solver, "max_iter", CurveConfig.max_iter, "solver"),
        n_samples=_count(sampling, "n_samples", 128, "sampling"),
        seed=(seed_override if seed_override is not None
              else _count(sampling, "seed", None, "sampling")),
        delta=None if obj.get("delta") is None else _number(obj, "delta", None),
        tolerances=tolerances,
        n_trajectories=_count(obj, "n_trajectories", 8, "config"),
    )
    _require(cfg.tol > 0, "solver key 'tol' must be strictly positive")
    _require(cfg.n_nodes >= 8, "solver key 'n_nodes' must be at least 8")
    _require(cfg.max_iter > 0, "solver key 'max_iter' must be positive")
    _require(cfg.n_samples >= 2, "sampling key 'n_samples' must be at least 2")
    _require(cfg.n_trajectories >= 1,
             "config key 'n_trajectories' must be at least 1")
    if cfg.delta is not None:
        _require(cfg.delta > 0, "key 'delta' must be strictly positive")
    for key, val in cfg.tolerances.items():
        _require(val > 0, f"tolerance '{key}' must be strictly positive")
    return cfg


def system_from_json(obj):
    """Build the built-in map or hybrid system that a config's ``system`` names.

    ``obj`` is ``{"name": ..., "params": {...}}``; every parameter value is a
    finite number, and ``amp`` a list of finite numbers.  Map names are built
    through `map_core.make_system`, hybrid names through the hybrid registry.
    """
    _require(isinstance(obj, dict) and isinstance(obj.get("name"), str),
             "system must be an object with a string 'name'")
    extra = set(obj) - {"name", "params"}
    _require(not extra, f"unknown keys in system: {sorted(extra)}")
    name, params = obj["name"], obj.get("params", {})
    known = {**map_core._BUILTIN_MAPS, **hybrid_ode._BUILTIN_HYBRID}
    _require(name in known, f"unknown system '{name}' (have {sorted(known)})")
    _require(isinstance(params, dict), "system key 'params' must be an object")
    builder, allowed = known[name]
    unknown = set(params) - allowed
    _require(not unknown, f"unknown parameters for '{name}': {sorted(unknown)}")
    for key, val in params.items():
        if key == "amp":
            _require(isinstance(val, list) and all(map(_is_number, val)),
                     "system parameter 'amp' must be a list of finite numbers")
        else:
            _require(_is_number(val),
                     f"system parameter '{key}' must be a finite number")
    if name in hybrid_ode._BUILTIN_HYBRID:
        return builder(**params)
    return map_core.make_system(name, **params)


def _curve_problem(cfg, system):
    """The map spec a curve solve iterates, its `CurveConfig`, and for a
    hybrid system the Poincare handle behind the spec (else None)."""
    handle, spec = None, system
    if isinstance(system, hybrid_ode.HybridSystem):
        # the wrapped Poincare map fixes the technical omega input to 1
        _require(cfg.omega == 1.0, "omega is fixed to 1 for hybrid systems")
        handle = poincare.prepare_handle(system)
        spec = poincare.extract_alpha_beta(handle)
    curve_cfg = invariant_graph.CurveConfig(
        n_nodes=cfg.n_nodes, tol=cfg.tol, max_iter=cfg.max_iter, seed=cfg.seed)
    return handle, spec, curve_cfg


def _run_check_map(cfg, spec, out):
    report = map_core.check_assumptions(spec, n_samples=cfg.n_samples,
                                        seed=cfg.seed)
    write_json(os.path.join(out, "assumptions.json"), report.to_json_dict())
    tol = cfg.tolerances
    ok = (report.beta_y0_invertible
          and report.q_estimate < 1.0
          and report.a2_defect <= float(tol.get("a2", 1e-8))
          and report.periodicity_defect <= float(tol.get("periodicity", 1e-8)))
    return 0 if ok else 1


def _run_certify(cfg, spec, out):
    params = embedding.certificate(spec, delta=cfg.delta,
                                   n_samples=cfg.n_samples, seed=cfg.seed)
    write_json(os.path.join(out, "certificate.json"), params.to_json_dict())
    _, gap_ok = embedding.spectral_gap(params)
    ok = (params.lambda0 is not None
          and params.eps0 == spec.r1 * params.lambda0**2 / 2.0
          and params.r0 == params.lambda0 * spec.r1
          and gap_ok)
    return 0 if ok else 1


def _run_solve_curve(cfg, system, out):
    _, spec, curve_cfg = _curve_problem(cfg, system)
    curve, report = invariant_graph.solve_invariant_curve(
        spec, cfg.omega, cfg.eps, curve_cfg)
    write_csv(os.path.join(out, "curve.csv"), *curve_table(curve))
    write_json(os.path.join(out, "solver_report.json"),
               invariant_graph.curve_to_json_dict(curve, report))
    return 0 if report.converged else 1


def _run_hybrid_analyze(cfg, system, out):
    handle = poincare.prepare_handle(system)
    report = cycle_analysis.analyze_cycle(handle)
    write_json(os.path.join(out, "cycle_report.json"), report.to_json_dict())
    ok = (report.fixed_point_residual <= cfg.tol * 10
          and report.spectrum_ok
          and abs(report.transversality) > 1e-8)
    return 0 if ok else 1


def _run_sweep_eps(cfg, system, out):
    _require(cfg.eps_list, "sweep-eps requires a nonempty eps_list")
    _, spec, curve_cfg = _curve_problem(cfg, system)
    rows = invariant_graph.continuity_in_eps(spec, cfg.omega, cfg.eps_list,
                                             curve_cfg)
    write_csv(os.path.join(out, "sweep.csv"), ("eps", "sup_norm", "ratio"),
              [(r.eps, r.sup_norm, math.nan if r.ratio is None else r.ratio)
               for r in rows])
    ok = all(r.converged for r in rows)
    lo, hi = invariant_graph.ratio_band(rows)
    if lo > 0:
        ok = ok and (hi / lo <= 1.5)
    return 0 if ok else 1


def _run_cylinder(cfg, system, out):
    handle, spec, curve_cfg = _curve_problem(cfg, system)
    curve, report = invariant_graph.solve_invariant_curve(
        spec, cfg.omega, cfg.eps, curve_cfg)
    write_csv(os.path.join(out, "curve.csv"), *curve_table(curve))
    write_csv(os.path.join(out, "cylinder.csv"), *poincare.cylinder_table(
        handle, curve, cfg.eps, cfg.n_trajectories))
    return 0 if report.converged else 1


# each mode's runner and the system kind it needs (None: either kind)
MODES = {
    "check-map": (_run_check_map, "map"),
    "certify": (_run_certify, "map"),
    "solve-curve": (_run_solve_curve, None),
    "hybrid-analyze": (_run_hybrid_analyze, "hybrid"),
    "sweep-eps": (_run_sweep_eps, None),
    "cylinder-data": (_run_cylinder, "hybrid"),
}


def run(config: ExperimentConfig, out_dir="."):
    os.makedirs(out_dir, exist_ok=True)
    system = system_from_json(config.system)
    kind = "hybrid" if isinstance(system, hybrid_ode.HybridSystem) else "map"
    runner, need = MODES[config.mode]
    _require(need in (None, kind), f"{config.mode} requires a {need} system, "
             f"and '{config.system['name']}' is a {kind} system")
    return runner(config, system, out_dir)


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
