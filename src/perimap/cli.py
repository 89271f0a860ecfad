"""Configuration-driven pipeline: systems -> checks -> certificates -> curves.

Usage:  perimap <mode> --config <path> [--out <dir>] [--seed <n>]

Modes and their artifacts (all JSON/CSV, byte-deterministic for a fixed
config and seed):

    check-map      assumptions.json       sampled assumption predicates
    certify        certificate.json       lambda0, eps0, r0, mu, q, and the
                                           delta, n_samples and seed used
    solve-curve    curve.csv, solver_report.json
    hybrid-analyze cycle_report.json      fixed point, spectrum, adapted norm,
                                           sampled contraction q on the chart
    sweep-eps      sweep.csv              eps-continuity table
    cylinder-data  cylinder.csv, curve.csv  dense forced-flow samples started
                                           on the invariant curve

Exit status 0 means every invariant asserted by the selected mode held;
config errors exit 2, runtime failures exit 1.
"""
import argparse
import inspect
import json
import math
import os
import sys as _sys
from types import SimpleNamespace

from . import cycle_analysis, embedding, hybrid_ode, invariant_graph, map_core, poincare
from .exceptions import ConfigError, PerimapError
from .invariant_graph import CurveConfig, curve_table, write_csv, write_json

REQUIRED = object()  # the default of a key that a config must give

# Every config key, by section ("config" is the top level): its kind and its
# default.  A kind is "number", "positive" (a number > 0), "numbers" (a list
# of numbers), or an int n for an integer >= n; every number must be finite.
# ``system`` (checked by `system_from_json`) and ``mode`` (which must equal
# the CLI's mode) have no kind.  README's config table lists the same keys.
SCHEMA = {
    "config": {
        "system": (None, REQUIRED),
        "mode": (None, None),
        "omega": ("number", 1.0),
        "eps": ("number", 0.0),
        "eps_list": ("numbers", []),
        "delta": ("positive", None),
        "n_trajectories": (1, 8),
    },
    "solver": {
        "n_nodes": (8, CurveConfig.n_nodes),
        "tol": ("positive", CurveConfig.tol),
        "max_iter": (1, CurveConfig.max_iter),
    },
    "sampling": {"n_samples": (2, 128), "seed": (0, REQUIRED)},
    "tolerances": {"a2": ("positive", 1e-8), "periodicity": ("positive", 1e-8)},
}


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _is_number(v):
    """Whether ``v`` is a finite int or float (JSON NaN and Infinity are not)."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _value(where, key, kind, val):
    """``val`` checked against ``kind`` (see `SCHEMA`), as the runners read it."""
    name = f"{where} key '{key}'"
    if kind is None:
        return val
    if kind == "numbers":
        _require(isinstance(val, list) and all(map(_is_number, val)),
                 f"{name} must be a list of finite numbers")
        return [float(v) for v in val]
    _require(_is_number(val), f"{name} must be a finite number")
    if kind == "positive":
        _require(val > 0, f"{name} must be strictly positive")
    elif kind != "number":
        _require(float(val).is_integer(), f"{name} must be an integer")
        _require(val >= kind, f"{name} must be at least {kind}")
        return int(val)
    return float(val)


def parse_config(obj, mode, seed_override=None):
    """Check a config object against `SCHEMA`.  Returns a namespace with one
    attribute per key, defaults filled in (``tolerances`` stays a dict), and
    ``mode`` the CLI's mode; ``seed_override`` (``--seed``) replaces
    ``sampling.seed``."""
    _require(isinstance(obj, dict), "config must be a JSON object")
    cfg = SimpleNamespace()
    for where, keys in SCHEMA.items():
        section = obj if where == "config" else obj.get(where, {})
        _require(isinstance(section, dict), f"{where} must be an object")
        if where == "sampling" and seed_override is not None:
            section = dict(section, seed=seed_override)
        unknown = set(section) - set(keys)
        if where == "config":
            unknown -= SCHEMA.keys() - {"config"}
        _require(not unknown, f"unknown {where} keys: {sorted(unknown)}")
        values = {}
        for key, (kind, default) in keys.items():
            val = section.get(key, default)
            _require(val is not REQUIRED, f"{where} key '{key}' is mandatory"
                     + (" (or pass --seed)" if key == "seed" else ""))
            # a key whose default is None may be given as null
            values[key] = (None if val is None and default is None
                           else _value(where, key, kind, val))
        if where == "tolerances":
            cfg.tolerances = values
        else:
            vars(cfg).update(values)
    _require(cfg.mode in (None, mode),
             f"config mode '{cfg.mode}' does not match CLI mode '{mode}'")
    cfg.mode = mode
    return cfg


def system_from_json(obj):
    """Build the built-in map or hybrid system that a config's ``system`` names.

    ``obj`` is ``{"name": ..., "params": {...}}``.  The parameters and their
    defaults are the builder's: one whose default is a tuple takes a list of
    numbers, every other one a number.  A value that the builder rejects is
    a `ConfigError`.  Maps are built through `map_core.make_system`.
    """
    _require(isinstance(obj, dict) and isinstance(obj.get("name"), str),
             "system must be an object with a string 'name'")
    extra = set(obj) - {"name", "params"}
    _require(not extra, f"unknown keys in system: {sorted(extra)}")
    name, params = obj["name"], obj.get("params", {})
    _require(isinstance(params, dict), "system key 'params' must be an object")
    builder = map_core.registered_builder(
        {**map_core._BUILTIN_MAPS, **hybrid_ode._BUILTIN_HYBRID}, name, params)
    signature = inspect.signature(builder).parameters
    for key, val in params.items():
        tuple_default = isinstance(signature[key].default, tuple)
        _value("system.params", key, "numbers" if tuple_default else "number",
               val)
    try:
        if name in hybrid_ode._BUILTIN_HYBRID:
            return builder(**params)
        return map_core.make_system(name, **params)
    except ValueError as exc:
        raise ConfigError(f"system '{name}': {exc}") from exc


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
    ok = (report.beta_y0_invertible
          and report.q_estimate < 1.0
          and report.a2_defect <= cfg.tolerances["a2"]
          and report.periodicity_defect <= cfg.tolerances["periodicity"])
    return 0 if ok else 1


def _run_certify(cfg, spec, out):
    params = embedding.certificate(spec, delta=cfg.delta,
                                   n_samples=cfg.n_samples, seed=cfg.seed)
    # the sampling that decided the certificate, so that runs tell apart
    write_json(os.path.join(out, "certificate.json"),
               {**params.to_json_dict(), "delta": cfg.delta,
                "n_samples": cfg.n_samples, "seed": cfg.seed})
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
    # the whole chart is certified, with no fallback to a smaller radius
    report = cycle_analysis.analyze_cycle(handle, contraction={
        "u_range": system.r1, "eps_range": (0.0, cfg.eps),
        "n_samples": cfg.n_samples, "seed": cfg.seed})
    write_json(os.path.join(out, "cycle_report.json"), report.to_json_dict())
    ok = (report.fixed_point_residual <= cfg.tol * 10
          and report.spectrum_ok
          and abs(report.transversality) > 1e-8
          and report.q_ok)
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


def run(config, out_dir="."):
    """Run ``config`` (from `parse_config`), writing its artifacts to
    ``out_dir``, which is made only once the system is built and fits the
    mode."""
    system = system_from_json(config.system)
    kind = "hybrid" if isinstance(system, hybrid_ode.HybridSystem) else "map"
    runner, need = MODES[config.mode]
    _require(need in (None, kind), f"{config.mode} requires a {need} system, "
             f"and '{config.system['name']}' is a {kind} system")
    os.makedirs(out_dir, exist_ok=True)
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
        return run(parse_config(raw, args.mode, seed_override=args.seed),
                   args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except PerimapError as exc:
        print(f"[{args.mode}] failed: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
