"""Runs of the demo scripts: they finish, and their artifacts match the CLI's byte
for byte."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from perimap import cli

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                   check=True, env=env, capture_output=True)


def header(path):
    return path.read_text().splitlines()[0]


def run_cli(tmp_path, mode, config):
    """Run one CLI mode on ``config``; return its artifact directory."""
    cfgp = tmp_path / f"{mode}.json"
    cfgp.write_text(json.dumps(config))
    out = tmp_path / mode
    assert cli.main([mode, "--config", str(cfgp), "--out", str(out)]) == 0
    return out


def test_shear_curve_demo(tmp_path):
    demo = tmp_path / "demo"
    run_script("shear_curve_demo.py", "--n-nodes", "32", "--out", str(demo))
    assert header(demo / "curve.csv") == "x,phi1"

    # solve-curve on the demo's system and solver settings
    out = run_cli(tmp_path, "solve-curve", {
        "system": {"name": "linear-shear", "params": {"q": 0.5}},
        "omega": 0.25, "eps": 0.01,
        "solver": {"n_nodes": 32, "tol": 1e-12}, "sampling": {"seed": 0}})
    assert ((demo / "report.json").read_bytes()
            == (out / "solver_report.json").read_bytes())
    assert (demo / "curve.csv").read_bytes() == (out / "curve.csv").read_bytes()


def test_hybrid_cylinder_demo_matches_cli(tmp_path):
    demo = tmp_path / "demo"
    run_script("hybrid_cylinder_demo.py", "--n-nodes", "16",
               "--n-trajectories", "2", "--out", str(demo))
    assert header(demo / "curve.csv") == "x,phi1"
    assert header(demo / "cylinder.csv") == "trajectory,t,x1,x2"

    # cylinder-data and hybrid-analyze on the demo's system and settings
    system = {"name": "polar-hybrid", "params": {"kappa": 0.5, "T_g": 0.8}}
    out = run_cli(tmp_path, "cylinder-data", {
        "system": system, "eps": 0.01,
        "solver": {"n_nodes": 16, "tol": 1e-11},
        "sampling": {"seed": 0}, "n_trajectories": 2})
    for artifact in ("curve.csv", "cylinder.csv"):
        assert (demo / artifact).read_bytes() == (out / artifact).read_bytes()
    out = run_cli(tmp_path, "hybrid-analyze",
                  {"system": system, "sampling": {"seed": 0}})
    assert ((demo / "cycle_report.json").read_bytes()
            == (out / "cycle_report.json").read_bytes())


def test_step_cost_return_counts(monkeypatch):
    # the script pins BLAS threads at import; keep that out of later tests
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location(
        "step_cost", ROOT / "scripts" / "step_cost.py")
    step_cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(step_cost)
    # the counts README.md quotes for one polar-hybrid return
    assert step_cost.return_counts(1e-10, 1e-12) == {
        "steps": 22, "dense": 3, "nfev": 275, "event_h_evals": 52}
    assert step_cost.return_counts(1e-12, 1e-14) == {
        "steps": 37, "dense": 5, "nfev": 461, "event_h_evals": 84}
