"""Runs of README's example commands, as a process and through `cli.main`, and
of `scripts/step_cost.py`."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from perimap import cli

ROOT = Path(__file__).resolve().parent.parent


def run_command(mode, config, out):
    """Run README's ``perimap <mode> --config examples/<config>`` as a process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-m", "perimap.cli", mode, "--config",
                    str(ROOT / "examples" / config), "--out", str(out)],
                   check=True, env=env, capture_output=True)


def run_cli(tmp_path, mode, config):
    """Run the same command through ``cli.main``; return its artifact directory."""
    out = tmp_path / mode
    assert cli.main([mode, "--config", str(ROOT / "examples" / config),
                     "--out", str(out)]) == 0
    return out


def header(path):
    return path.read_text().splitlines()[0]


def test_shear_curve_demo(tmp_path):
    demo = tmp_path / "demo"
    run_command("solve-curve", "shear-curve.json", demo)
    assert header(demo / "curve.csv") == "x,phi1"

    out = run_cli(tmp_path, "solve-curve", "shear-curve.json")
    for artifact in ("curve.csv", "solver_report.json"):
        assert (demo / artifact).read_bytes() == (out / artifact).read_bytes()


def test_hybrid_cylinder_demo_matches_cli(tmp_path):
    demo = tmp_path / "demo"
    run_command("cylinder-data", "polar-hybrid.json", demo)
    run_command("hybrid-analyze", "polar-hybrid.json", demo)
    assert header(demo / "curve.csv") == "x,phi1"
    assert header(demo / "cylinder.csv") == "trajectory,t,x1,x2"

    out = run_cli(tmp_path, "cylinder-data", "polar-hybrid.json")
    for artifact in ("curve.csv", "cylinder.csv"):
        assert (demo / artifact).read_bytes() == (out / artifact).read_bytes()
    out = run_cli(tmp_path, "hybrid-analyze", "polar-hybrid.json")
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
