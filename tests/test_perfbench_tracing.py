"""Smoke test of the benchmark tracer (`perfbench/tracing.py`).

The tracer patches library functions and methods by name, so renaming one of
them breaks ``perfbench/run.py --trace 1``; this test catches that in the
suite.
"""
import importlib.util
import pathlib

import perimap as pm
from perimap import invariant_graph

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes(tracing):
    """Every attribute the tracer may patch, by owner and name."""
    owners = list(tracing._MODULES) + [cls for cls, _, _ in tracing._METHOD_SPANS]
    return {(owner, name): value for owner in owners
            for name, value in vars(owner).items()}


def test_traced_solve_and_cycle_analysis(handle):
    tracing = _load_tracing()
    before = _attributes(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spec = pm.extract_alpha_beta(handle)
        cfg = pm.CurveConfig(n_nodes=16, tol=1e-9, max_iter=60)
        _, report = pm.solve_invariant_curve(spec, 1.0, 0.01, cfg)
        pm.analyze_cycle(handle)
    finally:
        tracer.uninstall()
    assert report.converged
    metrics = tracer.metrics()
    for key in ("hybrid_ode.flows", "dopri.steps", "invariant_graph.sweeps",
                "invariant_graph.spline_builds",
                "cycle_analysis.newton_iters"):
        assert metrics[key] > 0, key
    assert tracer.calls["dopri.step"] > 0
    assert tracer.count["poincare.alpha.points"] > 0
    changed = [(owner, name) for (owner, name), value in before.items()
               if vars(owner).get(name) is not value]
    assert not changed


def test_traced_doubled_window_counts_each_spline_once(monkeypatch):
    # the tracer wraps `PeriodicGridFn.__post_init__` once under that name
    # and once under its alias `WindowGridFn`; a build must count once
    built = []
    init = invariant_graph.PeriodicGridFn.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(invariant_graph.PeriodicGridFn, "__init__",
                        counted_init)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        defect = pm.periodicity_defect(pm.linear_shear(), 0.25, 0.01,
                                       pm.CurveConfig(n_nodes=16, tol=1e-12))
    finally:
        tracer.uninstall()
    assert defect <= 1e-12
    assert len(built) >= 2
    assert tracer.metrics()["invariant_graph.spline_builds"] == len(built)
