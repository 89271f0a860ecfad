"""Per-layer counters and timers for a traced benchmark pass.

perimap itself carries no instrumentation.  `Tracer.install` replaces the
public functions of each module with wrappers that time every call and count
its work, and `Tracer.uninstall` puts the originals back.  A function that
another module imported by name (``flow_batch`` in ``poincare``,
``p_eps_batch`` in ``cycle_analysis``, ``check_assumptions`` in
``embedding``) is replaced in every module that holds it, or its calls from
there would go uncounted.

Spans nest: each records its duration, the duration of the spans called
directly inside it (for self time), and its duration and calls inside every
enclosing span, so "steps inside flows" or "evaluator time inside solves"
are measured where they happen.
"""
from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict

import numpy as np

import perimap
from perimap import (cli, cycle_analysis, dopri, embedding, hybrid_ode,
                     invariant_graph, map_core, poincare)

_MODULES = (perimap, cli, cycle_analysis, dopri, embedding, hybrid_ode,
            invariant_graph, map_core, poincare)

# (module, attribute, span name); functions are replaced wherever imported
_FUNCTION_SPANS = (
    (hybrid_ode, "flow_batch", "hybrid_ode.flow_batch"),
    (hybrid_ode, "simulate_hybrid", "hybrid_ode.simulate_hybrid"),
    (poincare, "p_eps_batch", "poincare.p_eps_batch"),
    (invariant_graph, "solve_invariant_curve", "invariant_graph.solve"),
    (invariant_graph, "periodicity_defect", "invariant_graph.solve"),
    (invariant_graph, "_sweep", "invariant_graph.sweep"),
    (invariant_graph, "invariance_residual", "invariant_graph.residual"),
    (cycle_analysis, "find_fixed_point", "cycle_analysis.find_fixed_point"),
    (cycle_analysis, "_p_stencil", "cycle_analysis.p_stencil"),
    (cycle_analysis, "jacobian_and_spectrum", "cycle_analysis.jacobian"),
    (cycle_analysis, "certify_contraction", "cycle_analysis.contraction"),
    (map_core, "check_assumptions", "map_core.check_assumptions"),
    (embedding, "certificate", "embedding.certificate"),
    (cli, "main", "cli.main"),
)
_METHOD_SPANS = (
    (dopri.Dopri54, "step", "dopri.step"),
    (invariant_graph.PeriodicGridFn, "__post_init__", "invariant_graph.spline"),
    (invariant_graph.WindowGridFn, "__post_init__", "invariant_graph.spline"),
)
_EVALUATORS = ("map_core.alpha", "map_core.beta",
               "poincare.alpha", "poincare.beta")


class Tracer:
    """Spans and counters of one pass; `install` before it, `uninstall` after."""

    def __init__(self):
        self.time = defaultdict(float)   # span, or (span, enclosing span)
        self.calls = defaultdict(int)    # same keys as `time`
        self.child = defaultdict(float)  # span -> time in directly nested spans
        self.count = defaultdict(int)    # work counter, or (counter, span)
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _add(self, key, n):
        self.count[key] += n
        for outer in set(self._stack):
            self.count[key, outer] += n

    def _close(self, name, dt):
        stack = self._stack
        if stack:
            self.child[stack[-1]] += dt
        if name in stack:  # re-entered: the outer call holds the time
            return
        self.time[name] += dt
        self.calls[name] += 1
        for outer in set(stack):
            self.time[name, outer] += dt
            self.calls[name, outer] += 1

    def span(self, name, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, kwargs, out)`` counts
        its work once the span has closed."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack.append(name)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self._close(name, dt)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapped

    # -- work counters -----------------------------------------------------

    def _after_flow(self, args, kwargs, out):
        lanes = np.atleast_2d(np.asarray(args[2])).shape[0]
        st = out.stats
        self._add("hybrid_ode.flow_lanes", lanes)
        self._add("dopri.steps", st["n_steps"])
        self._add("dopri.rejected", st["n_rejected"])
        self._add("dopri.nfev", st["nfev"])
        self._add("dopri.lane_steps", st["n_steps"] * lanes)

    def _after_p_eps(self, args, kwargs, out):
        taus = np.atleast_1d(np.asarray(args[1], dtype=float))
        us = np.atleast_2d(np.asarray(args[2], dtype=float))
        rows = np.column_stack([np.broadcast_to(taus, len(us)), us])
        self._add("poincare.p_eps_lanes", len(rows))
        self._add("poincare.distinct_rows", len(np.unique(rows, axis=0)))

    def _after_simulate(self, args, kwargs, out):
        self._add("hybrid_ode.segments", len(out[0]))

    def _evaluator(self, name, fn):
        def after(args, kwargs, out):
            x = args[2] if len(args) > 2 else kwargs["x"]
            self._add(name + ".points", np.atleast_2d(np.asarray(x)).shape[0])
        return self.span(name, fn, after)

    def _counted_spec(self, spec, layer):
        return dataclasses.replace(
            spec, alpha=self._evaluator(layer + ".alpha", spec.alpha),
            beta=self._evaluator(layer + ".beta", spec.beta))

    # -- installing --------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        after = {"hybrid_ode.flow_batch": self._after_flow,
                 "poincare.p_eps_batch": self._after_p_eps,
                 "hybrid_ode.simulate_hybrid": self._after_simulate}
        for module, attr, name in _FUNCTION_SPANS:
            orig = getattr(module, attr)
            new = self.span(name, orig, after.get(name))
            for mod in _MODULES:
                if mod.__dict__.get(attr) is orig:
                    self._replace(mod, attr, new)
        for cls, attr, name in _METHOD_SPANS:
            self._replace(cls, attr, self.span(name, cls.__dict__[attr]))

        # map specs reach the solver through these two factories only
        make_system = map_core.make_system
        extract = poincare.extract_alpha_beta

        def counted_make_system(*args, **kwargs):
            return self._counted_spec(make_system(*args, **kwargs), "map_core")

        def counted_extract(*args, **kwargs):
            return self._counted_spec(extract(*args, **kwargs), "poincare")

        for mod in _MODULES:
            if mod.__dict__.get("make_system") is make_system:
                self._replace(mod, "make_system", counted_make_system)
            if mod.__dict__.get("extract_alpha_beta") is extract:
                self._replace(mod, "extract_alpha_beta", counted_extract)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def counters(self):
        """Every count of the pass (calls and work), keyed by a flat name."""
        flat = {}
        for table, tag in ((self.calls, "calls"), (self.count, "count")):
            for key, val in table.items():
                name = key if isinstance(key, str) else " in ".join(key)
                flat[f"{tag}:{name}"] = int(val)
        return dict(sorted(flat.items()))

    def metrics(self):
        """Per-layer metrics of the pass; ratios with a zero base read 0."""
        t, c, n = self.time, self.calls, self.count

        def ratio(num, den):
            return num / den if den else 0.0

        steps = c["dopri.step"]
        flow_s = t["hybrid_ode.flow_batch"]
        solve = "invariant_graph.solve"
        sweep = "invariant_graph.sweep"
        wrapped_points = n["poincare.alpha.points"] + n["poincare.beta.points"]
        wrapped_lanes = (n["poincare.p_eps_lanes", "poincare.alpha"]
                         + n["poincare.p_eps_lanes", "poincare.beta"])
        return {
            "dopri.steps": n["dopri.steps"],
            "dopri.rejected": n["dopri.rejected"],
            "dopri.nfev": n["dopri.nfev"],
            "dopri.lane_steps": n["dopri.lane_steps"],
            "dopri.lanes_per_step": ratio(n["dopri.lane_steps"],
                                          n["dopri.steps"]),
            "dopri.step_s": t["dopri.step"],
            "dopri.step_us": 1e6 * ratio(t["dopri.step"], steps),
            "hybrid_ode.flows": c["hybrid_ode.flow_batch"],
            "hybrid_ode.flow_lanes": n["hybrid_ode.flow_lanes"],
            "hybrid_ode.flow_s": flow_s,
            "hybrid_ode.flow_self_s":
                flow_s - t["dopri.step", "hybrid_ode.flow_batch"],
            "hybrid_ode.simulate_s": t["hybrid_ode.simulate_hybrid"],
            "hybrid_ode.segments": n["hybrid_ode.segments"],
            "poincare.p_eps_calls": c["poincare.p_eps_batch"],
            "poincare.p_eps_lanes": n["poincare.p_eps_lanes"],
            "poincare.p_eps_s": t["poincare.p_eps_batch"],
            "poincare.distinct_ratio": ratio(n["poincare.distinct_rows"],
                                             n["poincare.p_eps_lanes"]),
            "poincare.memo_hit_ratio":
                1.0 - ratio(wrapped_lanes, wrapped_points)
                if wrapped_points else 0.0,
            "invariant_graph.solves": c[solve],
            "invariant_graph.sweeps": c[sweep],
            "invariant_graph.alpha_calls_per_sweep": ratio(
                c["map_core.alpha", sweep] + c["poincare.alpha", sweep],
                c[sweep]),
            "invariant_graph.points_evaluated": sum(
                n[ev + ".points", solve] for ev in _EVALUATORS),
            "invariant_graph.solve_s": t[solve],
            "invariant_graph.self_s":
                t[solve] - sum(t[ev, solve] for ev in _EVALUATORS),
            "invariant_graph.spline_builds": c["invariant_graph.spline"],
            "invariant_graph.spline_s": t["invariant_graph.spline"],
            "invariant_graph.residual_s": t["invariant_graph.residual"],
            "cycle_analysis.fixed_point_s":
                t["cycle_analysis.find_fixed_point"],
            "cycle_analysis.newton_iters": c["cycle_analysis.p_stencil",
                                             "cycle_analysis.find_fixed_point"],
            "cycle_analysis.jacobian_s": t["cycle_analysis.jacobian"],
            "cycle_analysis.contraction_s": t["cycle_analysis.contraction"],
            "cycle_analysis.contraction_flows": c[
                "hybrid_ode.flow_batch", "cycle_analysis.contraction"],
            "map_core.check_s": t["map_core.check_assumptions"],
            "map_core.eval_points": (n["map_core.alpha.points"]
                                     + n["map_core.beta.points"]),
            "embedding.certificate_s": t["embedding.certificate"],
            "cli.run_s": t["cli.main"],
            "cli.self_s": t["cli.main"] - self.child["cli.main"],
        }
