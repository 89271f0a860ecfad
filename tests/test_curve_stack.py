"""Curve solves stacked over eps: `continuity_in_eps` against the loop of
lone `solve_invariant_curve` calls that it replaces.

The stacked solver must give every eps the bits of its lone solve, and a
failing list must fail as the loop did: with the exception of the first
failing eps in sorted order, whatever the later ones would raise.
"""
from dataclasses import replace

import numpy as np
import pytest

import perimap as pm


def _loop_rows(spec, omega, eps_list, config):
    """The table as a loop of lone solves, one per sorted eps."""
    rows = []
    for eps in sorted(eps_list):
        curve, report = pm.solve_invariant_curve(spec, omega, eps, config)
        sup = curve.sup_norm()
        rows.append(pm.invariant_graph.EpsContinuityRow(
            eps=float(eps), sup_norm=sup,
            ratio=None if eps == 0 else sup / abs(eps),
            converged=report.converged))
    return rows


def _hex(value):
    return None if value is None else float(value).hex()


def _row_hex(rows):
    return [(_hex(r.eps), _hex(r.sup_norm), _hex(r.ratio), r.converged)
            for r in rows]


def _nan_beyond(spec, eps_max):
    """``spec`` whose beta is nan for eps above ``eps_max``, row by row."""
    def beta(w, e, x, y):
        return np.where(e > eps_max, np.nan, spec.beta(w, e, x, y))

    return replace(spec, beta=beta)


class TestFirstFailureInSortedOrder:
    """The k-th sorted eps fails; a later one would fail differently."""

    @pytest.mark.parametrize("spec, omega, eps_list, max_iter, error, match", [
        # 0.05 converges, 0.2 folds the advance, 1.5 leaves the disc
        (pm.nonlinear_toy(advance_coupling=3.0), 0.37, [1.5, 0.05, 0.2], 100,
         pm.MonotonicityError, "not strictly increasing"),
        # 1.2 leaves the disc, 3.0 makes beta nan
        (_nan_beyond(pm.linear_shear(), 2.0), 0.25, [3.0, 1.2, 0.01], 100,
         pm.DomainError, "left the radius-r1 disc"),
        # 0 converges at once, 0.01 needs more than 3 pushes, 1.2 leaves
        # the disc on its first
        (pm.nonlinear_toy(), 0.25, [1.2, 0.0, 0.01], 3,
         pm.ConvergenceError, "no convergence after 3 sweeps"),
    ], ids=["order", "disc", "max_iter"])
    def test_raises_the_first_failing_type(self, spec, omega, eps_list,
                                           max_iter, error, match):
        cfg = pm.CurveConfig(n_nodes=64, max_iter=max_iter)
        with pytest.raises(error, match=match) as got:
            pm.continuity_in_eps(spec, omega, eps_list, cfg)
        assert type(got.value) is error

    def test_the_error_names_its_eps(self):
        cfg = pm.CurveConfig(n_nodes=64, max_iter=3)
        with pytest.raises(pm.ConvergenceError) as got:
            pm.continuity_in_eps(pm.nonlinear_toy(), 0.25, [1.2, 0.0, 0.01],
                                 cfg)
        assert str(got.value).startswith("eps=0.01: no convergence after 3")
        assert isinstance(got.value.__cause__, pm.ConvergenceError)
        assert str(got.value) == f"eps=0.01: {got.value.__cause__}"


class TestLoopRows:
    @pytest.mark.parametrize("eps_list", [
        [0.0],
        [1e-2, 0.0, -5e-3, 1e-2],
        [-1e-3, -2e-2],
    ], ids=["zero", "zero-negative-duplicate", "negative"])
    def test_rows_equal_the_loop(self, eps_list):
        spec = pm.nonlinear_toy()
        cfg = pm.CurveConfig(n_nodes=64, tol=1e-12, seed=3)
        rows = pm.continuity_in_eps(spec, 0.25, eps_list, cfg)
        assert _row_hex(rows) == _row_hex(_loop_rows(spec, 0.25, eps_list,
                                                     cfg))

    def test_empty_list(self):
        assert pm.continuity_in_eps(pm.linear_shear(), 0.25, [],
                                    pm.CurveConfig(n_nodes=64)) == []


def _coupled_map():
    """A closed-form k2 = 2 map whose B = beta_y(0) is a full 2 x 2 matrix."""
    two_pi = 2.0 * np.pi

    def alpha(omega, eps, x, y):
        return (1.0 + 0.05 * np.sin(two_pi * x) + 0.1 * y[:, :1]
                - 0.05 * y[:, 1:])

    def beta(omega, eps, x, y):
        y1, y2 = y[:, :1], y[:, 1:]
        return np.hstack([
            0.5 * y1 + 0.2 * y2 + 0.1 * y1 * y2 + eps * np.sin(two_pi * x),
            -0.1 * y1 + 0.4 * y2 + 0.2 * y1**2 + eps * np.cos(two_pi * x)])

    return pm.MapSpec(k1=1, k2=2, r1=1.0, alpha=alpha, beta=beta,
                      periodic_coord=1, period=1.0)


def _unresolved_map():
    """beta is forced at mode 600, which the 1024-node coarse grid of a
    16384-node solve aliases unless eps is tiny."""
    return pm.MapSpec(
        k1=1, k2=1, r1=1.0, alpha=lambda w, e, x, y: np.ones_like(x),
        beta=lambda w, e, x, y: 0.5 * y + e * np.sin(1200 * np.pi * x),
        periodic_coord=1, period=1.0)


def _curve_hex(curve):
    return [v.hex() for v in curve.values.ravel().tolist()]


_SYSTEMS = {
    "shear": (pm.linear_shear, 0.25, [2e-2, 1e-3, 0.0, 5e-3]),
    "toy": (pm.nonlinear_toy, 0.25, [1.9e-2, 1.3e-3, -4e-3, 7.7e-3]),
    "strong-toy": (lambda: pm.nonlinear_toy(advance_coupling=3.0,
                                            y2_coupling=2.0),
                   0.37, [0.1, 0.02]),
    "k2=2": (_coupled_map, 0.37, [0.05, 0.01, 0.03]),
}


class TestStackEqualsTheLoop:
    """Every problem of a stack gets the bits of its lone solve: curve,
    report and table row."""

    def _check(self, spec, omega, eps_list, cfg):
        lone = [pm.solve_invariant_curve(spec, omega, eps, cfg)
                for eps in sorted(eps_list)]
        stacked = pm.invariant_graph._solve_curves(
            spec, omega, sorted(eps_list), cfg, None)
        for (curve, report), (got_curve, got_report) in zip(lone, stacked):
            assert _curve_hex(got_curve) == _curve_hex(curve)
            assert got_report.to_json_dict() == report.to_json_dict()
        rows = pm.continuity_in_eps(spec, omega, eps_list, cfg)
        assert _row_hex(rows) == _row_hex(_loop_rows(spec, omega, eps_list,
                                                     cfg))
        return [report for _, report in lone]

    @pytest.mark.parametrize("system", list(_SYSTEMS))
    def test_small_grid(self, system):
        make, omega, eps_list = _SYSTEMS[system]
        self._check(make(), omega, eps_list,
                    pm.CurveConfig(n_nodes=64, tol=1e-12, seed=2))

    @pytest.mark.parametrize("system", list(_SYSTEMS))
    def test_coarse_start(self, system):
        make, omega, eps_list = _SYSTEMS[system]
        cfg = pm.CurveConfig(n_nodes=16384, tol=1e-12, seed=2)
        reports = self._check(make(), omega, eps_list[:2], cfg)
        assert all(r.converged for r in reports)

    def test_trusted_and_untrusted_coarse_levels(self):
        # at eps 1e-14 the aliased forcing is below the resolution check,
        # so the coarse curve seeds the fine level; at 1e-2 it does not
        spec = _unresolved_map()
        rows = []

        def alpha(w, e, x, y):
            # the rows of each eps in the call
            found, count = np.unique(np.broadcast_to(e, (len(x), 1)),
                                     return_counts=True)
            rows.append(dict(zip(found.tolist(), count.tolist())))
            return spec.alpha(w, e, x, y)

        counted = replace(spec, alpha=alpha)
        cfg = pm.CurveConfig(n_nodes=16384, tol=1e-12, seed=2)
        reports = self._check(counted, 0.37, [1e-2, 1e-14], cfg)
        coarse = 16384 // pm.invariant_graph.COARSE_FACTOR
        # four solves of each eps ran (lone, stacked, table, loop): the
        # seeded one's report spans both levels, the other one's only the
        # fine level from zeros
        pushes = {e: [call[e] for call in rows if e in call]
                  for e in (1e-14, 1e-2)}
        seeded = pushes[1e-14]
        assert 4 * reports[0].iterations == (seeded.count(16384)
                                             + seeded.count(coarse))
        assert 4 * reports[1].iterations == pushes[1e-2].count(16384)
        assert pushes[1e-2].count(coarse) > 0


class TestStackedSpline:
    @pytest.mark.parametrize("k2", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_equals_lone_builds(self, n, k2):
        rng = np.random.default_rng(10 * n + k2)
        window, stack = 1.5, 5
        t = 0.3 + window * (np.arange(n) + rng.uniform(0.0, 0.9, (stack, n))
                            ) / n
        y = rng.standard_normal((stack, n, k2))
        xs = rng.uniform(-2.0, 4.0, 50)
        spline = pm.invariant_graph._Spline(t, window, y)
        values = spline(xs)
        assert values.shape == (stack, 50, k2)
        for e in range(stack):
            lone = pm.invariant_graph._Spline(t[e], window, y[e])
            assert np.array_equal(spline.knots[e], lone.knots)
            assert np.array_equal(spline.m[e], lone.m)
            assert np.array_equal(values[e], lone(xs))
            assert np.array_equal(spline.slopes()[e], lone.slopes())

    def test_a_stack_of_one(self):
        rng = np.random.default_rng(3)
        t = np.sort(rng.uniform(0.0, 1.0, 16))
        y = rng.standard_normal((16, 2))
        xs = rng.uniform(-1.0, 2.0, 20)
        one = pm.invariant_graph._Spline(t[None], 1.0, y[None])
        lone = pm.invariant_graph._Spline(t, 1.0, y)
        assert np.array_equal(one(xs), lone(xs)[None])


class TestPushRounds:
    def test_one_round_pushes_every_eps(self, monkeypatch):
        # an 8-eps sweep makes max(iterations) rounds of `_sweep`, each one
        # alpha call of E n rows for the E eps still iterating, the first
        # with the origin stencil's rows too
        n = 256
        spec = pm.nonlinear_toy()
        calls = []

        def alpha(w, e, x, y):
            calls.append(len(x))
            return spec.alpha(w, e, x, y)

        counted = replace(spec, alpha=alpha)
        sweep, rounds = pm.invariant_graph._sweep, []

        def counted_sweep(*args):
            rounds.append(len(args[2]))
            return sweep(*args)

        monkeypatch.setattr(pm.invariant_graph, "_sweep", counted_sweep)
        eps_list = [1.3e-3, 2.1e-3, 3.4e-3, 5e-3, 7.7e-3, 1.1e-2, 1.5e-2,
                    1.9e-2]
        cfg = pm.CurveConfig(n_nodes=n, tol=1e-12, seed=1)
        solved = pm.invariant_graph._solve_curves(counted, 0.25, eps_list, cfg,
                                                  None)
        iterations = [report.iterations for _, report in solved]
        assert len(rounds) == max(iterations)
        assert rounds[0] == len(eps_list)
        live = [sum(k > r for k in iterations) for r in range(len(rounds))]
        assert rounds == live
        stencil = len(pm.map_core.origin_rows(spec)[0])
        assert stencil == 5
        assert calls[:len(rounds)] == ([live[0] * n + stencil]
                                       + [e * n for e in live[1:]])
        assert sum(calls[:len(rounds)]) == n * sum(iterations) + stencil
        # so a round is one evaluator call, and each eps keeps the bits of
        # its lone solve
        monkeypatch.undo()
        for eps, (curve, report) in zip(eps_list, solved):
            lone_curve, lone_report = pm.solve_invariant_curve(spec, 0.25,
                                                               eps, cfg)
            assert _curve_hex(curve) == _curve_hex(lone_curve)
            assert report.to_json_dict() == lone_report.to_json_dict()

    def test_a_sweep_splits_into_stacks_of_at_most_stack_nodes(
            self, monkeypatch):
        # at n 4096 a stack holds STACK_NODES // n = 2 problems, so three
        # eps make a stack of two, which takes four rounds, and a stack of
        # one, which takes five; each keeps the bits of its lone solve
        n, spec = 4096, pm.nonlinear_toy()
        assert pm.invariant_graph.STACK_NODES // n == 2
        sweep, rounds = pm.invariant_graph._sweep, []

        def counted_sweep(*args):
            rounds.append(len(args[2]))
            return sweep(*args)

        monkeypatch.setattr(pm.invariant_graph, "_sweep", counted_sweep)
        eps_list = [1e-3, 5e-3, 1e-2]
        cfg = pm.CurveConfig(n_nodes=n, tol=1e-12, seed=1)
        rows = pm.continuity_in_eps(spec, 0.25, eps_list, cfg)
        assert rounds == [2] * 4 + [1] * 5
        monkeypatch.undo()
        assert _row_hex(rows) == _row_hex(_loop_rows(spec, 0.25, eps_list,
                                                     cfg))


class TestOutcomes:
    def test_a_missed_tol_is_a_convergence_error(self):
        # eps 0 meets tol at its first push; eps 0.01 needs more than 3,
        # so its outcome is the error that names max_iter and its last update
        spec = pm.nonlinear_toy()
        zeros = np.zeros((64, 1))
        got = pm.invariant_graph._iterate_to_fixed_point(
            spec, 0.25, [0.0, 0.01], spec.period, {0: zeros, 1: zeros}, 1e-12,
            3)
        met, missed = got[0], got[1]
        curve, updates, rates = met
        assert isinstance(curve, pm.PeriodicGridFn) and updates == [0.0]
        _, lone_updates, _ = pm.invariant_graph._iterate_to_fixed_point(
            spec, 0.25, [0.01], spec.period, {0: zeros}, 1e-12, 100)[0]
        assert isinstance(missed, pm.ConvergenceError)
        assert str(missed) == ("no convergence after 3 sweeps (last update "
                               f"{lone_updates[2]:.3g})")

    def test_the_last_allowed_push_ends_a_problem(self, monkeypatch):
        # the third push misses tol and ends the problem: it is neither
        # preconditioned nor mixed, so 3 pushes make 2 preconditioned steps
        # and 1 Anderson fit (the second push's)
        spec = pm.nonlinear_toy()
        lone = pm.invariant_graph._iterate_to_fixed_point(
            spec, 0.25, [0.01], spec.period, {0: np.zeros((64, 1))}, 1e-12,
            100)[0]
        calls = {"_sweep": 0, "_precondition": 0, "lstsq": 0}

        def counted(name, fun):
            def call(*args, **kwargs):
                calls[name] += 1
                return fun(*args, **kwargs)
            return call

        for name in ("_sweep", "_precondition"):
            monkeypatch.setattr(pm.invariant_graph, name, counted(
                name, getattr(pm.invariant_graph, name)))
        monkeypatch.setattr(np.linalg, "lstsq",
                            counted("lstsq", np.linalg.lstsq))
        cfg = pm.CurveConfig(n_nodes=64, tol=1e-12, max_iter=3)
        with pytest.raises(pm.ConvergenceError) as raised:
            pm.solve_invariant_curve(spec, 0.25, 0.01, cfg)
        assert calls == {"_sweep": 3, "_precondition": 2, "lstsq": 1}
        assert str(raised.value) == ("no convergence after 3 sweeps (last "
                                     f"update {lone[1][2]:.3g})")


def _riding_constants(monkeypatch, spec, omega, eps_list, n):
    """The constants (alpha(0), beta(0), B) that the runner reads from the
    stencil rows riding in a stack's first push, one entry per stack,
    with the count of `map_core.origin` calls the solve made."""
    read, constants = pm.map_core.origin_constants, []

    def recorded(*args):
        got = read(*args)
        constants.append(got)
        return got

    monkeypatch.setattr(pm.invariant_graph, "origin_constants", recorded)
    misses = pm.map_core.origin.cache_info()
    pm.invariant_graph._solve_curves(spec, omega, eps_list,
                                     pm.CurveConfig(n_nodes=n), None)
    monkeypatch.undo()
    calls = pm.map_core.origin.cache_info()
    return constants, (calls.hits + calls.misses) - (misses.hits
                                                     + misses.misses)


class TestRidingStencil:
    """A stack's first push carries the origin stencil's rows, from which
    the preconditioner reads alpha(0) and B; `map_core.origin` is not
    called."""

    @pytest.mark.parametrize("make", [
        pm.linear_shear, pm.nonlinear_toy,
        lambda: pm.nonlinear_toy(advance_coupling=3.0, y2_coupling=2.0)],
        ids=["shear", "toy", "strong-toy"])
    def test_closed_form_constants_equal_origin(self, make, monkeypatch):
        spec = make()
        constants, origin_calls = _riding_constants(
            monkeypatch, spec, 0.37, [0.02, 0.01], 64)
        assert origin_calls == 0
        assert len(constants) == 1  # one stack
        want = pm.map_core.origin(spec)
        for got, ref in zip(constants[0], want):
            assert got.shape == ref.shape
            assert ([v.hex() for v in got.ravel().tolist()]
                    == [v.hex() for v in ref.ravel().tolist()])

    def test_wrapped_constants_agree_with_origin(self, handle, monkeypatch):
        # the stencil's lanes share the step sequence of the first push's
        # 64 node lanes, so the constants agree to integration accuracy
        spec = pm.extract_alpha_beta(handle)
        [(alpha0, _, B)], origin_calls = _riding_constants(
            monkeypatch, spec, 1.0, [1e-2], 64)
        assert origin_calls == 0
        ref_alpha0, _, ref_B = pm.map_core.origin(spec)
        bound = 10.0 * pm.poincare.CURVE_RTOL
        assert np.all(np.abs(alpha0 - ref_alpha0)
                      <= bound * np.abs(ref_alpha0))
        assert np.all(np.abs(B - ref_B) <= bound * np.abs(ref_B))


def _faulty_map(raise_at, nan_at):
    """The toy map, raising `NoReturnError` on a call that holds a row at
    eps ``raise_at`` and nan on the rows at eps ``nan_at``."""
    spec = pm.nonlinear_toy()

    def alpha(w, e, x, y):
        if np.any(np.asarray(e) == raise_at):
            raise pm.NoReturnError(f"a lane at eps {raise_at} missed S")
        return np.where(e == nan_at, np.nan, spec.alpha(w, e, x, y))

    return replace(spec, alpha=alpha)


def _offset_map():
    """beta = 0.5 (y - 0.1) + 0.1 + eps sin(2 pi x), nan at x = y = 0: the
    constant 0.1 is its eps = 0 curve, and the rows of the origin stencil
    (x = 0, y = 0 and y = +-h, +-h / 2) hold its only nan."""
    def alpha(w, e, x, y):
        at_origin = np.all(x == 0, axis=1) & np.all(y == 0, axis=1)
        return np.where(at_origin[:, None], np.nan, np.ones_like(x))

    def beta(w, e, x, y):
        return 0.5 * (y - 0.1) + 0.1 + e * np.sin(2 * np.pi * x)

    return pm.MapSpec(k1=1, k2=1, r1=1.0, alpha=alpha, beta=beta,
                      periodic_coord=1, period=1.0)


class TestFailureAttribution:
    """A stacked call that raises is redone problem by problem, so every
    failure keeps its problem, and the others keep the bits of their lone
    solves."""

    def test_a_failing_problem_fails_alone(self, monkeypatch):
        spec = _faulty_map(raise_at=0.02, nan_at=0.03)
        zeros = np.zeros((64, 1))
        eps = [0.01, 0.02, 0.03, 0.005]
        evaluate, calls = pm.invariant_graph.eval_batch, []

        def counted_eval(*args):
            calls.append(len(args[3]))
            return evaluate(*args)

        monkeypatch.setattr(pm.invariant_graph, "eval_batch", counted_eval)
        got = _iterate(spec, eps, dict.fromkeys(range(4), zeros))
        monkeypatch.undo()
        assert type(got[1]) is pm.NoReturnError
        assert str(got[1]) == "a lane at eps 0.02 missed S"
        assert type(got[2]) is pm.EvaluationError
        assert str(got[2]) == "alpha/beta returned non-finite values"
        for i in (0, 3):
            lone = _iterate(spec, [eps[i]], {0: zeros})[0]
            assert _curve_hex(got[i][0]) == _curve_hex(lone[0])
            assert got[i][1:] == lone[1:]
        # the first round fails as one call, then evaluates its four
        # problems and the stencil alone; the later rounds hold no failing
        # problem and make one call each
        assert calls[:6] == [4 * 64 + 5, 64, 64, 64, 64, 5]
        short, long = sorted(len(got[i][1]) for i in (0, 3))
        assert calls[6:] == [2 * 64] * (short - 1) + [64] * (long - short)

    def test_nan_at_the_origin_fails_when_a_preconditioner_is_built(self):
        # the curve 0.1 meets tol at its first push with no preconditioner;
        # the start 0.3 needs one, so its outcome is the stencil's error
        spec = _offset_map()
        got = _iterate(spec, [0.0, 0.0], {0: np.full((64, 1), 0.1),
                                          1: np.full((64, 1), 0.3)})
        curve, updates, rates = got[0]
        assert len(updates) == 1 and updates[0] <= 1e-12 and rates == []
        assert np.max(np.abs(curve.values - 0.1)) <= 1e-12
        assert type(got[1]) is pm.EvaluationError
        assert str(got[1]) == "alpha/beta returned non-finite values"
        with pytest.raises(pm.EvaluationError, match="non-finite"):
            pm.uniqueness_test(
                spec, 0.25, 0.01, pm.CurveConfig(n_nodes=64),
                [pm.PeriodicGridFn.constant(1.0, 64, [0.3])] * 2)


def _iterate(spec, eps, starts):
    return pm.invariant_graph._iterate_to_fixed_point(
        spec, 0.25, eps, 1.0, starts, 1e-12, 100)
