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
    """``spec`` whose beta is nan for eps above ``eps_max``."""
    def beta(w, e, x, y):
        out = spec.beta(w, e, x, y)
        return np.full_like(out, np.nan) if e > eps_max else out

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
        y1, y2 = y[:, 0], y[:, 1]
        return np.column_stack([
            0.5 * y1 + 0.2 * y2 + 0.1 * y1 * y2 + eps * np.sin(two_pi * x[:, 0]),
            -0.1 * y1 + 0.4 * y2 + 0.2 * y1**2 + eps * np.cos(two_pi * x[:, 0])])

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
            rows.append((e, len(x)))
            return spec.alpha(w, e, x, y)

        counted = replace(spec, alpha=alpha)
        cfg = pm.CurveConfig(n_nodes=16384, tol=1e-12, seed=2)
        reports = self._check(counted, 0.37, [1e-2, 1e-14], cfg)
        coarse = 16384 // pm.invariant_graph.COARSE_FACTOR
        # four solves of each eps ran (lone, stacked, table, loop): the
        # seeded one's report spans both levels, the other one's only the
        # fine level from zeros
        pushes = {e: [n for eps, n in rows if eps == e] for e in (1e-14, 1e-2)}
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
        # an 8-eps sweep makes max(iterations) rounds of `_sweep` and one
        # n-node alpha call per push of each eps
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
        assert calls.count(n) == sum(iterations)
        # each eps keeps its lone push count
        monkeypatch.undo()
        assert iterations == [
            pm.solve_invariant_curve(spec, 0.25, eps, cfg)[1].iterations
            for eps in eps_list]
