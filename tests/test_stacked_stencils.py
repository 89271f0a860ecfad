"""The stacked difference stencils of `embedding._tilde_sup` and
`map_core.check_assumptions` against per-probe references.

Every row of every (omega, eps) group, the centre and all probes, the
omega and eps probes included, rides in one evaluator call, each row with
its own (omega, eps) columns.  The references below evaluate every probe
of every group in a call of its own at scalar (omega, eps); for evaluators
that treat rows independently both must give the same bits.
"""
import json

import numpy as np
import pytest

import perimap as pm
from perimap import embedding as emb
from perimap import map_core
from perimap.numdiff import first_step, second_step
from perimap.sampling import stratified_groups


def _plane_map():
    """k2 = 2 with the non-diagonal B = beta_y(0) = [[0.3, 0.2], [-0.1, 0.4]],
    nonlinear in x and y; alpha and beta use a matrix product over rows."""
    B = np.array([[0.3, 0.2], [-0.1, 0.4]])

    def alpha(omega, eps, x, y):
        return 1.0 + 0.2 * eps * np.cos(2 * np.pi * x) * (1.0 + y[:, :1])

    def beta(omega, eps, x, y):
        return (y @ B.T + 0.1 * eps * y**2
                + eps * np.column_stack([np.sin(2 * np.pi * x[:, 0]),
                                         y[:, 0] * y[:, 1]]))

    return pm.MapSpec(k1=1, k2=2, r1=1.0, alpha=alpha, beta=beta,
                      periodic_coord=1, period=1.0, label="plane")


MAPS = {
    "linear-shear": pm.linear_shear,
    "nonlinear-toy": pm.nonlinear_toy,
    "strong-toy": lambda: pm.nonlinear_toy(advance_coupling=3.0,
                                           y2_coupling=2.0),
    "plane": _plane_map,
}


# ----------------------------------------------------------------------------
# per-probe references
# ----------------------------------------------------------------------------

def _groups(spec, *args):
    """The groups of `stratified_groups` as (omega, eps, X, Y), the group's
    omega and eps as scalars."""
    for Z in stratified_groups(*args, spec.k1, spec.k2):
        yield (float(Z[0, 0]), float(Z[0, 1]), Z[:, 2:2 + spec.k1],
               Z[:, 2 + spec.k1:])


def _tilde_sup_per_probe(spec, lam, eps_range, x_range, n_samples, seed):
    """`embedding._tilde_sup` with one `_tilde_batch` call per probe."""
    n_top = spec.k1 + 2
    y_max = spec.r1 / lam
    coords = [(0, None), (1, None)] + [(2, c) for c in range(spec.k1)] + [
        (3, c) for c in range(spec.k2)]
    sup_a = sup_b = 0.0
    for args in _groups(spec, np.random.default_rng(seed), n_samples, 4,
                        (-1.0 / lam, 2.0 / lam), eps_range, x_range,
                        spec.r1):
        t0 = emb._tilde_batch(spec, lam, *args)
        sq = args[3]**2
        edge = np.sqrt(np.maximum(
            y_max * y_max - (sq.sum(axis=1, keepdims=True) - sq), 0.0))
        J = np.zeros(t0.shape + (len(coords),))
        for j, (a, c) in enumerate(coords):
            plus, minus = list(args), list(args)
            if c is None:
                h = float(first_step(args[a]))
                plus[a], minus[a] = args[a] + h, args[a] - h
                span = 2.0 * h
            else:
                col = args[a][:, c]
                h = float(first_step(np.max(np.abs(col)) if a == 2 else 1.0))
                up, down, span = col + h, col - h, 2.0 * h
                if a == 3:
                    up = np.minimum(up, edge[:, c])
                    down = np.maximum(down, -edge[:, c])
                    span = (up - down)[:, None]
                plus[a], minus[a] = args[a].copy(), args[a].copy()
                plus[a][:, c], minus[a][:, c] = up, down
            J[:, :, j] = (emb._tilde_batch(spec, lam, *plus)
                          - emb._tilde_batch(spec, lam, *minus)) / span
        map_core.require_finite(t0, J)
        na = np.linalg.norm(t0[:, :n_top], axis=1) + np.linalg.svd(
            J[:, :n_top], compute_uv=False)[:, 0]
        nb = np.linalg.norm(t0[:, n_top:], axis=1) + np.linalg.svd(
            J[:, n_top:], compute_uv=False)[:, 0]
        sup_a = max(sup_a, float(np.max(na)))
        sup_b = max(sup_b, float(np.max(nb)))
    return sup_a, sup_b


def _diff_sups_per_probe(fun, omega, eps, X, Y):
    """`map_core._coordinate_diff_sups` with one ``fun`` call per probe."""
    args = (omega, eps, X, Y)
    f0 = fun(*args)
    sup_d1 = sup_d2 = np.zeros(f0.shape[1])

    def shifted(a, j, step):
        moved = list(args)
        if j is None:
            moved[a] = args[a] + step
        else:
            moved[a] = args[a].copy()
            moved[a][:, j] += step
        return fun(*moved)

    coords = [(0, None), (1, None)] + [(a, j) for a in (2, 3)
                                       for j in range(args[a].shape[1])]
    for a, j in coords:
        scale = args[a] if j is None else max(
            1.0, float(np.max(np.abs(args[a][:, j]))))
        h1, h2 = float(first_step(scale)), float(second_step(scale))
        plus1, minus1, plus2, minus2 = (shifted(a, j, step)
                                        for step in (h1, -h1, h2, -h2))
        sup_d1 = np.maximum(sup_d1, np.max(np.abs(plus1 - minus1) / (2.0 * h1),
                                           axis=0))
        sup_d2 = np.maximum(sup_d2, np.max(
            np.abs(plus2 - 2.0 * f0 + minus2) / h2**2, axis=0))
    return f0, sup_d1, sup_d2


def _check_assumptions_per_probe(spec, n_samples, seed):
    """`map_core.check_assumptions` on the default box with one evaluator
    call per probe and a call of its own for the periodicity rows."""
    box = map_core.SamplingBox()
    rng = np.random.default_rng(seed)
    k1 = spec.k1

    def both(w, e, X, Y):
        return np.hstack(map_core.eval_batch(spec, w, e, X, Y))

    q_estimate = map_core.pairwise_q(spec, rng, n_samples, spec.r1)
    _, beta_0, B = map_core.origin(spec)
    sv = np.linalg.svd(B, compute_uv=False)
    invertible = bool(sv[-1] > 1e-12 * max(1.0, float(sv[0])))
    a2 = float(np.linalg.norm(beta_0))
    per = 0.0
    sup = d1 = d2 = np.zeros(k1 + spec.k2)
    shift = np.zeros(k1)
    shift[spec.periodic_coord - 1] = spec.period
    for w, e, X, Y in _groups(spec, rng, n_samples, 2, box.omega,
                              (-spec.r1, spec.r1), box.x, spec.r1):
        a2_g = float(np.max(np.abs(both(w, 0.0, X, Y)
                                   - both(0.0, 0.0, np.zeros_like(X), Y))))
        f, d1_g, d2_g = _diff_sups_per_probe(both, w, e, X, Y)
        per_g = float(np.max(np.abs(both(w, e, X + shift, Y) - f)))
        map_core.require_finite(f, d1_g, d2_g, a2_g, per_g)
        a2, per = max(a2, a2_g), max(per, per_g)
        sup = np.maximum(sup, np.max(np.abs(f), axis=0))
        d1, d2 = np.maximum(d1, d1_g), np.maximum(d2, d2_g)
    bounds = {
        "sup_alpha": float(np.max(sup[:k1])),
        "sup_beta": float(np.max(sup[k1:])),
        "sup_dalpha": float(np.max(d1[:k1])),
        "sup_dbeta": float(np.max(d1[k1:])),
        "sup_d2alpha": float(np.max(d2[:k1])),
        "sup_d2beta": float(np.max(d2[k1:])),
    }
    return map_core.AssumptionReport(
        q_estimate=q_estimate, beta_y0=B, beta_y0_invertible=invertible,
        a2_defect=a2, periodicity_defect=per, bounds=bounds,
        n_samples=int(n_samples), seed=int(seed))


# ----------------------------------------------------------------------------
# bit-for-bit agreement
# ----------------------------------------------------------------------------

def _hex(values):
    """The exact bits of floats, nested in lists and dicts."""
    return json.loads(json.dumps(values), parse_float=lambda s: float(s).hex())


@pytest.mark.parametrize("name", MAPS)
@pytest.mark.parametrize("lam", [1.0, 0.25, 2.0**-5])
def test_tilde_sup_matches_per_probe(name, lam):
    spec = MAPS[name]()
    args = (spec, lam, (-spec.r1, spec.r1), (0.0, spec.period), 32, 1)
    got = emb._tilde_sup(spec, lam, emb._remainder_groups(spec, *args[2:]))
    assert [v.hex() for v in got] == [
        v.hex() for v in _tilde_sup_per_probe(*args)]


@pytest.mark.parametrize("name", MAPS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_assumptions_matches_per_probe(name, seed):
    spec = MAPS[name]()
    got = pm.check_assumptions(spec, n_samples=32, seed=seed)
    ref = _check_assumptions_per_probe(spec, 32, seed)
    assert _hex(got.to_json_dict()) == _hex(ref.to_json_dict())


# ----------------------------------------------------------------------------
# evaluator calls of a whole stencil
# ----------------------------------------------------------------------------

class _Counted:
    """A spec whose alpha counts its calls and rows."""

    def __init__(self, spec):
        self.calls = self.rows = 0
        self.spec = pm.MapSpec(
            k1=spec.k1, k2=spec.k2, r1=spec.r1, alpha=self._alpha(spec.alpha),
            beta=spec.beta, periodic_coord=spec.periodic_coord,
            period=spec.period)
        map_core.origin(self.spec)  # the constants, outside the count
        self.calls = self.rows = 0

    def _alpha(self, fn):
        def alpha(omega, eps, x, y):
            self.calls += 1
            self.rows += len(x)
            return fn(omega, eps, x, y)
        return alpha


@pytest.mark.parametrize("name", ["nonlinear-toy", "plane"])
def test_tilde_sup_calls_per_group(name):
    """The centre and the +/- probes of every coordinate of all groups in
    one call per rung, whatever k1 and k2."""
    counted = _Counted(MAPS[name]())
    spec = counted.spec
    emb._tilde_sup(spec, 0.25, emb._remainder_groups(
        spec, (-1.0, 1.0), (0.0, 1.0), 64, 0))
    n_groups = 8  # max(4, min(8, 64 // 4))
    assert counted.calls == 1
    # the rows are those of one call per probe: centre, then +/- each column
    m = 64 // n_groups
    assert counted.rows == n_groups * m * (1 + 2 * (2 + spec.k1 + spec.k2))


@pytest.mark.parametrize("name", ["nonlinear-toy", "plane"])
def test_check_assumptions_calls_per_group(name):
    """One call after the one of `pairwise_q` for the centre, the +/-h1
    and +/-h2 probes of every coordinate, the two a2 blocks and the
    periodicity rows of all groups."""
    counted = _Counted(MAPS[name]())
    spec = counted.spec
    pm.check_assumptions(spec, n_samples=64, seed=0)
    n_groups = 8  # max(2, min(8, 64 // 4))
    assert counted.calls == 1 + 1
    m = 64 // n_groups
    per_probe_rows = 2 + 1 + 4 * (2 + spec.k1 + spec.k2) + 1
    assert counted.rows == 64 + n_groups * m * per_probe_rows
