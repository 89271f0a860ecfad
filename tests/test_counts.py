"""Sample and lane counts below 1 raise `ValueError` before any evaluation."""
import numpy as np
import pytest

import perimap as pm
from perimap import cycle_analysis, poincare


def _boom(*args, **kwargs):
    raise AssertionError("evaluated before the count was checked")


BOOM_MAP = pm.MapSpec(k1=1, k2=1, r1=1.0, alpha=_boom, beta=_boom,
                      periodic_coord=1, period=1.0)
BOOM_HYBRID = pm.HybridSystem(dim=2, X=_boom, g=_boom, Delta=_boom, H=_boom,
                              D=_boom, D_inverse=_boom, T_g=0.8, r1=0.5)
BOOM_HANDLE = poincare.PoincareHandle(sys=BOOM_HYBRID, event=pm.EventConfig(),
                                      max_time=10.0, rtol=1e-10, atol=1e-12)
FLAT = pm.PeriodicGridFn.zeros(1.0, 8)
NORM = pm.adapted_norm(np.array([[0.5]]))


@pytest.mark.parametrize("name, call", [
    ("n_samples", lambda: pm.check_forcing_period(BOOM_HYBRID, n_samples=0)),
    ("n_samples", lambda: pm.invariance_residual(BOOM_MAP, 0.25, 0.01, FLAT,
                                                 n_samples=0)),
    ("n_trajectories", lambda: pm.attraction_test(
        BOOM_MAP, 0.25, 0.01, FLAT, n_trajectories=0)),
    ("n_samples", lambda: poincare.certify_returns(BOOM_HANDLE, n_samples=0)),
    ("n_samples", lambda: cycle_analysis.certify_contraction(
        BOOM_HANDLE, 0.1, (0.0, 0.0), NORM, n_samples=0)),
    ("n_samples", lambda: cycle_analysis.largest_contracting_radius(
        BOOM_HANDLE, (0.0, 0.0), NORM, n_samples=0)),
    ("us", lambda: pm.p_eps_batch(BOOM_HANDLE, [], np.zeros((0, 1)), 0.0)),
    ("vs", lambda: pm.flow_batch(BOOM_HYBRID, [0.0], np.zeros((0, 2)), 0.0,
                                 event=pm.EventConfig())),
], ids=["check_forcing_period", "invariance_residual", "attraction_test",
        "certify_returns", "certify_contraction", "largest_contracting_radius",
        "p_eps_batch", "flow_batch"])
def test_count_below_one_rejected(name, call):
    with pytest.raises(ValueError, match=rf"\b{name}\b.*at least 1, got 0"):
        call()
