import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from perimap.dopri import A, B, C, E, P, Dopri54, integrate
from perimap.exceptions import IntegrationError


def rotation(t, y):
    return np.stack([-2 * np.pi * y[..., 1], 2 * np.pi * y[..., 0]], axis=-1)


class TestTableau:
    def test_dense_matrix_consistent_with_weights(self):
        # theta = 1 must reproduce the 5th-order endpoint
        assert_allclose(P.sum(axis=1), B, atol=1e-15)

    def test_stage_matrix_strictly_lower_triangular(self):
        assert A.shape == (7, 7)
        assert np.array_equal(A, np.tril(A, -1))

    def test_stage_rows_sum_to_nodes(self):
        assert_allclose(A.sum(axis=1), C, atol=1e-15)

    def test_last_stage_row_is_weights(self):
        # FSAL: the 7th stage is evaluated at the 5th-order solution
        assert np.array_equal(A[6], B)

    def test_error_weights_sum_to_zero(self):
        assert abs(E.sum()) <= 1e-16


class TestAccuracy:
    def test_exponential_decay(self):
        path, stats = integrate(lambda t, y: -y, np.array([[1.0]]), 2.0,
                                rtol=1e-10, atol=1e-12)
        assert abs(path.y[-1, 0, 0] - np.exp(-2.0)) < 1e-10
        assert stats["n_steps"] > 10

    def test_dense_output_between_steps(self):
        path, _ = integrate(lambda t, y: -y, np.array([[1.0]]), 2.0,
                            rtol=1e-10, atol=1e-12)
        ts = np.linspace(0.0, 2.0, 101)
        assert np.max(np.abs(path.eval_grid(ts)[:, 0, 0] - np.exp(-ts))) < 1e-9

    def test_dense_endpoints_exact(self):
        path, _ = integrate(rotation, np.array([[1.0, 0.0]]), 0.7)
        for i in (0, len(path.t) - 1):
            assert_allclose(path.eval_grid(path.t[i:i + 1])[0, 0], path.y[i, 0],
                            rtol=0, atol=5e-15)

    def test_rotation_batch_returns(self):
        y0 = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        path, _ = integrate(rotation, y0, 1.0, rtol=1e-12, atol=1e-14)
        assert np.max(np.abs(path.y[-1] - y0)) < 1e-11

    def test_against_scipy_reference(self):
        def rhs_flat(t, y):
            return [-2 * np.pi * y[1] + 0.1 * y[0] * (1 - y[0] ** 2 - y[1] ** 2),
                    2 * np.pi * y[0] + 0.1 * y[1] * (1 - y[0] ** 2 - y[1] ** 2)]

        def rhs_batch(t, y):
            r2 = y[..., 0] ** 2 + y[..., 1] ** 2
            return np.stack([-2 * np.pi * y[..., 1] + 0.1 * y[..., 0] * (1 - r2),
                             2 * np.pi * y[..., 0] + 0.1 * y[..., 1] * (1 - r2)],
                            axis=-1)

        ref = solve_ivp(rhs_flat, (0, 3), [1.3, 0.0], rtol=1e-12, atol=1e-14)
        path, _ = integrate(rhs_batch, np.array([[1.3, 0.0]]), 3.0,
                            rtol=1e-12, atol=1e-14)
        assert np.max(np.abs(path.y[-1, 0] - ref.y[:, -1])) < 1e-9

    def test_batch_matches_single(self):
        # a batched lane must agree with running the lane alone at the same
        # tolerances to integration accuracy
        y0 = np.array([[1.0, 0.0]])
        batch = np.array([[1.0, 0.0], [0.9, 0.1], [1.1, -0.2]])
        p1, _ = integrate(rotation, y0, 1.0, rtol=1e-11, atol=1e-13)
        p3, _ = integrate(rotation, batch, 1.0, rtol=1e-11, atol=1e-13)
        assert np.max(np.abs(p1.y[-1, 0] - p3.y[-1, 0])) < 1e-10

    def test_eval_lanes_matches_grid(self):
        path, _ = integrate(rotation, np.array([[1.0, 0.0], [0.5, 0.0]]), 1.0)
        t = np.array([0.33, 0.77])
        lanes = path.eval_lanes(t)
        grid0 = path.eval_grid(t[:1])[0, 0]
        grid1 = path.eval_grid(t[1:])[0, 1]
        assert_allclose(lanes[0], grid0, rtol=0, atol=0)
        assert_allclose(lanes[1], grid1, rtol=0, atol=0)


class TestStepping:
    def test_lands_exactly_on_t_end(self):
        path, _ = integrate(lambda t, y: -y, np.array([[1.0]]), 0.731)
        assert path.t[-1] == 0.731

    def test_max_step_respected(self):
        path, _ = integrate(lambda t, y: -y, np.array([[1.0]]), 1.0,
                            max_step=0.01)
        assert np.max(np.diff(path.t)) <= 0.01 + 1e-12

    def test_step_underflow_raises(self):
        def stiff_blowup(t, y):
            return y / (1.0 - t)  # singular at t = 1

        with pytest.raises(IntegrationError):
            integrate(stiff_blowup, np.array([[1.0]]), 2.0,
                      rtol=1e-10, atol=1e-12)

    def test_stats_counted(self):
        stepper = Dopri54(lambda t, y: -y, 0.0, np.array([[1.0]]), 1.0)
        while not stepper.finished:
            stepper.step()
        s = stepper.stats()
        # FSAL: six fresh evaluations per attempted step plus the startup pair
        assert s["n_steps"] >= 1 and s["nfev"] >= 6 * s["n_steps"]
