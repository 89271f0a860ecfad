import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from perimap.dopri import (A, B, C, D, E3, E5, N_STAGES, Dopri54, dense_value,
                           integrate)
from perimap.exceptions import IntegrationError


def rotation(t, y):
    return np.stack([-2 * np.pi * y[..., 1], 2 * np.pi * y[..., 0]], axis=-1)


class TestTableau:
    def test_constants_match_scipy(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        assert N_STAGES == ref.N_STAGES
        for mine, theirs in ((A, ref.A), (C, ref.C), (B, ref.B),
                             (E3, ref.E3), (E5, ref.E5), (D, ref.D)):
            assert mine.shape == theirs.shape
            assert np.array_equal(mine, theirs)

    def test_stage_matrix_strictly_lower_triangular(self):
        assert A.shape == (16, 16)
        assert np.array_equal(A, np.tril(A, -1))

    def test_stage_rows_sum_to_nodes(self):
        assert_allclose(A.sum(axis=1), C, atol=1e-15)

    def test_last_stage_row_is_weights(self):
        # stage 12 is evaluated at the 8th-order solution and reused as the
        # next step's first stage
        assert np.array_equal(A[12, :12], B)

    def test_error_weights_sum_to_zero(self):
        assert abs(E3.sum()) <= 1e-15
        assert abs(E5.sum()) <= 1e-15


class TestDenseOutput:
    @pytest.fixture(scope="class")
    def path(self):
        y0 = np.array([[1.0, 0.0], [0.3, 0.9]])
        path, stats = integrate(rotation, y0, 0.7)
        assert stats["n_steps"] > 3
        assert path.q.shape[-1] == 7      # seventh degree in theta
        return path

    @staticmethod
    def _at(path, i, theta):
        powers = theta ** np.arange(1, path.q.shape[-1] + 1)
        return path.y[i] + path.h[i] * (path.q[i] @ powers)

    def test_reproduces_step_ends(self, path):
        for i in range(len(path.h)):
            assert np.array_equal(self._at(path, i, 0.0), path.y[i])
            assert_allclose(self._at(path, i, 1.0), path.y[i + 1],
                            rtol=0, atol=5e-15)

    def test_start_slope_is_h_f_old(self, path):
        # d/dtheta of y + h sum_p q_p theta**p at theta = 0 is h q_1
        for i in range(len(path.h)):
            assert_allclose(path.h[i] * path.q[i, ..., 0],
                            path.h[i] * rotation(path.t[i], path.y[i]),
                            rtol=1e-14, atol=1e-15)


class TestAccuracy:
    def test_exponential_decay(self):
        path, stats = integrate(lambda t, y: -y, np.array([[1.0]]), 2.0,
                                rtol=1e-10, atol=1e-12)
        assert abs(path.y[-1, 0, 0] - np.exp(-2.0)) < 1e-10
        _, loose = integrate(lambda t, y: -y, np.array([[1.0]]), 2.0,
                             rtol=1e-6, atol=1e-8)
        assert 1 < loose["n_steps"] < stats["n_steps"]

    def test_eighth_order_convergence(self):
        # fixed steps h = 1, 1/2, 1/4 on y' = -y over [0, 4]: the global
        # error must fall by about 2**8 per halving
        errs = []
        for h in (1.0, 0.5, 0.25):
            path, _ = integrate(lambda t, y: -y, np.array([[1.0]]), 4.0,
                                rtol=1.0, atol=1.0, max_step=h, first_step=h)
            assert_allclose(np.diff(path.t), h, rtol=0, atol=1e-15)
            errs.append(abs(path.y[-1, 0, 0] - np.exp(-4.0)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all((orders > 7.5) & (orders < 8.7)), orders

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

    def test_dense_value_matches_grid(self):
        # lane i evaluated alone on its own step, bitwise as in eval_grid
        path, _ = integrate(rotation, np.array([[1.0, 0.0], [0.5, 0.0]]), 1.0)
        for lane, t in ((0, 0.33), (1, 0.77)):
            i = np.searchsorted(path.t, t, side="right") - 1
            h = path.t[i + 1] - path.t[i]
            own = dense_value(path.y[i, lane], path.q[i, lane], h,
                              (t - path.t[i]) / h)
            assert np.array_equal(own, path.eval_grid([t])[0, lane])


class TestStepping:
    def test_lands_exactly_on_t_end(self):
        path, _ = integrate(lambda t, y: -y, np.array([[1.0]]), 0.731)
        assert path.t[-1] == 0.731

    def test_max_step_respected(self):
        path, _ = integrate(lambda t, y: -y, np.array([[1.0]]), 1.0,
                            max_step=0.01)
        assert np.max(np.diff(path.t)) <= 0.01 + 1e-12

    def test_stop_hook_ends_after_step_k(self):
        y0 = np.array([[1.0, 0.0], [0.5, 0.2]])
        full, _ = integrate(rotation, y0, 3.0)
        k = 5
        assert len(full.t) > k + 2
        seen = []

        def stop(t_old, t_new, y_old, y_new, q):
            seen.append(t_new)
            return len(seen) == k

        path, stats = integrate(rotation, y0, 3.0, stop=stop)
        assert len(path.t) == k + 1
        assert stats["n_steps"] == k
        assert np.array_equal(path.t, full.t[:k + 1])
        assert np.array_equal(path.y, full.y[:k + 1])
        assert np.array_equal(path.q, full.q[:k])

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
        # startup pair, 11 fresh stages per attempt, and per accepted step
        # f(t + h, y_new) (reused as the next first stage) plus 3 dense stages
        assert s["n_steps"] >= 1
        assert s["nfev"] == 2 + 15 * s["n_steps"] + 11 * s["n_rejected"]
