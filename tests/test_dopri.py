import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from perimap.dopri import (A, B, C, D, E3, E5, MAX_FACTOR, MIN_FACTOR,
                           N_STAGES, ORDER_EXP, P, SAFETY, Dopri54,
                           dense_value, integrate)
from perimap.exceptions import IntegrationError
from perimap.hybrid_ode import forced_rhs, polar_hybrid


def rotation(t, y):
    return np.stack([-2 * np.pi * y[..., 1], 2 * np.pi * y[..., 0]], axis=-1)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_error_norm(h, err):
    s5, s3 = np.sum(err * err, axis=-1)
    den = np.maximum(s5 + 0.01 * s3, np.finfo(float).tiny)
    return h * float(np.max(s5 / np.sqrt(den))) / math.sqrt(err.shape[-1])


def reference_step(st):
    """One accepted step of the `Dopri54` ``st``, written stage by stage:
    stage i is f(t + C[i] h, y + h (A[i, :i] @ k)).  Advances ``st`` as
    `Dopri54.step` does and returns (t_new, h, y_new, states, q), with the
    dense stages and q built at once."""
    shape = st.y.shape
    K = np.empty((16,) + shape)
    Kf = K.reshape(16, -1)
    states = np.empty((11,) + shape)
    y = st.y.reshape(-1)

    def stage(i, t, h, yi):
        np.add(y, h * (A[i, :i] @ Kf[:i]), out=yi)
        K[i] = st.rhs(t + C[i] * h, yi.reshape(shape))

    while True:
        remaining = st.t_end - st.t
        h = min(st.h, st.max_step, remaining)
        K[0] = st.f
        for i in range(1, 12):
            stage(i, st.t, h, states[i - 1].reshape(-1))
        y_new = y + h * (B @ Kf[:12])
        scale = np.maximum(np.abs(y), np.abs(y_new))
        scale *= st.rtol
        scale += st.atol
        err = (np.stack([E5[:12], E3[:12]]) @ Kf[:12]) / scale
        norm = reference_error_norm(h, err.reshape((2,) + shape))
        if norm <= 1.0:
            break
        st.h = h * min(1.0, max(MIN_FACTOR, SAFETY * norm ** ORDER_EXP))
        st.n_rejected += 1
    factor = MAX_FACTOR if norm == 0.0 else min(
        MAX_FACTOR, max(MIN_FACTOR, SAFETY * norm ** ORDER_EXP))
    y_new = y_new.reshape(shape)
    K[12] = st.rhs(st.t + h, y_new)
    t_old = st.t
    st.t = st.t_end if h == remaining else st.t + h
    st.y, st.f, st.h = y_new, K[12], h * factor
    yi = np.empty_like(y)
    for i in range(13, 16):
        stage(i, t_old, h, yi)
    q = Kf.T @ P
    q[:, -1] += B @ Kf[:12] - q.sum(axis=1)
    return st.t, h, y_new, states, q.reshape(shape + (7,))


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


class TestDeferredDenseOutput:
    @staticmethod
    def counted(rhs):
        calls = [0]

        def wrapped(t, y):
            calls[0] += 1
            return rhs(t, y)

        return wrapped, calls

    def test_eval_grid_builds_the_steps_it_touches(self):
        rhs, calls = self.counted(lambda t, y: -y)
        path, stats = integrate(rhs, np.array([[1.0]]), 2.0)
        assert calls[0] == stats["nfev"] and stats["n_dense"] == 0
        i = len(path.steps) // 2
        mid = 0.5 * (path.t[i] + path.t[i + 1])
        path.eval_grid([path.t[i], mid])   # one step: its start and middle
        assert calls[0] == stats["nfev"] + 3
        path.eval_grid([mid])
        assert calls[0] == stats["nfev"] + 3
        # the stats are the loop's: later dense stages do not enter them
        assert stats["n_dense"] == 0

    def test_deferred_equals_built_at_once(self):
        # the stop hook builds every step's q as it is accepted; a path
        # whose steps are built afterwards holds the same bits
        def build(step):
            step.q
            return False

        y0 = np.array([[1.0, 0.0], [0.5, 0.2]])
        now, now_stats = integrate(rotation, y0, 1.3, stop=build)
        later, later_stats = integrate(rotation, y0, 1.3)
        assert now_stats["n_dense"] == now_stats["n_steps"]
        assert later_stats["n_dense"] == 0
        assert np.array_equal(now.q, later.q)
        assert np.array_equal(now.t, later.t)

    def test_stage_states_dropped_after_the_hook(self):
        seen = []

        def stop(step):
            seen.append(step)
            assert step.states.shape == (N_STAGES - 1, 1, 1)
            return False

        path, _ = integrate(lambda t, y: -y, np.array([[1.0]]), 1.0,
                            stop=stop)
        assert seen == path.steps
        assert all(step.states is None for step in path.steps)

    def test_eval_grid_outside_the_path_raises(self):
        # y' = -y to t = 1 once gave 0.049773 at t = 3, not e**-3
        path, _ = integrate(lambda t, y: -y, np.array([[1.0]]), 1.0)
        for t in (3.0, -0.1, np.nan):
            with pytest.raises(ValueError, match="span"):
                path.eval_grid([0.5, t])

    def test_eval_grid_takes_1d_times_only(self):
        # a scalar time once raised a bare IndexError, and a (1, 2) array
        # returned a (1, 2, 2, 1) array
        path, _ = integrate(lambda t, y: -y, np.array([[1.0]]), 1.0)
        for times in (0.5, [[0.25, 0.5]]):
            with pytest.raises(ValueError, match=r"1-D, of shape \(G,\)"):
                path.eval_grid(times)
        assert path.eval_grid([0.5]).shape == (1, 1, 1)

    def test_eval_grid_on_a_path_without_steps(self):
        # t_end = 0 takes no step; this once raised IndexError
        y0 = np.array([[1.0, 2.0]])
        path, stats = integrate(rotation, y0, 0.0)
        assert stats["n_steps"] == 0
        assert path.q.shape == (0, 1, 2, 7)
        assert np.array_equal(path.eval_grid([0.0, 0.0]), np.stack([y0, y0]))
        with pytest.raises(ValueError, match="span"):
            path.eval_grid([1e-3])


class TestStageLoop:
    @pytest.mark.parametrize("lanes", [1, 3, 64])
    def test_step_equals_reference_bitwise(self, lanes):
        # the forced polar-hybrid field, lanes near its cycle; a first step
        # of 0.5 is rejected, so the retry runs too
        sys_ = polar_hybrid()
        rhs = forced_rhs(sys_, np.linspace(0.0, sys_.T_g, lanes,
                                           endpoint=False), 0.01)
        angle = np.linspace(0.0, 2.0 * np.pi, lanes, endpoint=False)
        radius = np.linspace(0.9, 1.1, lanes)
        y0 = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
        fast, ref = (Dopri54(rhs, 0.0, y0, 10.0, rtol=1e-12, atol=1e-14,
                             first_step=0.5) for _ in range(2))
        for _ in range(24):
            step = fast.step()
            t_new, h, y_new, states, q = reference_step(ref)
            assert step.t_new == t_new and step.h == h and fast.h == ref.h
            assert same_bits(step.y_new, y_new)
            assert same_bits(step.states, states)
            assert same_bits(step.q, q)
        assert fast.n_rejected == ref.n_rejected > 0


class TestStepping:
    def test_lands_exactly_on_t_end(self):
        path, _ = integrate(lambda t, y: -y, np.array([[1.0]]), 0.731)
        assert path.t[-1] == 0.731

    @pytest.mark.parametrize("y0, t_end", [([0.0, -0.911], 3.733),
                                           ([0.0, 0.0], 0.001 * 472),
                                           ([0.0, 0.0], 0.001 * 479)])
    def test_clipped_last_step_ends_on_t_end(self, y0, t_end):
        # t + (t_end - t) rounds one ulp below t_end here, which once left a
        # 4e-16 step that raised "step size underflow"
        def drift(t, y):
            return np.broadcast_to([0.0, 1.0], y.shape)

        path, _ = integrate(drift, np.array([y0]), t_end)
        assert path.t[-1] == t_end
        assert_allclose(path.y[-1, 0], [y0[0], y0[1] + t_end], rtol=0,
                        atol=1e-13)

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

        def stop(step):
            seen.append(step.t_new)
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

    def test_step_after_finish_raises(self):
        stepper = Dopri54(lambda t, y: -y, 0.0, np.array([[1.0]]), 0.1)
        while not stepper.finished:
            stepper.step()
        with pytest.raises(IntegrationError, match="stepping past t_end"):
            stepper.step()

    def test_stats_counted(self):
        stepper = Dopri54(lambda t, y: -y, 0.0, np.array([[1.0]]), 1.0)
        steps = []
        while not stepper.finished:
            steps.append(stepper.step())
        assert stepper.stats()["n_dense"] == 0
        steps[0].q
        steps[-1].q
        steps[-1].q   # built once
        s = stepper.stats()
        # startup pair, 11 fresh stages per attempt, per accepted step
        # f(t + h, y_new) (reused as the next first stage), and 3 dense
        # stages per step whose dense output was built
        assert s["n_steps"] >= 2
        assert s["n_dense"] == 2
        assert s["nfev"] == (2 + 12 * s["n_steps"] + 11 * s["n_rejected"]
                             + 3 * s["n_dense"])
