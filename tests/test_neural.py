import math

import numpy as np
import pytest

from rumourmtl import neural
from rumourmtl.neural import (
    OptimizerState,
    cross_entropy,
    dropout_backward,
    dropout_forward,
    grad_check,
    init_lstm_layer,
    l2_penalty,
    load_params,
    lstm_backward,
    lstm_forward,
    lstm_tree_backward,
    lstm_tree_forward,
    optimizer_init,
    optimizer_step,
    save_params,
    softmax,
)


def scalar_lstm_reference(params, x, mask):
    """Independent step-by-step scalar-loop evaluation of the recurrence."""
    T, d = x.shape
    h_dim = params["Wh"].shape[0]
    h = [0.0] * h_dim
    c = [0.0] * h_dim
    out = []
    for t in range(T):
        z = [params["b"][j] for j in range(4 * h_dim)]
        for j in range(4 * h_dim):
            for k in range(d):
                z[j] += x[t, k] * params["Wx"][k, j]
            for k in range(h_dim):
                z[j] += h[k] * params["Wh"][k, j]
        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        i = [sig(z[j]) for j in range(h_dim)]
        f = [sig(z[h_dim + j]) for j in range(h_dim)]
        o = [sig(z[2 * h_dim + j]) for j in range(h_dim)]
        g = [math.tanh(z[3 * h_dim + j]) for j in range(h_dim)]
        if mask[t]:
            c = [f[j] * c[j] + i[j] * g[j] for j in range(h_dim)]
            h = [o[j] * math.tanh(c[j]) for j in range(h_dim)]
        out.append(list(h))
    return np.array(out)


def stepwise_lstm_forward(params, x, mask):
    """Reference recurrence: the input projection inside the loop, one
    sigmoid per gate."""
    B, T, _ = x.shape
    h_dim = params["Wh"].shape[0]
    h = np.zeros((B, h_dim))
    c = np.zeros((B, h_dim))
    hs = np.zeros((B, T, h_dim))
    cache = []
    for t in range(T):
        z = x[:, t] @ params["Wx"] + h @ params["Wh"] + params["b"]
        i = 1.0 / (1.0 + np.exp(-z[:, :h_dim]))
        f = 1.0 / (1.0 + np.exp(-z[:, h_dim:2 * h_dim]))
        o = 1.0 / (1.0 + np.exp(-z[:, 2 * h_dim:3 * h_dim]))
        g = np.tanh(z[:, 3 * h_dim:])
        c_hat = f * c + i * g
        m = mask[:, t].astype(float)[:, None]
        cache.append((x[:, t], h, c, i, f, o, g, np.tanh(c_hat), m))
        c = m * c_hat + (1.0 - m) * c
        h = m * o * np.tanh(c_hat) + (1.0 - m) * h
        hs[:, t] = h
    return hs, cache


def stepwise_lstm_backward(params, cache, d_hs):
    """Reference backward pass: ``dx`` and every weight gradient per step."""
    B, T, h_dim = d_hs.shape
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dx = np.zeros((B, T, params["Wx"].shape[0]))
    dh = np.zeros((B, h_dim))
    dc = np.zeros((B, h_dim))
    for t in reversed(range(T)):
        xt, h_prev, c_prev, i, f, o, g, tanh_c, m = cache[t]
        dh = dh + d_hs[:, t]
        dh_hat = m * dh
        dc_hat = m * dc + dh_hat * o * (1.0 - tanh_c ** 2)
        dz = np.concatenate([dc_hat * g * i * (1.0 - i), dc_hat * c_prev * f * (1.0 - f),
                             dh_hat * tanh_c * o * (1.0 - o), dc_hat * i * (1.0 - g ** 2)],
                            axis=1)
        dc = dc_hat * f + (1.0 - m) * dc
        grads["Wx"] += xt.T @ dz
        grads["Wh"] += h_prev.T @ dz
        grads["b"] += dz.sum(axis=0)
        dx[:, t] = dz @ params["Wx"].T
        dh = dz @ params["Wh"].T + (1.0 - m) * dh
    return dx, grads


def textbook_adam(params, grads, m, v, t, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Reference update on copies: returns the new params, m and v."""
    m = {k: b1 * m[k] + (1.0 - b1) * grads[k] for k in params}
    v = {k: b2 * v[k] + (1.0 - b2) * (grads[k] * grads[k]) for k in params}
    new = {k: params[k] - lr * (m[k] / (1.0 - b1 ** t))
           / (np.sqrt(v[k] / (1.0 - b2 ** t)) + eps) for k in params}
    return new, m, v


class TestSoftmaxCrossEntropy:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((10, 7))
        p = softmax(z)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(p > 0) and np.all(p < 1)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(5)
        assert np.max(np.abs(softmax(z) - softmax(z + 123.456))) < 1e-12

    def test_large_logits_no_overflow(self):
        np.testing.assert_allclose(softmax(np.array([1000.0, 1000.0, 1000.0])),
                                   [1 / 3, 1 / 3, 1 / 3])

    def test_cross_entropy_certain(self):
        assert cross_entropy(np.array([1.0, 0.0, 0.0]), 0) == 0.0

    def test_cross_entropy_clipped(self):
        loss = cross_entropy(np.array([0.0, 1.0]), 0)
        assert loss == pytest.approx(-math.log(1e-12))
        assert loss < 28.0

    def test_gold_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(np.array([0.5, 0.5]), 2)


class TestLSTM:
    def test_zero_params_zero_states(self):
        params = {"Wx": np.zeros((3, 8)), "Wh": np.zeros((2, 8)), "b": np.zeros(8)}
        x = np.random.default_rng(0).standard_normal((1, 4, 3))
        hs, _ = lstm_forward(params, x, np.ones((1, 4), dtype=bool))
        np.testing.assert_array_equal(hs, 0.0)

    def test_masked_step_carries_state(self):
        rng = np.random.default_rng(2)
        params = init_lstm_layer(rng, 3, 4)
        x = rng.standard_normal((1, 2, 3))
        mask = np.array([[True, False]])
        hs, _ = lstm_forward(params, x, mask)
        np.testing.assert_array_equal(hs[0, 1], hs[0, 0])

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(3)
        params = init_lstm_layer(rng, 3, 5)
        x = rng.standard_normal((2, 2, 3))
        mask = np.ones((2, 2), dtype=bool)
        hs, _ = lstm_forward(params, x, mask)
        for b in range(2):
            ref = scalar_lstm_reference(params, x[b], mask[b])
            assert np.max(np.abs(hs[b] - ref)) < 1e-12

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        params = init_lstm_layer(rng, 2, 3)
        x = rng.standard_normal((2, 3, 2))
        mask = np.array([[True, True, False], [True, True, True]])
        proj = rng.standard_normal(3)

        def loss_of(p):
            hs, _ = lstm_forward(p, x, mask)
            return float(np.sum(hs @ proj))

        hs, cache = lstm_forward(params, x, mask)
        d_hs = np.broadcast_to(proj, hs.shape).copy()
        _, analytic = lstm_backward(params, cache, d_hs)
        report = grad_check(loss_of, params, analytic)
        assert max(report.values()) < 1e-6

    def test_masked_inputs_get_zero_gradient(self):
        rng = np.random.default_rng(5)
        params = init_lstm_layer(rng, 2, 3)
        x = rng.standard_normal((1, 3, 2))
        mask = np.array([[True, False, True]])
        hs, cache = lstm_forward(params, x, mask)
        dx, _ = lstm_backward(params, cache, np.ones_like(hs))
        assert np.max(np.abs(dx[0, 1])) < 1e-10

    @pytest.mark.parametrize("B,T,d,h", [(5, 6, 4, 3), (3, 1, 4, 3), (4, 4, 7, 5)])
    def test_matches_stepwise_reference(self, B, T, d, h):
        rng = np.random.default_rng(B * 100 + T)
        params = init_lstm_layer(rng, d, h)
        params["b"] += rng.standard_normal(4 * h)
        x = 2.0 * rng.standard_normal((B, T, d))
        mask = rng.random((B, T)) < 0.7   # random holes
        mask[0] = False
        mask[0, 0] = True                  # a length-1 row
        if T > 2:
            mask[1, T - 2:] = False        # trailing padding
        d_hs = rng.standard_normal((B, T, h))
        hs, cache = lstm_forward(params, x, mask)
        ref_hs, ref_cache = stepwise_lstm_forward(params, x, mask)
        assert np.max(np.abs(hs - ref_hs)) < 1e-12
        dx, grads = lstm_backward(params, cache, d_hs)
        ref_dx, ref_grads = stepwise_lstm_backward(params, ref_cache, d_hs)
        assert np.max(np.abs(dx - ref_dx)) < 1e-12
        for name in params:
            assert np.max(np.abs(grads[name] - ref_grads[name])) < 1e-12, name

    def test_skipped_input_gradient_leaves_weight_gradients(self):
        rng = np.random.default_rng(9)
        params = init_lstm_layer(rng, 4, 3)
        x = rng.standard_normal((5, 6, 4))
        mask = rng.random((5, 6)) < 0.7
        mask[:, 0] = True
        hs, cache = lstm_forward(params, x, mask)
        d_hs = rng.standard_normal(hs.shape)
        dx, grads = lstm_backward(params, cache, d_hs)
        skipped_dx, skipped = lstm_backward(params, cache, d_hs, input_grad=False)
        assert dx.shape == x.shape and skipped_dx is None
        for name in params:
            assert np.array_equal(skipped[name], grads[name]), name

    def test_tree_backward_matches_finite_differences(self):
        # Two roots (0, 1); root 0 has two children (2, 3) in one level, root
        # 1 one child (4); node 5 under node 2 and node 6, depth 3, under 5.
        parent = np.array([-1, -1, 0, 0, 1, 2, 5])
        levels = [0, 2, 5, 6, 7]
        rng = np.random.default_rng(11)
        params = init_lstm_layer(rng, 3, 4)
        params["b"] += rng.standard_normal(16)
        x = rng.standard_normal((7, 3))
        proj = rng.standard_normal((7, 4))

        def loss_of(p, inputs=x):
            return float(np.sum(lstm_tree_forward(p, inputs, parent, levels)[0] * proj))

        _, cache = lstm_tree_forward(params, x, parent, levels)
        dx, analytic = lstm_tree_backward(params, cache, proj)
        assert max(grad_check(loss_of, params, analytic).values()) < 1e-6
        numeric_dx = neural.finite_difference_grads(lambda p: loss_of(params, p["x"]), {"x": x})
        assert np.max(np.abs(dx - numeric_dx["x"])) < 1e-8

    def test_masked_batch_backward_matches_tree_backward(self):
        """``lstm_backward`` equals the tree backward over a forest of the
        batch's live cells built here, each the child of the last live cell
        before it in its row and given the gradients of the cells showing it."""
        rng = np.random.default_rng(12)
        B, T, d, h = 4, 5, 3, 4
        params = init_lstm_layer(rng, d, h)
        x = rng.standard_normal((B, T, d))
        mask = rng.random((B, T)) < 0.6
        mask[0] = [False, True, False, True, True]
        d_hs = rng.standard_normal((B, T, h))
        cells, parent, d_h = [], [], []
        for t in range(T):
            for b in range(B):
                if mask[b, t]:
                    before = [cells.index((b, u)) for u in range(t) if mask[b, u]]
                    parent.append(before[-1] if before else -1)
                    cells.append((b, t))
                    until = next((u for u in range(t + 1, T) if mask[b, u]), T)
                    d_h.append(d_hs[b, t:until].sum(axis=0))
        levels = np.searchsorted([t for _, t in cells], np.arange(T + 1))
        rows, steps = (np.array(a) for a in zip(*cells))
        h_nodes, tree = lstm_tree_forward(params, x[rows, steps], np.array(parent), levels)
        tree_dx, tree_grads = lstm_tree_backward(params, tree, np.array(d_h))
        hs, cache = lstm_forward(params, x, mask)
        dx, grads = lstm_backward(params, cache, d_hs)
        assert np.max(np.abs(hs[rows, steps] - h_nodes)) < 1e-12
        assert np.max(np.abs(dx[rows, steps] - tree_dx)) < 1e-12
        assert not dx[~mask].any()
        for name in params:
            assert np.max(np.abs(grads[name] - tree_grads[name])) < 1e-12, name

    def test_fully_masked_row_gives_zero_states_and_input_gradient(self):
        rng = np.random.default_rng(13)
        params = init_lstm_layer(rng, 3, 4)
        x = rng.standard_normal((3, 4, 3))
        mask = np.ones((3, 4), dtype=bool)
        mask[1] = False
        hs, cache = lstm_forward(params, x, mask)
        dx, _ = lstm_backward(params, cache, rng.standard_normal(hs.shape))
        assert not hs[1].any() and not dx[1].any()
        assert hs[0].any() and dx[0].any()

    def test_sigmoid_saturates_without_overflow(self):
        x = np.array([-1000.0, -40.0, -0.0, 0.0, 3.0, 1000.0])
        with np.errstate(over="raise"):
            y = neural.sigmoid(x)
        np.testing.assert_array_equal(y[[0, 2, 3, 5]], [0.0, 0.5, 0.5, 1.0])
        np.testing.assert_allclose(y[[1, 4]], [math.exp(-40.0) / (1.0 + math.exp(-40.0)),
                                               1.0 / (1.0 + math.exp(-3.0))], rtol=1e-15)


class TestDropout:
    def test_p_zero_identity(self):
        x = np.ones((3, 3))
        y, mask = dropout_forward(x, 0.0)
        assert mask is None
        np.testing.assert_array_equal(y, x)

    def test_inverted_scaling(self):
        rng = np.random.default_rng(6)
        x = np.ones((1000, 10))
        y, mask = dropout_forward(x, 0.5, rng=rng)
        assert set(np.unique(y)) == {0.0, 2.0}
        assert abs(y.mean() - 1.0) < 0.1

    def test_backward_uses_recorded_mask(self):
        rng = np.random.default_rng(7)
        x = np.ones((4, 4))
        _, mask = dropout_forward(x, 0.5, rng=rng)
        d = dropout_backward(np.ones_like(x), mask)
        np.testing.assert_array_equal(d, mask)


class TestL2:
    def test_penalty_and_gradient(self):
        params = {"w": np.array([1.0, -2.0])}
        lam = 0.1
        assert l2_penalty(params, lam) == pytest.approx(0.5)
        grads = {}
        neural.add_l2_grads(params, grads, lam)
        np.testing.assert_allclose(grads["w"], [0.2, -0.4])
        existing = grads["w"]
        neural.add_l2_grads(params, grads, lam)
        assert grads["w"] is existing
        np.testing.assert_allclose(existing, [0.4, -0.8])


class TestOptimizer:
    def test_zero_gradients_no_change(self):
        params = {"w": np.array([1.0, 2.0])}
        state = optimizer_init(params)
        optimizer_step(params, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(params["w"], [1.0, 2.0])

    def test_descent_on_square(self):
        params = {"t": np.array([1.0])}
        state = optimizer_init(params)
        optimizer_step(params, {"t": 2.0 * params["t"]}, state)
        assert params["t"][0] ** 2 < 1.0

    def test_converges_on_quadratic(self):
        # f(t) = (t - t*)' A (t - t*) with known optimum
        A = np.array([[3.0, 0.5], [0.5, 1.0]])
        t_star = np.array([0.7, -1.3])
        params = {"t": np.zeros(2)}
        state = optimizer_init(params, lr=1e-2)
        for _ in range(500):
            grad = 2.0 * A @ (params["t"] - t_star)
            optimizer_step(params, {"t": grad}, state)
        assert np.linalg.norm(params["t"] - t_star) < 1e-3

    def test_non_finite_gradient_names_block(self):
        params = {"blockname": np.array([1.0])}
        state = optimizer_init(params)
        with pytest.raises(FloatingPointError, match="blockname"):
            optimizer_step(params, {"blockname": np.array([np.nan])}, state)

    @staticmethod
    def adam_case(rng):
        return {"big": rng.standard_normal(2 * (1 << 14) + 37),
                "rows": rng.standard_normal((700, 50)),
                "wide": rng.standard_normal((2, 20000)),
                "T": rng.standard_normal((60, 40)).T,        # not C-contiguous
                "bias": rng.standard_normal(3)}

    def test_matches_textbook_update(self):
        rng = np.random.default_rng(20)
        params = self.adam_case(rng)
        assert not params["T"].flags.c_contiguous
        state = optimizer_init(params)
        ref = {k: p.copy() for k, p in params.items()}
        m = {k: np.zeros(p.shape) for k, p in params.items()}
        v = {k: np.zeros(p.shape) for k, p in params.items()}
        for t in range(1, 4):
            grads = {k: rng.standard_normal(p.shape) for k, p in params.items()}
            grads["T"] = np.ascontiguousarray(grads["T"].T).T
            ref, m, v = textbook_adam(ref, grads, m, v, t)
            optimizer_step(params, grads, state)
            assert state.t == t
            for k in params:
                np.testing.assert_array_equal(params[k], ref[k])
                np.testing.assert_array_equal(state.m[k], m[k])
                np.testing.assert_array_equal(state.v[k], v[k])

    def test_grads_aliasing_params(self):
        rng = np.random.default_rng(21)
        params = self.adam_case(rng)
        before = {k: p.copy() for k, p in params.items()}
        zeros = {k: np.zeros(p.shape) for k, p in params.items()}
        ref, _, _ = textbook_adam(before, before, zeros, zeros, 1)
        optimizer_step(params, params, optimizer_init(params))
        for k in params:
            np.testing.assert_array_equal(params[k], ref[k])

    def test_non_finite_gradient_writes_nothing(self):
        rng = np.random.default_rng(22)
        params = {"a": rng.standard_normal((40, 30)), "z": rng.standard_normal(5)}
        state = optimizer_init(params)
        optimizer_step(params, {k: np.ones(p.shape) for k, p in params.items()}, state)
        snapshot = ({k: p.copy() for k, p in params.items()},
                    {k: p.copy() for k, p in state.m.items()},
                    {k: p.copy() for k, p in state.v.items()})
        bad = {"a": np.ones((40, 30)), "z": np.array([1.0, np.inf, 1.0, 1.0, 1.0])}
        with pytest.raises(FloatingPointError, match="'z'"):
            optimizer_step(params, bad, state)
        assert state.t == 1
        np.testing.assert_array_equal(bad["a"], 1.0)
        for now, then in zip((params, state.m, state.v), snapshot):
            for k in now:
                np.testing.assert_array_equal(now[k], then[k])

    def test_float32_block_with_l2_matches_textbook_update(self):
        rng = np.random.default_rng(24)
        params = {"W": rng.standard_normal((500, 500)).astype(np.float32)}
        state = optimizer_init(params)
        lam = 1e-3
        grads = {"W": rng.standard_normal((500, 500)).astype(np.float32)}
        ref_grads = {"W": grads["W"] + 2.0 * lam * params["W"]}
        zeros = {"W": np.zeros((500, 500), np.float32)}
        ref, m, v = textbook_adam(params, ref_grads, zeros, zeros, 1)
        neural.add_l2_grads(params, grads, lam)
        optimizer_step(params, grads, state)
        assert params["W"].dtype == state.m["W"].dtype == grads["W"].dtype == np.float32
        for now, then in ((params, ref), (state.m, m), (state.v, v)):
            np.testing.assert_array_equal(now["W"], then["W"])

    def test_deterministic(self):
        def run():
            params = {"w": np.array([1.0, -1.0])}
            state = optimizer_init(params)
            for k in range(10):
                optimizer_step(params, {"w": params["w"] * (k + 1)}, state)
            return params["w"].copy()

        np.testing.assert_array_equal(run(), run())


class TestPackSlabs:
    @staticmethod
    def blocks(rng, sizes):
        """Float32 blocks named a, b, c, ... of the given shapes."""
        return {chr(ord("a") + i): rng.standard_normal(shape).astype(np.float32)
                for i, shape in enumerate(sizes)}

    def test_large_blocks_stay_and_small_runs_share_one_buffer(self):
        rng = np.random.default_rng(30)
        params = self.blocks(rng, [(3, 4), (neural.SLAB,), (2, 5), (7,), (4, 3, 2),
                                   (neural.SLAB + 1,), (6,)])
        before = dict(params)
        slabs, packed = neural.pack_slabs(params)
        assert packed == {"c..e": ["c", "d", "e"]}
        assert list(slabs) == ["a", "b", "c..e", "f", "g"]
        # A large block, and a small one alone in its run, are used in place.
        for name in "abfg":
            assert slabs[name] is params[name] is before[name]
        buf = slabs["c..e"]
        assert buf.shape == (10 + 7 + 24,) and buf.dtype == np.float32
        start = 0
        for name in "cde":
            assert params[name].base is buf and params[name].shape == before[name].shape
            assert np.shares_memory(params[name], buf[start:start + params[name].size])
            np.testing.assert_array_equal(params[name], before[name])
            start += params[name].size
        buf[:] = np.arange(buf.size)
        np.testing.assert_array_equal(params["d"], np.arange(10, 17))

    def test_run_is_cut_before_it_reaches_slab(self):
        params = self.blocks(np.random.default_rng(31), [(neural.SLAB // 2,),
                                                         (neural.SLAB // 2 - 1,), (1,), (5,)])
        slabs, packed = neural.pack_slabs(params)
        assert packed == {"a..b": ["a", "b"], "c..d": ["c", "d"]}
        assert [s.size for s in slabs.values()] == [neural.SLAB - 1, 6]

    def test_packing_twice(self):
        rng = np.random.default_rng(32)
        params = self.blocks(rng, [(3,), (2, 2), (neural.SLAB,), (5,), (1,)])
        values = {name: p.copy() for name, p in params.items()}
        first, _ = neural.pack_slabs(params)
        second, packed = neural.pack_slabs(params)
        assert packed == {"a..b": ["a", "b"], "d..e": ["d", "e"]}
        for name, blocks in packed.items():
            assert second[name] is not first[name]
            for b in blocks:
                assert params[b].base is second[name]
        for name, p in params.items():
            np.testing.assert_array_equal(p, values[name])
        second["a..b"] += 1.0
        np.testing.assert_array_equal(params["b"], values["b"] + 1.0)
        np.testing.assert_array_equal(first["a..b"][3:], values["b"].ravel())


class TestGradCheckHarness:
    def test_identity_constant_loss(self):
        params = {"w": np.array([1.0, 2.0])}
        report = grad_check(lambda p: 42.0, params, {"w": np.zeros(2)})
        assert report["w"] == 0.0

    def test_corrupted_gradient_flagged(self):
        params = {"w": np.array([0.3, -0.4])}

        def loss(p):
            return float(np.sum(p["w"] ** 2))

        good = {"w": 2.0 * params["w"]}
        bad = {"w": 2.0 * params["w"] + 0.5}
        assert max(grad_check(loss, params, good).values()) < 1e-8
        assert max(grad_check(loss, params, bad).values()) > 1e-2


class TestCheckpoints:
    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(8)
        params = {"a/W": rng.standard_normal((3, 4)),
                  "b": rng.standard_normal(5) * 1e-13}
        path = tmp_path / "ckpt.json"
        save_params(params, path, meta={"note": 1})
        loaded, meta = load_params(path)
        assert meta == {"note": 1}
        for name in params:
            np.testing.assert_array_equal(loaded[name], params[name])

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="not a"):
            load_params(path)
