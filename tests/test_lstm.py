import ast
import inspect
import tracemalloc

import numpy as np
import pytest

from conftest import NumpyProxy
from uavclass import lstm
from uavclass.lstm import (
    AdamState,
    LstmParams,
    ModelError,
    TrainConfig,
    adam_step,
    backward,
    forward_batch,
    init_params,
    loss_batch,
    predict_batch,
    sigmoid,
    train,
)


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _split_sigmoid(x):
    """Split-by-sign logistic: the form ``sigmoid`` must match bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _forward(params, instance):
    """Logits [3] of one instance [T, F], run as a batch of one."""
    logits, _ = forward_batch(params, np.asarray(instance)[np.newaxis])
    return logits[0]


def _loss(logits, label):
    """Loss and dLoss/dLogits [3] of one instance, through loss_batch with B=1."""
    value, grad = loss_batch(np.asarray(logits, dtype=np.float64)[np.newaxis], [label])
    return value, grad[0]


def _reference_forward_batch(params, x):
    """Allocate-per-step recurrence; the fast path must reproduce its bits."""
    batch, steps, _ = x.shape
    hidden = params.hidden
    xz = x.reshape(batch * steps, -1) @ params.w_x.T
    xz = xz.reshape(batch, steps, 4 * hidden) + params.bias
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    gates = np.empty((steps, batch, 4 * hidden))
    cells = np.empty((steps, batch, hidden))
    cell_tanh = np.empty((steps, batch, hidden))
    hiddens = np.empty((steps + 1, batch, hidden))
    hiddens[0] = h
    for t in range(steps):
        z = xz[:, t, :] + h @ params.w_h.T
        i = _split_sigmoid(z[:, :hidden])
        f = _split_sigmoid(z[:, hidden : 2 * hidden])
        g = np.tanh(z[:, 2 * hidden : 3 * hidden])
        o = _split_sigmoid(z[:, 3 * hidden :])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        gates[t] = np.concatenate([i, f, g, o], axis=1)
        cells[t] = c
        cell_tanh[t] = tc
        hiddens[t + 1] = h
    logits = h @ params.w_out.T + params.b_out
    return logits, (x, gates, cells, cell_tanh, hiddens)


def _reference_backward(params, cache, d_logits):
    """Allocate-per-step BPTT; the fast path must reproduce its bits."""
    x, gates, cells, cell_tanh, hiddens = cache
    batch, steps, _ = x.shape
    hidden = params.hidden
    g_w_out = d_logits.T @ hiddens[steps]
    g_b_out = d_logits.sum(axis=0)
    dh = d_logits @ params.w_out
    dc = np.zeros((batch, hidden))
    g_w_x = np.zeros_like(params.w_x)
    g_w_h = np.zeros_like(params.w_h)
    g_bias = np.zeros_like(params.bias)
    dz = np.empty((batch, 4 * hidden))
    for t in range(steps - 1, -1, -1):
        i = gates[t][:, :hidden]
        f = gates[t][:, hidden : 2 * hidden]
        g = gates[t][:, 2 * hidden : 3 * hidden]
        o = gates[t][:, 3 * hidden :]
        tc = cell_tanh[t]
        c_prev = cells[t - 1] if t > 0 else np.zeros((batch, hidden))
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dz[:, :hidden] = di * i * (1.0 - i)
        dz[:, hidden : 2 * hidden] = df * f * (1.0 - f)
        dz[:, 2 * hidden : 3 * hidden] = dg * (1.0 - g * g)
        dz[:, 3 * hidden :] = do * o * (1.0 - o)
        g_w_x += dz.T @ x[:, t, :]
        g_w_h += dz.T @ hiddens[t]
        g_bias += dz.sum(axis=0)
        dh = dz @ params.w_h
        dc = dc * f
    return [g_w_x, g_w_h, g_bias, g_w_out, g_b_out]


def _reference_train(X, labels, config):
    """Allocate-per-batch training loop; ``train`` must reproduce its bits."""
    params = init_params(X.shape[2], config.hidden, seed=config.seed)
    state = AdamState.for_params(params, lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(X))
        epoch_loss = 0.0
        for start in range(0, len(X), config.batch_size):
            idx = order[start : start + config.batch_size]
            logits, cache = _reference_forward_batch(params, X[idx])
            batch_loss, d_logits = loss_batch(logits, labels[idx])
            adam_step(params, _reference_backward(params, cache, d_logits), state)
            epoch_loss += batch_loss * len(idx)
        history.append(epoch_loss / len(X))
    return params, history


class TestForward:
    def test_scalar_recurrence_oracle(self):
        # H=1, F=1, T=1: the whole network collapses to closed-form scalars
        params = LstmParams(
            w_x=np.array([[0.3], [-0.2], [0.5], [0.1]]),
            w_h=np.array([[0.0], [0.0], [0.0], [0.0]]),
            bias=np.array([0.1, 0.2, -0.1, 0.4]),
            w_out=np.array([[1.0], [-1.0], [0.5]]),
            b_out=np.array([0.0, 0.1, -0.2]),
        )
        x_val = 0.7
        i = _sig(0.3 * x_val + 0.1)
        f = _sig(-0.2 * x_val + 0.2)
        g = np.tanh(0.5 * x_val - 0.1)
        o = _sig(0.1 * x_val + 0.4)
        c = i * g  # c_prev = 0, so the forget branch drops out
        h = o * np.tanh(c)
        expected = np.array([h, -h + 0.1, 0.5 * h - 0.2])
        logits = _forward(params, [[x_val]])
        assert np.allclose(logits, expected, atol=1e-12)

    def test_two_step_scalar_recurrence(self):
        params = LstmParams(
            w_x=np.array([[0.3], [-0.2], [0.5], [0.1]]),
            w_h=np.array([[0.2], [0.1], [-0.3], [0.4]]),
            bias=np.array([0.1, 0.2, -0.1, 0.4]),
            w_out=np.array([[1.0], [0.0], [0.0]]),
            b_out=np.zeros(3),
        )
        h, c = 0.0, 0.0
        for x_val in (0.7, -0.4):
            i = _sig(0.3 * x_val + 0.2 * h + 0.1)
            f = _sig(-0.2 * x_val + 0.1 * h + 0.2)
            g = np.tanh(0.5 * x_val - 0.3 * h - 0.1)
            o = _sig(0.1 * x_val + 0.4 * h + 0.4)
            c = f * c + i * g
            h = o * np.tanh(c)
        logits = _forward(params, [[0.7], [-0.4]])
        assert abs(logits[0] - h) < 1e-12

    def test_zero_input_zero_weights(self):
        params = LstmParams(
            w_x=np.zeros((8, 2)),
            w_h=np.zeros((8, 2)),
            bias=np.zeros(8),
            w_out=np.zeros((3, 2)),
            b_out=np.array([1.0, 2.0, 3.0]),
        )
        logits = _forward(params, np.zeros((5, 2)))
        assert np.array_equal(logits, [1.0, 2.0, 3.0])

    def test_shape_mismatch(self):
        params = init_params(3, hidden=4, seed=0)
        with pytest.raises(ModelError, match=r"^expected \[B, T, 3\], got \(2, 5, 7\)$"):
            forward_batch(params, np.zeros((2, 5, 7)))

    def test_large_inputs_stay_finite(self):
        params = init_params(2, hidden=8, seed=1)
        x = np.full((2, 20, 2), 1e6)
        logits, _ = forward_batch(params, x)
        assert np.all(np.isfinite(logits))


class TestLoss:
    def test_uniform_logits_ln3(self):
        value, grad = _loss(np.zeros(3), 1)
        assert abs(value - np.log(3.0)) < 1e-12
        assert np.allclose(grad, [1 / 3, -2 / 3, 1 / 3])

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            _, grad = _loss(rng.normal(0, 5, size=3), int(rng.integers(0, 3)))
            assert abs(grad.sum()) < 1e-12

    def test_huge_logits_no_overflow(self):
        value, grad = _loss(np.array([1e4, 0.0, -1e4]), 0)
        assert np.isfinite(value) and value < 1e-12
        assert np.all(np.isfinite(grad))
        value, _ = _loss(np.array([1e4, 0.0, -1e4]), 2)
        assert np.isfinite(value)

    def test_confident_correct_near_zero(self):
        value, _ = _loss(np.array([20.0, 0.0, 0.0]), 0)
        assert value < 1e-8

    def test_invalid_label(self):
        # train checks labels before any loss is computed
        X = np.zeros((3, 2, 1))
        for bad in (-1, 3, None):
            with pytest.raises(ModelError, match=r"^labels must be 3 integers in \[0, 3\)$"):
                train(X, [0, 1, bad], TrainConfig(epochs=1, hidden=2))


class TestBackward:
    def _numeric_grads(self, params, x, label, eps=1e-6):
        grads = []
        for tensor in params.tensors():
            g = np.zeros_like(tensor)
            it = np.nditer(tensor, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = tensor[idx]
                tensor[idx] = orig + eps
                lp, _ = _loss(_forward(params, x), label)
                tensor[idx] = orig - eps
                lm, _ = _loss(_forward(params, x), label)
                tensor[idx] = orig
                g[idx] = (lp - lm) / (2 * eps)
                it.iternext()
            grads.append(g)
        return grads

    def test_finite_differences(self):
        params = init_params(3, hidden=4, seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(7, 3))
        label = 1
        logits, cache = forward_batch(params, x[np.newaxis])
        _, d_logits = loss_batch(logits, [label])
        analytic = backward(params, cache, d_logits)
        numeric = self._numeric_grads(params, x, label)
        for a, n in zip(analytic, numeric):
            denom = max(np.max(np.abs(a)), np.max(np.abs(n)), 1e-12)
            assert np.max(np.abs(a - n)) / denom < 1e-4

    def test_batch_gradient_is_sum_over_instances(self):
        params = init_params(2, hidden=3, seed=5)
        rng = np.random.default_rng(6)
        X = rng.normal(size=(3, 5, 2))
        labels = np.array([0, 1, 2])
        logits, cache = forward_batch(params, X)
        _, d_logits = loss_batch(logits, labels)
        batch_grads = backward(params, cache, d_logits)
        summed = [np.zeros_like(g) for g in batch_grads]
        for b in range(3):
            lg, c = forward_batch(params, X[b : b + 1])
            _, dl = loss_batch(lg, labels[b : b + 1])
            for s, g in zip(summed, backward(params, c, dl / 3.0)):
                s += g
        for a, b_ in zip(batch_grads, summed):
            assert np.allclose(a, b_, atol=1e-12)

    def test_upstream_shape_check(self):
        params = init_params(2, hidden=3, seed=0)
        _, cache = forward_batch(params, np.zeros((2, 4, 2)))
        with pytest.raises(ModelError, match="^upstream gradient does not match cached batch$"):
            backward(params, cache, np.zeros((3, 3)))


class TestBitIdentity:
    """The in-place hot path against the allocate-per-step reference loops."""

    @pytest.mark.parametrize(
        "n, steps, n_features, hidden, batch_size",
        [(11, 7, 3, 6, 4), (5, 1, 2, 5, 5), (3, 13, 9, 16, 1), (70, 50, 9, 128, 64)],
    )
    def test_forward_and_backward_match_reference(
        self, n, steps, n_features, hidden, batch_size
    ):
        rng = np.random.default_rng(n + hidden)
        params = init_params(n_features, hidden=hidden, seed=n)
        X = rng.normal(0, 2, size=(n, steps, n_features))
        labels = rng.integers(0, 3, size=n)
        # a ragged split: the last batch is shorter unless batch_size divides n
        for start in range(0, n, batch_size):
            xb, yb = X[start : start + batch_size], labels[start : start + batch_size]
            ref_logits, ref_cache = _reference_forward_batch(params, xb)
            logits, cache = forward_batch(params, xb)
            assert np.array_equal(_bits(logits), _bits(ref_logits))
            # the cache keeps x, the gate slab, the cells and h_T; BPTT
            # rebuilds tanh(c) and the other hidden states
            ref_x, ref_gates, ref_cells, _, ref_hiddens = ref_cache
            assert len(cache) == 4
            for got, want in zip(cache, (ref_x, ref_gates, ref_cells, ref_hiddens[steps])):
                assert got.shape == want.shape
                assert np.array_equal(_bits(got), _bits(want))
            _, d_logits = loss_batch(logits, yb)
            grads = backward(params, cache, d_logits)
            ref_grads = _reference_backward(params, ref_cache, d_logits)
            for got, want in zip(grads, ref_grads):
                assert got.shape == want.shape
                assert np.array_equal(_bits(got), _bits(want))


    @pytest.mark.parametrize(
        "n, steps, n_features, hidden, batch_size, epochs",
        [(23, 7, 3, 8, 5, 3), (70, 20, 9, 128, 64, 2)],
    )
    def test_train_with_one_workspace_matches_reference(
        self, n, steps, n_features, hidden, batch_size, epochs
    ):
        # n is not a multiple of batch_size: the short last batch reuses the
        # leading part of the workspace
        rng = np.random.default_rng(n)
        X = rng.normal(0, 2, size=(n, steps, n_features))
        labels = rng.integers(0, 3, size=n)
        config = TrainConfig(epochs=epochs, batch_size=batch_size, seed=n, hidden=hidden)
        params, history = train(X, labels, config)
        ref_params, ref_history = _reference_train(X, labels, config)
        assert np.array_equal(_bits(history), _bits(ref_history))
        for got, want in zip(params.tensors(), ref_params.tensors()):
            assert np.array_equal(_bits(got), _bits(want))


class TestCacheMemory:
    """BPTT rebuilds tanh(c) and h, so a batch keeps only the gate slab and the cells."""

    def test_cache_holds_no_step_array_but_the_cells(self):
        # distinct sizes, so a [T, B, H] array cannot pass for another shape
        batch, steps, n_features, hidden = 3, 7, 2, 5
        params = init_params(n_features, hidden=hidden, seed=0)
        _, cache = forward_batch(params, np.ones((batch, steps, n_features)))
        _, gates, cells, h_last = cache
        assert gates.shape == (steps, batch, 4 * hidden)
        assert h_last.shape == (batch, hidden)
        per_step = [a for a in cache if a.shape == (steps, batch, hidden)]
        assert len(per_step) == 1 and per_step[0] is cells

    def test_forward_and_backward_peak_is_slab_and_cells(self):
        batch, steps, n_features, hidden = 8, 400, 3, 16
        params = init_params(n_features, hidden=hidden, seed=1)
        x = np.random.default_rng(1).normal(size=(batch, steps, n_features))
        labels = np.arange(batch) % 3
        tracemalloc.start()
        try:
            logits, cache = forward_batch(params, x)
            _, d_logits = loss_batch(logits, labels)
            backward(params, cache, d_logits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slab = steps * batch * 4 * hidden * 8
        cells = steps * batch * hidden * 8
        # the margin holds the time-major copy of x and the [B, 4H], [B, H]
        # and [4H, H] buffers of one call; caching tanh(c) and h of every
        # step would add twice the cells
        assert peak <= slab + cells + 256 * 1024


    def test_train_gathers_each_batch_once(self):
        # T=400 as in the sampling grid's long sequences; a small H keeps the
        # slab near the size of a batch of x. Gathering X[idx] and then taking
        # its time-major copy held two batches of x at once.
        n, batch, steps, n_features, hidden = 100, 64, 400, 9, 4
        rng = np.random.default_rng(2)
        X = rng.normal(size=(n, steps, n_features))
        labels = rng.integers(0, 3, size=n)
        config = TrainConfig(epochs=1, batch_size=batch, seed=0, hidden=hidden)
        tracemalloc.start()
        try:
            train(X, labels, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slab = steps * batch * 4 * hidden * 8
        cells = steps * batch * hidden * 8
        x_batch = steps * batch * n_features * 8
        # the margin holds the one-batch boolean chunk of train's up-front
        # finiteness check and BPTT's small buffers, not a second batch
        assert peak <= slab + cells + x_batch + x_batch // 2


def _reference_adam_step(params, grads, state):
    """adam_step as it was, one temporary per operation; the fast path must
    reproduce its bits."""
    state.step += 1
    t = state.step
    for p, g, m, v in zip(params.tensors(), grads, state.m, state.v):
        m *= lstm.ADAM_BETA1
        m += (1.0 - lstm.ADAM_BETA1) * g
        v *= lstm.ADAM_BETA2
        v += (1.0 - lstm.ADAM_BETA2) * g * g
        m_hat = m / (1.0 - lstm.ADAM_BETA1**t)
        v_hat = v / (1.0 - lstm.ADAM_BETA2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + lstm.ADAM_EPS)


class TestAdam:
    @pytest.mark.parametrize("lr", [0.001, 0.01, 0.3])
    def test_bit_identical_to_reference(self, lr):
        rng = np.random.default_rng(71)
        params = init_params(9, hidden=16, seed=2)
        ref_params = init_params(9, hidden=16, seed=2)
        state = AdamState.for_params(params, lr=lr)
        ref_state = AdamState.for_params(ref_params, lr=lr)
        for _ in range(12):
            # magnitudes from 1e-9 to 1e3, with exact and negative zeros
            grads = [
                rng.normal(size=p.shape) * 10.0 ** rng.integers(-9, 4, size=p.shape)
                for p in params.tensors()
            ]
            for g in grads:
                g[rng.random(size=g.shape) < 0.1] = 0.0
                g[rng.random(size=g.shape) < 0.1] = -0.0
            adam_step(params, grads, state)
            _reference_adam_step(ref_params, [g.copy() for g in grads], ref_state)
            assert state.step == ref_state.step
            for got, want in zip(
                params.tensors() + state.m + state.v,
                ref_params.tensors() + ref_state.m + ref_state.v,
            ):
                assert np.array_equal(_bits(got), _bits(want))

    def test_first_step_closed_form(self):
        # with m=v=0 the first bias-corrected step is lr * g / (|g| + eps)
        params = LstmParams(
            w_x=np.zeros((4, 1)),
            w_h=np.zeros((4, 1)),
            bias=np.zeros(4),
            w_out=np.zeros((3, 1)),
            b_out=np.zeros(3),
        )
        grads = [
            np.full((4, 1), 2.0),
            np.full((4, 1), -3.0),
            np.full(4, 0.5),
            np.full((3, 1), 1.0),
            np.full(3, -1.0),
        ]
        state = AdamState.for_params(params, lr=0.001)
        adam_step(params, grads, state)
        for p, g in zip(params.tensors(), grads):
            expected = -0.001 * g / (np.abs(g) + 1e-8)
            assert np.allclose(p, expected, atol=1e-12)

    def test_two_steps_match_reference(self):
        # independent scalar re-implementation of the update rule
        p = np.array([0.5])
        params = LstmParams(
            w_x=p.reshape(1, 1).copy(),
            w_h=np.zeros((1, 1)),
            bias=np.zeros(1),
            w_out=np.zeros((3, 1)),
            b_out=np.zeros(3),
        )
        state = AdamState.for_params(params, lr=0.01)
        zero = [np.zeros((1, 1)), np.zeros(1), np.zeros((3, 1)), np.zeros(3)]
        m = v = 0.0
        ref = 0.5
        for t, g in enumerate([0.3, -0.7], start=1):
            adam_step(params, [np.array([[g]])] + zero, state)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            assert abs(params.w_x[0, 0] - ref) < 1e-15

    def test_zero_gradient_noop(self):
        params = init_params(2, hidden=3, seed=7)
        before = [t.copy() for t in params.tensors()]
        state = AdamState.for_params(params)
        adam_step(params, [np.zeros_like(t) for t in params.tensors()], state)
        for a, b in zip(params.tensors(), before):
            assert np.array_equal(a, b)

    def test_shape_guard(self):
        params = init_params(2, hidden=3, seed=0)
        state = AdamState.for_params(params)
        bad = [np.zeros((1, 1)) for _ in range(5)]
        with pytest.raises(ModelError, match=r"^gradient shape \(1, 1\) vs parameter "):
            adam_step(params, bad, state)


def _toy_problem(n_per_class=10, steps=12, seed=0):
    """Three cleanly separated constant-level sequences."""
    rng = np.random.default_rng(seed)
    X, labels = [], []
    for cls, level in enumerate((-2.0, 0.0, 2.0)):
        for _ in range(n_per_class):
            X.append(level + 0.1 * rng.normal(size=(steps, 2)))
            labels.append(cls)
    return np.array(X), np.array(labels)


class TestTraining:
    def test_toy_problem_fully_learned(self):
        X, labels = _toy_problem()
        config = TrainConfig(epochs=50, batch_size=8, seed=1, hidden=8)
        params, history = train(X, labels, config)
        assert np.array_equal(predict_batch(params, X, 8), labels)
        assert history[-1] < history[0]
        assert history[-1] < 0.7  # well under the ln(3) chance level

    def test_early_epoch_losses_strictly_decrease(self):
        X, labels = _toy_problem(seed=3)
        config = TrainConfig(epochs=5, batch_size=8, seed=2, hidden=8)
        _, history = train(X, labels, config)
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_seed_determinism(self):
        X, labels = _toy_problem(n_per_class=5, seed=4)
        config = TrainConfig(epochs=3, batch_size=4, seed=9, hidden=6)
        p1, h1 = train(X, labels, config)
        p2, h2 = train(X, labels, config)
        assert h1 == h2
        for a, b in zip(p1.tensors(), p2.tensors()):
            assert np.array_equal(a, b)

    def test_input_order_independent_with_one_full_batch(self):
        # one batch holds every instance, so permuting the input only reorders
        # the batch: the parameters may differ by float summation noise only
        X, labels = _toy_problem(n_per_class=4, seed=5)
        config = TrainConfig(epochs=3, batch_size=len(X), seed=0, hidden=6)
        p1, _ = train(X.copy(), labels.copy(), config)
        perm = np.random.default_rng(6).permutation(len(X))
        p2, _ = train(X[perm], labels[perm], config)
        for a, b in zip(p1.tensors(), p2.tensors()):
            assert np.max(np.abs(a - b)) < 1e-10

    def test_empty_split(self):
        with pytest.raises(ModelError, match="^training split is empty$"):
            train(np.zeros((0, 5, 2)), np.zeros(0, dtype=int), TrainConfig(epochs=1))

    def test_input_without_a_time_axis(self):
        with pytest.raises(ModelError, match=r"^expected \[N, T, F\], got \(4, 3\)$"):
            train(np.zeros((4, 3)), np.zeros(4, dtype=int), TrainConfig(epochs=1))

    def test_diverged_loss_detected(self, monkeypatch):
        params = init_params(1, hidden=2, seed=0)
        params.w_out[:] = np.inf
        monkeypatch.setattr(lstm, "init_params", lambda *args, **kwargs: params)
        X = np.ones((2, 3, 1))
        with (np.errstate(invalid="ignore"),
              pytest.raises(ModelError, match="^non-finite loss in epoch 1, batch 1$")):
            train(X, np.array([0, 1]), TrainConfig(epochs=1, hidden=2))

    def test_divergence_names_its_epoch_and_batch(self, monkeypatch):
        calls = []

        def loss_batch_nan_on_third_call(logits, labels):
            calls.append(1)
            loss, grad = loss_batch(logits, labels)
            return (np.nan if len(calls) == 3 else loss), grad

        monkeypatch.setattr(lstm, "loss_batch", loss_batch_nan_on_third_call)
        X, labels = _toy_problem(n_per_class=1, steps=3)
        with pytest.raises(ModelError, match="^non-finite loss in epoch 2, batch 1$"):
            train(X[:2], labels[:2], TrainConfig(epochs=3, batch_size=1, hidden=2))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 4])  # in the first and in the last batch
    def test_non_finite_input_rejected(self, value, row):
        X = np.zeros((5, 3, 2))
        X[row, 1, 0] = value
        with pytest.raises(ModelError, match="non-finite input"):
            train(X, np.zeros(5, dtype=int), TrainConfig(epochs=1, batch_size=4, hidden=2))
        params = init_params(2, hidden=2, seed=0)
        with pytest.raises(ModelError, match="non-finite input"):
            predict_batch(params, X, 4)

    def test_input_checked_once_not_per_batch(self, monkeypatch):
        checked = []  # instances per isfinite call on a chunk of X

        def isfinite(a, *args, **kwargs):
            if np.ndim(a) == 3:
                checked.append(len(a))
            return np.isfinite(a, *args, **kwargs)

        monkeypatch.setattr(lstm, "np", NumpyProxy(isfinite=isfinite))
        X, labels = _toy_problem(n_per_class=3, seed=4)
        train(X, labels, TrainConfig(epochs=3, batch_size=4, seed=0, hidden=2))
        assert checked == [4, 4, 1]

    def test_predict_probabilities_sum_to_one(self):
        params = init_params(2, hidden=4, seed=8)
        x = np.random.default_rng(7).normal(size=(1, 6, 2))
        logits, _ = forward_batch(params, x)
        # with B=1 the loss for class c is -log p_c
        probs = np.array([np.exp(-loss_batch(logits, [c])[0]) for c in range(3)])
        (cls,) = predict_batch(params, x, 1)
        assert cls in (0, 1, 2)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert cls == int(np.argmax(probs))


class TestPredictBatch:
    """Scoring runs at most one batch at a time through one workspace."""

    @pytest.mark.parametrize("n", [7, 8, 25])  # batch - 1, batch and 3 batches + 1
    def test_labels_equal_one_unchunked_forward(self, n):
        params = init_params(3, hidden=6, seed=2)
        X = np.random.default_rng(n).normal(size=(n, 9, 3))
        logits, _ = forward_batch(params, X)
        assert np.array_equal(predict_batch(params, X, 8), np.argmax(logits, axis=1))

    def test_peak_memory_is_one_batch_not_the_split(self):
        batch, steps, hidden = 16, 200, 32
        params = init_params(3, hidden=hidden, seed=0)
        X = np.random.default_rng(0).normal(size=(4 * batch, steps, 3))
        one_batch = sum(a.nbytes for a in lstm.forward_workspace(batch, steps, hidden))
        tracemalloc.start()
        try:
            predict_batch(params, X, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one workspace and one batch's time-major copy; the split at once takes 4x
        assert peak <= 1.25 * one_batch


class TestInit:
    def test_forget_bias_one_rest_zero(self):
        params = init_params(3, hidden=5, seed=0)
        h = 5
        assert np.all(params.bias[h : 2 * h] == 1.0)
        assert np.all(params.bias[:h] == 0.0)
        assert np.all(params.bias[2 * h :] == 0.0)
        assert np.all(params.b_out == 0.0)

    def test_weight_bounds(self):
        params = init_params(4, hidden=16, seed=1)
        bound = 1.0 / np.sqrt(16)
        for t in (params.w_x, params.w_h, params.w_out):
            assert np.all(np.abs(t) <= bound)

    def test_shapes(self):
        params = init_params(7, hidden=128, seed=0)
        assert params.w_x.shape == (512, 7)
        assert params.w_h.shape == (512, 128)
        assert params.bias.shape == (512,)
        assert params.w_out.shape == (3, 128)
        assert params.hidden == 128
        assert params.n_features == 7


def test_train_config_has_no_shuffle_switch():
    # every epoch draws a fresh permutation; there is nothing to switch off
    with pytest.raises(TypeError, match="shuffle"):
        TrainConfig(shuffle=False)


def test_model_module_imports_nothing_from_the_file_layer():
    tree = ast.parse(inspect.getsource(lstm))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert [name for name in imported if name.split(".")[-1] == "cache"] == []


class TestSigmoid:
    def test_matches_naive_in_safe_range(self):
        x = np.linspace(-20, 20, 401)
        assert np.array_equal(_bits(sigmoid(x)), _bits(_split_sigmoid(x)))
        pos = x[x >= 0]
        assert np.array_equal(_bits(sigmoid(pos)), _bits(1.0 / (1.0 + np.exp(-pos))))

    def test_bit_identical_to_split_by_sign(self):
        special = [0.0, -0.0, 745.0, -745.0, 1e4, -1e4, 800.0, -800.0, np.nan]
        special += [-np.nan, np.inf, -np.inf, 5e-324, -5e-324, 36.7, -36.7]
        rng = np.random.default_rng(11)
        x = np.concatenate(
            [special, rng.normal(0, 8, 5000), rng.uniform(-800, 800, 5000)]
        )
        assert np.array_equal(_bits(sigmoid(x)), _bits(_split_sigmoid(x)))

    def test_in_place_on_strided_column_slice(self):
        rng = np.random.default_rng(12)
        z = rng.normal(0, 6, size=(9, 20))
        z[0, 5:12] = [0.0, -0.0, 745.0, -745.0, 1e4, -1e4, np.nan]
        expected = _split_sigmoid(z[:, 5:12])
        untouched = z.copy()
        view = z[:, 5:12]
        result = sigmoid(view, out=view)
        assert result is view
        assert np.array_equal(_bits(z[:, 5:12]), _bits(expected))
        assert np.array_equal(_bits(z[:, :5]), _bits(untouched[:, :5]))
        assert np.array_equal(_bits(z[:, 12:]), _bits(untouched[:, 12:]))

    def test_extremes_finite(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert out[0] == 0.0 and out[1] == 1.0


def _subnormals(a):
    return int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)))


class TestFloat32:
    """A float32 X trains in float32; float64 stays the bit-exact reference."""

    # float32 epsilon is 6e-8; the gradient suite's worst case reads 5.7e-7
    GRADIENT_BOUND = 5e-6

    def test_gradients_match_float64_on_the_gradient_suite(self):
        # criterion 3's 20 random configs, each run on the same float32 values
        # in both dtypes, so only the arithmetic differs
        def grads(params, x, label):
            logits, cache = forward_batch(params, x)
            return backward(params, cache, loss_batch(logits, [label])[1])

        rng = np.random.default_rng(100)
        worst = 0.0
        for trial in range(20):
            params32 = init_params(3, hidden=4, seed=trial, dtype=np.float32)
            params64 = LstmParams(*(t.astype(np.float64) for t in params32.tensors()))
            x = rng.normal(size=(1, 7, 3)).astype(np.float32)
            label = int(rng.integers(0, 3))
            for g32, g64 in zip(grads(params32, x, label), grads(params64, x, label)):
                assert g32.dtype == np.float32 and g64.dtype == np.float64
                worst = max(worst, float(np.max(np.abs(g32 - g64)) / np.max(np.abs(g64))))
        assert 0 < worst <= self.GRADIENT_BOUND

    def test_long_backward_leaves_no_subnormal_in_dh_or_dc(self, monkeypatch):
        # at initialisation the gradients of a T=500 sequence decay below
        # float32's smallest normal number long before step 0
        batch, steps, n_features, hidden = 8, 500, 9, 32
        params = init_params(n_features, hidden=hidden, seed=0, dtype=np.float32)
        x = np.random.default_rng(0).normal(size=(batch, steps, n_features)).astype(np.float32)
        logits, cache = forward_batch(params, x)
        _, d_logits = loss_batch(logits, np.arange(batch) % 3)
        flush = lstm._flush_tiny
        counts = {}
        for name, step_end in (("flushed", flush), ("unflushed", lambda arrays, scratch: None)):
            seen = []

            def spy(arrays, scratch):
                step_end(arrays, scratch)
                assert [a.shape for a in arrays] == [(batch, hidden)] * 2  # dh and dc
                seen.append(sum(_subnormals(a) for a in arrays))

            monkeypatch.setattr(lstm, "_flush_tiny", spy)
            backward(params, cache, d_logits)
            assert len(seen) == steps - 1  # every step but step 0
            counts[name] = sum(seen)
        assert counts["unflushed"] > 0
        assert counts["flushed"] == 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_and_predict_keep_the_input_dtype(self, dtype, monkeypatch):
        workspaces, adam_tensors, batches = [], [], []
        real_workspace, real_adam, real_forward = (
            lstm.forward_workspace, lstm.adam_step, lstm.forward_batch)

        def forward_workspace(*args, **kwargs):
            workspace = real_workspace(*args, **kwargs)
            workspaces.extend(workspace)
            return workspace

        def adam_step(params, grads, state):
            adam_tensors.extend(params.tensors() + grads + state.m + state.v)
            return real_adam(params, grads, state)

        def forward_batch(params, x, workspace=None):
            batches.append(x)
            return real_forward(params, x, workspace)

        monkeypatch.setattr(lstm, "forward_workspace", forward_workspace)
        monkeypatch.setattr(lstm, "adam_step", adam_step)
        monkeypatch.setattr(lstm, "forward_batch", forward_batch)
        X, labels = _toy_problem(n_per_class=3, seed=4)
        X = X.astype(dtype)
        params, history = train(X, labels, TrainConfig(epochs=2, batch_size=4, seed=0, hidden=3))
        assert {t.dtype for t in params.tensors()} == {np.dtype(dtype)}
        assert len(adam_tensors) == 2 * 3 * 20  # 2 epochs of 3 batches, 4 x 5 tensors
        assert {t.dtype for t in adam_tensors} == {np.dtype(dtype)}
        assert all(type(loss) is float for loss in history)  # summed in float64
        predicted = predict_batch(params, X, 4)
        assert len(workspaces) == 2 * 5  # one in train, one in predict_batch
        assert {w.dtype for w in workspaces} == {np.dtype(dtype)}
        assert len(batches) == 2 * 3 + 3
        assert {x.dtype for x in batches} == {np.dtype(dtype)}
        assert np.array_equal(predicted, np.argmax(real_forward(params, X)[0], axis=1))

    def test_float64_keeps_the_gradient_tail_that_float32_flushes(self, monkeypatch):
        # feature 2 is nonzero only in the first 5 of 400 steps, where the
        # gradients have decayed below FLUSH_BELOW: float32 zeroes its input
        # weights' gradient, float64 keeps every bit of the reference loops
        n, steps, n_features, hidden = 10, 400, 3, 16
        rng = np.random.default_rng(3)
        X = rng.normal(size=(n, steps, n_features))
        X[:, 5:, 2] = 0.0
        labels = rng.integers(0, 3, size=n)
        params = init_params(n_features, hidden=hidden, seed=3)
        logits, cache = forward_batch(params, X)
        _, d_logits = loss_batch(logits, labels)
        grads = backward(params, cache, d_logits)
        _, ref_cache = _reference_forward_batch(params, X)
        for got, want in zip(grads, _reference_backward(params, ref_cache, d_logits)):
            assert np.array_equal(_bits(got), _bits(want))
        assert 0 < np.max(np.abs(grads[0][:, 2])) < lstm.FLUSH_BELOW

        params32 = init_params(n_features, hidden=hidden, seed=3, dtype=np.float32)
        logits32, cache32 = forward_batch(params32, X.astype(np.float32))
        _, d_logits32 = loss_batch(logits32, labels)
        grads32 = backward(params32, cache32, d_logits32)
        assert not np.any(grads32[0][:, 2]) and np.all(grads32[0][:, :2])

        monkeypatch.setattr(lstm, "_flush_tiny", lambda *args: pytest.fail("float64 flushed"))
        config = TrainConfig(epochs=2, batch_size=5, seed=1, hidden=hidden)
        params, history = train(X, labels, config)
        ref_params, ref_history = _reference_train(X, labels, config)
        assert np.array_equal(_bits(history), _bits(ref_history))
        for got, want in zip(params.tensors(), ref_params.tensors()):
            assert got.dtype == np.float64
            assert np.array_equal(_bits(got), _bits(want))
