"""Single-layer many-to-one LSTM with a linear classifier head.

Pure numpy. The recurrence, backpropagation through time, and Adam are
implemented directly so gradients can be validated against finite
differences. Gate order in the stacked weight matrices is (input, forget,
cell-candidate, output).

The dtype follows the input: ``train`` computes in float32 when X is
float32 and in float64 otherwise, and parameters, Adam moments, the
workspace and the BPTT scratch take that dtype; ``forward_batch``,
``backward`` and ``predict_batch`` compute in the parameters' dtype.
Pipeline folds stack their splits as float32, which halves the gate slab
and the cells and about halves batch time. float64 is the reference that
the finite-difference checks and the bit-identity tests run in. In float32
only, each BPTT step ends by zeroing every entry of ``dh`` and ``dc``
below ``FLUSH_BELOW`` in magnitude: over a long sequence they decay into
the subnormal range, where arithmetic runs several times slower, and
numpy has no flush-to-zero switch. An entry that small is lost against
any float32 weight gradient above about 1e-22.

The hot path writes into preallocated buffers instead of building new
arrays. ``train`` allocates one forward workspace and reuses it for every
batch: the input projection ``x @ w_x.T + bias`` of all steps is written
into the ``[T, B, 4H]`` gate slab, and each step adds its recurrent GEMM
``h @ w_h.T`` on top and activates the slab's slices in place. BPTT
reuses one ``dz`` buffer and a few scratch buffers per call.

A batch keeps only what BPTT cannot rebuild: the activated gate slab and
the ``[T, B, H]`` cells. tanh(c) lives in one ``[B, H]`` row and h in a
two-row ring, so the cache is ``(x, gates, cells, h_T)``. ``backward``
recomputes tanh(c_{t-1}) and h_{t-1} = o_{t-1} * tanh(c_{t-1}) from the
cached cells and output gates in step t, with the same ufuncs on the same
inputs as the forward pass: one tanh and one multiply per step, no
GEMM, and the same bits. Per step and sequence that is 5H cached values
instead of 7H. The input projection is not recomputed per step, because a
one-step GEMM does not always give the bits of the all-steps GEMM.

Every elementwise product, in BPTT and in Adam's two scratch arrays per
tensor, keeps the operand grouping of the textbook formulas and every GEMM
computes the same elements, so in float64 results are bit-identical to the
plain allocate-per-step form. Step 0 of BPTT stops after its input-weight
and bias gradients: h_{-1} is zero and nothing reads dh or dc after it.

``sigmoid`` uses ``exp(min(x, 0)) / (1 + exp(-|x|))``. For x >= 0 this is
``1 / (1 + exp(-x))`` and for x < 0 it is ``exp(x) / (1 + exp(x))``, the
two halves of the usual split-by-sign form, so it equals that form bit for
bit, never overflows, and needs no boolean mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UavclassError
from .ulog import N_CLASSES

MAX_LEARNING_RATE = 1.0  # Adam steps each weight by about lr; far more only saturates the gates
FLUSH_BELOW = 1e-30  # float32 BPTT zeroes dh and dc entries smaller than this


class ModelError(UavclassError):
    pass


def sigmoid(x, out=None):
    """Logistic function; ``out`` may be ``x`` itself for an in-place update."""
    den = np.abs(x)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    num = np.minimum(x, 0.0)
    np.exp(num, out=num)
    return np.divide(num, den, out=out)


@dataclass
class LstmParams:
    """All trainable tensors. w_x: [4H, F], w_h: [4H, H], bias: [4H]."""

    w_x: np.ndarray
    w_h: np.ndarray
    bias: np.ndarray
    w_out: np.ndarray  # [3, H]
    b_out: np.ndarray  # [3]

    @property
    def hidden(self) -> int:
        return self.w_h.shape[1]

    @property
    def n_features(self) -> int:
        return self.w_x.shape[1]

    def tensors(self):
        return [self.w_x, self.w_h, self.bias, self.w_out, self.b_out]


def init_params(n_features: int, hidden: int = 128, seed: int = 0, dtype=np.float64) -> LstmParams:
    """Uniform +-1/sqrt(H) weights, zero biases except forget gate bias = 1.

    The weights are drawn in float64 and rounded to ``dtype``.
    """
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(hidden)
    params = LstmParams(
        w_x=rng.uniform(-bound, bound, (4 * hidden, n_features)),
        w_h=rng.uniform(-bound, bound, (4 * hidden, hidden)),
        bias=np.zeros(4 * hidden),
        w_out=rng.uniform(-bound, bound, (N_CLASSES, hidden)),
        b_out=np.zeros(N_CLASSES),
    )
    params.bias[hidden : 2 * hidden] = 1.0  # forget gate open at start
    return LstmParams(*(t.astype(dtype, copy=False) for t in params.tensors()))


def _workspace_shapes(batch, steps, hidden):
    """The gate slab, the cells, tanh(c), the hidden-state ring and the recurrent GEMM."""
    return ((steps, batch, 4 * hidden), (steps, batch, hidden), (batch, hidden),
            (2, batch, hidden), (batch, 4 * hidden))


def forward_workspace(batch: int, steps: int, hidden: int, dtype=np.float64):
    """Buffers for ``forward_batch`` on up to ``batch`` sequences of ``steps`` steps.

    One flat array per shape of ``_workspace_shapes``; a smaller batch uses
    the leading part of each. Only the slab and the cells outlive a step:
    ``backward`` recomputes tanh(c) and h from them.
    """
    return tuple(np.empty(np.prod(s), dtype) for s in _workspace_shapes(batch, steps, hidden))


def forward_batch(params: LstmParams, x, workspace=None):
    """Run the recurrence on x of shape [B, T, F]; returns (logits [B, 3], cache).

    The cache is ``(x, gates, cells, h_T)``. With a ``workspace`` from
    ``forward_workspace`` its arrays are views into it, valid until the next
    call with the same workspace. x is cast to the parameters' dtype.
    """
    dtype = params.w_x.dtype
    x = np.asarray(x, dtype=dtype)
    if x.ndim != 3 or x.shape[2] != params.n_features:
        raise ModelError(f"expected [B, T, {params.n_features}], got {x.shape}")
    batch, steps, _ = x.shape
    hidden = params.hidden
    if workspace is None:
        workspace = forward_workspace(batch, steps, hidden, dtype)
    views = zip(workspace, _workspace_shapes(batch, steps, hidden))
    gates, cells, tc, ring, rec = (buf[: np.prod(s)].reshape(s) for buf, s in views)

    # x @ w_x^T + bias for all steps at once, straight into the gate slab
    x_steps = x.transpose(1, 0, 2).reshape(steps * batch, -1)
    np.matmul(x_steps, params.w_x.T, out=gates.reshape(steps * batch, 4 * hidden))
    gates += params.bias

    w_h_t = params.w_h.T
    ring[0] = 0.0
    c_prev = np.zeros((batch, hidden), dtype)
    ig = np.empty((batch, hidden), dtype)
    for t in range(steps):
        z = gates[t]
        z += np.matmul(ring[t % 2], w_h_t, out=rec)
        sigmoid(z[:, : 2 * hidden], out=z[:, : 2 * hidden])  # i | f
        g = np.tanh(z[:, 2 * hidden : 3 * hidden], out=z[:, 2 * hidden : 3 * hidden])
        o = sigmoid(z[:, 3 * hidden :], out=z[:, 3 * hidden :])
        c = np.multiply(z[:, hidden : 2 * hidden], c_prev, out=cells[t])
        c += np.multiply(z[:, :hidden], g, out=ig)
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=ring[(t + 1) % 2])
        c_prev = c

    h = ring[steps % 2]
    logits = h @ params.w_out.T + params.b_out
    return logits, (x, gates, cells, h)


def loss_batch(logits, labels):
    """Mean cross-entropy over a batch; gradient already divided by batch size."""
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = len(labels)
    total = -log_probs[np.arange(n), labels].sum() / n
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    return total, grad / n


def _flush_tiny(arrays, scratch):
    """Zero, in place, every entry of each array below FLUSH_BELOW in magnitude."""
    for arr in arrays:
        np.abs(arr, out=scratch)
        np.greater_equal(scratch, FLUSH_BELOW, out=scratch)
        arr *= scratch


def backward(params: LstmParams, cache, d_logits):
    """Exact BPTT gradients for every parameter given dLoss/dLogits [B, 3]."""
    x, gates, cells, h_last = cache
    batch, steps, _ = x.shape
    hidden = params.hidden
    dtype = params.w_x.dtype
    d_logits = np.asarray(d_logits, dtype=dtype)
    if d_logits.shape != (batch, N_CLASSES):
        raise ModelError("upstream gradient does not match cached batch")

    g_w_out = d_logits.T @ h_last
    g_b_out = d_logits.sum(axis=0)
    dh = d_logits @ params.w_out
    dc = np.zeros((batch, hidden), dtype)

    g_w_x = np.zeros_like(params.w_x)
    g_w_h = np.zeros_like(params.w_h)
    g_bias = np.zeros_like(params.bias)
    dz = np.empty((batch, 4 * hidden), dtype)
    dz_i = dz[:, :hidden]
    dz_f = dz[:, hidden : 2 * hidden]
    dz_g = dz[:, 2 * hidden : 3 * hidden]
    dz_o = dz[:, 3 * hidden :]
    # Each product keeps the grouping of the formula above it, so gradients
    # match that formula bit for bit. Intermediates go to contiguous scratch;
    # only the last product of each gate writes into its strided dz slice.
    zeros = np.zeros((batch, hidden), dtype)
    a = np.empty((batch, hidden), dtype)
    b = np.empty((batch, hidden), dtype)
    gemm = np.empty_like(params.w_h)
    flush = dtype == np.float32
    # tanh(c) and h are rebuilt from the cached cells and output gates with
    # the forward pass's ufuncs on the same inputs, so they have its bits;
    # step t computes tanh(c_{t-1}) and carries it into step t-1 as its tc
    tc = np.tanh(cells[steps - 1])
    tc_prev = np.empty((batch, hidden), dtype)
    for t in range(steps - 1, -1, -1):
        i = gates[t][:, :hidden]
        f = gates[t][:, hidden : 2 * hidden]
        g = gates[t][:, 2 * hidden : 3 * hidden]
        o = gates[t][:, 3 * hidden :]
        c_prev = cells[t - 1] if t > 0 else zeros

        # do = dh * tc;  dz_o = do * o * (1 - o)
        np.multiply(dh, tc, out=a)
        a *= o
        np.multiply(a, np.subtract(1.0, o, out=b), out=dz_o)
        # dc += dh * o * (1 - tc * tc)
        np.multiply(tc, tc, out=b)
        np.subtract(1.0, b, out=b)
        np.multiply(dh, o, out=a)
        a *= b
        dc += a
        # dz_i = (dc * g) * i * (1 - i)
        np.multiply(dc, g, out=a)
        a *= i
        np.multiply(a, np.subtract(1.0, i, out=b), out=dz_i)
        # dz_f = (dc * c_prev) * f * (1 - f)
        np.multiply(dc, c_prev, out=a)
        a *= f
        np.multiply(a, np.subtract(1.0, f, out=b), out=dz_f)
        # dz_g = (dc * i) * (1 - g * g)
        np.multiply(dc, i, out=a)
        np.multiply(g, g, out=b)
        np.subtract(1.0, b, out=b)
        np.multiply(a, b, out=dz_g)

        g_w_x += dz.T @ x[:, t, :]
        g_bias += dz.sum(axis=0)
        if t == 0:
            break  # h_{-1} is zero, and nothing reads dh or dc after this step
        # h_{t-1} = o_{t-1} * tanh(c_{t-1}), in scratch a now that dz is done
        np.tanh(c_prev, out=tc_prev)
        h_prev = np.multiply(gates[t - 1][:, 3 * hidden :], tc_prev, out=a)
        g_w_h += np.matmul(dz.T, h_prev, out=gemm)

        np.matmul(dz, params.w_h, out=dh)
        dc *= f
        if flush:
            _flush_tiny((dh, dc), a)
        tc, tc_prev = tc_prev, tc

    return [g_w_x, g_w_h, g_bias, g_w_out, g_b_out]


# Adam's canonical constants (Kingma & Ba, arXiv:1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam's moments, step count and learning rate."""

    m: list
    v: list
    step: int = 0
    lr: float = 0.001

    @classmethod
    def for_params(cls, params: LstmParams, lr: float = 0.001) -> "AdamState":
        return cls(
            m=[np.zeros_like(t) for t in params.tensors()],
            v=[np.zeros_like(t) for t in params.tensors()],
            lr=lr,
        )


def adam_step(params: LstmParams, grads, state: AdamState):
    """One in-place Adam update."""
    tensors = params.tensors()
    if len(grads) != len(tensors):
        raise ModelError("gradient list does not match parameter list")
    state.step += 1
    t = state.step
    for p, g, m, v in zip(tensors, grads, state.m, state.v):
        if g.shape != p.shape:
            raise ModelError(f"gradient shape {g.shape} vs parameter {p.shape}")
        # two scratch arrays; scalar * array commutes exactly, so each line
        # has the bits of the formula above it
        a, b = np.empty_like(p), np.empty_like(p)
        # m = b1 m + (1 - b1) g
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        # v = b2 v + ((1 - b2) g) g
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=a)
        v += np.multiply(a, g, out=a)
        # p -= (lr m_hat) / (sqrt(v_hat) + eps)
        np.divide(m, 1.0 - ADAM_BETA1**t, out=a)
        a *= state.lr
        np.divide(v, 1.0 - ADAM_BETA2**t, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        p -= np.divide(a, b, out=a)


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    seed: int = 0
    hidden: int = 128
    learning_rate: float = 0.001

    def __post_init__(self):
        if self.epochs < 1:
            raise ModelError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ModelError("batch_size must be >= 1")
        if self.hidden < 1:
            raise ModelError("hidden must be >= 1")
        if self.seed < 0:
            raise ModelError("seed must be >= 0")
        if not 0 < self.learning_rate <= MAX_LEARNING_RATE:
            raise ModelError(f"learning_rate must be in (0, {MAX_LEARNING_RATE:g}]")


def _check_finite(X, chunk):
    """Raise ModelError on a NaN or an infinity in X, checked ``chunk`` instances at a time."""
    for start in range(0, len(X), chunk):
        if not np.all(np.isfinite(X[start : start + chunk])):
            raise ModelError("non-finite input")


def train(X, labels, config: TrainConfig):
    """Mini-batch Adam training on X [N, T, F]; returns (params, epoch losses).

    Each epoch visits the instances in a fresh permutation drawn from ``config.seed``.
    A float32 X trains in float32, any other X in float64.
    """
    X = np.asarray(X)
    X = np.asarray(X, dtype=np.float32 if X.dtype == np.float32 else np.float64)
    labels = np.asarray(labels)
    if len(X) == 0:
        raise ModelError("training split is empty")
    if X.ndim != 3:
        raise ModelError(f"expected [N, T, F], got {X.shape}")
    if (
        labels.shape != (len(X),)
        or labels.dtype.kind not in "iu"
        or np.any((labels < 0) | (labels >= N_CLASSES))
    ):
        raise ModelError(f"labels must be {len(X)} integers in [0, {N_CLASSES})")
    _check_finite(X, config.batch_size)  # once, not per batch of every epoch
    params = init_params(X.shape[2], config.hidden, seed=config.seed, dtype=X.dtype)
    state = AdamState.for_params(params, lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)

    history = []
    n, steps, n_features = X.shape
    batch = min(n, config.batch_size)
    workspace = forward_workspace(batch, steps, params.hidden, X.dtype)
    # each batch is copied once, time-major, into the leading part of one
    # flat buffer, so forward_batch's [T * B, F] view and backward's x[:, t]
    # need no copy (np.take on the transposed X would first copy all of X)
    x_buf = np.empty(steps * batch * n_features, X.dtype)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for batch_no, start in enumerate(range(0, n, config.batch_size), 1):
            idx = order[start : start + config.batch_size]
            x = x_buf[: steps * len(idx) * n_features].reshape(steps, len(idx), n_features)
            for j, i in enumerate(idx):
                x[:, j] = X[i]
            logits, cache = forward_batch(params, x.transpose(1, 0, 2), workspace)
            batch_loss, d_logits = loss_batch(logits, labels[idx])
            if not np.isfinite(batch_loss):
                raise ModelError(f"non-finite loss in epoch {epoch}, batch {batch_no}")
            adam_step(params, backward(params, cache, d_logits), state)
            epoch_loss += float(batch_loss) * len(idx)
        history.append(epoch_loss / n)
    return params, history


def predict_batch(params: LstmParams, X, batch_size):
    """The predicted class of each sequence in X [N, T, F].

    At most ``batch_size`` sequences run at a time, through one workspace in
    the parameters' dtype, so scoring a split holds one batch's gate slab and
    cells, not the split's.
    """
    _check_finite(X, batch_size)
    workspace = forward_workspace(
        min(len(X), batch_size), X.shape[1], params.hidden, params.w_x.dtype
    )
    predicted = np.empty(len(X), dtype=np.intp)
    for start in range(0, len(X), batch_size):
        logits, _ = forward_batch(params, X[start : start + batch_size], workspace)
        predicted[start : start + batch_size] = np.argmax(logits, axis=1)
    return predicted
