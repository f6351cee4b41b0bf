"""Dense 1-D network layers with hand-written forward and backward passes.

Every layer keeps in ``_cache`` only what its backward pass cannot rebuild,
and ``backward`` clears it once used, so no activation outlives its step.
Trainable tensors are :class:`Parameter` objects.  There is no autodiff
graph: ``backward`` consumes the gradient of the loss with respect to the
layer output and returns the gradient with respect to the layer input,
accumulating parameter gradients on the way.

:class:`BatchNormReLU` is batch norm and ReLU in one unit that keeps only
batch norm's ``xhat`` and recomputes the ReLU output from it, in backward
and for a :class:`Conv1d` whose ``input_source`` it is; the standalone
:class:`BatchNorm1d` and :class:`ReLU` stay as its bit-level oracle.

Stateful layers also list their current arrays by name in
``named_tensors``; checkpoints and training snapshots are built from it.

Every layer takes a minibatch: sequences are ``(batch, channels, time)``
and feature vectors ``(batch, features)``.  Parameters are float64.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Parameter:
    """A trainable array paired with its accumulated gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    @property
    def shape(self):
        return self.data.shape


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign so exp never overflows.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Conv1d:
    """1-D convolution (cross-correlation) over the time axis.

    Output length is ``T + 2*padding - kernel + 1``; kernel 3 with padding
    1 preserves ``T``.  Weights are He-initialized for a ReLU nonlinearity.

    Forward keeps a reference to its unpadded input, and backward re-pads it
    for the weight gradient only.  With ``input_source`` set (to a layer
    with ``padded_output(padding)`` that rebuilds this conv's input), forward
    keeps nothing and backward asks the source for the padded input instead.
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: int, padding: int = 0,
                 rng: np.random.Generator | None = None):
        if in_ch < 1 or out_ch < 1:
            raise ValueError("channel counts must be >= 1")
        if kernel < 1 or padding < 0:
            raise ValueError("bad kernel/padding")
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / (in_ch * kernel))
        self.weight = Parameter(rng.normal(0.0, scale, size=(out_ch, in_ch, kernel)))
        self.bias = Parameter(np.zeros(out_ch))
        self.padding = padding
        self.input_source = None
        self._cache = None

    def parameters(self):
        return [self.weight, self.bias]

    def named_tensors(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight.data, "bias": self.bias.data}

    def forward(self, x: np.ndarray) -> np.ndarray:
        _, in_ch, k = self.weight.shape
        if x.ndim != 3 or x.shape[1] != in_ch:
            raise ValueError(f"expected (batch, {in_ch}, time) input, got shape {x.shape}")
        t_in = x.shape[2]
        if t_in + 2 * self.padding < k:
            raise ValueError(f"time extent {t_in} too short for kernel {k} with padding {self.padding}")
        windows = sliding_window_view(self._pad(x), k, axis=2)
        out = np.einsum("bitk,oik->bot", windows, self.weight.data, optimize=True)
        out += self.bias.data[None, :, None]
        self._cache = x if self.input_source is None else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.backward_params(grad_out)
        return self.backward_input(grad_out)

    def backward_params(self, grad_out: np.ndarray) -> None:
        """Accumulate the weight and bias gradients; the forward input is
        padded for this call only and then dropped."""
        if self.input_source is None:
            xp = self._pad(self._cache)
        else:
            xp = self.input_source.padded_output(self.padding)
        self._cache = None
        windows = sliding_window_view(xp, self.weight.shape[2], axis=2)
        self.weight.grad += np.einsum("bot,bitk->oik", grad_out, windows, optimize=True)
        self.bias.grad += grad_out.sum(axis=(0, 2))

    def backward_input(self, grad_out: np.ndarray) -> np.ndarray:
        """Gradient with respect to the forward input; it needs only the weights."""
        _, in_ch, k = self.weight.shape
        grad_win = np.einsum("bot,oik->bitk", grad_out, self.weight.data, optimize=True)
        t_out = grad_out.shape[2]
        grad_xp = np.zeros((grad_out.shape[0], in_ch, t_out + k - 1))
        for tap in range(k):
            grad_xp[:, :, tap : tap + t_out] += grad_win[:, :, :, tap]
        p = self.padding
        return grad_xp[:, :, p : grad_xp.shape[2] - p] if p else grad_xp

    def _pad(self, x: np.ndarray) -> np.ndarray:
        return np.pad(x, ((0, 0), (0, 0), (self.padding, self.padding)))


class BatchNorm1d:
    """Per-channel batch normalization over the batch and time axes.

    Train mode normalizes with population statistics of the current batch
    and folds them into the running estimates with momentum ``MOMENTUM``;
    eval mode normalizes with the running estimates.  Forward keeps the
    normalized input ``xhat`` and ``1/std``.
    """

    MOMENTUM = 0.1
    EPSILON = 1e-5

    def __init__(self, channels: int):
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache = None

    def parameters(self):
        return [self.gamma, self.beta]

    def named_tensors(self) -> dict[str, np.ndarray]:
        # forward rebinds the running statistics, so read them here, not earlier
        return {"gamma": self.gamma.data, "beta": self.beta.data,
                "running_mean": self.running_mean, "running_var": self.running_var}

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if x.shape[1] != self.gamma.shape[0]:
            raise ValueError("channel count mismatch")
        if training:
            n = x.shape[0] * x.shape[2]
            if n < 2:
                raise ValueError("train-mode batch norm needs >1 sample per channel")
            mean = x.mean(axis=(0, 2))
            xhat = x - mean[None, :, None]
            # x.var(axis=(0, 2)) in NumPy's own operations, sharing x - mean with xhat
            var = np.add.reduce(np.square(xhat), axis=(0, 2)) / n
            m = self.MOMENTUM
            self.running_mean = (1 - m) * self.running_mean + m * mean
            self.running_var = (1 - m) * self.running_var + m * var
        else:
            xhat = x - self.running_mean[None, :, None]
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.EPSILON)
        xhat *= inv_std[None, :, None]
        self._cache = (xhat, inv_std, training)
        return self._affine(xhat, None)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xhat, inv_std, training = self._cache
        self._cache = None
        scratch = grad_out * xhat
        self.gamma.grad += scratch.sum(axis=(0, 2))
        self.beta.grad += grad_out.sum(axis=(0, 2))
        g = grad_out * self.gamma.data[None, :, None]
        if not training:
            g *= inv_std[None, :, None]
            return g
        # (inv_std / n) * (n * g - sum(g) - xhat * sum(g * xhat)), in place
        n = xhat.shape[0] * xhat.shape[2]
        sum_g = g.sum(axis=(0, 2), keepdims=True)
        np.multiply(g, xhat, out=scratch)
        sum_gx = scratch.sum(axis=(0, 2), keepdims=True)
        g *= n
        g -= sum_g
        np.multiply(xhat, sum_gx, out=scratch)
        g -= scratch
        g *= inv_std[None, :, None] / n
        return g

    def _affine(self, xhat: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """``gamma * xhat + beta``, into ``out`` when given."""
        out = np.multiply(self.gamma.data[None, :, None], xhat, out=out)
        out += self.beta.data[None, :, None]
        return out


def _relu_in_place(z: np.ndarray) -> np.ndarray:
    """``z`` overwritten with ``np.where(z > 0, z, 0.0)``, bit for bit.

    ``np.maximum`` alone may leave -0.0 for a zero and propagates NaN; adding
    +0.0 turns -0.0 into +0.0 and leaves every other value as it is, and NaN
    is zeroed explicitly.  Several times faster than the masked select.
    """
    np.maximum(z, 0.0, out=z)
    z += 0.0
    nan = np.isnan(z)
    if nan.any():
        z[nan] = 0.0
    return z


class BatchNormReLU(BatchNorm1d):
    """``relu(BatchNorm1d(x))`` that keeps only batch norm's ``xhat`` and ``1/std``.

    ReLU cannot be inverted, so the unit keeps ``xhat`` rather than its
    output, and recomputes ``gamma * xhat + beta`` with the forward's
    operations whenever it needs the mask or the output again: in backward,
    and in ``padded_output`` for the conv that reads this unit's output
    (in-place activated BN, Rota Bulò et al., CVPR 2018, with the cheap
    recomputation of Chen et al., 2016).  Everything is bit-identical to
    ``BatchNorm1d`` followed by ``ReLU``.  Eval mode keeps nothing.
    """

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        out = super().forward(x, training)
        if not training:
            self._cache = None
        return _relu_in_place(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask = self._affine(self._cache[0], None) > 0
        return super().backward(np.where(mask, grad_out, 0.0))

    def padded_output(self, padding: int) -> np.ndarray:
        """The last train-mode output, rebuilt inside ``padding`` zero frames
        at each end of the time axis."""
        xhat = self._cache[0]
        b, c, t = xhat.shape
        padded = np.zeros((b, c, t + 2 * padding))
        _relu_in_place(self._affine(xhat, padded[:, :, padding : padding + t]))
        return padded


class ReLU:
    """Elementwise max(0, x); gradient passes only where x > 0."""

    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x > 0
        return np.where(self._cache, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask, self._cache = self._cache, None
        return np.where(mask, grad_out, 0.0)


class SEBlock:
    """Squeeze-excitation gate: per-channel scale from time-pooled statistics.

    squeeze:  z_bc = mean_t x[b, c, t]
    excite:   s_b = sigmoid(W2 . relu(W1 . z_b + b1) + b2), s_b in (0, 1)^C
    output:   x[b, c, t] * s_bc
    """

    def __init__(self, channels: int, reduction: int = 16,
                 rng: np.random.Generator | None = None):
        if channels % reduction != 0:
            raise ValueError(f"reduction {reduction} must divide channel count {channels}")
        rng = rng or np.random.default_rng(0)
        inner = channels // reduction
        self.w1 = Parameter(rng.normal(0.0, np.sqrt(2.0 / channels), size=(inner, channels)))
        self.b1 = Parameter(np.zeros(inner))
        self.w2 = Parameter(rng.normal(0.0, np.sqrt(2.0 / inner), size=(channels, inner)))
        self.b2 = Parameter(np.zeros(channels))
        self._cache = None

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def named_tensors(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1.data, "b1": self.b1.data, "w2": self.w2.data, "b2": self.b2.data}

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.w1.shape[1]:
            raise ValueError("channel count mismatch")
        z = x.mean(axis=2)                                    # (B, C)
        pre1 = z @ self.w1.data.T + self.b1.data              # (B, C/r)
        h = np.maximum(pre1, 0.0)
        pre2 = h @ self.w2.data.T + self.b2.data              # (B, C)
        s = sigmoid(pre2)
        self._cache = (x, z, pre1, h, s)
        return x * s[:, :, None]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, z, pre1, h, s = self._cache
        self._cache = None
        t = x.shape[2]
        grad_s = (grad_out * x).sum(axis=2)                   # (B, C)
        grad_x = grad_out * s[:, :, None]
        grad_pre2 = grad_s * s * (1.0 - s)
        self.w2.grad += grad_pre2.T @ h
        self.b2.grad += grad_pre2.sum(axis=0)
        grad_h = grad_pre2 @ self.w2.data
        grad_pre1 = np.where(pre1 > 0, grad_h, 0.0)
        self.w1.grad += grad_pre1.T @ z
        self.b1.grad += grad_pre1.sum(axis=0)
        grad_z = grad_pre1 @ self.w1.data
        grad_x += grad_z[:, :, None] / t
        return grad_x


class MaxOverTime:
    """Per-channel maximum over the time axis: (B, C, T) -> (B, C).

    Backward routes the gradient to the first argmax position of each
    channel, which keeps training deterministic under ties.
    """

    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[2] < 1:
            raise ValueError("time axis is empty")
        idx = x.argmax(axis=2)                                # first occurrence on ties
        self._cache = (x.shape, idx)
        return np.take_along_axis(x, idx[:, :, None], axis=2)[:, :, 0]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        shape, idx = self._cache
        self._cache = None
        grad_x = np.zeros(shape)
        np.put_along_axis(grad_x, idx[:, :, None], grad_out[:, :, None], axis=2)
        return grad_x


class Linear:
    """Affine map ``x @ W.T + b`` over a batch of feature vectors (B, in).

    ``init="zero"`` starts weights and bias at zero, which makes a
    two-class softmax head emit exactly uniform probabilities at step 0.
    """

    def __init__(self, in_features: int, out_features: int, init: str = "he",
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        if init == "zero":
            w = np.zeros((out_features, in_features))
        elif init == "he":
            w = rng.normal(0.0, np.sqrt(2.0 / in_features), size=(out_features, in_features))
        else:
            raise ValueError(f"unknown init {init!r}")
        self.weight = Parameter(w)
        self.bias = Parameter(np.zeros(out_features))
        self._cache = None

    def parameters(self):
        return [self.weight, self.bias]

    def named_tensors(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight.data, "bias": self.bias.data}

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.weight.shape[1]:
            raise ValueError("feature width mismatch")
        self._cache = x
        return x @ self.weight.data.T + self.bias.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, self._cache = self._cache, None
        self.weight.grad += grad_out.T @ x
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log softmax in max-subtracted (overflow-safe) form."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_cross_entropy(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of integer class labels under softmax logits.

    Returns ``(loss, grad_logits)`` where the gradient is taken of the mean
    loss: ``(softmax(logits) - onehot(label)) / batch``.  ``logits`` is a
    ``(B, K)`` batch and ``labels`` holds ``B`` class indices.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (logits.shape[0],):
        raise ValueError("label count does not match batch size")
    logp = log_softmax(logits)
    n = logits.shape[0]
    loss = -logp[np.arange(n), labels].mean()
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return float(loss), grad


class Adam:
    """Adam with bias correction over a list of :class:`Parameter`.

    update: m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2
            step = lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
    with b1 = ``BETA1``, b2 = ``BETA2`` and eps = ``EPSILON``.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPSILON = 1e-8

    def __init__(self, params, lr: float = 1e-4):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.EPSILON)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
