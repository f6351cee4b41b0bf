"""Dense 1-D network layers with hand-written forward and backward passes.

Every layer keeps in ``_cache`` what its backward pass needs, and
``backward`` clears it once used, so no activation outlives its step.
Trainable tensors are :class:`Parameter` objects, whose gradients exist
only from backward to :class:`Adam`'s update.  There is no autodiff graph:
``backward`` consumes the gradient of the loss with respect to the layer
output and returns the gradient with respect to the layer input,
accumulating parameter gradients on the way.  No layer's ``forward`` or
``backward`` writes into an array it is handed.  Every layer runs in
train mode: inference runs the model's ``ScoringPlan``, which shares the
one ReLU rule of :class:`ReLU` and :func:`se_excitation` with them.

A path's training step does not chain these calls: the buffer schedule of
``model.PathNetwork`` calls the arithmetic they are made of (``output``,
``normalize``, ``affine``, ``gate``, ``weight_grad`` and ``input_grad``)
on buffers it owns, so the standalone layers are its bit-level oracle.

Stateful layers also list their current arrays by name in
``named_tensors``; checkpoints and training snapshots are built from it.

Every layer takes a minibatch: sequences are ``(batch, channels, time)``
and feature vectors ``(batch, features)``.  Parameters, their gradients
and batch norm's running statistics are float64.  A sequence layer
computes in its input's dtype: it allocates its buffers in that dtype and
casts its weights or per-channel vectors to it at the call, so float32
input runs its GEMMs and elementwise passes in float32 (each float32
gradient product is added into the float64 ``grad``), and float64 input
runs the float64 arithmetic.  :class:`Linear`, the head, computes in
float64 on either.

Behind that shape there is one activation layout: the zero-gutter buffer
(C, B, T + 2), channel-major with one zero frame at each end of every row,
where a kernel-3 convolution is one GEMM per tap (:func:`gutter_conv`).
:class:`Conv1d`, the batch norms and :class:`SEBlock` read their input and
gradient through :func:`to_gutter`, and they and :class:`MaxOverTime` hand
on the (B, C, T) interior of such a buffer, activations forward and
gradients backward, so the next layer reads it in place; an array from
outside the layers is copied in once, where it enters.
"""

from __future__ import annotations

import numpy as np


class Parameter:
    """A trainable array paired with its accumulated gradient.

    The gradient holds no memory until it is first read: ``grad`` then makes
    it from zeros, so the first accumulation ``p.grad += v`` stores 0.0 + v.
    ``zero_grad`` releases it, and :class:`Adam` does so after each update,
    so a gradient lives only from backward to the update.
    """

    __slots__ = ("data", "_grad")

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float64)
        self._grad = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

    def zero_grad(self) -> None:
        self._grad = None

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


# -- the zero-gutter layout ---------------------------------------------------
#
# A sequence batch (B, C, T) is kept in a channel-major buffer (C, B, W),
# W >= T: row (c, b) holds the T frames at offset (W - T) // 2 and zeros in
# the gutter columns around them.  Flattened to (C, B*W), a kernel-k
# convolution is k GEMMs, one per tap, each reading the flat buffer shifted
# by the tap (kn2row: Vasudevan, Anderson & Gregg, ASAP 2017).  A shifted
# view is a row-strided BLAS operand, so nothing is copied, and the gutters
# keep the taps of one row from reaching into the next.  Between the layers
# W = T + 2; only a Conv1d of another kernel or padding makes other widths.
# Elementwise work runs over whole buffers, contiguous and so faster than
# over the frames alone, and then zeroes the gutters again.


def zero_gutters(buf: np.ndarray, t: int) -> np.ndarray:
    q = (buf.shape[2] - t) // 2
    buf[:, :, :q] = 0.0
    buf[:, :, q + t :] = 0.0
    return buf


def interior(buf: np.ndarray, t: int) -> np.ndarray:
    """The (B, C, t) batch that a zero-gutter buffer holds, as a view."""
    q = (buf.shape[2] - t) // 2
    return buf[:, :, q : q + t].transpose(1, 0, 2)


def to_gutter(x: np.ndarray, width: int) -> np.ndarray:
    """A zero-gutter buffer (C, B, ``width``) holding the (B, C, T) batch
    ``x``: the buffer ``x`` already is the interior of, or else a new copy.
    The layers read the sequences they are handed through this, so only an
    array from outside the layers is copied, once, where it enters."""
    b, c, t = x.shape
    buf, q = x.base, (width - t) // 2
    if (isinstance(buf, np.ndarray) and buf.shape == (c, b, width) and buf.dtype == x.dtype
            and buf.flags.c_contiguous):
        view = interior(buf, t)
        if (x.strides == view.strides and x.ctypes.data == view.ctypes.data
                and not buf[:, :, :q].any() and not buf[:, :, q + t :].any()):
            return buf
    buf = zero_gutters(np.empty((c, b, width), x.dtype), t)
    interior(buf, t)[...] = x
    return buf


# Values per column block of ``_tap_sum``'s scratch: about 2**21, so at
# 512 channels a block is 4,096 to 8,191 columns, not the whole output
# (12,864 columns at paper shape: a 9 MiB scratch in place of 25 MiB).
# Narrower blocks cost BLAS time: 1,024 columns made a paper-shape tap sum
# about 10% slower, 4,096 none.
SCRATCH_VALUES = 2 ** 21


def _tap_sum(taps: np.ndarray, src: np.ndarray, out: np.ndarray, first: int) -> None:
    """``out[:, m] = sum_j taps[j] @ src[:, m + j - first]`` over the columns
    each tap reaches; tap ``first`` reaches all of them and writes ``out``.

    Each other tap's product is made in column blocks of ``SCRATCH_VALUES /
    out rows`` columns, rounded down to a multiple of 64, the last block
    taking the remainder, so no block is a small or one-column product:
    each block's columns are those of the whole product, bit for bit."""
    rows, n = out.shape[0], src.shape[1]
    np.matmul(taps[first], src, out=out)
    width = max(64, SCRATCH_VALUES // rows // 64 * 64)
    scratch = None
    for j in range(taps.shape[0]):
        s = j - first
        if s:
            lo, hi = max(0, -s), n - max(0, s)
            cuts = [lo + i * width for i in range(max(1, (hi - lo) // width))] + [hi]
            if scratch is None or scratch.shape[1] < hi - cuts[-2]:     # the last block is the widest
                scratch = np.empty((rows, hi - cuts[-2]), out.dtype)
            for a, b in zip(cuts, cuts[1:]):
                part = scratch[:, : b - a]
                out[:, a:b] += np.matmul(taps[j], src[:, a + s : b + s], out=part)


def gutter_conv(xbuf: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Kernel-k convolution of a zero-gutter buffer (C, B, W) by ``taps``
    (the weight as (k, O, C)): a new zero-gutter buffer (O, B, W) holding
    the W - k + 1 output frames, in the dtype of ``xbuf``."""
    k, out_ch, in_ch = taps.shape
    _, batch, width = xbuf.shape
    ybuf = np.empty((out_ch, batch, width), xbuf.dtype)
    _tap_sum(taps, xbuf.reshape(in_ch, -1), ybuf.reshape(out_ch, -1), (k - 1) // 2)
    return zero_gutters(ybuf, width - k + 1)       # and the sums that straddle two rows


class Conv1d:
    """1-D convolution (cross-correlation) over the time axis, with no bias.

    Output length is ``T + 2*padding - kernel + 1``; kernel 3 with padding
    1 preserves ``T``.  Weights are He-initialized for a ReLU nonlinearity.
    Every conv here feeds a batch norm, which subtracts the batch mean and so
    cancels a bias (Ioffe & Szegedy, ICML 2015, §3.2); its ``beta`` is the shift.

    The forward pass (``output``), the weight gradient (``weight_grad``) and
    the input gradient (``input_grad``) are each ``kernel`` GEMMs over
    zero-gutter buffers (see :func:`gutter_conv`).  An input that is the
    interior of a zero-gutter buffer with ``padding`` frames each side is
    read in place, as is a gradient laid out like this conv's output;
    anything else is copied into one.  The output and the input gradient are
    interiors of new zero-gutter buffers as wide as the padded input.
    Forward keeps the padded input buffer for backward.
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
        self.padding = padding
        self._cache = None

    def parameters(self):
        return [self.weight]

    def named_tensors(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight.data}

    def forward(self, x: np.ndarray) -> np.ndarray:
        _, in_ch, k = self.weight.shape
        if x.ndim != 3 or x.shape[1] != in_ch:
            raise ValueError(f"expected (batch, {in_ch}, time) input, got shape {x.shape}")
        t_in = x.shape[2]
        width = t_in + 2 * self.padding
        if width < k:
            raise ValueError(f"time extent {t_in} too short for kernel {k} with padding {self.padding}")
        self._cache = xbuf = to_gutter(x, width)
        return interior(self.output(xbuf), width - k + 1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xbuf, self._cache = self._cache, None
        gbuf = to_gutter(grad_out, xbuf.shape[2])
        self.weight_grad(xbuf, gbuf)
        del xbuf                                    # before the input gradient is made
        dbuf = self.input_grad(gbuf)
        return interior(dbuf, dbuf.shape[2] - 2 * self.padding)

    def output(self, xbuf: np.ndarray) -> np.ndarray:
        """The output of the padded input ``xbuf`` (C, B, W), a new
        zero-gutter buffer (O, B, W), in the dtype of ``xbuf``."""
        return gutter_conv(xbuf, self.weight.data.transpose(2, 0, 1).astype(xbuf.dtype, order="C"))

    def weight_grad(self, xbuf: np.ndarray, gbuf: np.ndarray) -> None:
        """Accumulate the weight gradient of the padded input ``xbuf`` and
        the output gradient ``gbuf``, laid out like the output."""
        k = self.weight.shape[2]
        x, g = xbuf.reshape(xbuf.shape[0], -1), gbuf.reshape(gbuf.shape[0], -1)
        n, first = g.shape[1], (k - 1) // 2
        for j in range(k):
            s = j - first
            lo, hi = max(0, -s), n - max(0, s)
            self.weight.grad[:, :, j] += g[:, lo:hi] @ x[:, lo + s : hi + s].T

    def input_grad(self, gbuf: np.ndarray) -> np.ndarray:
        """The input gradient for the output gradient ``gbuf``: the forward
        pass of the flipped, transposed kernel, a new zero-gutter buffer as
        wide as ``gbuf``.  It needs only the weights."""
        out_ch, in_ch, k = self.weight.shape
        dbuf = np.empty((in_ch,) + gbuf.shape[1:], gbuf.dtype)
        taps = self.weight.data[:, :, ::-1].transpose(2, 1, 0).astype(gbuf.dtype, order="C")
        _tap_sum(taps, gbuf.reshape(out_ch, -1), dbuf.reshape(in_ch, -1), k - 1 - (k - 1) // 2)
        return zero_gutters(dbuf, dbuf.shape[2] - 2 * self.padding)


class BatchNorm1d:
    """Per-channel batch normalization over the batch and time axes.

    Forward (``training`` must be True) normalizes with population
    statistics of the current batch and folds them into the running
    estimates with momentum ``MOMENTUM``, which inference folds into the
    conv.  Forward keeps the normalized input ``xhat`` and ``1/std``.

    The work runs on channel-major buffers, so every statistic is a row
    reduction.  The input is read as a (C, B, T + 2) zero-gutter buffer
    (:func:`to_gutter`: a kernel-3 conv's output is one already), and
    ``xhat``, the output and the input gradient are buffers as wide, so the
    conv that reads the output forward, or the gradient backward, needs no
    copy.
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
        if not training:
            raise ValueError("batch norm runs in train mode only")
        if x.shape[1] != self.gamma.shape[0]:
            raise ValueError("channel count mismatch")
        t = x.shape[2]
        src = to_gutter(x, t + 2)
        xhat = np.empty_like(src)
        self._cache = (xhat, self.normalize(src, xhat, t))
        return interior(self.affine(xhat, np.empty_like(xhat), t), t)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        (xhat, inv_std), self._cache = self._cache, None
        t = grad_out.shape[2]
        dy = to_gutter(grad_out, t + 2)
        return interior(self.input_grad(dy, np.empty_like(dy), xhat, inv_std, t), t)

    def normalize(self, src: np.ndarray, xhat: np.ndarray, t: int) -> np.ndarray:
        """Fold the batch statistics of the zero-gutter buffer ``src`` (C,
        B, t + 2) into the running estimates, write the normalized input
        into ``xhat``, which may be ``src``, and return ``1/std``."""
        c, b, _ = src.shape
        n = b * t
        if n < 2:
            raise ValueError("train-mode batch norm needs >1 sample per channel")
        mean = src.sum(axis=(1, 2)) / n
        zero_gutters(np.subtract(src, mean[:, None, None], out=xhat), t)
        flat = xhat.reshape(c, -1)
        var = np.einsum("ij,ij->i", flat, flat) / n        # no squared temporary
        m = self.MOMENTUM
        self.running_mean = (1 - m) * self.running_mean + m * mean
        self.running_var = (1 - m) * self.running_var + m * var
        inv_std = 1.0 / np.sqrt(var + self.EPSILON)
        xhat *= inv_std[:, None, None]
        return inv_std

    def affine(self, xhat: np.ndarray, out: np.ndarray, t: int) -> np.ndarray:
        """``gamma * xhat + beta`` of the zero-gutter ``xhat``, written into
        ``out`` with its gutters zeroed."""
        gamma, beta = (p.data.astype(xhat.dtype, copy=False) for p in (self.gamma, self.beta))
        np.multiply(gamma[:, None, None], xhat, out=out)
        out += beta[:, None, None]
        return zero_gutters(out, t)

    def input_grad(self, dy: np.ndarray, dx: np.ndarray, xhat: np.ndarray,
                   inv_std: np.ndarray, t: int) -> np.ndarray:
        """Accumulate the gradients of ``gamma`` and ``beta`` for the
        zero-gutter output gradient ``dy``, and write the input gradient
        into ``dx``, which may be ``dy``.  ``xhat`` is used up: it holds the
        correction afterwards."""
        c, b, _ = xhat.shape
        flat = dy.reshape(c, -1)
        sum_dy = flat.sum(axis=1)
        sum_dyx = np.einsum("ij,ij->i", flat, xhat.reshape(c, -1))
        self.gamma.grad += sum_dyx
        self.beta.grad += sum_dy
        scale = self.gamma.data.astype(xhat.dtype, copy=False) * inv_std
        np.multiply(dy, scale[:, None, None], out=dx)   # a (C, B, W) buffer the conv reads in place
        # Through the batch statistics: with g = gamma * dy, sum(g) =
        # gamma sum(dy) and sum(g xhat) = gamma sum(dy xhat), so
        # dx = scale * (dy - (sum(dy) + xhat * sum(dy xhat)) / n).
        n = b * t
        xhat *= (scale * sum_dyx / n)[:, None, None]
        xhat += (scale * sum_dy / n)[:, None, None]
        dx -= xhat
        return zero_gutters(dx, t)


class ReLU:
    """Elementwise ``np.maximum(x, 0.0)``, the one ReLU of the package: -0.0
    becomes +0.0 and a NaN passes through.  The gradient passes only where
    x > 0."""

    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask, self._cache = self._cache, None
        return np.where(mask, grad_out, 0.0)


def se_excitation(z: np.ndarray, w1, b1, w2, b2):
    """Squeeze-excitation of pooled values ``z`` (B, C), for ``SEBlock`` and
    ``ScoringPlan``: the first layer's pre-activation ``W1 . z + b1``
    (B, C/r), its ReLU, and the gate ``sigmoid(W2 . relu + b2)`` (B, C)."""
    pre1 = z @ w1.T + b1
    h = np.maximum(pre1, 0.0)
    return pre1, h, sigmoid(h @ w2.T + b2)


class SEBlock:
    """Squeeze-excitation gate: per-channel scale from time-pooled statistics.

    squeeze:  z_bc = mean_t x[b, c, t]
    excite:   s_b = sigmoid(W2 . relu(W1 . z_b + b1) + b2), s_b in (0, 1)^C
              (:func:`se_excitation`)
    output:   x[b, c, t] * s_bc

    Forward reads its input through :func:`to_gutter` and keeps it with the
    ``gate``: the pooled values, the first layer and ``s``.  The gated
    output and the input gradient (``input_grad``) are (C, B, T + 2)
    zero-gutter buffers: one product over the whole buffer, whose gutters
    are zeroed after it.  The next conv and batch norm read them in place.
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
        t = x.shape[2]
        xbuf = to_gutter(x, t + 2)
        gate = self.gate(xbuf, t)
        self._cache = (xbuf, gate)
        return interior(zero_gutters(xbuf * gate[-1].T[:, :, None], t), t)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        (xbuf, gate), self._cache = self._cache, None
        t = grad_out.shape[2]
        gbuf = to_gutter(grad_out, t + 2)
        prod = xbuf * gbuf
        return interior(self.input_grad(prod, gbuf, gate, prod, t), t)

    def gate(self, xbuf: np.ndarray, t: int):
        """The pooled values ``z`` (B, C) of the zero-gutter buffer ``xbuf``
        and their excitation: ``(z, pre1, relu, s)``."""
        z = interior(xbuf, t).mean(axis=2)
        return (z, *se_excitation(z, *(p.data.astype(xbuf.dtype, copy=False)
                                       for p in self.parameters())))

    def input_grad(self, prod: np.ndarray, gbuf: np.ndarray, gate, out: np.ndarray,
                   t: int) -> np.ndarray:
        """Accumulate the parameter gradients for the zero-gutter output
        gradient ``gbuf``, given ``prod``, the input times ``gbuf``, and
        write the input gradient into ``out``, which may be ``prod``."""
        z, pre1, h, s = gate
        grad_s = interior(prod, t).sum(axis=2)                # (B, C)
        np.multiply(gbuf, s.T[:, :, None], out=out)
        grad_pre2 = grad_s * s * (1.0 - s)
        self.w2.grad += grad_pre2.T @ h
        self.b2.grad += grad_pre2.sum(axis=0)
        grad_h = grad_pre2 @ self.w2.data.astype(s.dtype, copy=False)
        grad_pre1 = np.where(pre1 > 0, grad_h, 0.0)
        self.w1.grad += grad_pre1.T @ z
        self.b1.grad += grad_pre1.sum(axis=0)
        grad_z = grad_pre1 @ self.w1.data.astype(s.dtype, copy=False)
        out += (grad_z / t).T[:, :, None]
        return zero_gutters(out, t)


class MaxOverTime:
    """Per-channel maximum over the time axis: (B, C, T) -> (B, C).

    Backward routes the gradient to the first argmax position of each
    channel, which keeps training deterministic under ties.  The gradient is
    the interior of a zero (C, B, T + 2) buffer, which the layer before
    reads in place.
    """

    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[2] < 1:
            raise ValueError("time axis is empty")
        idx = x.argmax(axis=2)                                # first occurrence on ties
        self._cache = (x.shape, x.dtype, idx)
        return np.take_along_axis(x, idx[:, :, None], axis=2)[:, :, 0]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        (b, c, t), dtype, idx = self._cache
        self._cache = None
        grad_x = interior(np.zeros((c, b, t + 2), dtype), t)
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


def softmax_cross_entropy(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of integer class labels under softmax logits.

    Returns ``(loss, grad_logits)`` where the gradient is taken of the mean
    loss: ``(softmax(logits) - onehot(label)) / batch``.  ``logits`` is a
    ``(B, K)`` batch and ``labels`` holds ``B`` class indices.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (logits.shape[0],):
        raise ValueError("label count does not match batch size")
    shifted = logits - logits.max(axis=-1, keepdims=True)     # log softmax, overflow-safe
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
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
    with b1 = ``BETA1``, b2 = ``BETA2`` and eps = ``EPSILON``.  ``step``
    releases each gradient once its parameter is updated, and ``zero_grad``
    releases them all, so between steps only the moments ``m`` and ``v``
    stay beside the parameters.
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
            p.zero_grad()

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
