import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgpnet import nn
from fdcheck import assert_gradients_match, numerical_gradient, relative_error


def forward(layer, x):
    """A batch norm's forward: the fused unit takes no mode, ``BatchNorm1d``
    the pinned ``training=True``."""
    if isinstance(layer, nn.BatchNormReLU):
        return layer.forward(x)
    return layer.forward(x, training=True)


class TestConv1d:
    def test_hand_convolution(self):
        conv = nn.Conv1d(1, 1, 3, padding=1)
        conv.weight.data[:] = 1.0
        out = conv.forward(np.array([[[1.0, 2.0, 3.0]]]))
        assert np.array_equal(out, [[[3.0, 6.0, 5.0]]])

    def test_identity_kernel(self, rng):
        conv = nn.Conv1d(1, 1, 3, padding=1)
        conv.weight.data[0, 0] = [0.0, 1.0, 0.0]
        x = rng.normal(size=(2, 1, 9))
        assert np.allclose(conv.forward(x), x)

    def test_full_scale_shape_preserved(self, rng):
        conv = nn.Conv1d(512, 512, 3, padding=1, rng=rng)
        out = conv.forward(rng.normal(size=(1, 512, 400)))
        assert out.shape == (1, 512, 400)

    @given(t=st.integers(min_value=1, max_value=64), ch=st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_time_extent_preserved_property(self, t, ch):
        conv = nn.Conv1d(ch, ch, 3, padding=1)
        out = conv.forward(np.zeros((2, ch, t)))
        assert out.shape == (2, ch, t)

    def test_scalar_backward_is_input(self):
        # 1x1 input, 1-tap kernel, loss = the single output value.
        conv = nn.Conv1d(1, 1, 1)
        conv.weight.data[:] = 0.7
        x = np.array([[[2.5]]])
        conv.forward(x)
        conv.backward(np.array([[[1.0]]]))
        assert conv.weight.grad[0, 0, 0] == pytest.approx(2.5)

    def test_zero_upstream_gradient(self, rng):
        conv = nn.Conv1d(2, 2, 3, padding=1, rng=rng)
        out = conv.forward(rng.normal(size=(3, 2, 6)))
        grad_x = conv.backward(np.zeros_like(out))
        assert not np.any(grad_x)
        assert not np.any(conv.weight.grad)

    def test_finite_difference_agreement(self, rng):
        conv = nn.Conv1d(2, 3, 3, padding=1, rng=rng)
        x = rng.normal(size=(2, 2, 7))
        proj = rng.normal(size=(2, 3, 7))

        def loss():
            return float((conv.forward(x) * proj).sum())

        loss()
        nn.Adam(conv.parameters()).zero_grad()
        loss()
        grad_x = conv.backward(proj)
        assert_gradients_match(
            loss,
            [x, conv.weight.data],
            [grad_x, conv.weight.grad],
        )

    def test_channel_mismatch_rejected(self, rng):
        conv = nn.Conv1d(3, 2, 3, padding=1, rng=rng)
        with pytest.raises(ValueError):
            conv.forward(rng.normal(size=(1, 2, 5)))

    def test_too_short_input_rejected(self):
        conv = nn.Conv1d(1, 1, 5)
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 1, 3)))


def conv_oracle(x, weight, padding, grad_out):
    """Output, weight and input gradients of a 1-D convolution by direct
    loops over batch rows, output frames and taps."""
    batch, _, t = x.shape
    k = weight.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    t_out = xp.shape[2] - k + 1
    out = np.zeros((batch, weight.shape[0], t_out))
    grad_w, grad_xp = np.zeros_like(weight), np.zeros_like(xp)
    for i in range(batch):
        for s in range(t_out):
            for j in range(k):
                out[i, :, s] += weight[:, :, j] @ xp[i, :, s + j]
                grad_w[:, :, j] += np.outer(grad_out[i, :, s], xp[i, :, s + j])
                grad_xp[i, :, s + j] += weight[:, :, j].T @ grad_out[i, :, s]
    return out, grad_w, grad_xp[:, :, padding : padding + t]


def laid_out(a, layout):
    """``a`` (B, C, T) as a batch-major array, a channel-major view, the
    interior of a zero-gutter buffer, or of one whose gutters are not zero."""
    if layout == "contiguous":
        return a.copy()
    if layout == "transposed":
        return np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2)
    buf = nn.to_gutter(a, a.shape[2] + 2)
    if layout == "dirty-gutter":
        buf[:, :, 0] = 7.0
    return nn.interior(buf, a.shape[2])


class TestConvAgainstLoops:
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "gutter", "dirty-gutter"])
    def test_forward_and_gradients_match_direct_loops(self, rng, kernel, padding, batch, layout):
        conv = nn.Conv1d(4, 5, kernel, padding=padding, rng=rng)
        x = rng.normal(size=(batch, 4, 7))
        t_out = 7 + 2 * padding - kernel + 1
        grad_out = rng.normal(size=(batch, 5, t_out))
        want = conv_oracle(x, conv.weight.data, padding, grad_out)
        x_in, g_in = laid_out(x, layout), laid_out(grad_out, layout)
        out = conv.forward(x_in)
        grad_x = conv.backward(g_in)
        assert np.array_equal(x_in, x) and np.array_equal(g_in, grad_out)
        worst = 0.0
        for got, expected in zip((out, conv.weight.grad, grad_x), want):
            assert got.shape == expected.shape
            worst = max(worst, np.abs(got - expected).max() / np.abs(expected).max())
        print(f"max relative error {worst:.1e}")
        assert worst <= 1e-12

    def test_forward_and_backward_copy_no_windows(self, rng):
        # Forward holds the padded input copy, the output and one GEMM
        # scratch at once; backward the output (read in place as the
        # gradient), the input gradient and one scratch.  A (B*T, k*C)
        # window matrix alone would be three of these.
        batch, ch, t = 8, 32, 256
        conv = nn.Conv1d(ch, ch, 3, padding=1, rng=rng)
        x = rng.normal(size=(batch, ch, t))
        conv.backward(conv.forward(x))        # warm up numpy's own caches
        buffer = batch * ch * (t + 2) * 8
        tracemalloc.start()
        try:
            out = conv.forward(x)
            conv.backward(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"peak {peak / buffer:.2f} buffers")
        assert peak <= 3 * buffer + buffer // 4, f"peak {peak} bytes, buffer {buffer}"


class TestBatchNorm:
    def test_standardized_input_passes_through(self, rng):
        bn = nn.BatchNorm1d(2)
        x = rng.normal(size=(4, 2, 25))
        x -= x.mean(axis=(0, 2), keepdims=True)
        x /= x.std(axis=(0, 2), keepdims=True)
        out = bn.forward(x, training=True)
        assert np.allclose(out, x, atol=1e-4)

    def test_affine_parameters_apply(self, rng):
        bn = nn.BatchNorm1d(1)
        bn.gamma.data[:] = 2.0
        bn.beta.data[:] = 3.0
        x = rng.normal(size=(8, 1, 10))
        x -= x.mean()
        x /= x.std()
        out = bn.forward(x, training=True)
        assert np.allclose(out, 2.0 * x + 3.0, atol=1e-4)

    def test_zero_variance_channel_is_finite(self):
        bn = nn.BatchNorm1d(1)
        out = bn.forward(np.full((2, 1, 4), 5.0), training=True)
        assert np.all(np.isfinite(out))
        assert np.allclose(out, 0.0)

    def test_eval_mode_refused(self, rng):
        # inference folds the running statistics into the conv (ScoringPlan)
        bn = nn.BatchNorm1d(2)
        before = (bn.running_mean.copy(), bn.running_var.copy())
        with pytest.raises(ValueError, match="train mode only"):
            bn.forward(rng.normal(size=(2, 2, 6)), training=False)
        assert np.array_equal(bn.running_mean, before[0])
        assert np.array_equal(bn.running_var, before[1])
        assert bn._cache is None

    def test_single_sample_train_mode_rejected(self):
        bn = nn.BatchNorm1d(3)
        with pytest.raises(ValueError):
            bn.forward(np.zeros((1, 3, 1)), training=True)

    def test_finite_difference_agreement(self, rng):
        bn = nn.BatchNorm1d(3)
        bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=3)
        bn.beta.data[:] = rng.normal(size=3)
        x = rng.normal(size=(2, 3, 5)) * 2.0 + 1.0
        proj = rng.normal(size=(2, 3, 5))

        def loss():
            saved = (bn.running_mean.copy(), bn.running_var.copy())
            value = float((bn.forward(x, training=True) * proj).sum())
            bn.running_mean, bn.running_var = saved
            return value

        loss()
        grad_x = bn.backward(proj)
        assert_gradients_match(
            loss,
            [x, bn.gamma.data, bn.beta.data],
            [grad_x, bn.gamma.grad, bn.beta.grad],
        )

    def test_matches_the_textbook_formula_within_ulps(self, rng):
        # The layer sums over the channel-major layout and folds gamma into
        # the gradient's scale, so it rounds in another order than the formula.
        bn = nn.BatchNorm1d(3)
        bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=3)
        bn.beta.data[:] = rng.normal(size=3)
        bn.running_mean = rng.normal(size=3)
        bn.running_var = rng.uniform(0.5, 2.0, size=3)
        x = rng.normal(size=(4, 3, 9)) * 2.0 + 1.0
        g = rng.normal(size=(4, 3, 9))
        gamma, beta = bn.gamma.data[None, :, None], bn.beta.data[None, :, None]
        mean, var = x.mean(axis=(0, 2)), x.var(axis=(0, 2))
        want_running = (0.9 * bn.running_mean + 0.1 * mean, 0.9 * bn.running_var + 0.1 * var)
        inv_std = 1.0 / np.sqrt(var + nn.BatchNorm1d.EPSILON)
        xhat = (x - mean[None, :, None]) * inv_std[None, :, None]
        gxhat = g * gamma
        n = x.shape[0] * x.shape[2]
        want_grad = (inv_std[None, :, None] / n) * (
            n * gxhat - gxhat.sum(axis=(0, 2), keepdims=True)
            - xhat * (gxhat * xhat).sum(axis=(0, 2), keepdims=True))
        pairs = [(bn.forward(x, training=True), gamma * xhat + beta),
                 (bn.running_mean, want_running[0]), (bn.running_var, want_running[1]),
                 (bn.backward(g), want_grad),
                 (bn.gamma.grad, (g * xhat).sum(axis=(0, 2))), (bn.beta.grad, g.sum(axis=(0, 2)))]
        ulps = [np.abs(got - want).max() / (np.finfo(float).eps * np.abs(want).max())
                for got, want in pairs]
        print(f"largest drift {max(ulps):.1f} ulps of the largest value")
        assert max(ulps) <= 4, ulps

    @pytest.mark.parametrize("layer", [nn.BatchNorm1d, nn.BatchNormReLU])
    def test_train_mode_cancels_a_per_channel_constant(self, rng, layer):
        # Why a conv feeding batch norm needs no bias: the batch mean takes it out.
        x = rng.normal(size=(4, 3, 9)) * 2.0 + 1.0
        shift = rng.normal(scale=3.0, size=(1, 3, 1))
        gamma, beta = rng.uniform(0.5, 1.5, size=3), rng.normal(size=3)
        g = rng.normal(size=(4, 3, 9))
        runs = []
        for inp in (x, x + shift):
            bn = layer(3)
            bn.gamma.data[:], bn.beta.data[:] = gamma, beta
            out = forward(bn, inp).copy()
            runs.append((out, bn.running_var, bn.backward(g), bn.gamma.grad, bn.beta.grad))
        # gamma's gradient sums g * xhat with |xhat| of order 1, and may cancel
        # to near zero, so its rounding is measured against sum |g|
        scales = [np.abs(want).max() for want in runs[0]]
        scales[3] = np.abs(g).sum(axis=(0, 2)).max()
        ulps = [np.abs(got - want).max() / (np.finfo(float).eps * scale)
                for got, want, scale in zip(*runs, scales)]
        print(f"largest drift {max(ulps):.1f} ulps")
        assert max(ulps) <= 8, ulps


class TestBatchNormReLU:
    def fused_and_chain(self, rng, channels=4):
        gamma = rng.uniform(-1.0, 1.5, size=channels)
        beta = rng.normal(scale=0.5, size=channels)
        fused, bn = nn.BatchNormReLU(channels), nn.BatchNorm1d(channels)
        for layer in (fused, bn):
            layer.gamma.data[:] = gamma
            layer.beta.data[:] = beta
        return fused, bn, nn.ReLU()

    def test_equals_batch_norm_then_relu_bit_for_bit(self, rng):
        fused, bn, relu = self.fused_and_chain(rng)
        x = rng.normal(size=(3, 4, 10)) * 2.0 - 0.5
        g = rng.normal(size=(3, 4, 10))
        y = fused.forward(x)
        want = relu.forward(bn.forward(x, True))
        assert np.array_equal(y, want)
        assert np.array_equal(np.signbit(y), np.signbit(want))     # zeros are +0.0
        assert 0 < np.count_nonzero(y) < y.size
        assert np.array_equal(fused.running_mean, bn.running_mean)
        assert np.array_equal(fused.running_var, bn.running_var)
        padded = fused.padded_output(1)
        assert np.array_equal(padded, np.pad(want, ((0, 0), (0, 0), (1, 1))))
        assert np.array_equal(np.signbit(padded), np.zeros(padded.shape, bool))
        assert np.array_equal(fused.backward(g), bn.backward(relu.backward(g)))
        assert np.array_equal(fused.gamma.grad, bn.gamma.grad)
        assert np.array_equal(fused.beta.grad, bn.beta.grad)

    def test_input_gradient_is_read_in_place_by_the_conv(self, rng):
        """Backward's gradient is the interior of a (C, B, W) zero-gutter
        buffer as wide as the conv output it came from."""
        conv, fused = nn.Conv1d(3, 4, 3, padding=1, rng=rng), self.fused_and_chain(rng)[0]
        y = fused.forward(conv.forward(rng.normal(size=(2, 3, 7))))
        dx = fused.backward(rng.normal(size=y.shape))
        assert nn.to_gutter(dx, 9) is dx.base and dx.base.shape == (4, 2, 9)

    def test_keeps_xhat_alone_and_passes_nan_through(self, rng):
        fused, bn, relu = self.fused_and_chain(rng)
        x = rng.normal(size=(2, 4, 6))
        fused.forward(x)
        xhat, inv_std = fused._cache
        assert xhat.shape == x.shape and inv_std.shape == (4,)
        x[0, 1, 2] = np.nan              # ReLU passes a NaN through; so must the fused unit
        y = fused.forward(x)
        assert np.array_equal(y, relu.forward(bn.forward(x, True)), equal_nan=True)
        assert np.isnan(y[:, 1]).all() and np.isfinite(np.delete(y, 1, axis=1)).all()

    # (gamma, beta) per channel: with gamma 0 a channel is beta, of the sign
    # of xhat when beta is a zero; a subnormal gamma makes subnormals and zeros.
    SPECIAL = ((0.0, -0.0), (0.0, 0.0), (0.0, np.nan), (0.0, np.inf), (0.0, -np.inf),
               ("tiny", -0.0), ("tiny", 0.0), (1.5, -0.25))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["contiguous", "padded", "strided"])
    def test_equals_batch_norm_then_relu_on_special_values(self, rng, dtype, layout):
        """One ReLU rule, ``np.maximum(z, 0.0)``: the fused unit, over its whole
        buffer, equals batch norm then ``ReLU`` in values and sign bits, NaN
        where NaN, on -0.0, +0.0, NaN, +-inf and subnormals; no zero keeps a
        sign, and the rebuilt output's gutters are +0.0."""
        tiny = np.finfo(dtype).smallest_normal / 4
        gamma, beta = np.array([(tiny if g == "tiny" else g, b) for g, b in self.SPECIAL]).T
        c = len(gamma)
        for t in (1, 3, 7, 64, 1001):       # vector bodies and scalar tails alike
            x = rng.normal(size=(2, c, t)).astype(dtype)
            if layout == "padded":
                x = nn.interior(nn.to_gutter(x, t + 2), t)
            elif layout == "strided":
                x = np.repeat(x, 2, axis=2)[:, :, ::2]
            fused, bn, relu = nn.BatchNormReLU(c), nn.BatchNorm1d(c), nn.ReLU()
            for layer in (fused, bn):
                layer.gamma.data[:], layer.beta.data[:] = gamma, beta
            z = bn.forward(x, True)
            assert (np.isnan(z).any() and np.isposinf(z).any() and np.isneginf(z).any()
                    and ((z == 0) & np.signbit(z)).any()
                    and ((0 < np.abs(z)) & (np.abs(z) < np.finfo(dtype).smallest_normal)).any())
            want = relu.forward(z)
            y = fused.forward(x)
            padded = fused.padded_output(1)
            for got in (y, padded[:, :, 1:-1]):
                assert got.dtype == dtype
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.isnan(got), np.isnan(z))
                assert np.array_equal(np.signbit(got), np.signbit(want))
                assert not np.signbit(got[~np.isnan(got)]).any()
            gutters = padded[:, :, [0, -1]]
            assert not gutters.any() and not np.signbit(gutters).any()


class TestCachesCleared:
    @pytest.mark.parametrize("make, x_shape, grad_shape", [
        (lambda: nn.Conv1d(2, 3, 3, padding=1), (2, 2, 5), (2, 3, 5)),
        (lambda: nn.BatchNorm1d(2), (2, 2, 5), (2, 2, 5)),
        (lambda: nn.BatchNormReLU(2), (2, 2, 5), (2, 2, 5)),
        (nn.ReLU, (2, 2, 5), (2, 2, 5)),
        (lambda: nn.SEBlock(4, reduction=2), (2, 4, 5), (2, 4, 5)),
        (nn.MaxOverTime, (2, 3, 5), (2, 3)),
        (lambda: nn.Linear(3, 2), (4, 3), (4, 2)),
    ])
    def test_backward_drops_the_cache(self, rng, make, x_shape, grad_shape):
        layer = make()
        x = rng.normal(size=x_shape)
        if isinstance(layer, nn.BatchNorm1d):
            forward(layer, x)
        else:
            layer.forward(x)
        assert layer._cache is not None
        layer.backward(rng.normal(size=grad_shape))
        assert layer._cache is None


class TestReluAndSe:
    def test_relu_values(self):
        layer = nn.ReLU()
        assert np.array_equal(layer.forward(np.array([[-1.0, 0.0, 2.0]])), [[0.0, 0.0, 2.0]])

    def test_zero_weights_halve_input(self, rng):
        se = nn.SEBlock(4, reduction=2)
        for p in se.parameters():
            p.data[:] = 0.0
        x = rng.normal(size=(2, 4, 6))
        assert np.allclose(se.forward(x), 0.5 * x)

    def test_scale_strictly_inside_unit_interval(self, rng):
        se = nn.SEBlock(4, reduction=2, rng=rng)
        x = rng.normal(size=(2, 4, 6))
        out = se.forward(x)
        scale = out[:, :, 0] / x[:, :, 0]
        assert np.all(scale > 0.0) and np.all(scale < 1.0)
        assert np.allclose(out, x * scale[:, :, None])

    def test_large_excitation_saturates_to_identity(self, rng):
        se = nn.SEBlock(2, reduction=2)
        for p in se.parameters():
            p.data[:] = 0.0
        x = rng.normal(size=(1, 2, 5))
        previous = se.forward(x)
        for bias in (2.0, 5.0, 20.0):
            se.b2.data[:] = bias           # pre-sigmoid excitation, monotone in bias
            out = se.forward(x)
            ratio = out / x
            assert np.all(np.abs(ratio - 1.0) < np.abs(previous / x - 1.0) + 1e-12)
            previous = out
        assert np.allclose(previous, x, atol=1e-6)

    def test_reduction_must_divide(self):
        with pytest.raises(ValueError):
            nn.SEBlock(6, reduction=4)

    def test_finite_difference_agreement(self, rng):
        se = nn.SEBlock(4, reduction=2, rng=rng)
        x = rng.normal(size=(2, 4, 6))
        proj = rng.normal(size=(2, 4, 6))

        def loss():
            return float((se.forward(x) * proj).sum())

        loss()
        grad_x = se.backward(proj)
        arrays = [x] + [p.data for p in se.parameters()]
        grads = [grad_x] + [p.grad for p in se.parameters()]
        assert_gradients_match(loss, arrays, grads)


class TestMaxOverTime:
    def test_full_scale_shape(self, rng):
        pool = nn.MaxOverTime()
        assert pool.forward(rng.normal(size=(1, 512, 400))).shape == (1, 512)

    def test_constant_channel(self):
        pool = nn.MaxOverTime()
        out = pool.forward(np.full((2, 3, 10), 4.2))
        assert np.allclose(out, 4.2)

    def test_tie_routes_gradient_to_first_index(self):
        pool = nn.MaxOverTime()
        pool.forward(np.array([[[5.0, 5.0]]]))
        grad = pool.backward(np.array([[1.0]]))
        assert np.array_equal(grad, [[[1.0, 0.0]]])

    def test_empty_time_axis_rejected(self):
        with pytest.raises(ValueError):
            nn.MaxOverTime().forward(np.zeros((1, 3, 0)))

    def test_gradient_shares_the_input_layout(self, rng):
        """A gutter input gets its gradient as the interior of a zero buffer
        as wide, which ``to_gutter`` reads in place; a plain one, a plain array."""
        x = rng.normal(size=(2, 3, 9)).astype(np.float32)
        g = rng.normal(size=(2, 3)).astype(np.float32)
        pool = nn.MaxOverTime()
        pool.forward(x)
        want = pool.backward(g)
        assert want.base is None and want.dtype == np.float32
        pool.forward(nn.interior(nn.to_gutter(x, 13), 9))
        got = pool.backward(g)
        assert nn.to_gutter(got, 13) is got.base and got.base.shape == (3, 2, 13)
        assert np.array_equal(got, want)

    def test_finite_difference_agreement(self, rng):
        pool = nn.MaxOverTime()
        x = rng.normal(size=(2, 3, 9))
        proj = rng.normal(size=(2, 3))

        def loss():
            return float((pool.forward(x) * proj).sum())

        loss()
        grad_x = pool.backward(proj)
        assert relative_error(grad_x, numerical_gradient(loss, x)) < 1e-4


class TestLinearAndLoss:
    def test_uniform_logits_loss_is_ln2(self):
        loss, grad = nn.softmax_cross_entropy(np.array([[0.0, 0.0]]), [0])
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)
        assert np.allclose(grad, [[-0.5, 0.5]])

    def test_extreme_logits_do_not_overflow(self):
        loss, grad = nn.softmax_cross_entropy(np.array([[1000.0, 0.0]]), [0])
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))

    def test_loss_nonnegative_and_ln_k_at_uniform(self):
        for k in (2, 3, 5):
            loss, _ = nn.softmax_cross_entropy(np.full((1, k), 1.7), [0])
            assert loss == pytest.approx(np.log(k), abs=1e-12)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=6),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_loss_nonnegative_property(self, logits, label):
        logits = np.asarray(logits)[None, :]
        label = label % logits.shape[1]
        loss, _ = nn.softmax_cross_entropy(logits, [label])
        assert loss >= 0.0

    def test_finite_difference_agreement(self, rng):
        logits = rng.normal(size=(4, 2))
        labels = np.array([0, 1, 1, 0])

        def loss():
            return nn.softmax_cross_entropy(logits, labels)[0]

        _, grad = nn.softmax_cross_entropy(logits, labels)
        assert relative_error(grad, numerical_gradient(loss, logits)) < 1e-4

    def test_linear_finite_difference(self, rng):
        lin = nn.Linear(5, 2, rng=rng)
        x = rng.normal(size=(3, 5))
        proj = rng.normal(size=(3, 2))

        def loss():
            return float((lin.forward(x) * proj).sum())

        loss()
        grad_x = lin.backward(proj)
        assert_gradients_match(
            loss, [x, lin.weight.data, lin.bias.data],
            [grad_x, lin.weight.grad, lin.bias.grad],
        )

    def test_zero_init_head(self):
        lin = nn.Linear(4, 2, init="zero")
        assert not np.any(lin.weight.data)
        assert not np.any(lin.bias.data)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        p = nn.Parameter(np.array([1.0, -2.0, 0.5]))
        p.grad[:] = [3.0, -7.0, 0.002]
        opt = nn.Adam([p], lr=0.1)
        opt.step()
        assert np.allclose(p.data, [1.0 - 0.1, -2.0 + 0.1, 0.5 - 0.1], atol=1e-5)

    def test_gradient_rescaling_invariance_at_step_one(self):
        updates = []
        for scale in (1.0, 1e3, 1e6):
            p = nn.Parameter(np.array([0.0]))
            p.grad[:] = 2.0 * scale
            opt = nn.Adam([p], lr=0.01)
            opt.step()
            updates.append(p.data[0])
        assert np.allclose(updates, -0.01, atol=1e-7)

    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = nn.Parameter(np.array([1.5, -0.5]))
        opt = nn.Adam([p], lr=0.1)
        opt.step()
        assert np.array_equal(p.data, [1.5, -0.5])

    def test_two_step_trace_matches_hand_recurrence(self):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8     # the fixed Adam constants
        g1, g2 = 0.8, -1.7
        # hand-applied recurrences
        theta, m, v = 2.0, 0.0, 0.0
        expected = []
        for t, g in enumerate((g1, g2), start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta = theta - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            expected.append(theta)

        p = nn.Parameter(np.array([2.0]))
        opt = nn.Adam([p], lr=lr)
        observed = []
        for g in (g1, g2):
            p.grad[:] = g
            opt.step()
            observed.append(p.data[0])
        assert np.allclose(observed, expected, rtol=1e-12)

    def test_gradient_lives_from_first_use_to_the_update(self):
        p = nn.Parameter(np.array([1.0, -2.0]))
        assert p._grad is None
        p.grad += np.array([-0.0, 3.0])
        assert np.array_equal(np.signbit(p.grad), [False, False])      # 0.0 + v, as before
        nn.Adam([p], lr=0.1).step()
        assert p._grad is None
        assert np.array_equal(p.grad, [0.0, 0.0])
        p.zero_grad()
        assert p._grad is None

    def test_step_counter_increments(self):
        p = nn.Parameter(np.zeros(1))
        opt = nn.Adam([p])
        opt.step()
        opt.step()
        assert opt.t == 2
