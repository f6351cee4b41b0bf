import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgpnet import nn
from fdcheck import assert_gradients_match, numerical_gradient, relative_error


def forward(layer, x):
    """A layer's forward; ``BatchNorm1d`` takes the pinned ``training=True``."""
    if isinstance(layer, nn.BatchNorm1d):
        return layer.forward(x, training=True)
    return layer.forward(x)


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
    interior of a zero-gutter buffer, or of one whose gutters are not zero;
    a (B, F) ``a`` "padded" is the interior of a zero-padded array."""
    if layout == "contiguous":
        return a.copy()
    if a.ndim == 2:
        return np.pad(a, ((0, 0), (1, 1)))[:, 1:-1]
    if layout == "transposed":
        return np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2)
    buf = nn.to_gutter(a, a.shape[2] + 2)
    if layout == "dirty-gutter":
        buf[:, :, 0] = 7.0
    return nn.interior(buf, a.shape[2])


SEQUENCE_LAYERS = {
    "batch-norm": lambda: nn.BatchNorm1d(4),
    "se": lambda: nn.SEBlock(4, reduction=2, rng=np.random.default_rng(1)),
    "max-over-time": nn.MaxOverTime,
}


class TestOneLayout:
    """Every sequence layer reads its input and its gradient through
    ``to_gutter`` and hands on the interior of a (C, B, T + 2) zero-gutter
    buffer, which the next layer reads in place."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", SEQUENCE_LAYERS)
    def test_outputs_and_gradients_do_not_depend_on_the_input_layout(self, name, dtype):
        rng = np.random.default_rng(3)
        b, c, t = 3, 4, 9
        x = (rng.normal(size=(b, c, t)) * 2.0 - 0.5).astype(dtype)
        runs = []
        for layout in ("contiguous", "transposed", "gutter", "dirty-gutter"):
            layer = SEQUENCE_LAYERS[name]()
            if isinstance(layer, nn.BatchNorm1d):
                layer.gamma.data[:] = np.linspace(-1.0, 1.5, c)
                layer.beta.data[:] = np.linspace(0.5, -0.5, c)
            x_in = laid_out(x, layout)
            out = forward(layer, x_in)
            g = np.random.default_rng(4).normal(size=out.shape).astype(dtype)
            grad = layer.backward(laid_out(g, layout) if g.ndim == 3 else g)
            for arr in (out, grad) if out.ndim == 3 else (grad,):
                assert arr.dtype == dtype
                assert nn.to_gutter(arr, t + 2) is arr.base and arr.base.shape == (c, b, t + 2)
            params = layer.parameters() if hasattr(layer, "parameters") else []
            runs.append([out, grad] + [p.grad for p in params])
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


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

    @pytest.mark.parametrize("layer", [nn.BatchNorm1d])
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


class TestStandaloneLayersLeaveTheirArguments:
    """No layer, the oracles of the step schedule, writes into an array it
    is handed: forward's input and backward's gradient are byte-unchanged,
    gutters included, whether plain arrays or zero-gutter interiors that
    they read in place."""

    # each layer class with a forward and a backward, and its input shape
    LAYERS = {
        "batch-norm": (lambda: nn.BatchNorm1d(4), (2, 4, 9)),
        "conv": (lambda: nn.Conv1d(3, 4, 3, padding=1, rng=np.random.default_rng(2)), (2, 3, 9)),
        "relu": (nn.ReLU, (2, 4, 9)),
        "se": (lambda: nn.SEBlock(4, reduction=2, rng=np.random.default_rng(2)), (2, 4, 9)),
        "max-over-time": (nn.MaxOverTime, (2, 4, 9)),
        "linear": (lambda: nn.Linear(5, 3, rng=np.random.default_rng(2)), (2, 5)),
    }

    def test_every_layer_class_is_covered(self):
        layers = {name for name, obj in vars(nn).items()
                  if isinstance(obj, type) and hasattr(obj, "forward") and hasattr(obj, "backward")}
        assert layers == {type(make()).__name__ for make, _ in self.LAYERS.values()}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["contiguous", "padded"])
    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_forward_input_and_backward_gradient_are_byte_unchanged(self, rng, name,
                                                                     layout, dtype):
        make, shape = self.LAYERS[name]
        layer = make()
        x = laid_out(rng.normal(size=shape).astype(dtype), layout)
        memory = x if x.base is None else x.base
        before = memory.tobytes()
        y = forward(layer, x)
        assert memory.tobytes() == before
        g = laid_out(rng.normal(size=y.shape).astype(dtype), layout)
        g_memory = g if g.base is None else g.base
        if layout == "padded" and g.ndim == 3:
            assert nn.to_gutter(g, g.shape[2] + 2) is g_memory     # read in place
        g_before = g_memory.tobytes()
        layer.backward(g)
        assert g_memory.tobytes() == g_before
        assert memory.tobytes() == before


class TestCachesCleared:
    @pytest.mark.parametrize("make, x_shape, grad_shape", [
        (lambda: nn.Conv1d(2, 3, 3, padding=1), (2, 2, 5), (2, 3, 5)),
        (lambda: nn.BatchNorm1d(2), (2, 2, 5), (2, 2, 5)),
        (nn.ReLU, (2, 2, 5), (2, 2, 5)),
        (lambda: nn.SEBlock(4, reduction=2), (2, 4, 5), (2, 4, 5)),
        (nn.MaxOverTime, (2, 3, 5), (2, 3)),
        (lambda: nn.Linear(3, 2), (4, 3), (4, 2)),
    ])
    def test_backward_drops_the_cache(self, rng, make, x_shape, grad_shape):
        layer = make()
        forward(layer, rng.normal(size=x_shape))
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

    @pytest.mark.parametrize("g1, g2", [(0.8, -1.7), (1e-8, -2e-8)], ids=["unit", "tiny"])
    def test_two_step_trace_matches_hand_recurrence(self, g1, g2):
        """Adam as written out by Kingma & Ba (ICLR 2015), in float64.  With
        |g| near eps, eps is about half the denominator, so "tiny" pins it."""
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8     # the fixed Adam constants
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
