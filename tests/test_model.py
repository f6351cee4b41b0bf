import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plain_net
from lgpnet import model as model_mod
from lgpnet import nn, tensorio
from lgpnet.errors import FormatError, NonFiniteMapError
from lgpnet.gmm import Gmm
from lgpnet.lgp import extract_lgp, fit_norm_stats
from lgpnet.model import (
    ClassifierConfig,
    LgpMaps,
    PathNetwork,
    ScoringPlan,
    SpoofModel,
    UfmConfig,
    _tensor_shapes,
    read_checkpoint,
    segment_ufm,
)
from fdcheck import assert_gradients_match
from lgpnet.nn import (Adam, BatchNorm1d, Conv1d, Linear, MaxOverTime, ReLU, SEBlock,
                       gutter_conv, softmax_cross_entropy)


def desk_config(paths=1, se=False, blocks=2, input_length=32):
    return ClassifierConfig(
        gmm_order=8, channels=16, blocks=blocks, se_enabled=se, se_reduction=4,
        input_length=input_length, paths=paths, lgp_form="fast",
    )


def make_gmm(order, dim, seed):
    rng = np.random.default_rng(seed)
    return Gmm(
        np.full(order, 1.0 / order),
        rng.normal(size=(order, dim)),
        rng.uniform(0.5, 2.0, size=(order, dim)),
    )


@pytest.fixture
def desk_model(rng):
    gmm = make_gmm(8, 4, 5)
    stats = fit_norm_stats(gmm, rng.normal(size=(300, 4)), "fast")
    return SpoofModel(desk_config(), [gmm], [stats], seed=3)


@pytest.fixture
def two_path_model(rng):
    g0, g1 = make_gmm(8, 4, 5), make_gmm(8, 4, 6)
    train = rng.normal(size=(300, 4))
    stats = [fit_norm_stats(g, train, "fast") for g in (g0, g1)]
    return SpoofModel(desk_config(paths=2), [g0, g1], stats, seed=3)


def _layers(path):
    """Every layer of a path."""
    return [layer for _, layer in path._named_layers()]


class TestPathShapes:
    def test_desk_scale_embedding(self, rng):
        path = PathNetwork(desk_config(), rng)
        lgp = rng.normal(size=(1, 8, 32))
        assert path.forward(lgp, training=True).shape == (1, 16)

    def test_eval_mode_refused(self, rng):
        path = PathNetwork(desk_config(), rng)
        with pytest.raises(ValueError, match="train mode only"):
            path.forward(rng.normal(size=(2, 8, 32)), training=False)
        assert path.held() == {}

    def test_batched_embedding(self, rng):
        path = PathNetwork(desk_config(se=True), rng)
        lgp = rng.normal(size=(5, 8, 32))
        assert path.forward(lgp, training=True).shape == (5, 16)

    @pytest.mark.slow
    def test_full_scale_shape_trace(self, rng):
        cfg = ClassifierConfig(gmm_order=512, channels=512, blocks=6,
                               se_enabled=False, input_length=400, paths=1)
        path = PathNetwork(cfg, rng)
        lgp = rng.normal(size=(1, 512, 400))
        assert path.forward(lgp, training=True).shape == (1, 512)

    def test_wrong_input_shape_rejected(self, rng):
        path = PathNetwork(desk_config(), rng)
        with pytest.raises(ValueError):
            path.forward(rng.normal(size=(1, 9, 32)), training=True)

    def test_end_to_end_gradient_check(self, rng):
        for se in (False, True):
            cfg = ClassifierConfig(gmm_order=3, channels=4, blocks=1,
                                   se_enabled=se, se_reduction=2,
                                   input_length=6, paths=1)
            path = PathNetwork(cfg, rng)
            head = Linear(4, 2, rng=rng)
            x = rng.normal(size=(2, 3, 6))
            labels = np.array([0, 1])
            bns = path.batchnorms()

            def loss():
                saved = [(bn.running_mean.copy(), bn.running_var.copy()) for bn in bns]
                emb = path.forward(x, training=True)
                value = softmax_cross_entropy(head.forward(emb), labels)[0]
                for bn, (m, v) in zip(bns, saved):
                    bn.running_mean, bn.running_var = m, v
                return value

            params = path.parameters() + head.parameters()
            for p in params:
                p.zero_grad()
            emb = path.forward(x, training=True)
            _, grad_logits = softmax_cross_entropy(head.forward(emb), labels)
            grad_x = path.backward(head.backward(grad_logits))
            assert_gradients_match(
                loss,
                [x] + [p.data for p in params],
                [grad_x] + [p.grad for p in params],
            )


def _standalone_copy(path):
    """The path as an explicit chain of standalone Conv1d -> BatchNorm1d -> ReLU
    units holding copies of its tensors, with a standalone SE gate that keeps
    its input (pooling copied whole)."""
    def copied(src, dst):
        for key, arr in src.named_tensors().items():
            dst.named_tensors()[key][...] = arr
        return dst

    def unit(conv, bn):
        out_ch, in_ch, k = conv.weight.shape
        return (copied(conv, Conv1d(in_ch, out_ch, k, padding=1)),
                copied(bn, BatchNorm1d(out_ch)), ReLU())

    def gate(se):
        if se is None:
            return None
        channels, inner = se.w2.shape
        return copied(se, SEBlock(channels, channels // inner))

    stem = unit(path.conv, path.bn)
    blocks = [(unit(b.conv1, b.bn1), unit(b.conv2, b.bn2), gate(b.se)) for b in path.blocks]
    return stem, blocks, MaxOverTime()


def _run_standalone(chain, x, grad_emb):
    """Train-mode forward and backward of ``_standalone_copy``; returns the
    embedding and the input gradient."""
    stem, blocks, pool = chain

    def forward(unit, h):
        conv, bn, relu = unit
        return relu.forward(bn.forward(conv.forward(h), True))

    def backward(unit, g):
        conv, bn, relu = unit
        return conv.backward(bn.backward(relu.backward(g)))

    h = forward(stem, x)
    for unit1, unit2, se in blocks:
        g = forward(unit2, forward(unit1, h))
        h = h + (g if se is None else se.forward(g))
    emb = pool.forward(h)
    g = pool.backward(grad_emb)
    for unit1, unit2, se in reversed(blocks):
        g = g + backward(unit1, backward(unit2, g if se is None else se.backward(g)))
    return emb, backward(stem, g)


def _standalone_layers(stem, blocks):
    """The layers of a standalone chain that hold tensors, in the order of
    ``PathNetwork._named_layers``."""
    layers = [*stem[:2]]
    for unit1, unit2, se in blocks:
        layers += [*unit1[:2], *unit2[:2]] + ([se] if se is not None else [])
    return layers


class TestLeanTrainingStep:
    """The step schedule against standalone layers, and what a step keeps."""

    @staticmethod
    def seeded_path(cfg, rng):
        path = PathNetwork(cfg, rng)
        for bn in path.batchnorms():
            bn.gamma.data[:] = rng.uniform(-0.5, 1.5, size=cfg.channels)
            bn.beta.data[:] = rng.normal(0.0, 0.5, size=cfg.channels)
        return path

    @pytest.mark.parametrize("se", [False, True])
    def test_fused_path_equals_standalone_chain_bit_for_bit(self, rng, se):
        cfg = ClassifierConfig(gmm_order=6, channels=8, blocks=2, se_enabled=se,
                               se_reduction=4, input_length=10)
        path = self.seeded_path(cfg, rng)
        chain = _standalone_copy(path)
        x = rng.normal(size=(3, 6, 10))
        grad_emb = rng.normal(size=(3, 8))
        emb = path.forward(x, training=True)
        grad_x = path.backward(grad_emb)
        want_emb, want_grad_x = _run_standalone(chain, x, grad_emb)
        assert np.array_equal(emb, want_emb)
        assert np.array_equal(grad_x, want_grad_x)
        layers = _layers(path)
        standalone = _standalone_layers(chain[0], chain[1])
        assert [type(a) for a in standalone] == [type(b) for b in layers]
        for got, want in zip(layers, standalone):
            for key, arr in got.named_tensors().items():
                assert np.array_equal(arr, want.named_tensors()[key]), key
            for p, q in zip(got.parameters(), want.parameters()):
                assert np.array_equal(p.grad, q.grad)
        assert all(np.any(p.grad) for p in path.conv.parameters() + path.bn.parameters())

    def test_train_step_keeps_three_tensors_per_block_then_nothing(self, rng):
        cfg = ClassifierConfig(gmm_order=16, channels=16, blocks=2, input_length=64)
        batch = 4
        tensor = batch * cfg.channels * cfg.input_length * 8
        bound = (3 * cfg.blocks + 2) * tensor        # LGP maps, stem xhat, 3 per block
        slack = tensor // 2                          # per-channel vectors, pooling indices
        path = PathNetwork(cfg, rng)
        grad_emb = rng.normal(size=(batch, cfg.channels))
        path.forward(rng.normal(size=(batch, 16, 64)), training=True)
        path.backward(grad_emb)                      # warm up numpy's own caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            path.forward(rng.normal(size=(batch, 16, 64)), training=True)
            after_forward = tracemalloc.get_traced_memory()[0] - before
            path.backward(grad_emb)
            after_backward = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert after_forward <= bound + slack, f"{after_forward} bytes kept, bound {bound}"
        assert after_backward <= slack, f"{after_backward} bytes kept after backward"
        assert path.held() == {}


def _byte_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestRebuiltBlockInputs:
    """The step schedule rebuilds the LGP maps from the batch's segments
    (``LgpMaps``), every block input it does not keep (forward from the
    nearest kept one, or from the stem), every ReLU output from its
    ``xhat``, and each SE gate's input; the standalone-layer chain, which
    keeps every input and is handed the maps whole, is the oracle."""

    @staticmethod
    def lgp_inputs(cfg, seed, dtype):
        """An ``LgpMaps`` of three seeded segments in ``dtype``, and the maps
        it builds, made here one segment at a time."""
        rng = np.random.default_rng(seed)
        gmm = Gmm(np.full(cfg.gmm_order, 1.0 / cfg.gmm_order), rng.normal(size=(cfg.gmm_order, 3)),
                  rng.uniform(0.5, 2.0, size=(cfg.gmm_order, 3)))
        stats = fit_norm_stats(gmm, rng.normal(size=(200, 3)), "fast")
        segments = rng.normal(size=(3, cfg.input_length, 3))
        maps = LgpMaps(gmm, stats, segments, 0, dtype)
        return maps, np.stack([extract_lgp(gmm, stats, seg) for seg in segments]).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("blocks", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("se", [False, True], ids=["resnet", "se"])
    def test_step_equals_the_all_cached_oracle_byte_for_byte(self, se, blocks, dtype):
        cfg = ClassifierConfig(gmm_order=6, channels=8, blocks=blocks, se_enabled=se,
                               se_reduction=4, input_length=10)
        path = TestLeanTrainingStep.seeded_path(cfg, np.random.default_rng(10 * blocks + se))
        chain = _standalone_copy(path)
        maps, x = self.lgp_inputs(cfg, blocks, dtype)
        rng = np.random.default_rng(blocks)
        grad_emb = rng.normal(size=(3, 8)).astype(dtype)
        emb = path.forward(maps, training=True)
        held = path.held()
        every = int(np.ceil(np.sqrt(blocks)))
        assert [name for name in held if name.endswith(".input")] == [
            f"block{b}.input" for b in range(every, blocks, every)]
        assert held["segments"] == [maps.segments] and "stem.conv" not in held   # no maps kept
        grad_x = path.backward(grad_emb.copy())
        assert path.held() == {}
        want_emb, want_grad_x = _run_standalone(chain, x, grad_emb.copy())
        assert _byte_equal(emb, want_emb)                   # embeddings
        assert _byte_equal(grad_x, want_grad_x)             # LGP-map gradients
        standalone = _standalone_layers(*chain[:2])
        for (name, got), want in zip(path._named_layers(), standalone):
            for p, q in zip(got.parameters(), want.parameters()):
                assert _byte_equal(p.grad, q.grad), name
            for key, arr in got.named_tensors().items():
                assert _byte_equal(arr, want.named_tensors()[key]), f"{name}.{key}"
        assert all(layer._cache is None for layer in standalone + _layers(path))
        for layers in (_layers(path), standalone):
            params = [p for layer in layers for p in layer.parameters()]
            Adam(params, lr=1e-2).step()
            assert all(p._grad is None for p in params)
        for p, q in zip(path.parameters(), [p for layer in standalone for p in layer.parameters()]):
            assert _byte_equal(p.data, q.data)

    @pytest.mark.parametrize("se", [False, True], ids=["resnet", "se"])
    def test_forward_caches_each_activation_once(self, se, rng):
        """After a train-mode forward of plain maps the step holds the LGP
        map (the stem conv's input), each batch norm's xhat and, at 5
        blocks (s = 3), the input of block 3; with SE each gate holds only
        its pooled values, first layer and gate."""
        cfg = ClassifierConfig(gmm_order=16, channels=8, blocks=5, se_enabled=se,
                               se_reduction=4, input_length=12)
        path = PathNetwork(cfg, rng)
        path.forward(rng.normal(size=(3, 16, 12)).astype(np.float32), training=True)
        held = path.held()
        buffer = (cfg.channels, 3, cfg.input_length + 2)
        assert [arr.shape for arr in held["stem.conv"]] == [(16, 3, cfg.input_length + 2)]
        for name in ["stem.bn"] + [f"block{b}.bn{i}" for b in range(cfg.blocks) for i in (1, 2)]:
            assert [arr.shape for arr in held[name]] == [buffer, (cfg.channels,)], name
        assert [name for name in held if name.endswith(".input")] == ["block3.input"]
        gates = [name for name in held if name.endswith(".se")]
        assert gates == ([f"block{b}.se" for b in range(cfg.blocks)] if se else [])
        assert all(arr.size <= 3 * cfg.channels for name in gates for arr in held[name])
        owners = {}
        for arrays in held.values():
            for arr in arrays:
                owner = arr if arr.base is None else arr.base
                owners[id(owner)] = owner
        large = sorted(arr.shape for arr in owners.values() if arr.size >= np.prod(buffer))
        assert large == sorted([(16, 3, 14)] + [buffer] * (1 + 2 * cfg.blocks + 1))


class TestBatchNormReluUnit:
    """The step's batch norm and ReLU (``model._bn_relu``, ``_relu_rebuilt``
    and ``_bn_relu_grad``), which keep only ``xhat`` and ``1/std``, against
    ``BatchNorm1d`` followed by ``ReLU``."""

    @staticmethod
    def fused_and_chain(rng, channels=4):
        gamma = rng.uniform(-1.0, 1.5, size=channels)
        beta = rng.normal(scale=0.5, size=channels)
        fused, bn = BatchNorm1d(channels), BatchNorm1d(channels)
        for layer in (fused, bn):
            layer.gamma.data[:] = gamma
            layer.beta.data[:] = beta
        return fused, bn, ReLU()

    @staticmethod
    def unit_forward(bn, x):
        """The unit's output (B, C, T), its rebuilt output (C, B, T + 2) and
        what it keeps, for a (B, C, T) input, handed a copy to normalize into."""
        t = x.shape[2]
        out, kept = model_mod._bn_relu(bn, nn.to_gutter(x, t + 2), t)
        return nn.interior(out, t), model_mod._relu_rebuilt(bn, kept, t), kept

    @staticmethod
    def unit_backward(bn, g, kept):
        t = g.shape[2]
        return nn.interior(model_mod._bn_relu_grad(bn, nn.to_gutter(g, t + 2), kept, t), t)

    def test_equals_batch_norm_then_relu_bit_for_bit(self, rng):
        fused, bn, relu = self.fused_and_chain(rng)
        x = rng.normal(size=(3, 4, 10)) * 2.0 - 0.5
        g = rng.normal(size=(3, 4, 10))
        y, rebuilt, kept = self.unit_forward(fused, x)
        want = relu.forward(bn.forward(x, True))
        assert np.array_equal(y, want)
        assert np.array_equal(np.signbit(y), np.signbit(want))     # zeros are +0.0
        assert 0 < np.count_nonzero(y) < y.size
        assert np.array_equal(fused.running_mean, bn.running_mean)
        assert np.array_equal(fused.running_var, bn.running_var)
        padded = rebuilt.transpose(1, 0, 2)
        assert np.array_equal(padded, np.pad(want, ((0, 0), (0, 0), (1, 1))))
        assert np.array_equal(np.signbit(padded), np.zeros(padded.shape, bool))
        assert np.array_equal(self.unit_backward(fused, g, kept), bn.backward(relu.backward(g)))
        assert np.array_equal(fused.gamma.grad, bn.gamma.grad)
        assert np.array_equal(fused.beta.grad, bn.beta.grad)

    def test_input_gradient_is_read_in_place_by_the_conv(self, rng):
        """Backward's gradient is a (C, B, W) zero-gutter buffer as wide as
        the conv output it came from, which the conv reads in place."""
        conv, fused = Conv1d(3, 4, 3, padding=1, rng=rng), self.fused_and_chain(rng)[0]
        ybuf = conv.output(nn.to_gutter(rng.normal(size=(2, 3, 7)), 9))
        _, kept = model_mod._bn_relu(fused, ybuf, 7)
        assert kept[0] is ybuf                          # the conv output becomes xhat
        dx = model_mod._bn_relu_grad(fused, nn.to_gutter(rng.normal(size=(2, 4, 7)), 9), kept, 7)
        assert dx.shape == (4, 2, 9) and not dx[:, :, 0].any() and not dx[:, :, -1].any()

    def test_keeps_xhat_alone_and_passes_nan_through(self, rng):
        fused, bn, relu = self.fused_and_chain(rng)
        x = rng.normal(size=(2, 4, 6))
        _, _, (xhat, inv_std) = self.unit_forward(fused, x)
        assert xhat.shape == (4, 2, 8) and inv_std.shape == (4,)
        x[0, 1, 2] = np.nan              # ReLU passes a NaN through; so must the fused unit
        y = self.unit_forward(fused, x)[0]
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
            fused, bn, relu = BatchNorm1d(c), BatchNorm1d(c), ReLU()
            for layer in (fused, bn):
                layer.gamma.data[:], layer.beta.data[:] = gamma, beta
            z = bn.forward(x, True)
            assert (np.isnan(z).any() and np.isposinf(z).any() and np.isneginf(z).any()
                    and ((z == 0) & np.signbit(z)).any()
                    and ((0 < np.abs(z)) & (np.abs(z) < np.finfo(dtype).smallest_normal)).any())
            want = relu.forward(z)
            y, rebuilt, _ = self.unit_forward(fused, x)
            padded = rebuilt.transpose(1, 0, 2)
            for got in (y, padded[:, :, 1:-1]):
                assert got.dtype == dtype
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.isnan(got), np.isnan(z))
                assert np.array_equal(np.signbit(got), np.signbit(want))
                assert not np.signbit(got[~np.isnan(got)]).any()
            gutters = padded[:, :, [0, -1]]
            assert not gutters.any() and not np.signbit(gutters).any()

    def test_train_mode_cancels_a_per_channel_constant(self, rng):
        # Why a conv feeding batch norm needs no bias: the batch mean takes it out.
        x = rng.normal(size=(4, 3, 9)) * 2.0 + 1.0
        shift = rng.normal(scale=3.0, size=(1, 3, 1))
        gamma, beta = rng.uniform(0.5, 1.5, size=3), rng.normal(size=3)
        g = rng.normal(size=(4, 3, 9))
        runs = []
        for inp in (x, x + shift):
            bn = BatchNorm1d(3)
            bn.gamma.data[:], bn.beta.data[:] = gamma, beta
            out, _, kept = self.unit_forward(bn, inp)
            runs.append((out.copy(), bn.running_var, self.unit_backward(bn, g, kept),
                         bn.gamma.grad, bn.beta.grad))
        # gamma's gradient sums g * xhat with |xhat| of order 1, and may cancel
        # to near zero, so its rounding is measured against sum |g|
        scales = [np.abs(want).max() for want in runs[0]]
        scales[3] = np.abs(g).sum(axis=(0, 2)).max()
        ulps = [np.abs(got - want).max() / (np.finfo(float).eps * scale)
                for got, want, scale in zip(*runs, scales)]
        print(f"largest drift {max(ulps):.1f} ulps")
        assert max(ulps) <= 8, ulps


class TestForwardModel:
    def test_two_path_head_width(self, two_path_model):
        assert two_path_model.fc.weight.shape == (2, 32)

    @pytest.mark.parametrize("kind", ["one-path", "two-path", "se"])
    def test_logits_match_plain_net(self, kind, rng, tmp_path):
        model = TestScoringPlan.model(kind, rng, tmp_path)
        feats = rng.normal(size=(model.cfg.input_length, 4))
        logits, score = model.forward_model(feats)
        want = plain_net.logits(model, feats)[0]
        assert np.abs(logits - want).max() <= 1e-9 * np.abs(want).max()
        assert score == logits[0] - logits[1]

    def test_tied_paths_and_gmms_give_equal_embeddings(self, rng):
        gmm = make_gmm(8, 4, 5)
        stats = fit_norm_stats(gmm, rng.normal(size=(300, 4)), "fast")
        model = SpoofModel(desk_config(paths=2), [gmm, gmm], [stats, stats], seed=3)
        for p_dst, p_src in zip(model.paths[1].parameters(), model.paths[0].parameters()):
            p_dst.data[...] = p_src.data
        feats = rng.normal(size=(32, 4))
        emb = model.plan(range(2)).embed(feats, range(2))[0]
        assert np.array_equal(emb[:16], emb[16:])
        want = plain_net.embed(model, feats, range(2))[0]
        assert np.abs(emb - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("length", [0, 1, 33])
    def test_odd_or_short_input_length_rejected(self, length):
        with pytest.raises(ValueError, match="even and >= 2"):
            ClassifierConfig(gmm_order=8, input_length=length)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_lgp_map_refused_with_its_segment(self, desk_model, rng):
        feats = rng.normal(size=(70, 4))
        feats[40, 0] = 1e300        # frame 40 lies in the segments at 16 and 32
        with pytest.raises(NonFiniteMapError, match="path 0 .batch row 1."):
            desk_model.score_utterance(feats)

    def test_score_negates_when_head_rows_swap(self, desk_model, rng):
        desk_model.fc.weight.data[:] = rng.normal(size=(2, 16))
        desk_model.fc.bias.data[:] = rng.normal(size=2)
        feats = rng.normal(size=(32, 4))
        _, score = desk_model.forward_model(feats)
        desk_model.fc.weight.data = desk_model.fc.weight.data[::-1].copy()
        desk_model.fc.bias.data = desk_model.fc.bias.data[::-1].copy()
        _, swapped = desk_model.forward_model(feats)
        assert swapped == pytest.approx(-score, abs=1e-12)

    def test_tied_two_path_score_invariant_under_path_swap(self, rng):
        gmm = make_gmm(8, 4, 5)
        stats = fit_norm_stats(gmm, rng.normal(size=(300, 4)), "fast")
        model = SpoofModel(desk_config(paths=2), [gmm, gmm], [stats, stats], seed=3)
        for p_dst, p_src in zip(model.paths[1].parameters(), model.paths[0].parameters()):
            p_dst.data[...] = p_src.data
        model.fc.weight.data[:] = rng.normal(size=(2, 32))
        feats = rng.normal(size=(32, 4))
        _, score = model.forward_model(feats)
        # Swap the halves of the head columns along with the path order.
        w = model.fc.weight.data
        model.fc.weight.data = np.concatenate([w[:, 16:], w[:, :16]], axis=1)
        _, swapped = model.forward_model(feats)
        assert swapped == pytest.approx(score, abs=1e-12)

    def test_wrong_length_rejected(self, desk_model, rng):
        with pytest.raises(ValueError):
            desk_model.forward_model(rng.normal(size=(33, 4)))


class TestUfm:
    def test_documented_example(self, rng):
        feats = rng.normal(size=(1000, 4))
        segments = segment_ufm(feats, UfmConfig(400))
        assert segments.shape == (5, 400, 4)
        extended = np.concatenate([feats, feats[:200]])
        for i, start in enumerate((0, 200, 400, 600, 800)):
            assert np.array_equal(segments[i], extended[start : start + 400])

    def test_exact_length_yields_single_segment(self, rng):
        feats = rng.normal(size=(32, 4))
        segments = segment_ufm(feats, UfmConfig(32))
        assert len(segments) == 1
        assert np.array_equal(segments[0], feats)

    def test_one_extra_frame_yields_three_segments(self, rng):
        segments = segment_ufm(rng.normal(size=(33, 4)), UfmConfig(32))
        assert len(segments) == 3

    @given(t=st.integers(min_value=1, max_value=300),
           n=st.sampled_from([8, 16, 32]))
    @settings(max_examples=120, deadline=None)
    def test_count_formula_property(self, t, n):
        segments = segment_ufm(np.ones((t, 2)), UfmConfig(n))
        length = -(-t // n) * n
        assert len(segments) == 2 * length // n - 1
        assert all(seg.shape == (n, 2) for seg in segments)

    def test_odd_segment_length_rejected(self):
        with pytest.raises(ValueError):
            UfmConfig(33)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            segment_ufm(np.zeros((0, 4)), UfmConfig(8))


class TestScoreUtterance:
    """``SpoofModel.score_utterance`` runs a plan of the live tensors; the
    model has a random head and non-trivial batch norms, so its scores are
    not all zero, and ``plain_net`` is the oracle."""

    @pytest.fixture
    def model(self, desk_model, rng, tmp_path):
        seeded_checkpoint(desk_model, rng, tmp_path / "model.lgpn")
        return desk_model

    def test_single_segment_equals_forward_model(self, model, rng):
        feats = rng.normal(size=(32, 4))
        _, direct = model.forward_model(feats)
        assert model.score_utterance(feats) == direct
        want = plain_net.score_utterance(model, feats)
        assert abs(direct - want) <= 1e-9 * abs(want)

    def test_repeating_utterance_average_equals_single_score(self, model, rng):
        """Frames of period N/2 over T = 2N make three equal segments whose
        frames vary, which the plan scores through the cut's edge patches."""
        feats = np.tile(rng.normal(size=(16, 4)), (4, 1))
        assert len(segment_ufm(feats, UfmConfig(32))) == 3
        single = plain_net.score_utterance(model, feats[:32])
        assert model.score_utterance(feats) == pytest.approx(single, abs=1e-9)

    def test_hand_averaged_three_segments(self, model, rng):
        feats = rng.normal(size=(33, 4))
        segments = segment_ufm(feats, UfmConfig(32))
        assert len(segments) == 3
        scores = [plain_net.score_utterance(model, seg) for seg in segments]
        assert model.score_utterance(feats) == pytest.approx(np.mean(scores), abs=1e-12)


class TestCheckpoint:
    def test_round_trip_scores_close(self, desk_model, rng, tmp_path):
        desk_model.fc.weight.data[:] = rng.normal(size=(2, 16))
        path = tmp_path / "model.lgpn"
        desk_model.save(path)
        loaded = SpoofModel.load(path, desk_model.gmms, desk_model.stats)
        feats = rng.normal(size=(50, 4))
        assert loaded.score_utterance(feats) == pytest.approx(
            desk_model.score_utterance(feats), abs=1e-3
        )

    def test_mismatched_gmm_refused(self, desk_model, rng, tmp_path):
        path = tmp_path / "model.lgpn"
        desk_model.save(path)
        other = make_gmm(8, 4, 99)
        with pytest.raises(FormatError):
            SpoofModel.load(path, [other], desk_model.stats)

    def test_mismatched_stats_refused(self, desk_model, rng, tmp_path):
        path = tmp_path / "model.lgpn"
        desk_model.save(path)
        other_stats = fit_norm_stats(desk_model.gmms[0], rng.normal(size=(99, 4)), "fast")
        with pytest.raises(FormatError):
            SpoofModel.load(path, desk_model.gmms, [other_stats])

    def test_config_survives_round_trip(self, two_path_model, tmp_path):
        path = tmp_path / "two.lgpn"
        two_path_model.save(path)
        loaded = SpoofModel.load(path, two_path_model.gmms, two_path_model.stats)
        assert loaded.cfg == two_path_model.cfg

    def test_one_path_se_tensor_names_in_order(self, rng):
        gmm = make_gmm(8, 4, 5)
        stats = fit_norm_stats(gmm, rng.normal(size=(300, 4)), "fast")
        cfg = ClassifierConfig(gmm_order=8, channels=16, blocks=1, se_enabled=True,
                               se_reduction=4, input_length=32, paths=1)
        names = list(SpoofModel(cfg, [gmm], [stats]).to_tensors())
        assert names == [
            "cfg.gmm_order", "cfg.channels", "cfg.blocks", "cfg.se_enabled",
            "cfg.se_reduction", "cfg.input_length", "cfg.paths", "cfg.lgp_form",
            "path0.stem.conv.weight",
            "path0.stem.bn.gamma", "path0.stem.bn.beta",
            "path0.stem.bn.running_mean", "path0.stem.bn.running_var",
            "path0.block0.conv1.weight",
            "path0.block0.bn1.gamma", "path0.block0.bn1.beta",
            "path0.block0.bn1.running_mean", "path0.block0.bn1.running_var",
            "path0.block0.conv2.weight",
            "path0.block0.bn2.gamma", "path0.block0.bn2.beta",
            "path0.block0.bn2.running_mean", "path0.block0.bn2.running_var",
            "path0.block0.se.w1", "path0.block0.se.b1",
            "path0.block0.se.w2", "path0.block0.se.b2",
            "path0.gmm_sha256", "path0.stats_sha256",
            "fc.weight", "fc.bias",
        ]

    def test_two_path_tensor_names_in_order(self, two_path_model):
        def path_names(k):
            names = [f"path{k}.stem.conv.weight"]
            names += [f"path{k}.stem.bn.{t}" for t in ("gamma", "beta", "running_mean", "running_var")]
            for b in range(2):
                for layer in ("1", "2"):
                    names += [f"path{k}.block{b}.conv{layer}.weight"]
                    names += [f"path{k}.block{b}.bn{layer}.{t}"
                              for t in ("gamma", "beta", "running_mean", "running_var")]
            return names + [f"path{k}.gmm_sha256", f"path{k}.stats_sha256"]

        cfg_names = [f"cfg.{name}" for name in (
            "gmm_order", "channels", "blocks", "se_enabled", "se_reduction",
            "input_length", "paths", "lgp_form")]
        assert list(two_path_model.to_tensors()) == (
            cfg_names + path_names(0) + path_names(1) + ["fc.weight", "fc.bias"])

    def test_load_restores_batch_statistics(self, desk_model, rng, tmp_path):
        for bn in desk_model.paths[0].batchnorms():
            bn.running_mean = rng.normal(size=bn.running_mean.shape)
        path = tmp_path / "model.lgpn"
        desk_model.save(path)
        loaded = SpoofModel.load(path, desk_model.gmms, desk_model.stats)
        for want, got in zip(desk_model.paths[0].batchnorms(), loaded.paths[0].batchnorms()):
            assert np.array_equal(got.running_mean, want.running_mean.astype(np.float32))


class TestCheckpointSchema:
    """Every malformed checkpoint is a FormatError, never a KeyError."""

    def load(self, model, tensors):
        return SpoofModel.from_tensors(tensors, model.gmms, model.stats)

    def test_gmm_container_is_not_a_checkpoint(self, desk_model):
        with pytest.raises(FormatError, match="cfg.gmm_order"):
            self.load(desk_model, desk_model.gmms[0].to_tensors())

    @pytest.mark.parametrize("key,value", [
        ("cfg.channels", 16.5), ("cfg.paths", 3.0), ("cfg.lgp_form", 2.0),
        ("cfg.se_enabled", -1.0), ("cfg.blocks", 0.0), ("cfg.input_length", np.nan),
    ])
    def test_bad_config_entry_refused(self, desk_model, key, value):
        tensors = desk_model.to_tensors()
        tensors[key] = np.array([value])
        with pytest.raises(FormatError, match="checkpoint"):
            self.load(desk_model, tensors)

    def test_se_reduction_zero_refused(self, desk_model):
        tensors = desk_model.to_tensors()
        tensors["cfg.se_enabled"] = np.array([1.0])
        tensors["cfg.se_reduction"] = np.array([0.0])
        with pytest.raises(FormatError, match="se_reduction"):
            self.load(desk_model, tensors)

    def test_missing_config_entry_refused(self, desk_model):
        tensors = desk_model.to_tensors()
        del tensors["cfg.blocks"]
        with pytest.raises(FormatError, match="cfg.blocks"):
            self.load(desk_model, tensors)

    def test_missing_tensor_refused(self, desk_model):
        tensors = desk_model.to_tensors()
        del tensors["path0.block1.bn2.running_var"]
        with pytest.raises(FormatError, match="missing tensor 'path0.block1.bn2.running_var'"):
            self.load(desk_model, tensors)

    def test_misshapen_tensor_refused(self, desk_model):
        tensors = desk_model.to_tensors()
        tensors["fc.bias"] = np.zeros(3)
        with pytest.raises(FormatError, match="'fc.bias' has shape"):
            self.load(desk_model, tensors)

    @pytest.mark.parametrize("key,value", [("cfg.channels", 2**20), ("cfg.blocks", 2**40)])
    def test_oversized_config_refused_before_building(self, desk_model, monkeypatch, key, value):
        tensors = desk_model.to_tensors()
        tensors[key] = np.array([float(value)])

        def refuse(*args, **kwargs):
            raise AssertionError("a path was built before the stored sizes were checked")

        monkeypatch.setattr("lgpnet.model.PathNetwork", refuse)
        # the first stored tensor that the size contradicts
        contradicted = {"cfg.channels": "tensor 'path0.stem.conv.weight' has shape",
                        "cfg.blocks": "missing tensor 'path0.block2.conv1.weight'"}
        with pytest.raises(FormatError, match=contradicted[key]):
            self.load(desk_model, tensors)

    def test_unexpected_tensor_refused(self, desk_model):
        tensors = desk_model.to_tensors()
        tensors["path0.block2.conv1.weight"] = np.zeros((16, 16, 3))
        with pytest.raises(FormatError, match="unexpected tensor 'path0.block2.conv1.weight'"):
            self.load(desk_model, tensors)
        # the schema of checkpoints written while convs still had a bias
        parent = {}
        for name, arr in desk_model.to_tensors().items():
            parent[name] = arr
            if ".conv" in name:
                parent[name.replace(".weight", ".bias")] = np.zeros(arr.shape[0])
        assert len(parent) - len(desk_model.to_tensors()) == 1 + 2 * 2   # stem, two blocks
        with pytest.raises(FormatError, match="unexpected tensor 'path0.stem.conv.bias'"):
            self.load(desk_model, parent)


def seeded_checkpoint(model, rng, path):
    """Save ``model`` with a random head and non-trivial BN statistics and
    affine terms, so every folded term moves the score."""
    c = model.cfg.channels
    model.fc.weight.data[...] = rng.normal(0.0, 1.0, size=model.fc.weight.shape)
    model.fc.bias.data[...] = rng.normal(0.0, 0.1, size=2)
    for p in model.paths:
        for bn in p.batchnorms():
            bn.gamma.data[...] = rng.uniform(0.5, 1.5, size=c)
            bn.beta.data[...] = rng.normal(0.0, 0.1, size=c)
            bn.running_mean = rng.normal(0.0, 0.3, size=c)
            bn.running_var = rng.uniform(0.2, 2.0, size=c)
    model.save(path)
    return path


def load_plan(path, gmms, stats):
    return ScoringPlan.from_tensors(tensorio.load_tensors(path), gmms, stats)


MODEL_KINDS = {"one-path": dict(), "two-path": dict(paths=2), "se": dict(se=True)}

# With 2 blocks (reach R = 5) the plan runs one row of at most T + 2R
# frames and patches at the segment edges wherever S > 1, and, at N = 64
# (one-path, two-path), also for a 1-segment utterance of T < 49 frames;
# with 1 block (R = 3) at N = 32, for T < 22.  SE models, and 8 blocks,
# where 2R >= N, score one row per segment.
PLAN_KINDS = {"one-path": dict(input_length=64), "two-path": dict(paths=2, input_length=64),
              "se": dict(se=True, input_length=64),
              "two-path-se": dict(paths=2, se=True, input_length=64),
              "short-segments": dict(), "one-block": dict(blocks=1), "wide-reach": dict(blocks=8)}


def utterance_lengths(n, reach, most):
    """T from 1 to ``most`` * N, with T < R, multiples of N, and both sides of
    T + 2R = L (where the plan's row stops covering all L frames) drawn often."""
    return st.one_of(
        st.integers(1, reach - 1),
        st.integers(1, most).map(lambda m: m * n),
        st.tuples(st.integers(1, most), st.integers(2 * reach, 2 * reach + 1))
          .map(lambda a: a[0] * n - a[1]).filter(lambda t: t >= 1),
        st.integers(1, most * n))


class TestScoringPlan:
    """The plan against its float64 oracle, ``plain_net``, which shares no
    code with it."""

    @staticmethod
    def build(kind, rng, tmp_path):
        cfg = desk_config(**PLAN_KINDS[kind])
        gmms = [make_gmm(8, 4, 5 + k) for k in range(cfg.paths)]
        stats = [fit_norm_stats(g, rng.normal(size=(300, 4)), "fast") for g in gmms]
        model = SpoofModel(cfg, gmms, stats, seed=3)
        return seeded_checkpoint(model, rng, tmp_path / "model.lgpn"), gmms, stats

    @classmethod
    def model(cls, kind, rng, tmp_path):
        """The seeded model of ``kind``, loaded back from its checkpoint."""
        return SpoofModel.load(*cls.build(kind, rng, tmp_path))

    @pytest.fixture(params=list(PLAN_KINDS))
    def checkpoint(self, request, rng, tmp_path):
        return self.build(request.param, rng, tmp_path)

    def test_matches_oracle_after_round_trip(self, checkpoint, rng):
        path, gmms, stats = checkpoint
        oracle = SpoofModel.load(path, gmms, stats)
        plan = load_plan(path, gmms, stats)
        n = oracle.cfg.input_length
        worst = (0.0, 0)
        # one frame, fewer than N/2 (cyclic repeat), exact multiples of N, S = 1 ... 9
        for length, segments in ((1, 1), (n // 2 - 1, 1), (n, 1), (n + 1, 3), (2 * n, 3),
                                 (2 * n + 5, 5), (3 * n, 5), (4 * n - 7, 7), (5 * n, 9)):
            feats = rng.normal(size=(length, 4))
            assert len(segment_ufm(feats, UfmConfig(n))) == segments
            want = plain_net.score_utterance(oracle, feats)
            worst = max(worst, (abs(plan.score_utterance(feats) - want) / abs(want), length))
        print(f"max relative |dscore| {worst[0]:.3g}, at T = {worst[1]}")
        assert worst[0] <= 1e-9, f"max relative |dscore| {worst[0]:.3g} at T = {worst[1]}"

    @pytest.mark.parametrize("kind, length, frames, columns", [
        ("one-path", 160, 160, 170 + 2 + 9 * 8),        # U = T + 2R; slots at inner edges, and L
        ("se", 160, 160, 5 * (64 + 2)),                 # the 5 segments
        ("short-segments", 70, 70, 80 + 2 + 9 * 8),
        ("one-path", 40, 40, 50 + 2 + 8),               # 1 segment: the row and L's slot
        ("one-path", 45, 45, 55 + 2 + 8),               # 65 < 66: the last T that takes the cut
        ("one-path", 46, 46, 64 + 2),                   # 66 = 66: one row per segment
    ], ids=["one-path", "se", "short-segments", "one-segment", "last-cut", "first-uncut"])
    def test_work_of_a_5_segment_utterance(self, kind, length, frames, columns, rng,
                                           tmp_path, monkeypatch):
        """The frames of each ``extract_lgp`` call, the utterance's own T,
        and one ``gutter_conv`` call per conv: the row (or the segment rows)
        and R + 3 columns for each edge patch's slot."""
        path, gmms, stats = self.build(kind, rng, tmp_path)
        plan = load_plan(path, gmms, stats)
        seen, extracted = [], []

        def conv(xbuf, taps):
            seen.append((id(taps), xbuf.shape[1] * xbuf.shape[2]))
            return gutter_conv(xbuf, taps)

        def extract(gmm, stats, x):
            extracted.append(len(x))
            return extract_lgp(gmm, stats, x)

        monkeypatch.setattr("lgpnet.model.gutter_conv", conv)
        monkeypatch.setattr("lgpnet.model.extract_lgp", extract)
        plan.score_utterance(rng.normal(size=(length, 4)))
        assert extracted == [frames]
        convs = 1 + 2 * plan.cfg.blocks
        assert len({taps for taps, _ in seen}) == convs
        assert [width for _, width in seen] == [columns] * convs

    @pytest.fixture(scope="class", params=list(PLAN_KINDS))
    def frozen(self, request, tmp_path_factory):
        """The model of one seeded checkpoint of each kind, whose tensors
        ``plain_net`` reads, the plan of the checkpoint and the plan of the
        model's live tensors, as training builds it, built once for every
        drawn length; and the worst relative differences yet."""
        kind = request.param
        rng = np.random.default_rng(list(PLAN_KINDS).index(kind))
        path, gmms, stats = self.build(kind, rng, tmp_path_factory.mktemp(kind))
        oracle = SpoofModel.load(path, gmms, stats)
        live = oracle.plan(range(oracle.cfg.paths))
        return oracle, load_plan(path, gmms, stats), live, {"score": [0.0, 0], "embed": [0.0, 0]}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_length_matches_oracle(self, frozen, data):
        """T from 1 to 6N."""
        oracle, plan, _, worst = frozen
        t = data.draw(utterance_lengths(plan.cfg.input_length, 1 + 2 * plan.cfg.blocks, 6),
                      label="T")
        feats = np.random.default_rng(t).normal(size=(t, 4))
        want = plain_net.score_utterance(oracle, feats)
        rel = abs(plan.score_utterance(feats) - want) / abs(want)
        if rel > worst["score"][0]:
            worst["score"][:] = rel, t
            print(f"worst relative |dscore| so far {rel:.3g}, at T = {t}")
        assert rel <= 1e-9, f"relative |dscore| {rel:.3g} at T = {t}"

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_embed_matches_plain_net(self, frozen, data):
        """The live-tensor plan's head input of every path set, T from 1 to
        5N, against ``plain_net`` over the ``segment_ufm`` segments."""
        oracle, _, live, worst = frozen
        n = live.cfg.input_length
        t = data.draw(utterance_lengths(n, 1 + 2 * live.cfg.blocks, 5), label="T")
        ids = data.draw(st.sampled_from([[0], [1], [0, 1]][:2 * live.cfg.paths - 1]),
                        label="paths")
        feats = np.random.default_rng(t).normal(size=(t, 4))
        segments = segment_ufm(feats, UfmConfig(n))
        want = plain_net.embed(oracle, feats, ids)
        got = live.embed(feats, ids)
        assert got.shape == want.shape == (len(segments), len(ids) * live.cfg.channels)
        rel = np.abs(got - want).max() / np.abs(want).max()
        if rel > worst["embed"][0]:
            worst["embed"][:] = rel, t
            print(f"worst relative |dembedding| so far {rel:.3g}, at T = {t}, paths {ids}")
        assert rel <= 1e-9, f"relative |dembedding| {rel:.3g} at T = {t}, paths {ids}"

    def test_build_holds_one_float64_copy(self, rng, tmp_path):
        """The traced peak of building a plan from float32 checkpoint tensors
        stays under 1.5 times the float64 arrays it folds them into."""
        cfg = ClassifierConfig(gmm_order=8, channels=128, blocks=2, input_length=64)
        gmm = make_gmm(8, 4, 5)
        stats = fit_norm_stats(gmm, rng.normal(size=(300, 4)), "fast")
        path = seeded_checkpoint(SpoofModel(cfg, [gmm], [stats]), rng, tmp_path / "m.lgpn")
        tensors = tensorio.load_tensors(path)
        tracemalloc.start()
        try:
            plan = ScoringPlan.from_tensors(tensors, [gmm], [stats])
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        folded = sum(arr.nbytes for (stem, blocks) in plan.paths
                     for unit in (stem, *(u for block in blocks for u in block[:2]))
                     for arr in unit) + sum(arr.nbytes for arr in plan.head)
        print(f"folded {folded} bytes, traced peak {peak} ({peak / folded:.2f}x), held {held}")
        assert peak < 1.5 * folded

    def test_a_path_it_did_not_fold_is_refused_by_name(self, two_path_model, rng):
        feats = rng.normal(size=(40, 4))
        tensors = {name: arr for name, arr in two_path_model.to_tensors().items()
                   if not name.startswith("path1.")}
        for plan in (ScoringPlan(two_path_model.cfg, two_path_model.gmms, two_path_model.stats,
                                 tensors), two_path_model.plan([0])):
            assert plan.paths[1] is None
            with pytest.raises(ValueError, match="folds no tensors of path 1"):
                plan.score_utterance(feats)
            with pytest.raises(ValueError, match="folds no tensors of path 1"):
                plan.embed(feats, [1, 0])
            assert plan.embed(feats, [0]).shape == (3, 16)

    def test_builds_no_layer(self, checkpoint, monkeypatch):
        path, gmms, stats = checkpoint

        def refuse(*args, **kwargs):
            raise AssertionError("the plan built a training layer")

        for layer in (PathNetwork, Conv1d, BatchNorm1d, SEBlock, Linear):
            monkeypatch.setattr(layer, "__init__", refuse)
        load_plan(path, gmms, stats)

    @pytest.mark.parametrize("feats", [np.zeros((0, 4)), np.zeros(4)], ids=["empty", "1-D"])
    def test_refuses_what_is_not_an_utterance(self, desk_model, tmp_path, feats):
        desk_model.save(tmp_path / "model.lgpn")
        plan = load_plan(tmp_path / "model.lgpn", desk_model.gmms, desk_model.stats)
        with pytest.raises(ValueError, match=r"features must be a non-empty \(T, D\) matrix"):
            plan.score_utterance(feats)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_lgp_map_refused_with_its_segment(self, desk_model, rng, tmp_path):
        desk_model.save(tmp_path / "model.lgpn")
        plan = load_plan(tmp_path / "model.lgpn", desk_model.gmms, desk_model.stats)
        feats = rng.normal(size=(70, 4))
        feats[40, 0] = 1e300        # frame 40 lies in the segments at 16 and 32
        with pytest.raises(NonFiniteMapError, match="path 0 .batch row 1."):
            plan.score_utterance(feats)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("length, frame, row", [
        (20, 5, 0),     # frame 5 sits at 5 and, repeated, at 25 of the one segment
        (90, 85, 4),    # only the last of 5 segments (at 64) holds frame 85
    ], ids=["cyclic-repeat", "last-segment"])
    def test_overflowing_frame_names_its_first_segment(self, desk_model, rng, tmp_path,
                                                       length, frame, row):
        desk_model.save(tmp_path / "model.lgpn")
        plan = load_plan(tmp_path / "model.lgpn", desk_model.gmms, desk_model.stats)
        feats = rng.normal(size=(length, 4))
        feats[frame, 0] = 1e300
        with pytest.raises(NonFiniteMapError, match=f"path 0 .batch row {row}."):
            plan.score_utterance(feats)

    def test_keeps_no_activation_after_scoring(self, rng, tmp_path):
        cfg = ClassifierConfig(gmm_order=8, channels=64, blocks=2, input_length=64)
        gmm = make_gmm(8, 4, 5)
        stats = fit_norm_stats(gmm, rng.normal(size=(300, 4)), "fast")
        path = seeded_checkpoint(SpoofModel(cfg, [gmm], [stats]), rng, tmp_path / "m.lgpn")
        plan = load_plan(path, [gmm], [stats])
        feats = rng.normal(size=(160, 4))                 # 5 segments
        activation = 5 * cfg.channels * cfg.input_length * 8
        plan.score_utterance(feats)                       # warm up numpy's own caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plan.score_utterance(feats)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < activation, f"{kept} bytes kept, one activation is {activation}"


class TestOracleIndependence:
    """``plain_net`` shares no code with the plan: a conv kernel whose taps
    are reversed, which the plan and the training layers both run, moves the
    plan's scores and embeddings away from it."""

    @pytest.mark.parametrize("kind", ["one-path", "two-path", "se"])
    def test_reversed_taps_move_the_plan_but_not_the_oracle(self, kind, rng, tmp_path,
                                                            monkeypatch):
        model = TestScoringPlan.model(kind, rng, tmp_path)
        feats = rng.normal(size=(3 * model.cfg.input_length, 4))
        paths = range(model.cfg.paths)
        want_score = plain_net.score_utterance(model, feats)
        want_emb = plain_net.embed(model, feats, paths)

        def drift(plan):
            score = abs(plan.score_utterance(feats) - want_score) / abs(want_score)
            emb = np.abs(plan.embed(feats, paths) - want_emb).max() / np.abs(want_emb).max()
            return score, emb

        assert max(drift(model.plan(paths))) <= 1e-9
        tap_sum = nn._tap_sum
        monkeypatch.setattr(nn, "_tap_sum", lambda taps, src, out, first:
                            tap_sum(taps[::-1], src, out, first))
        score, emb = drift(model.plan(paths))
        print(f"reversed taps: relative |dscore| {score:.3g}, |dembedding| {emb:.3g}")
        assert score > 1e-3 and emb > 1e-3
        # the same patch reaches the training layers' conv
        conv = model.paths[0].conv
        x = rng.normal(size=(2, model.cfg.gmm_order, 8))
        assert not np.allclose(conv.forward(x), plain_net.conv(x, conv.weight.data))


class TestReadCheckpoint:
    @pytest.mark.parametrize("kind", list(MODEL_KINDS))
    def test_schema_matches_the_layers(self, kind, rng):
        cfg = desk_config(**MODEL_KINDS[kind])
        gmms = [make_gmm(8, 4, 5 + k) for k in range(cfg.paths)]
        stats = [fit_norm_stats(g, rng.normal(size=(300, 4)), "fast") for g in gmms]
        live = SpoofModel(cfg, gmms, stats).to_tensors()
        assert dict(_tensor_shapes(cfg)) == {name: arr.shape for name, arr in live.items()}

    @pytest.mark.parametrize("name, value, message", [
        ("path0.block0.conv1.weight", np.nan, "non-finite"),
        ("fc.bias", np.inf, "non-finite"),
        ("path0.block0.bn1.running_var", -0.5, "negative variance"),
    ], ids=["nan-weight", "inf-head", "negative-variance"])
    def test_corrupt_tensor_refused(self, desk_model, name, value, message):
        tensors = desk_model.to_tensors()
        tensors[name].flat[0] = value
        for build in (SpoofModel.from_tensors, ScoringPlan.from_tensors):
            with pytest.raises(FormatError, match=f"{name}.* {message}"):
                build(tensors, desk_model.gmms, desk_model.stats)

    def test_zero_running_variance_accepted(self, desk_model):
        tensors = desk_model.to_tensors()
        tensors["path0.stem.bn.running_var"][...] = 0.0
        cfg, params = read_checkpoint(tensors, desk_model.gmms, desk_model.stats)
        assert cfg == desk_model.cfg
        assert not any(name.startswith("cfg.") or name.endswith("_sha256") for name in params)


class TestMixedPrecisionStep:
    """``embed`` runs the paths in float32 (every layer computes in its
    input's dtype); parameters, gradients, running statistics and the head
    stay float64."""

    @staticmethod
    def build(kind, rng, **overrides):
        cfg = desk_config(**MODEL_KINDS[kind], **overrides)
        gmms = [make_gmm(8, 4, 5 + k) for k in range(cfg.paths)]
        stats = [fit_norm_stats(g, rng.normal(size=(300, 4)), "fast") for g in gmms]
        model = SpoofModel(cfg, gmms, stats, seed=3)
        # a zero head would give every path a zero gradient
        model.fc.weight.data[...] = rng.normal(size=model.fc.weight.shape)
        return model

    @staticmethod
    def step(model, segments):
        """One training step's forward and backward, as ``training._fit``
        runs it; returns the embeddings, the logits and the loss."""
        paths, c = range(model.cfg.paths), model.cfg.channels
        emb = model.embed(segments, paths)
        logits = model.fc.forward(emb)
        loss, grad_logits = softmax_cross_entropy(logits, np.arange(len(segments)) % 2)
        grad_emb = model.fc.backward(grad_logits)
        for k in paths:
            model.paths[k].backward_params(grad_emb[:, k * c : (k + 1) * c])
        return emb, logits, loss

    @pytest.mark.parametrize("kind", list(MODEL_KINDS))
    def test_every_conv_and_batch_norm_runs_in_float32(self, kind, rng):
        model = self.build(kind, rng)
        seen = []

        def record(layer, name):
            method = getattr(layer, name)

            def recorded(*args):
                out = method(*args)
                seen.append((type(layer).__name__, name, args[0].dtype,
                             None if out is None else out.dtype))
                return out
            setattr(layer, name, recorded)

        units = [layer for path in model.paths for _, layer in path._named_layers()
                 if isinstance(layer, (Conv1d, BatchNorm1d))]
        for layer in units:
            kernels = (("output", "weight_grad", "input_grad") if isinstance(layer, Conv1d)
                       else ("normalize", "affine", "input_grad"))
            for name in kernels:
                record(layer, name)
        emb, logits, _ = self.step(model, rng.normal(size=(4, model.cfg.input_length, 4)))
        # the forward and the weight gradient of every conv, the forward and
        # backward of every batch norm, and the rebuilt ReLU outputs
        assert len(seen) >= 3 * len(units)
        assert {name for _, name, *_ in seen} == {"output", "weight_grad", "input_grad",
                                                  "normalize", "affine"}
        promoted = [call for call in seen if set(call[2:]) - {None, np.dtype(np.float32)}]
        assert not promoted, promoted
        assert emb.dtype == np.float32
        assert logits.dtype == np.float64
        for p in model.fc.parameters() + [p for path in model.paths for p in path.parameters()]:
            assert p.data.dtype == p.grad.dtype == np.float64
        for path in model.paths:
            for bn in path.batchnorms():
                assert bn.running_mean.dtype == bn.running_var.dtype == np.float64

    @pytest.mark.parametrize("kind", list(MODEL_KINDS))
    def test_forward_holds_the_counted_tensors_at_four_bytes_a_value(self, kind, rng):
        model = self.build(kind, rng, input_length=64)
        cfg, batch = model.cfg, 8
        segments = rng.normal(size=(batch, cfg.input_length, 4))
        self.step(model, segments)                   # warm up numpy's own caches
        row = batch * (cfg.input_length + 2)         # two zero gutter frames a row
        # per path: the LGP maps, the stem xhat, per block two xhat, and the
        # inputs of blocks s, 2s, ... with s = ceil(sqrt(blocks))
        every = int(np.ceil(np.sqrt(cfg.blocks)))
        tensors = (2 * cfg.blocks + 1 + len(range(every, cfg.blocks, every))) * cfg.channels
        bound = cfg.paths * (tensors + cfg.gmm_order) * row * 4
        slack = cfg.channels * row * 4               # per-channel vectors, pooling indices
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model.embed(segments, range(cfg.paths))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        print(f"{kind}: {kept} bytes kept after forward, bound {bound}")
        assert kept <= bound + slack, f"{kept} bytes kept, bound {bound}"

    @pytest.mark.parametrize("se", [False, True], ids=["resnet", "se"])
    def test_one_step_drifts_within_the_gamma_bound(self, se, rng):
        """The float32 step against the float64 one: on float64 maps every
        layer runs the float64 arithmetic, so ``plain_net``'s float64 maps and
        a path forward are the oracle.  Bounds from Higham's
        gamma_n = n u / (1 - n u), u = 2^-24 (see CHANGES.md)."""
        model = self.build("se" if se else "one-path", rng)
        twin = copy.deepcopy(model)
        cfg, batch = model.cfg, 4
        segments = rng.normal(size=(batch, cfg.input_length, 4))
        emb32, _, loss32 = self.step(model, segments)
        path = twin.paths[0]
        emb64 = path.forward(plain_net.lgp_maps(twin.gmms[0], twin.stats[0], segments), True)
        loss64, grad_logits = softmax_cross_entropy(twin.fc.forward(emb64), np.arange(batch) % 2)
        path.backward_params(twin.fc.backward(grad_logits))
        assert emb64.dtype == np.float64 and emb32.dtype == np.float32

        u, c, n = 2.0 ** -24, cfg.channels, cfg.input_length

        def gamma(terms):
            return terms * u / (1 - terms * u)

        delta = u + gamma(3 * max(c, cfg.gmm_order)) + 2 * gamma(batch * n)
        eps_f = (1 + 2 * cfg.blocks) * delta + se * cfg.blocks * (gamma(n) + gamma(c))
        eps_b = 2 * eps_f + gamma(batch * n)
        ratios = {"loss": abs(loss32 - loss64) / (
            2 * eps_f * (np.abs(twin.fc.weight.data) @ np.abs(emb64).T).max())}
        m = BatchNorm1d.MOMENTUM
        layers = [("fc", model.fc, twin.fc)] + [
            (name, a, b) for (name, a), (_, b) in zip(model.paths[0]._named_layers(),
                                                      path._named_layers())]
        for name, a, b in layers:
            for key, p32, p64 in zip(a.named_tensors(), a.parameters(), b.parameters()):
                ratios[f"{name}.{key} grad"] = (np.abs(p32.grad - p64.grad).max()
                                                / (eps_b * np.abs(p64.grad).max()))
            if isinstance(a, BatchNorm1d):
                # the batch's second moment E[x^2] per channel, from one update of (0, 1)
                second = ((b.running_var - (1 - m)) / m + (b.running_mean / m) ** 2).max()
                ratios[f"{name}.running_mean"] = (np.abs(a.running_mean - b.running_mean).max()
                                                  / (m * eps_f * np.sqrt(second)))
                ratios[f"{name}.running_var"] = (np.abs(a.running_var - b.running_var).max()
                                                 / (2 * m * eps_f * second))
        print(f"eps_f {eps_f:.3g}, eps_b {eps_b:.3g}; largest drift/bound "
              + ", ".join(f"{k} {v:.3g}" for k, v in sorted(ratios.items(), key=lambda kv: -kv[1])[:4]))
        assert all(np.isfinite(v) and v <= 1.0 for v in ratios.values()), ratios
