import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgpnet import tensorio
from lgpnet.errors import FormatError, NonFiniteMapError
from lgpnet.gmm import Gmm
from lgpnet.lgp import extract_lgp, fit_norm_stats
from lgpnet.model import (
    ClassifierConfig,
    PathNetwork,
    ScoringPlan,
    SpoofModel,
    UfmConfig,
    _tensor_shapes,
    read_checkpoint,
    segment_ufm,
)
from fdcheck import assert_gradients_match
from lgpnet.nn import (BatchNorm1d, Conv1d, Linear, ReLU, SEBlock, gutter_conv,
                       softmax_cross_entropy)


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


class TestPathShapes:
    def test_desk_scale_embedding(self, rng):
        path = PathNetwork(desk_config(), rng)
        lgp = rng.normal(size=(1, 8, 32))
        assert path.forward(lgp, training=False).shape == (1, 16)

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
        assert path.forward(lgp, training=False).shape == (1, 512)

    def test_wrong_input_shape_rejected(self, rng):
        path = PathNetwork(desk_config(), rng)
        with pytest.raises(ValueError):
            path.forward(rng.normal(size=(1, 9, 32)), training=False)

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
    units holding copies of its tensors (SE and pooling copied whole)."""
    def copied(src, dst):
        for key, arr in src.named_tensors().items():
            dst.named_tensors()[key][...] = arr
        return dst

    def unit(conv, bn):
        out_ch, in_ch, k = conv.weight.shape
        return (copied(conv, Conv1d(in_ch, out_ch, k, padding=1)),
                copied(bn, BatchNorm1d(out_ch)), ReLU())

    stem = unit(path.conv, path.bn)
    blocks = [(unit(b.conv1, b.bn1), unit(b.conv2, b.bn2), copy.deepcopy(b.se))
              for b in path.blocks]
    return stem, blocks, copy.deepcopy(path.pool)


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
    """The fused BN+ReLU path against standalone layers, and what a step keeps."""

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
        layers = [layer for _, layer in path._named_layers()]
        standalone = _standalone_layers(chain[0], chain[1])
        assert [type(a).__name__ for a in standalone] == [
            "BatchNorm1d" if isinstance(b, BatchNorm1d) else type(b).__name__ for b in layers]
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
        assert all(layer._cache is None for layer in path.layers())


class TestForwardModel:
    def test_two_path_head_width(self, two_path_model):
        assert two_path_model.fc.weight.shape == (2, 32)

    def test_tied_paths_and_gmms_give_equal_embeddings(self, rng):
        gmm = make_gmm(8, 4, 5)
        stats = fit_norm_stats(gmm, rng.normal(size=(300, 4)), "fast")
        model = SpoofModel(desk_config(paths=2), [gmm, gmm], [stats, stats], seed=3)
        for p_dst, p_src in zip(model.paths[1].parameters(), model.paths[0].parameters()):
            p_dst.data[...] = p_src.data
        feats = rng.normal(size=(32, 4))
        emb = model.embed(feats[None], False, range(2))[0]
        assert np.array_equal(emb[:16], emb[16:])

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
    def test_single_segment_equals_forward_model(self, desk_model, rng):
        feats = rng.normal(size=(32, 4))
        _, direct = desk_model.forward_model(feats)
        assert desk_model.score_utterance(feats) == direct

    def test_constant_utterance_average_equals_single_score(self, desk_model):
        feats = np.tile(np.array([[0.4, -1.0, 0.2, 2.0]]), (70, 1))
        _, single = desk_model.forward_model(feats[:32])
        assert desk_model.score_utterance(feats) == pytest.approx(single, abs=1e-9)

    def test_hand_averaged_three_segments(self, desk_model, rng):
        feats = rng.normal(size=(33, 4))
        segments = segment_ufm(feats, UfmConfig(32))
        assert len(segments) == 3
        scores = [desk_model.forward_model(seg)[1] for seg in segments]
        assert desk_model.score_utterance(feats) == pytest.approx(np.mean(scores), abs=1e-12)


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

# At N = 64 with 2 blocks (reach R = 5) the plan runs the whole row and the
# segment edge windows.  At N = 32 that would be more conv columns than the
# segments, and with 8 blocks 2R >= N: both score one piece per segment, as
# SE models do.
PLAN_KINDS = {"one-path": dict(input_length=64), "two-path": dict(paths=2, input_length=64),
              "se": dict(se=True, input_length=64), "short-segments": dict(),
              "wide-reach": dict(blocks=8)}


class TestScoringPlan:
    """The plan against its float64 oracle, ``SpoofModel.score_utterance``."""

    @staticmethod
    def build(kind, rng, tmp_path):
        cfg = desk_config(**PLAN_KINDS[kind])
        gmms = [make_gmm(8, 4, 5 + k) for k in range(cfg.paths)]
        stats = [fit_norm_stats(g, rng.normal(size=(300, 4)), "fast") for g in gmms]
        model = SpoofModel(cfg, gmms, stats, seed=3)
        return seeded_checkpoint(model, rng, tmp_path / "model.lgpn"), gmms, stats

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
            want = oracle.score_utterance(feats)
            worst = max(worst, (abs(plan.score_utterance(feats) - want) / abs(want), length))
        print(f"max relative |dscore| {worst[0]:.3g}, at T = {worst[1]}")
        assert worst[0] <= 1e-9, f"max relative |dscore| {worst[0]:.3g} at T = {worst[1]}"

    @pytest.mark.parametrize("kind, length, frames, columns", [
        ("one-path", 160, 192, (192 + 2) + 2 * 4 * (2 * 5 + 2)),    # the row, 8 edge windows
        ("se", 160, 192, 5 * (64 + 2)),                              # the 5 segments
        ("short-segments", 70, 96, 5 * (32 + 2)),
    ], ids=["one-path", "se", "short-segments"])
    def test_work_of_a_5_segment_utterance(self, kind, length, frames, columns, rng, tmp_path,
                                           monkeypatch):
        """Every conv's columns, and the frames of each ``extract_lgp`` call."""
        path, gmms, stats = self.build(kind, rng, tmp_path)
        plan = load_plan(path, gmms, stats)
        seen, extracted = {}, []

        def conv(xbuf, taps):
            seen[id(taps)] = seen.get(id(taps), 0) + xbuf.shape[1] * xbuf.shape[2]
            return gutter_conv(xbuf, taps)

        def extract(gmm, stats, x):
            extracted.append(len(x))
            return extract_lgp(gmm, stats, x)

        monkeypatch.setattr("lgpnet.model.gutter_conv", conv)
        monkeypatch.setattr("lgpnet.model.extract_lgp", extract)
        plan.score_utterance(rng.normal(size=(length, 4)))
        assert extracted == [frames]
        assert list(seen.values()) == [columns] * (1 + 2 * plan.cfg.blocks)

    def test_builds_no_layer(self, checkpoint, monkeypatch):
        path, gmms, stats = checkpoint

        def refuse(*args, **kwargs):
            raise AssertionError("the plan built a training layer")

        for layer in (PathNetwork, Conv1d, BatchNorm1d, SEBlock, Linear):
            monkeypatch.setattr(layer, "__init__", refuse)
        load_plan(path, gmms, stats)

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
