import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgpnet import tensorio
from lgpnet.errors import FormatError, NonFiniteMapError
from lgpnet.gmm import Gmm
from lgpnet.lgp import fit_norm_stats
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
from lgpnet.nn import BatchNorm1d, Conv1d, Linear, SEBlock, softmax_cross_entropy


def desk_config(paths=1, se=False):
    return ClassifierConfig(
        gmm_order=8, channels=16, blocks=2, se_enabled=se, se_reduction=4,
        input_length=32, paths=paths, lgp_form="fast",
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
        assert len(segments) == 5
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
            "path0.stem.conv.weight", "path0.stem.conv.bias",
            "path0.stem.bn.gamma", "path0.stem.bn.beta",
            "path0.stem.bn.running_mean", "path0.stem.bn.running_var",
            "path0.block0.conv1.weight", "path0.block0.conv1.bias",
            "path0.block0.bn1.gamma", "path0.block0.bn1.beta",
            "path0.block0.bn1.running_mean", "path0.block0.bn1.running_var",
            "path0.block0.conv2.weight", "path0.block0.conv2.bias",
            "path0.block0.bn2.gamma", "path0.block0.bn2.beta",
            "path0.block0.bn2.running_mean", "path0.block0.bn2.running_var",
            "path0.block0.se.w1", "path0.block0.se.b1",
            "path0.block0.se.w2", "path0.block0.se.b2",
            "path0.gmm_sha256", "path0.stats_sha256",
            "fc.weight", "fc.bias",
        ]

    def test_two_path_tensor_names_in_order(self, two_path_model):
        def path_names(k):
            names = [f"path{k}.stem.conv.weight", f"path{k}.stem.conv.bias"]
            names += [f"path{k}.stem.bn.{t}" for t in ("gamma", "beta", "running_mean", "running_var")]
            for b in range(2):
                for layer in ("1", "2"):
                    names += [f"path{k}.block{b}.conv{layer}.weight", f"path{k}.block{b}.conv{layer}.bias"]
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
        with pytest.raises(FormatError, match=f"{key} = {value}"):
            self.load(desk_model, tensors)

    def test_unexpected_tensor_refused(self, desk_model):
        tensors = desk_model.to_tensors()
        tensors["path0.block2.conv1.weight"] = np.zeros((16, 16, 3))
        with pytest.raises(FormatError, match="unexpected tensor 'path0.block2.conv1.weight'"):
            self.load(desk_model, tensors)


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


class TestScoringPlan:
    """The plan against its float64 oracle, ``SpoofModel.score_utterance``."""

    @pytest.fixture(params=list(MODEL_KINDS))
    def checkpoint(self, request, rng, tmp_path):
        cfg = desk_config(**MODEL_KINDS[request.param])
        gmms = [make_gmm(8, 4, 5 + k) for k in range(cfg.paths)]
        stats = [fit_norm_stats(g, rng.normal(size=(300, 4)), "fast") for g in gmms]
        model = SpoofModel(cfg, gmms, stats, seed=3)
        return seeded_checkpoint(model, rng, tmp_path / "model.lgpn"), gmms, stats

    def test_matches_oracle_after_round_trip(self, checkpoint, rng):
        path, gmms, stats = checkpoint
        oracle = SpoofModel.load(path, gmms, stats)
        plan = load_plan(path, gmms, stats)
        worst = 0.0
        for length, segments in ((32, 1), (50, 3), (96, 5)):
            feats = rng.normal(size=(length, 4))
            assert len(segment_ufm(feats, UfmConfig(32))) == segments
            want = oracle.score_utterance(feats)
            worst = max(worst, abs(plan.score_utterance(feats) - want) / abs(want))
        assert worst <= 1e-9, f"max relative |dscore| {worst:.3g}"
        print(f"max relative |dscore| {worst:.3g}")

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
        assert _tensor_shapes(cfg) == {name: arr.shape for name, arr in live.items()}

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
