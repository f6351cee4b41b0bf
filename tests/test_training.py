import dataclasses
import tracemalloc

import numpy as np
import pytest

import plain_net
from lgpnet import model as model_mod
from lgpnet import nn
from lgpnet.errors import TrainingDivergedError
from lgpnet.evaluation import eer_from_scores
from lgpnet.gmm import Gmm
from lgpnet.lgp import extract_lgp, fit_norm_stats
from lgpnet.model import BONA_FIDE, SPOOF, ClassifierConfig, SpoofModel, UfmConfig, segment_ufm
from lgpnet.training import (
    LabeledDataset,
    LabeledUtterance,
    TrainConfig,
    TwoStepResult,
    paths_state,
    train_one_path,
    train_two_step,
)


def tiny_config(paths=1):
    return ClassifierConfig(
        gmm_order=4, channels=8, blocks=1, se_enabled=False, se_reduction=4,
        input_length=8, paths=paths, lgp_form="fast",
    )


def make_gmm(seed, order=4, dim=2):
    rng = np.random.default_rng(seed)
    return Gmm(
        np.full(order, 1.0 / order),
        rng.normal(size=(order, dim)) * 2.0,
        rng.uniform(0.5, 1.5, size=(order, dim)),
    )


def separable_dataset(rng, n_per_class=8, partition="train"):
    """Class means far apart so a linear probe separates the LGP maps."""
    items = []
    for i in range(n_per_class):
        bona = rng.normal(loc=(2.0, 2.0), scale=0.3, size=(8, 2))
        spoof = rng.normal(loc=(-2.0, -2.0), scale=0.3, size=(8, 2))
        items.append(LabeledUtterance(f"{partition}_b{i}", bona, BONA_FIDE))
        items.append(LabeledUtterance(f"{partition}_s{i}", spoof, SPOOF))
    return LabeledDataset(items, partition)


def build_one_path(rng, seed=0):
    gmm = make_gmm(1)
    stats = fit_norm_stats(gmm, rng.normal(scale=2.0, size=(400, 2)), "fast")
    return SpoofModel(tiny_config(), [gmm], [stats], seed=seed)


def build_two_path(rng, seed=0):
    g0, g1 = make_gmm(1), make_gmm(2)
    train = rng.normal(scale=2.0, size=(400, 2))
    stats = [fit_norm_stats(g, train, "fast") for g in (g0, g1)]
    return SpoofModel(tiny_config(paths=2), [g0, g1], stats, seed=seed)


class TestOnePath:
    def test_separable_toy_reaches_low_loss(self, rng):
        model = build_one_path(rng)
        data = separable_dataset(rng, n_per_class=1)   # 2 utterances
        cfg = TrainConfig(batch_size=2, epochs=200, lr=1e-2, seed=0, target_length=8)
        result = train_one_path(model, data, cfg)
        assert result.loss_trace[-1] < 0.01

    def test_initial_loss_is_ln2(self, rng):
        model = build_one_path(rng)
        data = separable_dataset(rng, n_per_class=4)
        # One batch covers the whole epoch, so the first trace entry is the
        # loss under the untouched zero-init head: exactly ln 2.
        cfg = TrainConfig(batch_size=len(data), epochs=1, lr=1e-4, seed=0, target_length=8)
        result = train_one_path(model, data, cfg)
        assert result.loss_trace[0] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_fixed_seed_reproduces_loss_trace_exactly(self, rng):
        data = separable_dataset(np.random.default_rng(5), n_per_class=4)
        traces = []
        for _ in range(2):
            model = build_one_path(np.random.default_rng(9), seed=7)
            cfg = TrainConfig(batch_size=4, epochs=5, lr=1e-3, seed=7, target_length=8)
            traces.append(train_one_path(model, data, cfg).loss_trace)
        assert traces[0] == traces[1]

    def test_fixed_seed_reproduces_parameters_bit_exactly(self, rng):
        data = separable_dataset(np.random.default_rng(5), n_per_class=4)
        states = []
        for _ in range(2):
            model = build_one_path(np.random.default_rng(9), seed=7)
            cfg = TrainConfig(batch_size=4, epochs=3, lr=1e-3, seed=7, target_length=8)
            train_one_path(model, data, cfg)
            states.append(paths_state(model.paths) + [p.data.copy() for p in model.fc.parameters()])
        for a, b in zip(*states):
            assert np.array_equal(a, b)

    def test_best_dev_epoch_selected(self, rng):
        model = build_one_path(rng)
        data = separable_dataset(rng, n_per_class=6)
        dev = separable_dataset(rng, n_per_class=4, partition="dev")
        cfg = TrainConfig(batch_size=4, epochs=4, lr=1e-3, seed=1, target_length=8)
        result = train_one_path(model, data, cfg, dev)
        assert len(result.dev_eer_trace) == 4
        assert result.best_epoch == int(np.argmin(result.dev_eer_trace))

    @pytest.mark.parametrize("se", [False, True], ids=["plain", "se"])
    def test_dev_eer_of_every_epoch_is_the_oracles(self, se):
        """The dev EER, which a plan of the live tensors scores, equals that of
        ``plain_net``'s scores of the live tensors after every epoch, on a
        noisy dev set of 1 to 5N frames whose EER stays above 0."""
        rng = np.random.default_rng(4)
        gmm = make_gmm(1)
        stats = fit_norm_stats(gmm, rng.normal(scale=2.0, size=(400, 2)), "fast")
        cfg = dataclasses.replace(tiny_config(), se_enabled=se, input_length=32)
        model = SpoofModel(cfg, [gmm], [stats], seed=0)
        data = separable_dataset(rng, n_per_class=6)
        dev = LabeledDataset([
            LabeledUtterance(f"dev{i}", rng.normal(loc=0.5 - (i % 2), scale=3.0,
                                                   size=(1 + 13 * i % 160, 2)), i % 2)
            for i in range(24)], "dev")
        labels, eers = dev.labels(), []

        def oracle(epoch, result):
            scores = np.array([plain_net.score_utterance(model, utt.features)
                               for utt in dev.items])
            eers.append(eer_from_scores(scores[labels == BONA_FIDE], scores[labels == SPOOF])[0])

        train_cfg = TrainConfig(batch_size=4, epochs=4, lr=1e-2, seed=1, target_length=32)
        result = train_one_path(model, data, train_cfg, dev, on_epoch=oracle)
        print(f"dev EER per epoch {result.dev_eer_trace}")
        assert result.dev_eer_trace == eers
        assert min(eers) > 0.0

    def test_best_epoch_restore_is_bit_exact(self, rng, monkeypatch):
        from lgpnet import training as training_mod

        # Fix the dev EER per epoch so the best epoch (1) is neither first nor last.
        eers = iter([0.4, 0.1, 0.3, 0.2])
        monkeypatch.setattr(training_mod, "_dev_eer", lambda *args: next(eers))
        model = build_one_path(rng)
        data = separable_dataset(rng, n_per_class=6)
        dev = separable_dataset(rng, n_per_class=2, partition="dev")
        cfg = TrainConfig(batch_size=4, epochs=4, lr=1e-2, seed=1, target_length=8)
        bns = model.paths[0].batchnorms()
        bn_stats, states = [], []

        def record(epoch, result):
            bn_stats.append([(bn.running_mean.copy(), bn.running_var.copy()) for bn in bns])
            states.append(paths_state([model.fc, *model.paths]))

        result = train_one_path(model, data, cfg, dev, on_epoch=record)
        assert result.best_epoch == 1
        assert not np.array_equal(bn_stats[1][0][0], bn_stats[3][0][0])
        for bn, (mean, var) in zip(bns, bn_stats[1]):
            assert np.array_equal(bn.running_mean, mean)
            assert np.array_equal(bn.running_var, var)
        for live, best in zip(paths_state([model.fc, *model.paths]), states[1]):
            assert np.array_equal(live, best)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_input_aborts_with_diagnostics(self, rng):
        model = build_one_path(rng)
        poisoned = separable_dataset(rng, n_per_class=2)
        poisoned.items[0].features[0, 0] = 1e300   # squares to +inf in the LGP map
        cfg = TrainConfig(batch_size=4, epochs=2, lr=1e-3, seed=0, target_length=8)
        with pytest.raises(TrainingDivergedError, match="train_b0"):
            train_one_path(model, poisoned, cfg)

    def test_map_beyond_float32_aborts_with_diagnostics(self, rng):
        # finite in float64, as eval mode takes it, but not in the float32
        # maps a training step runs on
        model = build_one_path(rng)
        poisoned = separable_dataset(rng, n_per_class=2)
        poisoned.items[1].features[2, 0] = 1e25
        lgp = extract_lgp(model.gmms[0], model.stats[0], poisoned.items[1].features)
        assert np.isfinite(lgp).all() and np.abs(lgp).max() > np.finfo(np.float32).max
        cfg = TrainConfig(batch_size=4, epochs=2, lr=1e-3, seed=0, target_length=8)
        with pytest.raises(TrainingDivergedError,
                           match="^non-finite feature map for utterance 'train_s0'$"):
            train_one_path(model, poisoned, cfg)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_dev_input_names_the_dev_utterance(self, rng):
        model = build_one_path(rng)
        data = separable_dataset(rng, n_per_class=2)
        dev = separable_dataset(rng, n_per_class=2, partition="dev")
        dev.items[1].features[3, 1] = 1e300
        cfg = TrainConfig(batch_size=4, epochs=1, lr=1e-3, seed=0, target_length=8)
        with pytest.raises(TrainingDivergedError,
                           match="^non-finite feature map for utterance 'dev_s0'$"):
            train_one_path(model, data, cfg, dev)

    def test_non_finite_loss_aborts(self, rng, monkeypatch):
        # Divergence mid-training: force the loss itself to go non-finite.
        from lgpnet import training as training_mod

        model = build_one_path(rng)
        data = separable_dataset(rng, n_per_class=2)
        cfg = TrainConfig(batch_size=4, epochs=2, lr=1e-3, seed=0, target_length=8)

        def exploding_loss(logits, labels):
            return float("nan"), np.zeros_like(np.atleast_2d(logits))

        monkeypatch.setattr(training_mod, "softmax_cross_entropy", exploding_loss)
        with pytest.raises(TrainingDivergedError, match="epoch 0"):
            train_one_path(model, data, cfg)

    def test_batch_statistic_beyond_float32_aborts_the_epoch(self, rng):
        # finite in float64, so every parameter stays finite, but the
        # checkpoint writer would refuse it
        model = build_one_path(rng)
        model.paths[0].bn.running_var[...] = 1e39
        data = separable_dataset(rng, n_per_class=2)
        cfg = TrainConfig(batch_size=4, epochs=2, lr=1e-3, seed=0, target_length=8)
        epochs = []
        with pytest.raises(TrainingDivergedError, match="^after epoch 0: tensor "
                           "'path0.stem.bn.running_var' has a value that is not finite"):
            train_one_path(model, data, cfg, on_epoch=lambda epoch, result: epochs.append(epoch))
        assert epochs == []

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0])
    def test_learning_rate_must_be_positive_and_finite(self, lr):
        with pytest.raises(ValueError, match="learning rate must be positive and finite"):
            TrainConfig(lr=lr)

    def test_two_path_model_rejected(self, rng):
        model = build_two_path(rng)
        data = separable_dataset(rng, n_per_class=2)
        with pytest.raises(ValueError):
            train_one_path(model, data, TrainConfig(target_length=8))

    def test_length_mismatch_rejected(self, rng):
        model = build_one_path(rng)
        data = separable_dataset(rng, n_per_class=2)
        with pytest.raises(ValueError):
            train_one_path(model, data, TrainConfig(target_length=16))


class TestTwoStep:
    @pytest.fixture
    def trained(self, rng) -> tuple[SpoofModel, TwoStepResult]:
        model = build_two_path(rng, seed=3)
        data = separable_dataset(rng, n_per_class=8)
        dev = separable_dataset(rng, n_per_class=6, partition="dev")
        cfg = TrainConfig(batch_size=4, epochs=6, lr=1e-3, seed=3, target_length=8)
        result = train_two_step(model, data, cfg, dev)
        return model, result

    def test_paths_bit_identical_after_step_two(self, trained):
        model, result = trained
        for live, frozen in zip(paths_state(model.paths), result.frozen_state):
            assert np.array_equal(live, frozen)

    def test_temporary_heads_absent_from_checkpoint(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "two.lgpn"
        model.save(path)
        from lgpnet import tensorio

        names = list(tensorio.load_tensors(path))
        assert all("temp" not in name for name in names)
        assert "fc.weight" in names
        heads = [n for n in names if n.startswith("fc.")]
        assert sorted(heads) == ["fc.bias", "fc.weight"]

    def test_fused_dev_eer_close_to_paths(self, trained):
        _, result = trained
        assert len(result.path_dev_eers) == 2
        for path_eer in result.path_dev_eers:
            assert result.dev_eer <= path_eer + 0.02

    def test_fused_dev_eer_is_that_of_the_kept_head(self):
        """The fused dev EER is the best step-2 epoch's, whose head the model
        keeps: ``plain_net``'s scores of the trained model give it back."""
        rng = np.random.default_rng(1)
        model = build_two_path(rng, seed=3)
        data = separable_dataset(rng, n_per_class=4)
        dev = separable_dataset(rng, n_per_class=6, partition="dev")
        for utt in dev.items:
            utt.features = utt.features + rng.normal(scale=4.0, size=utt.features.shape)
        cfg = TrainConfig(batch_size=4, epochs=4, lr=3e-2, seed=3, target_length=8)
        result = train_two_step(model, data, cfg, dev)
        scores = np.array([plain_net.score_utterance(model, utt.features) for utt in dev.items])
        labels = dev.labels()
        eer = eer_from_scores(scores[labels == BONA_FIDE], scores[labels == SPOOF])[0]
        assert result.dev_eer == eer < result.step2.dev_eer_trace[0]

    def test_one_path_model_rejected(self, rng):
        model = build_one_path(rng)
        data = separable_dataset(rng, n_per_class=2)
        with pytest.raises(ValueError):
            train_two_step(model, data, TrainConfig(target_length=8))

    def test_step_two_optimizes_only_the_head(self, rng, monkeypatch):
        from lgpnet import training as training_mod

        optimizers = []

        class RecordingAdam(training_mod.Adam):
            def __init__(self, params, **kwargs):
                super().__init__(params, **kwargs)
                optimizers.append(self)

        monkeypatch.setattr(training_mod, "Adam", RecordingAdam)
        model = build_two_path(rng, seed=3)
        data = separable_dataset(rng, n_per_class=4)
        cfg = TrainConfig(batch_size=4, epochs=2, lr=1e-3, seed=3, target_length=8)
        train_two_step(model, data, cfg)
        assert len(optimizers) == 3          # one per path in step 1, then the head
        for k, opt in enumerate(optimizers[:2]):
            path_params = model.paths[k].parameters()
            assert [id(p) for p in opt.params[-len(path_params):]] == [id(p) for p in path_params]
        assert [id(p) for p in optimizers[2].params] == [id(p) for p in model.fc.parameters()]

    def test_dev_run_keeps_no_lgp_stack(self):
        """Both steps with a dev set stay below the size of one float64
        (n, M, N) LGP stack: paths derive their maps per minibatch."""
        n, order, length = 512, 256, 64
        rng = np.random.default_rng(0)
        gmms = [make_gmm(seed, order=order) for seed in (1, 2)]
        frames = rng.normal(scale=2.0, size=(2000, 2))
        stats = [fit_norm_stats(g, frames, "fast") for g in gmms]
        cfg = ClassifierConfig(gmm_order=order, channels=8, blocks=1, input_length=length,
                               paths=2)
        model = SpoofModel(cfg, gmms, stats, seed=0)

        def dataset(partition, count):
            items = [LabeledUtterance(f"{partition}{i}", rng.normal(size=(40 + i % 100, 2)), i % 2)
                     for i in range(count)]
            return LabeledDataset(items, partition)

        data, dev = dataset("train", n), dataset("dev", 64)
        train_cfg = TrainConfig(batch_size=16, epochs=1, lr=1e-3, seed=0, target_length=length)
        tracemalloc.start()
        try:
            train_two_step(model, data, train_cfg, dev)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * order * length * 8


class TestHeldInputIsPerBatch:
    """Training cuts each minibatch when it uses it, and a plan of the live
    tensors embeds each dev utterance on its own: what training holds does
    not grow with the number of utterances, save the step-2 embeddings (2C
    values per row against N·D raw ones)."""

    LENGTH, DIM = 64, 20

    def traced_peak(self, trainer, paths, count):
        """Traced peak of ``trainer`` over ``count`` training and ``count // 2``
        dev utterances, and the bytes the raw stacks of both would take."""
        rng = np.random.default_rng(count)
        gmms = [make_gmm(seed, dim=self.DIM) for seed in range(1, paths + 1)]
        frames = rng.normal(size=(400, self.DIM))
        stats = [fit_norm_stats(g, frames, "fast") for g in gmms]
        cfg = dataclasses.replace(tiny_config(paths), input_length=self.LENGTH)
        model = SpoofModel(cfg, gmms, stats, seed=0)

        def dataset(partition, n):
            items = [LabeledUtterance(f"{partition}{i}", rng.normal(size=(20 + i % 120, self.DIM)),
                                      i % 2) for i in range(n)]
            return LabeledDataset(items, partition)

        data, dev = dataset("train", count), dataset("dev", count // 2)
        raw = (len(data) * self.LENGTH * self.DIM * 8
               + sum(segment_ufm(u.features, UfmConfig(self.LENGTH)).nbytes for u in dev.items))
        train_cfg = TrainConfig(batch_size=16, epochs=1, lr=1e-3, seed=0,
                                target_length=self.LENGTH)
        tracemalloc.start()
        try:
            trainer(model, data, train_cfg, dev)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, raw

    @pytest.mark.parametrize("trainer, paths", [(train_one_path, 1), (train_two_step, 2)])
    def test_peak_does_not_grow_with_the_corpus(self, trainer, paths):
        n = 48
        small, _ = self.traced_peak(trainer, paths, n)
        large, raw = self.traced_peak(trainer, paths, 4 * n)
        assert large - small < raw / 4


class TestNoCacheAfterTraining:
    """Dev EER and the step-2 embedding run a plan, not the layers, the dev
    logits read the head's tensors, and backward frees every cache: no layer
    of the paths or of the head keeps one after training."""

    @staticmethod
    def cached_layers(model):
        """(owner, attribute) of every layer holding a cache, found by walking
        the attributes of each path and block, and the head itself, and
        (path, entry) of everything a path's step schedule still holds."""
        owners = [(k, owner) for k, path in enumerate(model.paths)
                  for owner in (path, *path.blocks)]
        cached = [(k, name) for k, owner in owners for name, layer in vars(owner).items()
                  if getattr(layer, "_cache", None) is not None]
        held = [(k, name) for k, path in enumerate(model.paths) for name in path.held()]
        return cached + held + [("head", "fc")] * (model.fc._cache is not None)

    def test_one_path_with_dev(self, rng):
        model = build_one_path(rng)
        data = separable_dataset(rng, n_per_class=4)
        dev = separable_dataset(rng, n_per_class=3, partition="dev")
        train_one_path(model, data, TrainConfig(batch_size=3, epochs=2, lr=1e-3,
                                                target_length=8), dev)
        assert self.cached_layers(model) == []

    def test_two_step_with_dev(self, rng):
        model = build_two_path(rng, seed=3)
        data = separable_dataset(rng, n_per_class=4)
        dev = separable_dataset(rng, n_per_class=3, partition="dev")
        train_two_step(model, data, TrainConfig(batch_size=3, epochs=2, lr=1e-3,
                                                target_length=8), dev)
        assert self.cached_layers(model) == []


class TestStepMemory:
    """What one training step holds at its peak, and what the dev plans fold."""

    @staticmethod
    def desk_fit(batches=1, se=False):
        """A desk-shape one-path model (order 16, 32 channels, 6 blocks,
        N = 128, batch 16) and ``batches`` minibatches of utterances, whose
        float32 activation buffer (C, B, N + 2) is 266,240 bytes."""
        rng = np.random.default_rng(7)
        order, dim, n, batch = 16, 4, 128, 16
        gmm = Gmm(np.full(order, 1.0 / order), rng.normal(size=(order, dim)),
                  rng.uniform(0.5, 2.0, size=(order, dim)))
        stats = fit_norm_stats(gmm, rng.normal(size=(400, dim)), "fast")
        cfg = ClassifierConfig(gmm_order=order, channels=32, blocks=6, se_enabled=se,
                               se_reduction=4, input_length=n)
        data = LabeledDataset([LabeledUtterance(f"u{i}", rng.normal(size=(n, dim)), i % 2)
                               for i in range(batches * batch)])
        train_cfg = TrainConfig(batch_size=batch, epochs=1, lr=1e-3, seed=0, target_length=n)
        return (lambda: SpoofModel(cfg, [gmm], [stats], seed=0)), data, train_cfg

    # Traced peak of one desk step, measured: 5.68 MB (21.3 activations).
    # The bound allows 2% over it, which the 5.95 MB (22.3) of the step that
    # kept the inputs of blocks 2 and 4, not of block 3 alone (s = 3 of 6
    # blocks), exceeds.
    STEP_PEAK = 5_680_000

    def traced_fit_peak(self, batches):
        """Traced peak of ``_fit`` over ``batches`` minibatches, traced from
        the model's construction, after a warm-up fit; no gradient is left."""
        build, data, train_cfg = self.desk_fit(batches)
        train_one_path(build(), data, train_cfg)                    # warm up
        tracemalloc.start()
        try:
            model = build()
            train_one_path(model, data, train_cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"traced peak {peak} bytes")
        assert all(p._grad is None for p in model.paths[0].parameters() + model.fc.parameters())
        return peak

    def test_traced_peak_of_one_step(self):
        assert self.traced_fit_peak(1) <= 1.02 * self.STEP_PEAK

    def test_traced_peak_of_two_steps(self):
        """Every later step holds what the first holds, Adam's moments
        included, so a saving that only the first step sees (moments made
        at first use, say) fails here."""
        assert self.traced_fit_peak(2) <= 1.02 * self.STEP_PEAK

    @staticmethod
    def held_after_forward(model, data, train_cfg) -> int:
        """Bytes the path's step schedule holds after a train-mode forward of
        the first minibatch, but the batch's segments, each owning array
        counted once."""
        path = model.paths[0]
        segments = np.stack([u.features for u in data.items[: train_cfg.batch_size]])
        model.embed(segments, [0])
        owners = {}
        for name, arrays in path.held().items():
            for arr in arrays if name != "segments" else ():
                owner = arr if arr.base is None else arr.base
                owners[id(owner)] = owner
        return sum(arr.nbytes for arr in owners.values())

    def test_se_forward_holds_what_the_plain_forward_holds(self):
        """At the desk shape a train-mode forward holds 3,733,120 bytes: 14
        activations (stem and block ``xhat``, and the input of block 3) and
        the per-channel vectors and pooling indices.  With SE on it held 6
        activations more when each gate kept its input; now the gates keep
        only their pooled values, first layer and gate, 5,120 bytes each
        (measured 3,763,840 in all), and the bound allows no more."""
        held = {}
        for se in (False, True):
            build, data, train_cfg = self.desk_fit(se=se)
            held[se] = self.held_after_forward(build(), data, train_cfg)
        print(f"held bytes, plain {held[False]}, SE {held[True]}")
        assert held[False] <= 14 * 266_240 + 6_000
        assert held[True] <= held[False] + 6 * 5_120

    @pytest.mark.parametrize("se", [False, True], ids=["resnet", "se"])
    def test_held_bytes_are_what_the_forward_leaves_traced(self, se):
        """``PathNetwork.held``, which ``scripts/step_memory.py`` prints, is
        the whole of what a train-mode forward leaves allocated: the traced
        bytes exceed it by 5,129 and 8,829 (measured; SE keeps more small
        arrays), far less than the 266,240 of one activation it might miss.
        Tracing starts a step earlier, so the running statistics that the
        measured forward replaces are traced too."""
        build, data, train_cfg = self.desk_fit(se=se)
        model = build()
        segments = np.stack([u.features for u in data.items[: train_cfg.batch_size]])
        tracemalloc.start()
        try:
            model.embed(segments, [0])
            model.paths[0].backward_params(np.zeros((len(segments), 32)))
            before = tracemalloc.get_traced_memory()[0]
            model.embed(segments, [0])
            traced = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        held = self.held_after_forward(model, data, train_cfg)
        print(f"traced {traced} bytes, held {held}")
        assert held <= traced <= held + 16_384

    def test_se_step_copies_no_activation(self, rng, monkeypatch):
        """Every unit of an SE step, the gate included, reads its input and
        its gradient in place: ``to_gutter``, in the step schedule or in a
        layer, copies no (B, C, N) array.  An SE gate that handed on plain
        arrays cost 11 such copies at 6 blocks, one into each next block's
        conv1 and one into each bn2's backward."""
        cfg = dataclasses.replace(tiny_config(), blocks=6, se_enabled=True, input_length=16)
        gmm = make_gmm(1)
        stats = fit_norm_stats(gmm, rng.normal(scale=2.0, size=(400, 2)), "fast")
        model = SpoofModel(cfg, [gmm], [stats], seed=0)
        data = separable_dataset(rng, n_per_class=2)
        full, copies = len(data) * cfg.channels * cfg.input_length, []
        to_gutter = nn.to_gutter

        def counted(x, width):
            buf = to_gutter(x, width)
            if buf is not x.base and x.size >= full:
                copies.append(x.shape)
            return buf

        monkeypatch.setattr(nn, "to_gutter", counted)
        monkeypatch.setattr(model_mod, "to_gutter", counted)
        train_one_path(model, data, TrainConfig(batch_size=len(data), epochs=1, lr=1e-3,
                                                target_length=cfg.input_length))
        assert copies == []

    def test_step1_dev_plan_folds_only_its_path(self, rng, monkeypatch):
        folded = []

        class Recorded(model_mod.ScoringPlan):
            def __init__(self, *args):
                super().__init__(*args)
                folded.append([k for k, path in enumerate(self.paths) if path is not None])

        monkeypatch.setattr(model_mod, "ScoringPlan", Recorded)
        model = build_two_path(rng, seed=3)
        data = separable_dataset(rng, n_per_class=4)
        dev = separable_dataset(rng, n_per_class=3, partition="dev")
        train_two_step(model, data, TrainConfig(batch_size=3, epochs=2, lr=1e-3,
                                                target_length=8), dev)
        assert folded == [[0], [0], [1], [1], [0, 1]]
