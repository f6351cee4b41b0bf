"""Input checks that no other test reaches, one row each: the call that
trips the check, and the exact type and message of the error it raises."""

import numpy as np
import pytest

from lgpnet import nn, tensorio
from lgpnet.evaluation import fuse_scores, write_protocol
from lgpnet.frontend import Waveform, extract_lfcc, fix_length, store_features
from lgpnet.gmm import Gmm, train_em
from lgpnet.lgp import LgpNormStats, fit_norm_stats
from lgpnet.model import ClassifierConfig, SpoofModel
from lgpnet.runconfig import RunConfig, read_flat_config
from lgpnet.synthcorpus import CorpusSpec, pooled_frames
from lgpnet.training import LabeledDataset, LabeledUtterance, TrainConfig


def _gmm():
    return Gmm(np.full(2, 0.5), np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones((2, 2)))


def _model(lgp_form="fast"):
    gmm = _gmm()
    stats = fit_norm_stats(gmm, np.random.default_rng(0).normal(size=(20, 2)), "fast")
    cfg = ClassifierConfig(gmm_order=2, channels=4, blocks=1, input_length=8, lgp_form=lgp_form)
    return SpoofModel(cfg, [gmm], [stats])


def _stats_tensors(**change):
    tensors = LgpNormStats(np.zeros(2), np.ones(2), "fast").to_tensors()
    tensors.update(change)
    return {name: arr for name, arr in tensors.items() if arr is not None}


UTTERANCE = LabeledUtterance("u", np.zeros((4, 2)), 0)

# id: (call of a scratch directory, exception type, message)
CHECKS = {
    "model-features-not-a-matrix": (
        lambda tmp: _model().forward_model(np.zeros(8)),
        ValueError, "features must be a (T, D) matrix"),
    "model-stats-of-another-form": (
        lambda tmp: _model(lgp_form="full"),
        ValueError, "stats use form 'fast', config wants 'full'"),
    "tensorio-rank-above-8": (
        lambda tmp: tensorio.serialize_tensors({"x": np.zeros((1,) * 9)}),
        ValueError, "tensor 'x' has rank 9 > 8"),
    "tensorio-name-over-65535-bytes": (
        lambda tmp: tensorio.serialize_tensors({"é" * 32768: np.zeros(1)}),
        ValueError, f"tensor name too long: {'é' * 32768!r}"),
    "lgp-stats-unmatched-vectors": (
        lambda tmp: LgpNormStats(np.zeros(2), np.ones(3), "fast"),
        ValueError, "mean and std must be matching vectors"),
    "lgp-stats-zero-std": (
        lambda tmp: LgpNormStats(np.zeros(2), np.array([1.0, 0.0]), "fast"),
        ValueError, "std must be strictly positive (floored)"),
    "lgp-stats-unknown-form": (
        lambda tmp: LgpNormStats(np.zeros(2), np.ones(2), "medium"),
        ValueError, "unknown LGP form 'medium'"),
    "lgp-stats-missing-tensor": (
        lambda tmp: LgpNormStats.from_tensors(_stats_tensors(lgp_std=None)),
        ValueError, "stats checkpoint is missing tensor 'lgp_std'"),
    "lgp-stats-unknown-form-code": (
        lambda tmp: LgpNormStats.from_tensors(_stats_tensors(form=np.array([2.0]))),
        ValueError, "unknown form code 2.0"),
    "lgp-fit-unknown-form": (
        lambda tmp: fit_norm_stats(_gmm(), np.zeros((4, 2)), "medium"),
        ValueError, "unknown LGP form 'medium'"),
    "gmm-variances-unlike-means": (
        lambda tmp: Gmm(np.full(2, 0.5), np.zeros((2, 3)), np.ones((2, 2))),
        ValueError, "means and variances must both be (M, D)"),
    "gmm-weights-not-one-per-component": (
        lambda tmp: Gmm(np.full(3, 1 / 3), np.zeros((2, 3)), np.ones((2, 3))),
        ValueError, "weights must be (M,)"),
    "gmm-stored-weights-off-one": (
        lambda tmp: Gmm.from_tensors({"weights": np.ones(2), "means": np.zeros((2, 2)),
                                      "vars": np.ones((2, 2))}),
        ValueError, "stored weights sum to 2.0"),
    "gmm-em-frames-not-a-matrix": (
        lambda tmp: train_em(np.zeros(5), 2),
        ValueError, "frames must be a (N, D) matrix"),
    "nn-conv-no-channels": (
        lambda tmp: nn.Conv1d(0, 1, 3),
        ValueError, "channel counts must be >= 1"),
    "nn-conv-no-kernel": (
        lambda tmp: nn.Conv1d(1, 1, 0),
        ValueError, "bad kernel/padding"),
    "nn-batch-norm-channels": (
        lambda tmp: nn.BatchNorm1d(2).forward(np.zeros((2, 3, 4)), training=True),
        ValueError, "channel count mismatch"),
    "nn-se-channels": (
        lambda tmp: nn.SEBlock(8, 4).forward(np.zeros((2, 4, 5))),
        ValueError, "channel count mismatch"),
    "nn-linear-unknown-init": (
        lambda tmp: nn.Linear(2, 2, init="xavier"),
        ValueError, "unknown init 'xavier'"),
    "nn-linear-width": (
        lambda tmp: nn.Linear(2, 2).forward(np.zeros((1, 3))),
        ValueError, "feature width mismatch"),
    "nn-loss-label-count": (
        lambda tmp: nn.softmax_cross_entropy(np.zeros((2, 2)), [0]),
        ValueError, "label count does not match batch size"),
    "frontend-sample-rate": (
        lambda tmp: Waveform(np.zeros(4), 0),
        ValueError, "sample rate must be positive"),
    "frontend-non-finite-sample": (
        lambda tmp: Waveform(np.array([0.0, np.nan]), 16000),
        ValueError, "waveform contains non-finite samples"),
    "frontend-window-under-one-sample": (
        lambda tmp: extract_lfcc(Waveform(np.zeros(100), 10)),
        ValueError, "window/hop too short for this sample rate"),
    "frontend-target-length": (
        lambda tmp: fix_length(np.zeros((3, 2)), 0),
        ValueError, "target length must be >= 1"),
    "frontend-store-not-a-matrix": (
        lambda tmp: store_features(tmp / "u.lgpf", np.zeros(3)),
        ValueError, "features must be a (T, D) matrix"),
    "evaluation-fuse-no-system": (
        lambda tmp: fuse_scores([], {}),
        ValueError, "need at least one subsystem"),
    "evaluation-protocol-label": (
        lambda tmp: write_protocol(tmp / "p.txt", {"u": "maybe"}),
        ValueError, "unknown label 'maybe'"),
    "synthcorpus-one-utterance": (
        lambda tmp: CorpusSpec(dev_utts=1),
        ValueError, "each partition needs at least one utterance per class"),
    "synthcorpus-odd-count": (
        lambda tmp: CorpusSpec(train_utts=5),
        ValueError, "each partition count must be even: utterances come in pairs"),
    "synthcorpus-length-range": (
        lambda tmp: CorpusSpec(min_len=50, max_len=40),
        ValueError, "bad length range"),
    "synthcorpus-no-such-label": (
        lambda tmp: pooled_frames([], "spoof"),
        ValueError, "no utterances with label 'spoof'"),
    "training-no-epochs": (
        lambda tmp: TrainConfig(epochs=0),
        ValueError, "batch size and epochs must be >= 1"),
    "training-empty-dataset": (
        lambda tmp: LabeledDataset([]),
        ValueError, "dataset is empty"),
    "training-duplicate-ids": (
        lambda tmp: LabeledDataset([UTTERANCE, UTTERANCE]),
        ValueError, "duplicate utterance ids in dataset"),
}


@pytest.mark.parametrize("case", CHECKS)
def test_check_raises_its_error(tmp_path, case):
    call, kind, message = CHECKS[case]
    with pytest.raises(kind) as err:
        call(tmp_path)
    assert type(err.value) is kind
    assert str(err.value) == message
    assert list(tmp_path.iterdir()) == []       # nothing was written


def test_config_skips_blank_and_comment_only_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("\n# widths\n   \nchannels = 32\n  # trailing note\n\nblocks = 2\n")
    assert read_flat_config(RunConfig, path) == RunConfig(channels=32, blocks=2)
