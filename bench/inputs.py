"""Seeded inputs for the three workloads.

Everything here depends only on the seed, so the same seed writes the same
bytes.  The program under test sees only the files.  Containers are
written through lgpnet's own public writers (``Gmm.save``,
``LgpNormStats.save``, ``SpoofModel.save``, ``store_features``), so the
time they take counts into the benchmark's set-up time.
"""

from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

from lgpnet.evaluation import write_protocol, write_scores
from lgpnet.frontend import store_features
from lgpnet.gmm import Gmm
from lgpnet.lgp import LgpNormStats, fit_norm_stats
from lgpnet.model import ClassifierConfig, SpoofModel

# Paper shape: 512 mixtures, 60-dim LFCC (20 + deltas), 512 channels,
# 6 residual blocks, segment length N = 400, batch 32.
ORDER, DIM, CHANNELS, BLOCKS, SEGMENT, BATCH = 512, 60, 512, 6, 400, 32

TRAIN_UTTS = 32                    # one batch-32 step per `lgpnet train`
TRAIN_LENGTHS = (200, 600)         # mixed: some are tiled, some cut to N
# Eval lengths for scoring: two utterances per segment count 1, 3, 5, 7, 9
# (cyclic extension to a multiple of N, hop N/2 gives 2L/N - 1 segments).
SCORE_BRACKETS = ((150, 400), (401, 800), (801, 1200), (1201, 1600), (1601, 2000))
SCORE_PER_BRACKET = 2

SAMPLE_RATE = 16000
BASE_TRAIN_UTTS = 20               # per class, 3 s each: ~6k LFCC frames per GMM
BASE_TRAIN_SECONDS = 3.0
BASE_EVAL_UTTS = 800               # both classes together, 0.5 s each
BASE_EVAL_SECONDS = 0.5
FUSE_TRIALS = 2000                 # per partition, three systems


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tag.encode()]))


def _frames(rng, length: int, shift: float) -> np.ndarray:
    """Smooth (AR(1)) 60-dim frames with a small class-dependent mean shift."""
    noise = rng.normal(size=(length, DIM))
    out = np.empty_like(noise)
    out[0] = noise[0]
    for t in range(1, length):
        out[t] = 0.8 * out[t - 1] + 0.6 * noise[t]
    out[:, :10] += shift
    return out


def _labels(n: int) -> dict[str, str]:
    return {f"utt{i:04d}": ("bonafide" if i % 2 == 0 else "spoof") for i in range(n)}


def _write_gmm_and_stats(out: Path, seed: int, frames: np.ndarray):
    """A paper-shape GMM written directly (no EM) and its fast-form stats."""
    rng = _rng(seed, "gmm")
    weights = rng.dirichlet(np.full(ORDER, 5.0))
    means = rng.normal(0.0, 0.8, size=(ORDER, DIM))
    variances = rng.uniform(0.4, 1.6, size=(ORDER, DIM))
    Gmm(weights, means, variances).save(out / "model.gmm")
    gmm = Gmm.load(out / "model.gmm")
    fit_norm_stats(gmm, frames, "fast").save(out / "model.stats")
    return gmm, LgpNormStats.load(out / "model.stats")


def _write_features(feat_dir: Path, rng, labels: dict[str, str], lengths) -> None:
    feat_dir.mkdir(parents=True, exist_ok=True)
    for (utt_id, label), length in zip(labels.items(), lengths):
        shift = 0.15 if label == "bonafide" else -0.15
        store_features(feat_dir / f"{utt_id}.lgpf", _frames(rng, int(length), shift))


def train_paper(out: Path, seed: int) -> dict:
    rng = _rng(seed, "train_paper")
    labels = _labels(TRAIN_UTTS)
    lengths = rng.integers(TRAIN_LENGTHS[0], TRAIN_LENGTHS[1] + 1, size=TRAIN_UTTS)
    _write_features(out / "feats", rng, labels, lengths)
    write_protocol(out / "train.txt", labels)
    pooled = _frames(rng, 8000, 0.0)
    _write_gmm_and_stats(out, seed, pooled)
    (out / "run.cfg").write_text(
        f"gmm_order = {ORDER}\nchannels = {CHANNELS}\nblocks = {BLOCKS}\n"
        f"segment_length = {SEGMENT}\nbatch_size = {BATCH}\nepochs = 1\n"
        f"lr = 0.0001\nseed = {seed}\nworkers = 1\n",
        encoding="utf-8",
    )
    return {"examples": TRAIN_UTTS}


def score_ufm(out: Path, seed: int) -> dict:
    rng = _rng(seed, "score_ufm")
    labels = _labels(len(SCORE_BRACKETS) * SCORE_PER_BRACKET)
    lengths = [int(rng.integers(lo, hi + 1)) for lo, hi in SCORE_BRACKETS
               for _ in range(SCORE_PER_BRACKET)]
    _write_features(out / "feats", rng, labels, lengths)
    write_protocol(out / "eval.txt", labels)
    gmm, stats = _write_gmm_and_stats(out, seed, _frames(rng, 8000, 0.0))

    cfg = ClassifierConfig(gmm_order=ORDER, channels=CHANNELS, blocks=BLOCKS,
                           input_length=SEGMENT)
    model = SpoofModel(cfg, [gmm], [stats], seed=seed)
    # A fresh head is zero, which scores every utterance exactly 0.0 and
    # would hide scoring errors; seed it, and the eval-mode BN statistics.
    model.fc.weight.data = rng.normal(0.0, 1.0 / np.sqrt(CHANNELS), size=model.fc.weight.shape)
    model.fc.bias.data = rng.normal(0.0, 0.1, size=2)
    for bn in model.paths[0].batchnorms():
        bn.running_mean = rng.normal(0.0, 0.1, size=CHANNELS)
        bn.running_var = rng.uniform(0.5, 1.5, size=CHANNELS)
    model.save(out / "model.lgpn")
    return {"utterances": len(labels), "frames": int(sum(lengths))}


def _write_wav(path: Path, rng, seconds: float, centre_hz: float) -> None:
    """Noise shaped by a spectral bump at ``centre_hz`` over a flat floor."""
    n = int(seconds * SAMPLE_RATE)
    spectrum = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
    freqs = np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE)
    shape = 0.05 + np.exp(-0.5 * ((freqs - centre_hz) / 600.0) ** 2)
    signal = np.fft.irfft(spectrum * shape, n)
    signal *= rng.uniform(0.1, 0.5) / np.abs(signal).max()
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(np.round(signal * 32767).astype("<i2").tobytes())


def _centre(rng, label: str) -> float:
    # The classes overlap on 2.5-3.5 kHz, so the LLR baseline errs there.
    return rng.uniform(1500.0, 3500.0) if label == "bonafide" else rng.uniform(2500.0, 4500.0)


def baseline(out: Path, seed: int) -> dict:
    rng = _rng(seed, "baseline")
    wav_dir = out / "wavs"
    wav_dir.mkdir(parents=True, exist_ok=True)
    train = {label: [f"train_{label}_{i:02d}" for i in range(BASE_TRAIN_UTTS)]
             for label in ("bonafide", "spoof")}
    for label, ids in train.items():
        for utt_id in ids:
            _write_wav(wav_dir / f"{utt_id}.wav", rng, BASE_TRAIN_SECONDS, _centre(rng, label))
    labels = {f"eval_{u}": label for u, label in _labels(BASE_EVAL_UTTS).items()}
    for utt_id, label in labels.items():
        _write_wav(wav_dir / f"{utt_id}.wav", rng, BASE_EVAL_SECONDS, _centre(rng, label))
    write_protocol(out / "eval.txt", labels)

    # Three correlated score systems for fusion, dev and eval.
    for part in ("dev", "eval"):
        part_labels = {f"{part}_{u}": label for u, label in _labels(FUSE_TRIALS).items()}
        if part == "dev":
            write_protocol(out / "fuse_dev.txt", part_labels)
        truth = np.array([1.0 if lab == "bonafide" else -1.0 for lab in part_labels.values()])
        shared = rng.normal(size=truth.shape)
        for k, gain in enumerate((1.0, 0.7, 0.4)):
            scores = gain * truth + 0.6 * shared + rng.normal(size=truth.shape)
            write_scores(out / f"sys{k}.{part}", dict(zip(part_labels, scores.tolist())))
    return {"eval_utterances": len(labels), "train_ids": train}
