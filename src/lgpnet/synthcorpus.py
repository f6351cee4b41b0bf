"""Deterministic synthetic two-class corpora for desk-scale verification.

Two tasks:

* ``marginal-shift``: classes are drawn from different mixtures, so even a
  frame-independent scorer separates them.
* ``order-only``: each bona fide utterance traces a smooth trajectory and
  its paired spoof utterance holds the *same frame multiset* in shuffled
  order.  Any scorer that is invariant to frame permutations (e.g. a GMM
  log-likelihood ratio) sits at chance; a model that looks at neighboring
  frames separates the classes easily.

Generation is bit-reproducible from the corpus seed: every utterance uses
its own spawned substream.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .frontend import store_features
from .evaluation import write_protocol

TASKS = ("marginal-shift", "order-only")
PARTITIONS = ("train", "dev", "eval")


@dataclass
class CorpusSpec:
    task: str = "order-only"
    dim: int = 4
    train_utts: int = 400              # per partition, both classes together
    dev_utts: int = 200
    eval_utts: int = 200
    min_len: int = 40
    max_len: int = 96
    seed: int = 7

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if min(self.train_utts, self.dev_utts, self.eval_utts) < 2:
            raise ValueError("each partition needs at least one utterance per class")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError("bad length range")

    def pairs(self, partition: str) -> int:
        count = {"train": self.train_utts, "dev": self.dev_utts, "eval": self.eval_utts}
        return count[partition] // 2


@dataclass
class Utterance:
    utt_id: str
    label: str                        # bonafide | spoof
    features: np.ndarray              # (T, D)


def _trajectory(rng: np.random.Generator, t: int, dim: int) -> np.ndarray:
    """Smooth multichannel curve: paired sin/cos channels plus mild jitter."""
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(dim + 1) // 2)
    cycles = rng.uniform(1.0, 3.0, size=(dim + 1) // 2)
    radius = rng.uniform(0.8, 1.6, size=(dim + 1) // 2)
    ticks = np.arange(t) / t
    channels = []
    for p, c, r in zip(phase, cycles, radius):
        angle = 2.0 * np.pi * c * ticks + p
        channels.append(r * np.sin(angle))
        channels.append(r * np.cos(angle))
    frames = np.stack(channels[:dim], axis=1)
    return frames + rng.normal(0.0, 0.05, size=frames.shape)


def _mixture_frames(rng: np.random.Generator, t: int, centers: np.ndarray,
                    spread: float) -> np.ndarray:
    which = rng.integers(centers.shape[0], size=t)
    return centers[which] + rng.normal(0.0, spread, size=(t, centers.shape[1]))


def _class_centers(spec: CorpusSpec) -> tuple[np.ndarray, np.ndarray]:
    """Two well-separated sets of mixture centers, fixed by the corpus seed."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xC0]))
    bona = rng.normal(0.0, 1.0, size=(2, spec.dim))
    shift = rng.normal(0.0, 1.0, size=spec.dim)
    shift *= 3.0 / np.linalg.norm(shift)
    spoof = bona + shift[None, :]
    return bona, spoof


def build_corpus(spec: CorpusSpec) -> dict[str, list[Utterance]]:
    """Materialize the corpus in memory, one utterance list per partition."""
    out: dict[str, list[Utterance]] = {}
    bona_centers, spoof_centers = _class_centers(spec)
    for part_idx, partition in enumerate(PARTITIONS):
        utts: list[Utterance] = []
        for j in range(spec.pairs(partition)):
            rng = np.random.default_rng(np.random.SeedSequence([spec.seed, part_idx, j]))
            t = int(rng.integers(spec.min_len, spec.max_len + 1))
            if spec.task == "order-only":
                frames = _trajectory(rng, t, spec.dim)
                bona = frames
                spoof = frames[rng.permutation(t)]
            else:
                bona = _mixture_frames(rng, t, bona_centers, 0.6)
                spoof = _mixture_frames(rng, t, spoof_centers, 0.6)
            utts.append(Utterance(f"{partition}_{j:04d}_b", "bonafide", bona))
            utts.append(Utterance(f"{partition}_{j:04d}_s", "spoof", spoof))
        out[partition] = utts
    return out


def generate(spec: CorpusSpec, out_dir) -> dict[str, Path]:
    """Write feature files and protocols; returns the protocol paths.

    Layout: ``<out>/feats/<utt_id>.lgpf`` plus ``<out>/<partition>.txt``.
    """
    out_dir = Path(out_dir)
    protocols: dict[str, Path] = {}
    for partition, utts in build_corpus(spec).items():
        for utt in utts:
            store_features(out_dir / "feats" / f"{utt.utt_id}.lgpf", utt.features)
        protocols[partition] = out_dir / f"{partition}.txt"
        write_protocol(protocols[partition], {utt.utt_id: utt.label for utt in utts})
    return protocols


def pooled_frames(utts: list[Utterance], label: str | None = None) -> np.ndarray:
    """Concatenate the frames of every utterance (optionally one class)."""
    mats = [u.features for u in utts if label is None or u.label == label]
    if not mats:
        raise ValueError(f"no utterances with label {label!r}")
    return np.concatenate(mats, axis=0)
