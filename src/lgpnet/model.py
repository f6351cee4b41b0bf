"""Classifier assembly: conv stem, residual (optionally SE) blocks, pooling,
two-path fusion, and overlap-segmented scoring of variable-length utterances.

A *path* maps an LGP feature map (order, time) to a fixed-width embedding:

    conv(3,1,ch) + BN + ReLU
    blocks x [conv-BN-ReLU, conv-BN-ReLU, optional SE, skip add]
    max over time

One-path models classify a single embedding; two-path models run one path
per class-conditional GMM and classify the concatenated embeddings.  The
detection score is the bona fide logit minus the spoof logit (class 0 is
bona fide throughout).

The model's input is raw feature segments (B, N, D).  ``SpoofModel.embed``
is the one map from them to the head input, for training and scoring alike:
each path derives its LGP maps (B, M, N) from the segments under its own GMM
inside the call, so no LGP map is kept between batches.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import tensorio
from .errors import FormatError, NonFiniteMapError
from .gmm import Gmm
from .lgp import LgpNormStats, extract_lgp
from .nn import BatchNorm1d, Conv1d, Linear, MaxOverTime, ReLU, SEBlock

BONA_FIDE, SPOOF = 0, 1
LABEL_NAMES = {"bonafide": BONA_FIDE, "spoof": SPOOF}

# Checkpoints store these config fields as an index into their choices.
_CFG_CHOICES = {"se_enabled": (False, True), "lgp_form": ("full", "fast")}


@dataclass
class ClassifierConfig:
    gmm_order: int
    channels: int = 512
    blocks: int = 6
    se_enabled: bool = False
    se_reduction: int = 16
    input_length: int = 400
    paths: int = 1
    lgp_form: str = "fast"

    def __post_init__(self):
        if self.gmm_order < 1 or self.channels < 1 or self.blocks < 1:
            raise ValueError("gmm_order, channels and blocks must be >= 1")
        if self.input_length < 2 or self.input_length % 2 != 0:
            raise ValueError("input length must be even and >= 2 (segments hop N/2)")
        if self.paths not in (1, 2):
            raise ValueError("paths must be 1 or 2")
        if self.se_enabled and (self.se_reduction < 1 or self.channels % self.se_reduction != 0):
            raise ValueError("se_reduction must be >= 1 and divide channels")

    def to_tensors(self) -> dict[str, np.ndarray]:
        """One ``cfg.<field>`` entry per field, in field order."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _CFG_CHOICES:
                value = _CFG_CHOICES[f.name].index(value)
            out[f"cfg.{f.name}"] = np.array([float(value)])
        return out

    @classmethod
    def from_tensors(cls, tensors) -> "ClassifierConfig":
        """Inverse of :meth:`to_tensors`; a missing or invalid entry raises FormatError."""
        values = {}
        for f in fields(cls):
            key = f"cfg.{f.name}"
            arr = tensors.get(key)
            if arr is None or arr.shape != (1,):
                raise FormatError(f"checkpoint entry {key!r} is missing or not a scalar")
            value = float(arr[0])
            choices = _CFG_CHOICES.get(f.name)
            if not value.is_integer() or (choices and not 0 <= value < len(choices)):
                raise FormatError(f"checkpoint entry {key!r} has invalid value {value!r}")
            values[f.name] = choices[int(value)] if choices else int(value)
        try:
            return cls(**values)
        except ValueError as exc:
            raise FormatError(f"checkpoint config: {exc}") from None


@dataclass
class UfmConfig:
    """Overlap segmentation: segments of ``segment_length`` frames, hop N/2."""

    segment_length: int

    def __post_init__(self):
        if self.segment_length < 2 or self.segment_length % 2 != 0:
            raise ValueError("segment length must be even and >= 2")


class ResBlock:
    """Residual unit: out = x + [SE](ReLU(BN(conv(ReLU(BN(conv(x)))))))."""

    def __init__(self, channels, se_enabled, se_reduction, rng):
        self.conv1 = Conv1d(channels, channels, 3, padding=1, rng=rng)
        self.bn1 = BatchNorm1d(channels)
        self.relu1 = ReLU()
        self.conv2 = Conv1d(channels, channels, 3, padding=1, rng=rng)
        self.bn2 = BatchNorm1d(channels)
        self.relu2 = ReLU()
        self.se = SEBlock(channels, se_reduction, rng=rng) if se_enabled else None

    def forward(self, x, training):
        h = self.relu1.forward(self.bn1.forward(self.conv1.forward(x), training))
        h = self.relu2.forward(self.bn2.forward(self.conv2.forward(h), training))
        if self.se is not None:
            h = self.se.forward(h)
        return x + h

    def backward(self, grad_out):
        g = grad_out
        if self.se is not None:
            g = self.se.backward(g)
        g = self.conv2.backward(self.bn2.backward(self.relu2.backward(g)))
        g = self.conv1.backward(self.bn1.backward(self.relu1.backward(g)))
        return grad_out + g


class PathNetwork:
    """One classifier path: LGP maps (B, order, N) -> embeddings (B, channels)."""

    def __init__(self, cfg: ClassifierConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.conv = Conv1d(cfg.gmm_order, cfg.channels, 3, padding=1, rng=rng)
        self.bn = BatchNorm1d(cfg.channels)
        self.relu = ReLU()
        self.blocks = [
            ResBlock(cfg.channels, cfg.se_enabled, cfg.se_reduction, rng)
            for _ in range(cfg.blocks)
        ]
        self.pool = MaxOverTime()

    def parameters(self):
        return [p for _, layer in self._named_layers() for p in layer.parameters()]

    def batchnorms(self):
        return [layer for _, layer in self._named_layers() if isinstance(layer, BatchNorm1d)]

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Every live array of the path under its checkpoint name, in a fixed order."""
        return {f"{name}.{key}": arr for name, layer in self._named_layers()
                for key, arr in layer.named_tensors().items()}

    def forward(self, lgp, training):
        """(B, order, N) -> (B, channels)."""
        h = self.relu.forward(self.bn.forward(self.conv.forward(lgp), training))
        for block in self.blocks:
            h = block.forward(h, training)
        return self.pool.forward(h)

    def backward(self, grad_emb):
        g = self.pool.backward(grad_emb)
        for block in reversed(self.blocks):
            g = block.backward(g)
        return self.conv.backward(self.bn.backward(self.relu.backward(g)))

    def _named_layers(self):
        yield "stem.conv", self.conv
        yield "stem.bn", self.bn
        for b, block in enumerate(self.blocks):
            yield f"block{b}.conv1", block.conv1
            yield f"block{b}.bn1", block.bn1
            yield f"block{b}.conv2", block.conv2
            yield f"block{b}.bn2", block.bn2
            if block.se is not None:
                yield f"block{b}.se", block.se


class SpoofModel:
    """Full detector: per-path GMM + normalization stats + network, shared head."""

    def __init__(self, cfg: ClassifierConfig, gmms: list[Gmm], stats: list[LgpNormStats],
                 seed: int = 0):
        if len(gmms) != cfg.paths or len(stats) != cfg.paths:
            raise ValueError(f"need {cfg.paths} GMM(s) and stats, got {len(gmms)}/{len(stats)}")
        for g, s in zip(gmms, stats):
            if g.order != cfg.gmm_order:
                raise ValueError(f"GMM order {g.order} != configured {cfg.gmm_order}")
            if s.order != g.order:
                raise ValueError("stats do not match their GMM")
            if s.form != cfg.lgp_form:
                raise ValueError(f"stats use form {s.form!r}, config wants {cfg.lgp_form!r}")
        self.cfg = cfg
        self.gmms = list(gmms)
        self.stats = list(stats)
        seq = np.random.SeedSequence(seed)
        path_seeds = seq.spawn(cfg.paths)
        self.paths = [PathNetwork(cfg, np.random.default_rng(path_seeds[k]))
                      for k in range(cfg.paths)]
        # Zero-init head: uniform softmax (loss ln 2) before the first update.
        self.fc = Linear(cfg.paths * cfg.channels, 2, init="zero")

    # -- inference -----------------------------------------------------------

    def embed(self, segments: np.ndarray, training: bool, path_ids) -> np.ndarray:
        """Head input of raw feature segments: (B, N, D) -> (B, len(path_ids) * channels).

        Each path in ``path_ids`` computes the normalized LGP maps of the
        segments under its own GMM, embeds them and drops them, so no LGP map
        outlives the call.  A map that is not finite (overflow from finite
        features) raises NonFiniteMapError with its batch row.
        """
        embs = []
        for k in path_ids:
            lgp = np.stack([extract_lgp(self.gmms[k], self.stats[k], seg) for seg in segments])
            finite = np.isfinite(lgp).all(axis=(1, 2))
            if not finite.all():
                raise NonFiniteMapError(f"non-finite LGP map under path {k}",
                                        int(np.argmin(finite)))
            embs.append(self.paths[k].forward(lgp, training))
        return np.concatenate(embs, axis=1)

    def forward_model(self, feats: np.ndarray) -> tuple[np.ndarray, float]:
        """Logits and detection score for one fixed-length feature matrix (N, D)."""
        feats = np.asarray(feats, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError("features must be a (T, D) matrix")
        if feats.shape[0] != self.cfg.input_length:
            raise ValueError(
                f"expected {self.cfg.input_length} frames, got {feats.shape[0]}; "
                "fix the length or score through score_utterance"
            )
        logits = self.fc.forward(self.embed(feats[None], False, range(self.cfg.paths)))[0]
        return logits, float(logits[BONA_FIDE] - logits[SPOOF])

    def score_utterance(self, feats: np.ndarray) -> float:
        """Mean detection score over all overlap segments of an utterance."""
        segments = np.stack(segment_ufm(feats, UfmConfig(self.cfg.input_length)))  # (S, N, D)
        logits = self.fc.forward(self.embed(segments, False, range(self.cfg.paths)))
        scores = logits[:, BONA_FIDE] - logits[:, SPOOF]
        return float(scores.mean())

    # -- persistence -----------------------------------------------------------

    def to_tensors(self) -> dict[str, np.ndarray]:
        out = self.cfg.to_tensors()
        for k, path in enumerate(self.paths):
            out.update({f"path{k}.{name}": arr for name, arr in path.named_tensors().items()})
            out[f"path{k}.gmm_sha256"] = _digest_tensor(self.gmms[k].fingerprint())
            out[f"path{k}.stats_sha256"] = _digest_tensor(self.stats[k].fingerprint())
        out.update({f"fc.{name}": arr for name, arr in self.fc.named_tensors().items()})
        return out

    def save(self, path) -> None:
        tensorio.save_tensors(path, self.to_tensors())

    @classmethod
    def from_tensors(cls, tensors, gmms: list[Gmm], stats: list[LgpNormStats]) -> "SpoofModel":
        """Rebuild a model from checkpoint tensors plus the exact GMM/stats it
        was trained with.  A missing, misshapen or unexpected tensor, or a
        fingerprint mismatch, raises FormatError."""
        cfg = ClassifierConfig.from_tensors(tensors)
        _check_sizes(cfg, tensors)
        model = cls(cfg, gmms, stats, seed=0)
        expected = model.to_tensors()
        unexpected = [name for name in tensors if name not in expected]
        if unexpected:
            raise FormatError(f"checkpoint has unexpected tensor {unexpected[0]!r}")
        for name, live in expected.items():
            stored = tensors.get(name)
            if stored is None:
                raise FormatError(f"checkpoint is missing tensor {name!r}")
            if stored.shape != live.shape:
                raise FormatError(f"tensor {name!r} has shape {stored.shape}, expected {live.shape}")
            if name.startswith("cfg."):
                continue                  # already decoded into model.cfg
            if name.endswith("_sha256"):
                if not np.array_equal(stored, live):
                    raise FormatError(f"{name!r} does not match the given GMM/stats file")
            else:
                live[...] = stored
        return model

    @classmethod
    def load(cls, path, gmms: list[Gmm], stats: list[LgpNormStats]) -> "SpoofModel":
        return cls.from_tensors(tensorio.load_tensors(path), gmms, stats)


def _check_sizes(cfg: ClassifierConfig, tensors) -> None:
    """Hold ``cfg.channels`` and ``cfg.blocks`` against the stored stem and
    last-block weights, so a corrupt size fails before any layer is built."""
    for k in range(cfg.paths):
        stem, last = f"path{k}.stem.conv.weight", f"path{k}.block{cfg.blocks - 1}.conv1.weight"
        if stem not in tensors:
            raise FormatError(f"checkpoint is missing tensor {stem!r}")
        if tensors[stem].shape[:1] != (cfg.channels,):
            raise FormatError(f"cfg.channels = {cfg.channels}, but {stem!r} has shape "
                              f"{tensors[stem].shape}")
        if last not in tensors:
            raise FormatError(f"cfg.blocks = {cfg.blocks}, but the checkpoint is missing "
                              f"tensor {last!r}")


def _digest_tensor(digest: bytes) -> np.ndarray:
    return np.frombuffer(digest, dtype=np.uint8).astype(np.float64)


def segment_ufm(feats: np.ndarray, cfg: UfmConfig) -> list[np.ndarray]:
    """Cut an utterance into half-overlapping fixed-length segments.

    The utterance is first extended by cyclic repetition to the least
    multiple L of N with L >= T, then segments start at 0, N/2, ..., L - N,
    giving exactly 2L/N - 1 of them.
    """
    feats = np.asarray(feats)
    if feats.ndim != 2 or feats.shape[0] == 0:
        raise ValueError("features must be a non-empty (T, D) matrix")
    n = cfg.segment_length
    t = feats.shape[0]
    length = -(-t // n) * n
    reps = -(-length // t)
    extended = np.tile(feats, (reps, 1))[:length]
    hop = n // 2
    return [extended[start : start + n] for start in range(0, length - n + 1, hop)]

