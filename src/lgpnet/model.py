"""Classifier assembly: conv stem, residual (optionally SE) blocks, pooling,
two-path fusion, and overlap-segmented scoring of variable-length utterances.

A *path* maps an LGP feature map (order, time) to a fixed-width embedding:

    conv(3,1,ch) + BN + ReLU
    blocks x [conv-BN-ReLU, conv-BN-ReLU, optional SE, skip add]
    max over time

Convs have no bias: each feeds a batch norm, which would cancel it.

One-path models classify a single embedding; two-path models run one path
per class-conditional GMM and classify the concatenated embeddings.  The
detection score is the bona fide logit minus the spoof logit (class 0 is
bona fide throughout).

The model's input is raw feature segments (B, N, D).  ``SpoofModel.embed``
is the one map from them to the head input, for training and scoring alike:
each path derives its LGP maps (B, M, N) from the segments under its own GMM
inside the call, so no LGP map is kept between batches.

A train-mode forward keeps, per path, the LGP maps (B, M, N) and the stem's
batch-norm ``xhat``, and per residual block the block input, ``xhat1`` and
``xhat2`` (B, C, N) (plus the SE input with SE on): (3 * blocks + 1) * B*C*N
+ B*M*N float64 values, each with two zero gutter frames per row (the
``nn`` layout in which a conv reads its input in place).  Each ReLU output
is recomputed from its ``xhat`` (``nn.BatchNormReLU``), backward frees
every cache it uses, and an eval-mode forward keeps nothing.

A checkpoint is checked against the schema its own ``cfg.*`` entries
imply, which ``_tensor_shapes`` yields name by name: a stored size that the
weights contradict fails at the first such tensor, before any layer exists.

``lgpnet score`` does not run these layers: ``ScoringPlan`` folds the same
checkpoint into float64 conv weights and shifts, scores without caches,
runs the frames that overlapping segments share once, and
``SpoofModel.score_utterance`` stays as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import tensorio
from .errors import FormatError, NonFiniteMapError, naming
from .gmm import Gmm
from .lgp import LgpNormStats, extract_lgp
from .nn import (BatchNorm1d, BatchNormReLU, Conv1d, Linear, MaxOverTime, SEBlock, gutter_conv,
                 interior, sigmoid, zero_gutters)

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
        self.bn1 = BatchNormReLU(channels)
        self.conv2 = Conv1d(channels, channels, 3, padding=1, rng=rng)
        self.bn2 = BatchNormReLU(channels)
        self.se = SEBlock(channels, se_reduction, rng=rng) if se_enabled else None
        # conv2 keeps no input: backward takes it rebuilt from bn1's xhat
        self.conv2.input_source = self.bn1

    def forward(self, x, training):
        h = self.bn1.forward(self.conv1.forward(x), training)
        h = self.bn2.forward(self.conv2.forward(h), training)
        if self.se is not None:
            h = self.se.forward(h)
        h += x
        return h

    def backward(self, grad_out):
        g = grad_out
        if self.se is not None:
            g = self.se.backward(g)
        g = self.conv2.backward(self.bn2.backward(g))
        g = self.conv1.backward(self.bn1.backward(g))
        g += grad_out
        return g


class PathNetwork:
    """One classifier path: LGP maps (B, order, N) -> embeddings (B, channels)."""

    def __init__(self, cfg: ClassifierConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.conv = Conv1d(cfg.gmm_order, cfg.channels, 3, padding=1, rng=rng)
        self.bn = BatchNormReLU(cfg.channels)
        self.blocks = [
            ResBlock(cfg.channels, cfg.se_enabled, cfg.se_reduction, rng)
            for _ in range(cfg.blocks)
        ]
        self.pool = MaxOverTime()

    def parameters(self):
        return [p for _, layer in self._named_layers() for p in layer.parameters()]

    def batchnorms(self):
        return [layer for _, layer in self._named_layers() if isinstance(layer, BatchNorm1d)]

    def layers(self):
        """Every layer of the path, the pooling included."""
        return [layer for _, layer in self._named_layers()] + [self.pool]

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Every live array of the path under its checkpoint name, in a fixed order."""
        return {f"{name}.{key}": arr for name, layer in self._named_layers()
                for key, arr in layer.named_tensors().items()}

    def forward(self, lgp, training):
        """(B, order, N) -> (B, channels).  Eval mode leaves no layer a cache."""
        h = self.bn.forward(self.conv.forward(lgp), training)
        for block in self.blocks:
            h = block.forward(h, training)
        emb = self.pool.forward(h)
        if not training:
            for layer in self.layers():
                layer._cache = None
        return emb

    def backward(self, grad_emb):
        """Every parameter gradient; returns the gradient w.r.t. the LGP maps."""
        return self.conv.backward_input(self.backward_params(grad_emb))

    def backward_params(self, grad_emb):
        """Every parameter gradient, without the LGP maps' own gradient (which
        training never uses); returns the gradient at the stem conv's output."""
        g = self.pool.backward(grad_emb)
        for block in reversed(self.blocks):
            g = block.backward(g)
        g = self.bn.backward(g)
        self.conv.backward_params(g)
        return g

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
        _check_front_ends(cfg, gmms, stats)
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
        return np.concatenate([
            self.paths[k].forward(_lgp_maps(self.gmms[k], self.stats[k], segments, k), training)
            for k in path_ids], axis=1)

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
        segments = segment_ufm(feats, UfmConfig(self.cfg.input_length))  # (S, N, D)
        logits = self.fc.forward(self.embed(segments, False, range(self.cfg.paths)))
        scores = logits[:, BONA_FIDE] - logits[:, SPOOF]
        return float(scores.mean())

    # -- persistence -----------------------------------------------------------

    def to_tensors(self) -> dict[str, np.ndarray]:
        out = self.cfg.to_tensors()
        for k, path in enumerate(self.paths):
            out.update({f"path{k}.{name}": arr for name, arr in path.named_tensors().items()})
            out[f"path{k}.gmm_sha256"] = _digest_tensor(self.gmms[k])
            out[f"path{k}.stats_sha256"] = _digest_tensor(self.stats[k])
        out.update({f"fc.{name}": arr for name, arr in self.fc.named_tensors().items()})
        return out

    def save(self, path) -> None:
        tensorio.save_tensors(path, self.to_tensors())

    @classmethod
    def from_tensors(cls, tensors, gmms: list[Gmm], stats: list[LgpNormStats]) -> "SpoofModel":
        """Rebuild a model from checkpoint tensors plus the exact GMM/stats it
        was trained with; :func:`read_checkpoint` checks them first."""
        cfg, params = read_checkpoint(tensors, gmms, stats)
        model = cls(cfg, gmms, stats, seed=0)
        live = model.to_tensors()
        for name, stored in params.items():
            live[name][...] = stored
        return model

    @classmethod
    def load(cls, path, gmms: list[Gmm], stats: list[LgpNormStats]) -> "SpoofModel":
        with naming(path):
            return cls.from_tensors(tensorio.load_tensors(path), gmms, stats)


class ScoringPlan:
    """Frozen float64 inference of a checkpoint: what ``lgpnet score`` runs.

    Built straight from checkpoint tensors, so no layer and no random init
    exists.  Every tensor is cast to float64 first, and then each eval-mode
    batch norm is folded into the (bias-free) conv before it:

        s = gamma / sqrt(running_var + eps),  W' = W s,  b' = beta - running_mean s

    (cast before fold: ``running_var + eps`` in float32 moves scores by
    ~1e-6 relative).  Each path makes the LGP map of the cyclically extended
    utterance once; rows cut from it (one per segment, or the whole utterance
    and its segment edges, see ``_embed``) run the conv kernel of ``Conv1d``
    (``nn.gutter_conv``), the shift ``b'`` and an in-place ReLU, the SE gate
    and the in-place residual add; each segment's max over time goes to the
    head, and nothing is kept.  Activations stay in one zero-gutter layout
    from the stem to the pooling, so no layer copies or pads its input.
    Scoring writes no attribute, so ``--workers`` threads share one plan.
    ``SpoofModel.score_utterance`` is its float64 oracle.
    """

    def __init__(self, cfg: ClassifierConfig, gmms: list[Gmm], stats: list[LgpNormStats],
                 params: dict[str, np.ndarray]):
        """``params`` are checked parameter tensors by checkpoint name, as
        :func:`read_checkpoint` returns them."""
        self.cfg = cfg
        self.gmms = list(gmms)
        self.stats = list(stats)
        t = {name: arr.astype(np.float64) for name, arr in params.items()}
        self.paths = []
        for k in range(cfg.paths):
            blocks = []
            for b in range(cfg.blocks):
                name = f"path{k}.block{b}"
                se = (tuple(t[f"{name}.se.{key}"] for key in ("w1", "b1", "w2", "b2"))
                      if cfg.se_enabled else None)
                blocks.append((_fold_bn(t, f"{name}.conv1", f"{name}.bn1"),
                               _fold_bn(t, f"{name}.conv2", f"{name}.bn2"), se))
            self.paths.append((_fold_bn(t, f"path{k}.stem.conv", f"path{k}.stem.bn"), blocks))
        self.head = (t["fc.weight"], t["fc.bias"])

    @classmethod
    def from_tensors(cls, tensors, gmms: list[Gmm], stats: list[LgpNormStats]) -> "ScoringPlan":
        cfg, params = read_checkpoint(tensors, gmms, stats)
        return cls(cfg, gmms, stats, params)

    def score_utterance(self, feats: np.ndarray) -> float:
        """Mean detection score over all overlap segments of an utterance."""
        feats, dim = np.asarray(feats), self.gmms[0].dim
        if feats.ndim == 2 and feats.shape[1] != dim:    # the utterance's shape, not L frames'
            raise ValueError(f"frames have shape {feats.shape}, expected (T, {dim})")
        frames = _cyclic_extension(feats, self.cfg.input_length)
        emb = np.concatenate([self._embed(k, frames) for k in range(self.cfg.paths)], axis=1)
        weight, bias = self.head
        logits = emb @ weight.T + bias
        return float((logits[:, BONA_FIDE] - logits[:, SPOOF]).mean())

    def _embed(self, k: int, frames: np.ndarray) -> np.ndarray:
        """(L, D) extended frames -> (S, channels) segment embeddings under path ``k``.

        A segment's last activations equal those of the whole row of L frames
        except within the reach R of its edges, where the window of 2R frames
        at each inner edge holds them.  The row and the windows run where they
        are fewer conv columns than one row per segment, and never with SE,
        whose gate is a mean over one segment."""
        n, reach = self.cfg.input_length, 1 + 2 * self.cfg.blocks
        lgp = extract_lgp(self.gmms[k], self.stats[k], frames)         # (M, L)
        finite = np.isfinite(lgp).all(axis=0)
        if not finite.all():            # the first segment that holds the first such frame
            first = int(np.argmin(finite))
            raise NonFiniteMapError(f"non-finite LGP map under path {k}",
                                    max(0, (first - n) // (n // 2) + 1))
        starts = np.arange(0, lgp.shape[1] - n + 1, n // 2)
        inner = len(starts) - 1
        cuts = [(starts[:1], lgp.shape[1]),
                (np.concatenate([starts[1:], starts[:-1] + n - 2 * reach]), 2 * reach)]
        if self.cfg.se_enabled or sum(len(a) * (w + 2) for a, w in cuts) >= len(starts) * (n + 2):
            cuts = [(starts, n)]
        out = [self._run(k, lgp, a, w) for a, w in cuts]
        if len(out) == 1:
            return out[0].max(axis=2).T
        row, windows = out
        seg = row[:, 0, starts[:, None] + np.arange(n)]                 # (C, S, N)
        seg[:, 1:, :reach] = windows[:, :inner, :reach]
        seg[:, :-1, n - reach:] = windows[:, inner:, reach:]
        return seg.max(axis=2).T

    def _run(self, k: int, lgp: np.ndarray, starts: np.ndarray, t: int) -> np.ndarray:
        """The last activations (C, B, t) of path ``k`` over the frames
        [a, a + t) of the LGP map for each of the B starts a, each in its own
        row of zero-gutter buffers, whose gutters the SE gate and the residual
        add leave at zero."""
        h = np.zeros((lgp.shape[0], len(starts), t + 2))
        h[:, :, 1:-1] = lgp[:, starts[:, None] + np.arange(t)]
        stem, blocks = self.paths[k]
        h = _conv_bn_relu(h, *stem, t)
        for conv1, conv2, se in blocks:
            g = _conv_bn_relu(_conv_bn_relu(h, *conv1, t), *conv2, t)
            if se is not None:
                g *= _se_gate(interior(g, t), *se).T[:, :, None]
            h += g
        return h[:, :, 1:-1]


def _fold_bn(t: dict[str, np.ndarray], conv: str, bn: str) -> tuple[np.ndarray, np.ndarray]:
    """Taps (k, out, in), as ``nn.gutter_conv`` takes them, and per-channel
    shift of conv ``conv`` followed by eval-mode batch norm ``bn``."""
    s = t[f"{bn}.gamma"] / np.sqrt(t[f"{bn}.running_var"] + BatchNorm1d.EPSILON)
    weight = t[f"{conv}.weight"] * s[:, None, None]
    shift = t[f"{bn}.beta"] - t[f"{bn}.running_mean"] * s
    return weight.transpose(2, 0, 1).copy(), shift


def _conv_bn_relu(xbuf: np.ndarray, taps, shift, t: int) -> np.ndarray:
    """``relu(conv + shift)`` over a whole zero-gutter buffer: a new one of ``t`` frames."""
    h = gutter_conv(xbuf, taps)
    h += shift[:, None, None]
    return zero_gutters(np.maximum(h, 0.0, out=h), t)


def _se_gate(x: np.ndarray, w1, b1, w2, b2) -> np.ndarray:
    """Per-channel squeeze-excitation scale (B, C) of a (B, C, T) batch, as ``SEBlock.forward``."""
    inner = np.maximum(x.mean(axis=2) @ w1.T + b1, 0.0)
    return sigmoid(inner @ w2.T + b2)


def _lgp_maps(gmm: Gmm, stats: LgpNormStats, segments: np.ndarray, k: int) -> np.ndarray:
    """Normalized LGP maps (B, M, N) of (B, N, D) segments, as the interior of
    the zero-gutter buffer (M, B, N + 2) that the stem conv reads in place; a
    map that is not finite (overflow from finite features) raises
    NonFiniteMapError."""
    n = segments.shape[1]
    buf = np.zeros((gmm.order, len(segments), n + 2))
    for i, seg in enumerate(segments):
        buf[:, i, 1:-1] = extract_lgp(gmm, stats, seg)
    lgp = interior(buf, n)
    finite = np.isfinite(lgp).all(axis=(1, 2))
    if not finite.all():
        raise NonFiniteMapError(f"non-finite LGP map under path {k}", int(np.argmin(finite)))
    return lgp


def read_checkpoint(tensors, gmms: list[Gmm], stats: list[LgpNormStats]
                    ) -> tuple[ClassifierConfig, dict[str, np.ndarray]]:
    """The one check of checkpoint tensors, for ``SpoofModel`` and ``ScoringPlan``.

    Decodes ``cfg.*``; checks the GMM/stats against the config and the
    stored fingerprints; and requires every expected tensor and no other,
    each at its shape, finite, with no negative running variance.  The
    expected names are walked one at a time, so a corrupt size fails at the
    first stored tensor that contradicts it, after at most one name more
    than ``tensors`` holds and before anything it sizes is allocated.
    Returns the config and the parameter tensors by name (no ``cfg.*``
    entries, no fingerprints).  A violation raises FormatError (ValueError
    for GMM/stats that do not fit the config).
    """
    cfg = ClassifierConfig.from_tensors(tensors)
    _check_front_ends(cfg, gmms, stats)
    expected = {}
    for name, shape in _tensor_shapes(cfg):
        if name not in tensors:
            raise FormatError(f"checkpoint is missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise FormatError(f"tensor {name!r} has shape {tensors[name].shape}, expected {shape}")
        expected[name] = tensors[name]
    unexpected = [name for name in tensors if name not in expected]
    if unexpected:
        raise FormatError(f"checkpoint has unexpected tensor {unexpected[0]!r}")
    for k in range(cfg.paths):
        for name, source in ((f"path{k}.gmm_sha256", gmms[k]), (f"path{k}.stats_sha256", stats[k])):
            if not np.array_equal(tensors[name], _digest_tensor(source)):
                raise FormatError(f"{name!r} does not match the given GMM/stats file")
    params = {name: arr for name, arr in expected.items()
              if not name.startswith("cfg.") and not name.endswith("_sha256")}
    for name, arr in params.items():
        if not np.isfinite(arr).all():
            raise FormatError(f"tensor {name!r} has a non-finite value")
        if name.endswith(".running_var") and (arr < 0).any():
            raise FormatError(f"tensor {name!r} has a negative variance")
    return cfg, params


def _tensor_shapes(cfg: ClassifierConfig):
    """Name and shape of every checkpoint tensor of ``cfg``, yielded in the
    order of ``SpoofModel.to_tensors``."""
    c = cfg.channels

    def conv_bn(conv, bn, in_ch):
        yield f"{conv}.weight", (c, in_ch, 3)
        for key in ("gamma", "beta", "running_mean", "running_var"):
            yield f"{bn}.{key}", (c,)

    for f in fields(cfg):
        yield f"cfg.{f.name}", (1,)
    for k in range(cfg.paths):
        yield from conv_bn(f"path{k}.stem.conv", f"path{k}.stem.bn", cfg.gmm_order)
        for b in range(cfg.blocks):
            block = f"path{k}.block{b}"
            yield from conv_bn(f"{block}.conv1", f"{block}.bn1", c)
            yield from conv_bn(f"{block}.conv2", f"{block}.bn2", c)
            if cfg.se_enabled:
                r = c // cfg.se_reduction
                yield from ((f"{block}.se.w1", (r, c)), (f"{block}.se.b1", (r,)),
                            (f"{block}.se.w2", (c, r)), (f"{block}.se.b2", (c,)))
        yield f"path{k}.gmm_sha256", (32,)
        yield f"path{k}.stats_sha256", (32,)
    yield "fc.weight", (2, cfg.paths * c)
    yield "fc.bias", (2,)


def _check_front_ends(cfg: ClassifierConfig, gmms: list[Gmm], stats: list[LgpNormStats]) -> None:
    """The one check that a model's GMM/stats fit it, one pair per path."""
    if len(gmms) != cfg.paths or len(stats) != cfg.paths:
        raise ValueError(f"a {cfg.paths}-path model takes {cfg.paths} GMM(s) and "
                         f"{cfg.paths} stats, got {len(gmms)} and {len(stats)}")
    for g, s in zip(gmms, stats):
        if g.order != cfg.gmm_order:
            raise ValueError(f"GMM order {g.order} != configured {cfg.gmm_order}")
        if s.order != g.order:
            raise ValueError(f"stats cover {s.order} components but their GMM has {g.order}")
        if s.form != cfg.lgp_form:
            raise ValueError(f"stats use form {s.form!r}, config wants {cfg.lgp_form!r}")


def _digest_tensor(source: Gmm | LgpNormStats) -> np.ndarray:
    digest = tensorio.fingerprint(source.to_tensors())
    return np.frombuffer(digest, dtype=np.uint8).astype(np.float64)


def _cyclic_extension(feats: np.ndarray, n: int) -> np.ndarray:
    """An utterance extended by cyclic repetition to the least multiple L of
    ``n`` with L >= T; (L, D)."""
    feats = np.asarray(feats)
    if feats.ndim != 2 or feats.shape[0] == 0:
        raise ValueError("features must be a non-empty (T, D) matrix")
    t = feats.shape[0]
    return feats[np.arange(-(-t // n) * n) % t]


def segment_ufm(feats: np.ndarray, cfg: UfmConfig) -> np.ndarray:
    """Cut an utterance into half-overlapping fixed-length segments; (S, N, D).

    The utterance is first extended by cyclic repetition to the least
    multiple L of N with L >= T, then segments start at 0, N/2, ..., L - N,
    giving exactly S = 2L/N - 1 of them.
    """
    n = cfg.segment_length
    frames = _cyclic_extension(feats, n)
    starts = np.arange(0, len(frames) - n + 1, n // 2)
    return frames[starts[:, None] + np.arange(n)]
