"""Classifier assembly: conv stem, residual (optionally SE) blocks, pooling,
two-path fusion, and overlap-segmented scoring of variable-length utterances.

A *path* maps an LGP feature map (order, time) to a fixed-width embedding:

    conv(3,1,ch) + BN + ReLU
    blocks x [conv-BN-ReLU, conv-BN-ReLU, optional SE, skip add]
    max over time

Convs have no bias: each feeds a batch norm, which would cancel it.

One-path models classify a single embedding; two-path models run one path
per class-conditional GMM and classify the concatenated embeddings.  The
detection score is the bona fide logit minus the spoof logit
(``detection_score``; class 0 is bona fide throughout).

The model's input is raw feature segments (B, N, D).  In a training step
``SpoofModel.embed`` hands each path an ``LgpMaps`` that builds the float32
LGP maps (B, M, N) of the segments under the path's own GMM, and the path
runs its step's one buffer schedule (``PathNetwork``).

A checkpoint is checked against the schema its own ``cfg.*`` entries
imply, which ``_tensor_shapes`` yields name by name: a stored size that the
weights contradict fails at the first such tensor, before any layer exists.

No frozen-model forward runs these layers: ``ScoringPlan``, the one
inference engine, folds a checkpoint (``lgpnet score``) or the live tensors
(``SpoofModel.plan``) into float64 conv weights and shifts, maps each
path's T frames once, and runs one period of their cyclic extension, the
frames that overlapping segments share once, and, in slots of the same
buffer, edge patches that grow one frame per conv, so each conv is one
``gutter_conv`` call; ``tests/plain_net.py`` is its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensorio
from .errors import FormatError, NonFiniteMapError, naming
from .frontend import fix_length
from .gmm import Gmm
from .lgp import FORMS, LgpNormStats, extract_lgp
from .nn import (BatchNorm1d, Conv1d, Linear, SEBlock, gutter_conv, interior, se_excitation,
                 to_gutter, zero_gutters)

BONA_FIDE, SPOOF = 0, 1
LABEL_NAMES = {"bonafide": BONA_FIDE, "spoof": SPOOF}

# Checkpoints store these config fields as an index into their choices.
_CFG_CHOICES = {"se_enabled": (False, True), "lgp_form": FORMS}

# The largest sizes a config may ask for.  The paper's segments are 400 and
# 1,000 frames, and its two-path model holds about 2 x 10.2M conv weights.
MAX_INPUT_LENGTH = 2 ** 16
MAX_CONV_WEIGHTS = 2 ** 27


def detection_score(logits: np.ndarray) -> np.ndarray:
    """The bona fide logit minus the spoof logit, along the last axis."""
    return logits[..., BONA_FIDE] - logits[..., SPOOF]


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
        if self.input_length > MAX_INPUT_LENGTH:
            raise ValueError(f"input length {self.input_length} is more than {MAX_INPUT_LENGTH}")
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
    """The layers of one residual unit, out = x + [SE](ReLU(BN(conv(ReLU(BN(conv(x)))))));
    ``PathNetwork``'s step schedule runs them."""

    def __init__(self, channels, se_enabled, se_reduction, rng):
        self.conv1 = Conv1d(channels, channels, 3, padding=1, rng=rng)
        self.bn1 = BatchNorm1d(channels)
        self.conv2 = Conv1d(channels, channels, 3, padding=1, rng=rng)
        self.bn2 = BatchNorm1d(channels)
        self.se = SEBlock(channels, se_reduction, rng=rng) if se_enabled else None


class PathNetwork:
    """One classifier path: LGP maps (B, order, N) -> embeddings (B, channels),
    and the one buffer schedule of its training step, which runs the ``nn``
    layers' arithmetic on (C, B, N + 2) zero-gutter buffers.

    Keeps (``held``): the maps, or the ``LgpMaps`` that builds them; each
    batch norm's ``xhat`` and ``1/std``; the inputs of blocks s, 2s, ...
    with s = ceil(sqrt(blocks)), at 6 blocks block 3's alone (Chen et al.,
    2016); each SE gate's pooled values, first layer and gate; the pooling
    argmax.  At 6 blocks that is 14 activations, with SE or without.

    Rebuilds: each ReLU output from its ``xhat`` (in-place activated BN,
    Rota Bulò et al., CVPR 2018) for a conv's weight gradient or an SE
    gate's backward; every other block input forward, block by block, from
    the nearest kept one or the stem's output, as bn2's output times the
    gate plus the block input, so no conv runs again; the maps, for the
    stem's weight gradient.

    Writes into: each batch norm's ``xhat`` into the conv output it is
    handed, and the SE gate into bn2's output; each batch norm's input
    gradient into the buffer of its rebuilt ReLU mask, but an SE block's
    bn2 into the gate's input gradient, with its mask from the gate's
    rebuilt input.  Outputs, gradients and running statistics equal the
    standalone layers' byte for byte, except that a gradient a ReLU stops
    is a zero of that gradient's sign.
    """

    def __init__(self, cfg: ClassifierConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.conv = Conv1d(cfg.gmm_order, cfg.channels, 3, padding=1, rng=rng)
        self.bn = BatchNorm1d(cfg.channels)
        self.blocks = [
            ResBlock(cfg.channels, cfg.se_enabled, cfg.se_reduction, rng)
            for _ in range(cfg.blocks)
        ]
        self.kept_every = math.isqrt(cfg.blocks - 1) + 1      # ceil(sqrt(blocks))
        self._kept = None

    def parameters(self):
        return [p for _, layer in self._named_layers() for p in layer.parameters()]

    def batchnorms(self):
        return [layer for _, layer in self._named_layers() if isinstance(layer, BatchNorm1d)]

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Every live array of the path under its checkpoint name, in a fixed order."""
        return {f"{name}.{key}": arr for name, layer in self._named_layers()
                for key, arr in layer.named_tensors().items()}

    def held(self) -> dict[str, list[np.ndarray]]:
        """The arrays the step keeps from ``forward`` to ``backward_params``,
        by schedule entry (the segments for ``LgpMaps``)."""
        out = {}
        for name, item in (self._kept or {}).items():
            if isinstance(item, LgpMaps):
                name, item = "segments", item.segments
            out[name] = list(item) if isinstance(item, tuple) else [item]
        return out

    def forward(self, lgp, training):
        """(B, order, N) -> (B, channels), in train mode: ``training`` must be True.

        ``lgp`` is the maps, which the step copies and keeps, or an
        ``LgpMaps``, which it keeps instead, to build the maps again for the
        stem's weight gradient."""
        if not training:
            raise ValueError("a path runs in train mode only")
        if isinstance(lgp, LgpMaps):
            h = lgp().base
        elif lgp.ndim != 3 or lgp.shape[1] != self.cfg.gmm_order:
            raise ValueError(f"expected (batch, {self.cfg.gmm_order}, time) maps, "
                             f"got shape {lgp.shape}")
        else:
            h = to_gutter(lgp, lgp.shape[2] + 2)
        kept = {"stem.conv": lgp if isinstance(lgp, LgpMaps) else h}
        t = h.shape[2] - 2
        h = self.conv.output(h)
        h, kept["stem.bn"] = _bn_relu(self.bn, h, t)
        for b, block in enumerate(self.blocks):
            if b and b % self.kept_every == 0:
                kept[f"block{b}.input"] = h
            x = h
            h, kept[f"block{b}.bn1"] = _bn_relu(block.bn1, block.conv1.output(x), t)
            h = block.conv2.output(h)                           # bn1's output dies here
            h, kept[f"block{b}.bn2"] = _bn_relu(block.bn2, h, t)
            if block.se is not None:
                gate = kept[f"block{b}.se"] = block.se.gate(h, t)
                zero_gutters(np.multiply(h, gate[-1].T[:, :, None], out=h), t)
            h += x
        x = interior(h, t)
        kept["pool"] = idx = x.argmax(axis=2)                   # first occurrence on ties
        self._kept = kept
        return np.take_along_axis(x, idx[:, :, None], axis=2)[:, :, 0]

    def backward(self, grad_emb):
        """Every parameter gradient; returns the gradient w.r.t. the LGP maps."""
        g = self.backward_params(grad_emb)                 # the interior of a buffer
        return interior(self.conv.input_grad(g.base), g.shape[2])

    def backward_params(self, grad_emb):
        """Every parameter gradient, without the LGP maps' own gradient (which
        training never uses); returns the gradient at the stem conv's output."""
        kept, self._kept = self._kept, None
        g = np.zeros_like(kept["stem.bn"][0])
        t = g.shape[2] - 2
        np.put_along_axis(interior(g, t), kept.pop("pool")[:, :, None], grad_emb[:, :, None],
                          axis=2)
        for b in reversed(range(len(self.blocks))):
            g = self._block_backward(b, g, kept, t)
        g = _bn_relu_grad(self.bn, g, kept.pop("stem.bn"), t)
        maps = kept.pop("stem.conv")
        self.conv.weight_grad(maps().base if isinstance(maps, LgpMaps) else maps, g)
        return interior(g, t)

    def _block_backward(self, b, grad, kept, t):
        """Block ``b``'s parameter gradients and input gradient, for the
        gradient ``grad`` at its output; uses up the block's kept entries."""
        block, name = self.blocks[b], f"block{b}"
        if block.se is None:
            g = _bn_relu_grad(block.bn2, grad, kept.pop(f"{name}.bn2"), t)
        else:
            g = _relu_rebuilt(block.bn2, kept[f"{name}.bn2"], t)    # the gate's input
            mask = g > 0.0                                          # bn2's ReLU mask
            np.multiply(g, grad, out=g)
            g = block.se.input_grad(g, grad, kept.pop(f"{name}.se"), g, t)
            np.multiply(g, mask, out=g)
            del mask
            g = block.bn2.input_grad(g, g, *kept.pop(f"{name}.bn2"), t)
        x = _relu_rebuilt(block.bn1, kept[f"{name}.bn1"], t)
        block.conv2.weight_grad(x, g)
        del x
        g = block.conv2.input_grad(g)                           # bn2's gradient dies here
        g = _bn_relu_grad(block.bn1, g, kept.pop(f"{name}.bn1"), t)
        block.conv1.weight_grad(self._block_input(b, kept, t), g)
        g = block.conv1.input_grad(g)
        g += grad
        return g

    def _block_input(self, b, kept, t):
        """Block ``b``'s input as its forward read it: kept, or rebuilt
        forward from the nearest kept input or the stem's output.  Reads only
        entries of blocks before ``b``, which backward has not used up yet."""
        first = b - b % self.kept_every
        if first == b and b:
            return kept.pop(f"block{b}.input")
        x = kept[f"block{first}.input"] if first else _relu_rebuilt(self.bn, kept["stem.bn"], t)
        for j in range(first, b):
            out = _relu_rebuilt(self.blocks[j].bn2, kept[f"block{j}.bn2"], t)
            if self.blocks[j].se is not None:
                out *= kept[f"block{j}.se"][-1].T[:, :, None]
            out += x
            x = zero_gutters(out, t)
        return x

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


def _bn_relu(bn: BatchNorm1d, ybuf: np.ndarray, t: int):
    """Batch norm and ReLU of the conv output ``ybuf``, which becomes
    ``xhat``: the ReLU output in a new zero-gutter buffer, and the
    ``(xhat, 1/std)`` the step keeps."""
    kept = (ybuf, bn.normalize(ybuf, ybuf, t))
    return _relu_rebuilt(bn, kept, t), kept


def _relu_rebuilt(bn: BatchNorm1d, kept, t: int) -> np.ndarray:
    """The ReLU output of ``_bn_relu`` from its ``kept``, its gutters +0.0."""
    out = bn.affine(kept[0], np.empty_like(kept[0]), t)
    return np.maximum(out, 0.0, out=out)


def _bn_relu_grad(bn: BatchNorm1d, grad: np.ndarray, kept, t: int) -> np.ndarray:
    """The input gradient of ``_bn_relu`` for the zero-gutter gradient
    ``grad``, in a new buffer that first holds the ReLU mask; uses up ``kept``."""
    xhat, inv_std = kept
    z = bn.affine(xhat, np.empty_like(xhat), t)
    np.greater(z, 0.0, out=z)                   # the mask as 1.0 and 0.0, in place
    np.multiply(grad, z, out=z)
    return bn.input_grad(z, z, xhat, inv_std, t)


class SpoofModel:
    """Full detector: per-path GMM + normalization stats + network, shared head."""

    def __init__(self, cfg: ClassifierConfig, gmms: list[Gmm], stats: list[LgpNormStats],
                 seed: int = 0):
        _check_front_ends(cfg, gmms, stats)
        weights = cfg.paths * 3 * cfg.channels * (cfg.gmm_order + 2 * cfg.blocks * cfg.channels)
        if weights > MAX_CONV_WEIGHTS:
            raise ValueError(f"channels and blocks make {weights} conv weights, "
                             f"more than {MAX_CONV_WEIGHTS}")
        self.cfg = cfg
        self.gmms = list(gmms)
        self.stats = list(stats)
        self.paths = [PathNetwork(cfg, np.random.default_rng(path_seed))
                      for path_seed in np.random.SeedSequence(seed).spawn(cfg.paths)]
        # Zero-init head: uniform softmax (loss ln 2) before the first update.
        self.fc = Linear(cfg.paths * cfg.channels, 2, init="zero")

    # -- inference -----------------------------------------------------------

    def embed(self, segments: np.ndarray, path_ids) -> np.ndarray:
        """Head input of raw feature segments: (B, N, D) -> (B, len(path_ids) * channels).

        Each path in ``path_ids`` keeps an ``LgpMaps`` of the segments under
        its own GMM, so no LGP map outlives its stem conv.  A map that is not
        finite (overflow from finite features, or beyond float32's range)
        raises NonFiniteMapError with its batch row.

        The maps are float32, and the layers compute in their input's dtype,
        so the paths' activations and GEMMs run in float32 under float64
        parameters, gradients and running statistics (mixed-precision
        training, Micikevicius et al., ICLR 2018).  Float32 embeddings give
        float64 logits.
        """
        return np.concatenate([self.paths[k].forward(
            LgpMaps(self.gmms[k], self.stats[k], segments, k, np.float32), True)
            for k in path_ids], axis=1)

    def plan(self, path_ids) -> ScoringPlan:
        """A ``ScoringPlan`` of the live tensors that folds only the paths ``path_ids``."""
        skip = tuple(f"path{k}." for k in range(self.cfg.paths) if k not in path_ids)
        return ScoringPlan(self.cfg, self.gmms, self.stats,
                           {name: arr for name, arr in self.to_tensors().items()
                            if not name.startswith(skip)})

    def forward_model(self, feats: np.ndarray) -> tuple[np.ndarray, float]:
        """Logits and detection score for one fixed-length feature matrix (N, D),
        the plan's one segment."""
        feats = np.asarray(feats, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError("features must be a (T, D) matrix")
        if feats.shape[0] != self.cfg.input_length:
            raise ValueError(
                f"expected {self.cfg.input_length} frames, got {feats.shape[0]}; "
                "fix the length or score through score_utterance"
            )
        plan = self.plan(range(self.cfg.paths))
        weight, bias = plan.head
        logits = (plan.embed(feats, range(self.cfg.paths)) @ weight.T + bias)[0]
        return logits, float(detection_score(logits))

    def score_utterance(self, feats: np.ndarray) -> float:
        """Mean detection score over all overlap segments of an utterance,
        scored by a plan of the live tensors."""
        return self.plan(range(self.cfg.paths)).score_utterance(feats)

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
    """Frozen float64 inference of a checkpoint (``lgpnet score``) or of a
    model's live tensors (``SpoofModel.plan``: the dev EER, step 2, and
    ``SpoofModel.score_utterance``).

    Built straight from named tensors, so no layer and no random init
    exists.  Each batch norm, with its running statistics, is folded into the
    (bias-free) conv before it, every tensor cast to float64 as it is folded:

        s = gamma / sqrt(running_var + eps),  W' = W s,  b' = beta - running_mean s

    (cast before fold: ``running_var + eps`` in float32 moves scores by
    ~1e-6 relative), so the build holds one float64 copy of the weights.
    Each path makes the LGP map of the utterance's T frames once, and
    reads every frame of the cyclic extension from it modulo T (``_run``).
    Its rows, one per segment or one for the whole utterance with a slot
    per edge patch at the segment edges, share one zero-gutter buffer per
    path, over which run the conv kernel of ``Conv1d`` (``nn.gutter_conv``),
    the shift ``b'`` and an in-place ReLU (``nn.ReLU``'s
    ``np.maximum(x, 0.0)``), the SE gate (``nn.se_excitation``, as in
    ``SEBlock``) and the in-place residual add; each segment's max over time
    goes to the head, whose ``detection_score`` the segments average, and
    nothing is kept.
    Activations stay in that buffer's layout from the stem to the pooling,
    so no layer copies or pads its input.
    Its oracle, ``tests/plain_net.py``, shares no code with it.
    """

    def __init__(self, cfg: ClassifierConfig, gmms: list[Gmm], stats: list[LgpNormStats],
                 params: dict[str, np.ndarray]):
        """``params`` are checked parameter tensors by checkpoint name, as
        :func:`read_checkpoint` returns them.  Only the paths whose tensors
        they hold are folded (``self.paths`` holds None for the others), and
        only those can be embedded."""
        self.cfg = cfg
        self.gmms = list(gmms)
        self.stats = list(stats)
        self.paths = []
        for k in range(cfg.paths):
            if f"path{k}.stem.conv.weight" not in params:
                self.paths.append(None)
                continue
            blocks = []
            for b in range(cfg.blocks):
                name = f"path{k}.block{b}"
                se = (tuple(params[f"{name}.se.{key}"].astype(np.float64)
                            for key in ("w1", "b1", "w2", "b2"))
                      if cfg.se_enabled else None)
                blocks.append((_fold_bn(params, f"{name}.conv1", f"{name}.bn1"),
                               _fold_bn(params, f"{name}.conv2", f"{name}.bn2"), se))
            self.paths.append((_fold_bn(params, f"path{k}.stem.conv", f"path{k}.stem.bn"),
                               blocks))
        self.head = (params["fc.weight"].astype(np.float64), params["fc.bias"].astype(np.float64))

    @classmethod
    def from_tensors(cls, tensors, gmms: list[Gmm], stats: list[LgpNormStats]) -> "ScoringPlan":
        cfg, params = read_checkpoint(tensors, gmms, stats)
        return cls(cfg, gmms, stats, params)

    def embed(self, feats: np.ndarray, path_ids) -> np.ndarray:
        """Head input (S, len(path_ids) * channels) of an utterance's S overlap
        segments under the paths ``path_ids``, each of which the plan must fold."""
        feats = np.asarray(feats)
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError("features must be a non-empty (T, D) matrix")
        for k in path_ids:
            if self.paths[k] is None:
                raise ValueError(f"the plan folds no tensors of path {k}")
        return np.concatenate([self._embed(k, feats) for k in path_ids], axis=1)

    def score_utterance(self, feats: np.ndarray) -> float:
        """Mean detection score over all overlap segments of an utterance."""
        weight, bias = self.head
        logits = self.embed(feats, range(self.cfg.paths)) @ weight.T + bias
        return float(detection_score(logits).mean())

    def _embed(self, k: int, feats: np.ndarray) -> np.ndarray:
        """(T, D) frames of an utterance -> (S, channels) segment embeddings
        under path ``k``.

        The segments cut the cyclic extension to L = N ceil(T / N) frames,
        whose frame p is frame p mod T: the path maps the T frames once, and
        every row reads that (M, T) LGP map modulo T.

        Every conv reaches one frame each way, so after conv l a segment's
        activations equal those of the whole L-frame row (zero-padded at 0
        and L) except within l frames of its inner edges, and the row's
        frame p equals its frame p - T except within l frames of 0 or L:
        both see the same frames, a period apart.  So the row covers only
        the first U = min(L, T + 2R) frames, R = 1 + 2 * blocks the reach,
        and frame p of the L-frame row is its frame q(p): p for p < T + R,
        and R + (p - R) mod T after.  Patches at the inner segment starts,
        at the inner segment ends, and at L when U < L hold the frames next
        to their edges that differ from the row, each in a slot of R + 1
        frames beside the row (``_run``).  A segment is the row read through
        q with its patches laid over it.

        This cut runs where its conv columns, U + 2 for the row and R + 3
        for each patch's slot, are fewer than S(N + 2) for one row per
        segment, and never with SE, whose gate is a mean over one segment;
        otherwise each segment is its own row.  The rule takes the cut only
        where N >= 2R, so no patch reaches its segment's far edge.  A map
        that is not finite names the first segment that holds its first
        non-finite frame."""
        n, reach, t = self.cfg.input_length, 1 + 2 * self.cfg.blocks, len(feats)
        length = -(-t // n) * n
        starts = np.arange(0, length - n + 1, n // 2)
        u = min(length, t + 2 * reach)
        # patches at inner segment starts; at inner segment ends, and at L when U < L
        left, right = starts[1:], starts[:-1 if u == length else None] + n
        columns = u + 2 + (len(left) + len(right)) * (reach + 3)
        cut = not self.cfg.se_enabled and columns < len(starts) * (n + 2)
        lgp = extract_lgp(self.gmms[k], self.stats[k], feats)
        finite = np.isfinite(lgp).all(axis=0)
        if not finite.all():            # the first segment that holds the first such frame
            first = int(np.argmin(finite))
            raise NonFiniteMapError(f"non-finite LGP map under path {k}",
                                    max(0, (first - n) // (n // 2) + 1))
        if not cut:
            return self._run(k, lgp, starts, n, np.zeros((reach, 0, 2), int), 0)[0].max(axis=2).T
        q = np.arange(length)
        if u < length:
            q[t + reach:] = reach + (q[t + reach:] - reach) % t
        # the two row frames each patch reads at conv l = 1 ... R: (R, P, 2)
        l = np.arange(1, reach + 1)[:, None, None]
        reads = q[np.concatenate([left[:, None] + l - 1, right[:, None] - l - 1], axis=1)
                  + np.arange(2)]
        row, slots = self._run(k, lgp, starts[:1], u, reads, len(left))
        seg = row[:, 0, q[starts[:, None] + np.arange(n)]]              # (C, S, N)
        seg[:, 1:, :reach] = slots[:, :len(left), :-1]
        seg[:, :len(right), n - reach:] = slots[:, len(left):, 1:]
        return seg.max(axis=2).T

    def _run(self, k: int, lgp: np.ndarray, starts: np.ndarray, t: int, reads: np.ndarray,
             left: int) -> tuple[np.ndarray, np.ndarray]:
        """The last activations (C, B, t) of path ``k`` over the frames
        [a, a + t) of the cyclic extension for each of the B starts a, frame
        p being column p mod T of the (M, T) LGP map ``lgp``; and those
        (C, P, R + 1) of the slots of row 0's P edge patches.

        Every unit runs over one flat zero-gutter buffer: the B rows of
        t + 2 columns, then P slots of R + 3.  The first ``left`` patches
        sit at segment starts, their pad the slot's first gutter, and the
        rest at segment ends, their pad its last.  After conv l a patch
        holds the l frames next to its edge: before conv l each slot takes
        a copy of the two row frames ``reads[l - 1]`` of conv l - 1 beside
        the patch's l - 1 frames, so the patch grows one frame per conv in
        the row's GEMMs, and a block's residual add finds the patch's block
        input in place.  Slot frames beyond those are never read.  Every
        unit zeroes every gutter again, and SE runs only with no patches,
        ``reads`` of shape (R, 0, 2)."""
        reach, p = reads.shape[:2]
        edges = np.cumsum([0] + [t + 2] * len(starts) + [reach + 3] * p)
        gutters = np.r_[edges[:-1], edges[1:] - 1]         # each row's and slot's first and last
        rows = edges[:len(starts), None] + 1 + np.arange(t)
        slots = edges[len(starts):-1, None] + np.arange(1, reach + 2)      # (P, R + 1)
        # where conv l copies the row frames: after a start patch's l - 1 frames, before an end's
        l = np.arange(1, reach + 1)[:, None, None]
        into = edges[len(starts):-1, None] + np.arange(2) + np.where(
            np.arange(p)[:, None] < left, l, reach + 1 - l)               # (R, P, 2)
        h = np.zeros((lgp.shape[0], 1, edges[-1]))
        h[:, 0, rows] = lgp[:, (starts[:, None] + np.arange(t)) % lgp.shape[1]]

        def unit(h, i, taps, shift):
            """Conv i + 1, its shift and its ReLU over the whole buffer."""
            h[:, 0, into[i]] = h[:, 0, 1 + reads[i]]
            g = gutter_conv(h, taps)
            g += shift[:, None, None]
            np.maximum(g, 0.0, out=g)
            g[:, 0, gutters] = 0.0
            return g

        stem, blocks = self.paths[k]
        h = unit(h, 0, *stem)
        for b, (conv1, conv2, se) in enumerate(blocks):
            g = unit(unit(h, 2 * b + 1, *conv1), 2 * b + 2, *conv2)
            if se is not None:                          # the rows fill the buffer
                by_row = g.reshape(g.shape[0], len(starts), t + 2)
                by_row *= se_excitation(interior(by_row, t).mean(axis=2), *se)[2].T[:, :, None]
            h += g
        return h[:, 0, rows], h[:, 0, slots]


def _fold_bn(t: dict[str, np.ndarray], conv: str, bn: str) -> tuple[np.ndarray, np.ndarray]:
    """Float64 taps (k, out, in), as ``nn.gutter_conv`` takes them, and
    per-channel shift of conv ``conv`` followed by batch norm ``bn`` with
    its running statistics.  The weight is cast as it is scaled, so the taps
    are the only float64 array as large as it."""
    gamma, beta, mean, var = (t[f"{bn}.{key}"].astype(np.float64)
                              for key in ("gamma", "beta", "running_mean", "running_var"))
    s = gamma / np.sqrt(var + BatchNorm1d.EPSILON)
    taps = np.multiply(t[f"{conv}.weight"].transpose(2, 0, 1), s[:, None],
                       dtype=np.float64, order="C")
    return taps, beta - mean * s


class LgpMaps:
    """The normalized LGP maps (B, M, N) of raw feature segments (B, N, D)
    under path ``k``'s GMM and stats, in ``dtype``, built anew by each call
    (``extract_lgp`` is deterministic, so each build is bit for bit the same)."""

    def __init__(self, gmm: Gmm, stats: LgpNormStats, segments: np.ndarray, k: int, dtype):
        self.gmm, self.stats, self.segments, self.k, self.dtype = gmm, stats, segments, k, dtype

    def __call__(self) -> np.ndarray:
        """The maps, as the interior of a zero-gutter buffer (M, B, N + 2).
        A map that is not finite there (overflow from finite features, or a
        float64 value beyond the dtype's range) raises NonFiniteMapError."""
        n = self.segments.shape[1]
        buf = np.zeros((self.gmm.order, len(self.segments), n + 2), self.dtype)
        for i, seg in enumerate(self.segments):
            buf[:, i, 1:-1] = extract_lgp(self.gmm, self.stats, seg)
        lgp = interior(buf, n)
        finite = np.isfinite(lgp).all(axis=(1, 2))
        if not finite.all():
            raise NonFiniteMapError(f"non-finite LGP map under path {self.k}",
                                    int(np.argmin(finite)))
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


def segment_ufm(feats: np.ndarray, cfg: UfmConfig) -> np.ndarray:
    """Cut an utterance into half-overlapping fixed-length segments; (S, N, D).

    The utterance is first extended cyclically (``fix_length``) to the
    least multiple L of N with L >= T, then segments start at 0, N/2, ...,
    L - N, giving exactly S = 2L/N - 1 of them.
    """
    n = cfg.segment_length
    t = len(feats) if np.ndim(feats) else 0      # fix_length refuses all but a (T >= 1, D) matrix
    frames = fix_length(feats, -(-t // n) * n)
    starts = np.arange(0, len(frames) - n + 1, n // 2)
    return frames[starts[:, None] + np.arange(n)]
