"""Training loops: one-path end-to-end, and the two-step scheme for
two-path models (pretrain each path under a temporary classifier, then
freeze the paths and fit only the fusion head).

Everything is deterministic given the config seed: weight init, epoch
shuffles, and batch reductions all flow from seeded generators, so two
runs with the same inputs produce bit-identical parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import TrainingDivergedError
from .evaluation import eer_from_scores, read_protocol
from .frontend import fix_length, load_features
from .model import BONA_FIDE, LABEL_NAMES, SpoofModel, UfmConfig, segment_ufm
from .nn import Adam, Linear, softmax_cross_entropy


@dataclass
class TrainConfig:
    batch_size: int = 32
    epochs: int = 100
    lr: float = 1e-4
    seed: int = 0
    target_length: int = 400
    step1_epochs: int | None = None    # two-step budgets; default: same as epochs
    step2_epochs: int | None = None

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch size and epochs must be >= 1")
        if self.lr <= 0.0:
            raise ValueError("learning rate must be positive")


@dataclass
class LabeledUtterance:
    utt_id: str
    features: np.ndarray               # (T, D)
    label: int                         # BONA_FIDE or SPOOF


@dataclass
class LabeledDataset:
    items: list[LabeledUtterance]
    partition: str = "train"

    def __post_init__(self):
        if not self.items:
            raise ValueError("dataset is empty")
        ids = [u.utt_id for u in self.items]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate utterance ids in dataset")

    def __len__(self):
        return len(self.items)

    def labels(self) -> np.ndarray:
        return np.array([u.label for u in self.items], dtype=np.int64)


def load_dataset(protocol_path, features_dir, partition: str = "train") -> LabeledDataset:
    """Materialize a dataset from a protocol file and a feature directory.

    Feature files are looked up as ``<features_dir>/<utt_id>.lgpf``.
    """
    labels = read_protocol(protocol_path)
    features_dir = Path(features_dir)
    items = []
    for utt_id, label in labels.items():
        feats = load_features(features_dir / f"{utt_id}.lgpf")
        items.append(LabeledUtterance(utt_id, feats, LABEL_NAMES[label]))
    return LabeledDataset(items=items, partition=partition)


@dataclass
class TrainResult:
    loss_trace: list[float]
    dev_eer_trace: list[float] = field(default_factory=list)
    best_epoch: int | None = None


@dataclass
class TwoStepResult:
    step1: list[TrainResult]           # one per path
    step2: TrainResult
    path_dev_eers: list[float]         # best dev EER of each pretrained path
    dev_eer: float                     # dev EER of the fused model
    frozen_state: list[np.ndarray] = field(default_factory=list)
    # copies of every path parameter and batch statistic at the end of
    # step 1; step 2 must leave the live values bit-identical to these


def paths_state(paths) -> list[np.ndarray]:
    """Copies of every named tensor (parameters and batch statistics) of each
    path, or of any layer with ``named_tensors``, in a fixed order."""
    return [arr.copy() for path in paths for arr in path.named_tensors().values()]


# -- internals ----------------------------------------------------------------


def _finite_or_raise(arr: np.ndarray, utt_id: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise TrainingDivergedError(f"non-finite feature map for utterance {utt_id!r}")
    return arr


def _precompute_train_lgp(model: SpoofModel, data: LabeledDataset, path_ids):
    n = len(data)
    cfg = model.cfg
    out = []
    for k in path_ids:
        stack = np.empty((n, cfg.gmm_order, cfg.input_length))
        for i, utt in enumerate(data.items):
            stack[i] = _finite_or_raise(
                model.path_lgp(k, fix_length(utt.features, cfg.input_length)), utt.utt_id
            )
        out.append(stack)
    return out


def _precompute_dev_lgp(model: SpoofModel, dev: LabeledDataset, path_ids):
    """Per-utterance UFM segment LGP maps: list over utts of list over paths of (S, M, N)."""
    ufm = UfmConfig(model.cfg.input_length)
    cached = []
    for utt in dev.items:
        segments = segment_ufm(utt.features, ufm)
        per_path = [
            _finite_or_raise(np.stack([model.path_lgp(k, seg) for seg in segments]), utt.utt_id)
            for k in path_ids
        ]
        cached.append(per_path)
    return cached


def _embed(paths, inputs, training: bool) -> np.ndarray:
    """Head input: the concatenated path embeddings of ``inputs``; with no
    paths the inputs are embeddings already."""
    if paths:
        inputs = [path.forward(x, training) for path, x in zip(paths, inputs)]
    return np.concatenate(inputs, axis=1)


def _dev_eer(paths, head, dev_inputs, dev_labels) -> float:
    scores = np.empty(len(dev_inputs))
    for i, per_path in enumerate(dev_inputs):
        logits = head.forward(_embed(paths, per_path, training=False))
        seg_scores = logits[:, 0] - logits[:, 1]
        scores[i] = seg_scores.mean()
    bona = scores[dev_labels == BONA_FIDE]
    spoof = scores[dev_labels != BONA_FIDE]
    return eer_from_scores(bona, spoof)[0]


def _fit(paths, head, train_inputs, labels, cfg: TrainConfig, epochs: int,
         dev_inputs=None, dev_labels=None, seed_tag: int = 0, on_epoch=None) -> TrainResult:
    """Shared minibatch loop; the head and ``paths`` are the trainable state.

    ``train_inputs`` holds one (n, ...) stack per input: the LGP maps each
    path embeds or, with no paths, fixed embeddings the head is fitted on
    (step 2 of the two-step scheme).  With a dev set, the state of the best
    dev-EER epoch is copied back in place at the end.
    """
    modules = [head, *paths]
    params = [p for module in modules for p in module.parameters()]
    opt = Adam(params, lr=cfg.lr)
    n = labels.shape[0]

    result = TrainResult(loss_trace=[])
    best = None
    for epoch in range(epochs):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, seed_tag, epoch]))
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            logits = head.forward(_embed(paths, [x[idx] for x in train_inputs], training=True))
            loss, grad_logits = softmax_cross_entropy(logits, labels[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss {loss!r} at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            opt.zero_grad()
            grad_concat = head.backward(grad_logits)
            for k, path in enumerate(paths):
                width = path.cfg.channels
                path.backward(grad_concat[:, k * width : (k + 1) * width])
            opt.step()
            epoch_loss += loss * idx.shape[0]
        result.loss_trace.append(epoch_loss / n)
        for p in params:
            # NaN weights can hide behind ReLU zeros, so check explicitly.
            if not np.isfinite(p.data).all():
                raise TrainingDivergedError(f"non-finite parameters after epoch {epoch}")

        if dev_inputs is not None:
            eer = _dev_eer(paths, head, dev_inputs, dev_labels)
            result.dev_eer_trace.append(eer)
            if best is None or eer < best[0]:
                best = (eer, epoch, paths_state(modules))
        if on_epoch is not None:
            on_epoch(epoch, result)

    if best is not None:
        result.best_epoch = best[1]
        live = [arr for module in modules for arr in module.named_tensors().values()]
        for arr, saved in zip(live, best[2]):
            arr[...] = saved
    return result


# -- public entry points --------------------------------------------------------


def train_one_path(model: SpoofModel, data: LabeledDataset, cfg: TrainConfig,
                   dev: LabeledDataset | None = None, on_epoch=None) -> TrainResult:
    """Minibatch Adam training of a one-path model with cross-entropy loss.

    When a dev set is given, the parameters of the best dev-EER epoch are
    kept.  Returns the per-epoch loss trace (plus the dev EER trace).
    """
    if model.cfg.paths != 1:
        raise ValueError("train_one_path expects a one-path model")
    if cfg.target_length != model.cfg.input_length:
        raise ValueError("config target length does not match the model input length")
    train_lgp = _precompute_train_lgp(model, data, [0])
    dev_lgp = dev_labels = None
    if dev is not None:
        dev_lgp = _precompute_dev_lgp(model, dev, [0])
        dev_labels = dev.labels()
    return _fit(model.paths, model.fc, train_lgp, data.labels(), cfg, cfg.epochs,
                dev_lgp, dev_labels, seed_tag=0, on_epoch=on_epoch)


def train_two_step(model: SpoofModel, data: LabeledDataset, cfg: TrainConfig,
                   dev: LabeledDataset | None = None, on_epoch=None) -> TwoStepResult:
    """Two-step scheme for two-path models.

    Step 1 trains each path independently, exactly like a one-path model,
    under a temporary softmax classifier attached to its pooling output.
    Step 2 discards the temporary classifiers, freezes every conv/res
    parameter (batch statistics included, so the paths are bit-identical
    afterwards), and trains only the shared head on the concatenated
    embeddings; the frozen paths run with their step-1 running statistics.
    """
    if model.cfg.paths != 2:
        raise ValueError("train_two_step expects a two-path model")
    if cfg.target_length != model.cfg.input_length:
        raise ValueError("config target length does not match the model input length")
    ch = model.cfg.channels
    labels = data.labels()
    step1_epochs = cfg.step1_epochs or cfg.epochs
    step2_epochs = cfg.step2_epochs or cfg.epochs

    train_lgp = _precompute_train_lgp(model, data, range(model.cfg.paths))
    dev_lgp = dev_labels = None
    if dev is not None:
        dev_lgp = _precompute_dev_lgp(model, dev, range(model.cfg.paths))
        dev_labels = dev.labels()

    step1_results: list[TrainResult] = []
    path_dev_eers: list[float] = []
    for k, path in enumerate(model.paths):
        temp_head = Linear(ch, 2, init="zero")
        dev_k = [[per_path[k]] for per_path in dev_lgp] if dev_lgp is not None else None
        res = _fit([path], temp_head, [train_lgp[k]], labels, cfg, step1_epochs,
                   dev_k, dev_labels, seed_tag=1 + k, on_epoch=on_epoch)
        step1_results.append(res)
        if res.dev_eer_trace:
            path_dev_eers.append(min(res.dev_eer_trace))

    frozen_state = paths_state(model.paths)

    # Step 2: the frozen paths give fixed embeddings; fit only the head on them.
    train_embs = _embed(model.paths, train_lgp, training=False)
    dev_embs = None
    if dev_lgp is not None:
        dev_embs = [[_embed(model.paths, per_path, training=False)] for per_path in dev_lgp]
    step2 = _fit([], model.fc, [train_embs], labels, cfg, step2_epochs,
                 dev_embs, dev_labels, seed_tag=100, on_epoch=on_epoch)

    dev_eer = (_dev_eer([], model.fc, dev_embs, dev_labels)
               if dev_embs is not None else float("nan"))
    return TwoStepResult(step1=step1_results, step2=step2,
                         path_dev_eers=path_dev_eers, dev_eer=dev_eer,
                         frozen_state=frozen_state)
