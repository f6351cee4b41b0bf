"""Training loops: one-path end-to-end, and the two-step scheme for
two-path models (pretrain each path under a temporary classifier, then
freeze the paths and fit only the fusion head).

Training holds no stacked copy of its input: each minibatch (B, N, D) and
each dev utterance's UFM segments (S, N, D) are cut from the loaded features
when used.  ``SpoofModel.embed`` derives each path's LGP maps from them
inside the forward pass and drops them, so no LGP map outlives its batch.

Everything is deterministic given the config seed: weight init, epoch
shuffles, and batch reductions all flow from seeded generators, so two
runs with the same inputs produce bit-identical parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensorio
from .errors import NonFiniteMapError, TrainingDivergedError
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
    step1_epochs: int = 0              # two-step budgets; 0 means epochs
    step2_epochs: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch size and epochs must be >= 1")
        if not 0.0 < self.lr < np.inf:                 # a NaN fails too
            raise ValueError("learning rate must be positive and finite")
        if min(self.step1_epochs, self.step2_epochs) < 0:
            raise ValueError("step1_epochs and step2_epochs must be >= 0")


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


def load_dataset(protocol_path, features_dir) -> LabeledDataset:
    """Materialize a dataset from a protocol file and a feature directory.

    Feature files are looked up as ``<features_dir>/<utt_id>.lgpf``.
    """
    labels = read_protocol(protocol_path)
    features_dir = Path(features_dir)
    items = []
    for utt_id, label in labels.items():
        feats = load_features(features_dir / f"{utt_id}.lgpf")
        items.append(LabeledUtterance(utt_id, feats, LABEL_NAMES[label]))
    return LabeledDataset(items=items)


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


def _batch(data: LabeledDataset, idx, length: int) -> np.ndarray:
    """Training utterances ``idx``, each fixed to ``length`` frames: (B, N, D)."""
    return np.stack([fix_length(data.items[i].features, length) for i in idx])


def _embed(model: SpoofModel, path_ids, x: np.ndarray, training: bool, ids) -> np.ndarray:
    """Head input of the rows ``x``: raw segments the paths ``path_ids``
    embed or, with no paths, embeddings already.  ``ids[i]`` is the
    utterance of row ``i``, named when its LGP map is not finite."""
    if not path_ids:
        return x
    try:
        return model.embed(x, training, path_ids)
    except NonFiniteMapError as exc:
        raise TrainingDivergedError(
            f"non-finite feature map for utterance {ids[exc.row]!r}") from None


def _dev_eer(model, path_ids, head, dev_embs, dev: LabeledDataset) -> float:
    """Dev EER of ``head``; with paths, each utterance is cut when it is scored."""
    ufm = UfmConfig(model.cfg.input_length)
    scores = np.empty(len(dev))
    for i, utt in enumerate(dev.items):
        x = segment_ufm(utt.features, ufm) if path_ids else dev_embs[i]
        logits = head.forward(_embed(model, path_ids, x, False, [utt.utt_id] * len(x)))
        scores[i] = (logits[:, 0] - logits[:, 1]).mean()
    labels = dev.labels()
    return eer_from_scores(scores[labels == BONA_FIDE], scores[labels != BONA_FIDE])[0]


@np.errstate(over="ignore", invalid="ignore")
def _fit(model: SpoofModel, path_ids, head, train_embs, data: LabeledDataset, dev_embs, dev,
         cfg: TrainConfig, epochs: int, seed_tag: int, on_epoch) -> TrainResult:
    """Shared minibatch loop; the head and the paths ``path_ids`` of ``model``
    are the trainable state.

    With paths, each minibatch is cut from ``data`` when it is used.  With
    none (step 2), the head is fitted on ``train_embs``, one row per training
    utterance, and ``dev_embs``, one stack per dev utterance.  With a dev set,
    the best dev-EER epoch's state is copied back in place at the end.  The
    loss and the per-epoch checks catch overflow, so NumPy does not warn of it.
    """
    if cfg.target_length != model.cfg.input_length:
        raise ValueError("config target length does not match the model input length")
    paths = [model.paths[k] for k in path_ids]
    modules = [head, *paths]
    params = [p for module in modules for p in module.parameters()]
    opt = Adam(params, lr=cfg.lr)
    labels = data.labels()
    ids = np.array([utt.utt_id for utt in data.items], dtype=object)
    n = labels.shape[0]

    result = TrainResult(loss_trace=[])
    best = None
    for epoch in range(epochs):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, seed_tag, epoch]))
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x = _batch(data, idx, cfg.target_length) if path_ids else train_embs[idx]
            logits = head.forward(_embed(model, path_ids, x, True, ids[idx]))
            loss, grad_logits = softmax_cross_entropy(logits, labels[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss {loss!r} at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            opt.zero_grad()
            grad_concat = head.backward(grad_logits)
            for k, path in enumerate(paths):
                width = path.cfg.channels
                path.backward_params(grad_concat[:, k * width : (k + 1) * width])
            opt.step()
            epoch_loss += loss * idx.shape[0]
        result.loss_trace.append(epoch_loss / n)
        # as the checkpoint writer will; NaN weights can hide behind ReLU zeros
        try:
            for owner, module in zip(["head", *(f"path{k}" for k in path_ids)], modules):
                for name, arr in module.named_tensors().items():
                    tensorio.finite_float32(arr, f"tensor '{owner}.{name}'")
        except ValueError as exc:
            raise TrainingDivergedError(f"after epoch {epoch}: {exc}") from None

        if dev is not None:
            eer = _dev_eer(model, path_ids, head, dev_embs, dev)
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
    return _fit(model, [0], model.fc, None, data, None, dev, cfg, cfg.epochs, 0, on_epoch)


def train_two_step(model: SpoofModel, data: LabeledDataset, cfg: TrainConfig,
                   dev: LabeledDataset | None = None, on_epoch=None) -> TwoStepResult:
    """Two-step scheme for two-path models.

    Step 1 trains each path independently, exactly like a one-path model,
    under a temporary softmax classifier attached to its pooling output.
    Step 2 discards the temporary classifiers, freezes every conv/res
    parameter (batch statistics included, so the paths are bit-identical
    afterwards), and trains only the shared head on the concatenated
    embeddings; the frozen paths run with their step-1 running statistics.
    Both steps cut their input from the loaded features as they use it; the
    fused dev EER is that of step 2's best epoch, whose head the model keeps.
    """
    if model.cfg.paths != 2:
        raise ValueError("train_two_step expects a two-path model")

    step1_results: list[TrainResult] = []
    path_dev_eers: list[float] = []
    for k in range(model.cfg.paths):
        temp_head = Linear(model.cfg.channels, 2, init="zero")
        res = _fit(model, [k], temp_head, None, data, None, dev, cfg,
                   cfg.step1_epochs or cfg.epochs, 1 + k, on_epoch)
        step1_results.append(res)
        if res.dev_eer_trace:
            path_dev_eers.append(min(res.dev_eer_trace))

    frozen_state = paths_state(model.paths)

    # Step 2: the frozen paths embed each input once, batch by batch; fit only the head.
    every, length = range(model.cfg.paths), model.cfg.input_length
    rows = range(len(data))
    train_embs = np.concatenate([
        model.embed(_batch(data, rows[start : start + cfg.batch_size], length), False, every)
        for start in rows[:: cfg.batch_size]])
    dev_embs = None if dev is None else [
        model.embed(segment_ufm(utt.features, UfmConfig(length)), False, every)
        for utt in dev.items]
    step2 = _fit(model, [], model.fc, train_embs, data, dev_embs, dev, cfg,
                 cfg.step2_epochs or cfg.epochs, 100, on_epoch)

    dev_eer = min(step2.dev_eer_trace) if dev is not None else float("nan")
    return TwoStepResult(step1=step1_results, step2=step2,
                         path_dev_eers=path_dev_eers, dev_eer=dev_eer,
                         frozen_state=frozen_state)
