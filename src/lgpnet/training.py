"""Training loops: one-path end-to-end, and the two-step scheme for
two-path models (pretrain each path under a temporary classifier, then
freeze the paths and fit only the fusion head).  One-path training and
each step run for ``TrainConfig.epochs`` epochs.

Training holds no stacked copy of its input: each minibatch (B, N, D) is
cut from the loaded features when used, and no LGP map outlives its batch.
The dev EER and step 2's embeddings run a ``ScoringPlan`` of the live
tensors, the engine of ``lgpnet score``, built for each use and dropped.

Everything is deterministic given the config seed: weight init, epoch
shuffles, and batch reductions all flow from seeded generators, so two
runs with the same inputs produce bit-identical parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensorio
from .errors import NonFiniteMapError, TrainingDivergedError, naming
from .evaluation import both_classes, eer_from_scores, read_protocol
from .frontend import fix_length, load_features
from .model import BONA_FIDE, LABEL_NAMES, ScoringPlan, SpoofModel, detection_score
from .nn import Adam, Linear, softmax_cross_entropy


@dataclass
class TrainConfig:
    batch_size: int = 32
    epochs: int = 100
    lr: float = 1e-4
    seed: int = 0
    target_length: int = 400

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch size and epochs must be >= 1")
        if not 0.0 < self.lr < np.inf:                 # a NaN fails too
            raise ValueError("learning rate must be positive and finite")


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


def load_dataset(protocol_path, features_dir, dim: int, what: str) -> LabeledDataset:
    """Materialize a dataset from a protocol file and a feature directory.

    Feature files are looked up as ``<features_dir>/<utt_id>.lgpf``, each
    (T >= 1, ``dim``); any other is a ValueError naming it, as is a protocol
    of one class, ``what`` in its message: training and a dev EER need both.
    """
    labels = read_protocol(protocol_path)
    features_dir = Path(features_dir)
    items = []
    for utt_id, label in labels.items():
        path = features_dir / f"{utt_id}.lgpf"
        with naming(path):
            feats = load_features(path)
            if feats.shape[0] == 0 or feats.shape[1] != dim:
                raise ValueError(f"frames have shape {feats.shape}, expected (T >= 1, {dim})")
        items.append(LabeledUtterance(utt_id, feats, LABEL_NAMES[label]))
    with naming(protocol_path):
        both_classes([label == "bonafide" for label in labels.values()], what)
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


def _embed(model: SpoofModel, path_ids, data: LabeledDataset, idx, length: int) -> np.ndarray:
    """Head input of the training utterances ``idx``, each fixed to
    ``length`` frames; one whose LGP map is not finite is named."""
    x = np.stack([fix_length(data.items[i].features, length) for i in idx])
    try:
        return model.embed(x, path_ids)
    except NonFiniteMapError as exc:
        raise TrainingDivergedError(
            f"non-finite feature map for utterance {data.items[idx[exc.row]].utt_id!r}") from None


def _plan_embeds(plan: ScoringPlan, path_ids, data: LabeledDataset, length) -> list[np.ndarray]:
    """Head input of each utterance of ``data`` under the paths ``path_ids``:
    of its overlap segments or, with a ``length``, of its one segment of the
    first ``length`` frames of its cyclic extension (``fix_length``)."""
    embs = []
    for utt in data.items:
        feats = utt.features if length is None else fix_length(utt.features, length)
        try:
            embs.append(plan.embed(feats, path_ids))
        except NonFiniteMapError:
            raise TrainingDivergedError(
                f"non-finite feature map for utterance {utt.utt_id!r}") from None
    return embs


def _dev_eer(head, dev_embs, dev: LabeledDataset) -> float:
    """Dev EER of ``head``: a dev utterance scores the mean over its segments,
    its rows of ``dev_embs``, of the bona fide minus the spoof logit, which
    ``Linear.forward``'s expression gives without caching ``emb``."""
    scores = np.array([detection_score(emb @ head.weight.data.T + head.bias.data).mean()
                       for emb in dev_embs])
    labels = dev.labels()
    return eer_from_scores(scores[labels == BONA_FIDE], scores[labels != BONA_FIDE])[0]


@np.errstate(over="ignore", invalid="ignore")
def _fit(model: SpoofModel, path_ids, head, train_embs, data: LabeledDataset, dev_embs, dev,
         cfg: TrainConfig, seed_tag: int, on_epoch) -> TrainResult:
    """Shared minibatch loop; the head and the paths ``path_ids`` of ``model``
    are the trainable state.  ``on_epoch(epoch, result)`` gets this fit's own
    ``TrainResult``, the one it returns, after each epoch.

    With paths, each minibatch is cut from ``data`` when it is used, and a
    plan of the live tensors embeds the dev set after each epoch.  With none
    (step 2), the head is fitted on ``train_embs``, one row per training
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
    n = labels.shape[0]

    result = TrainResult(loss_trace=[])
    best = None
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, seed_tag, epoch]))
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if path_ids:
                x = _embed(model, path_ids, data, idx, cfg.target_length)
            else:
                x = train_embs[idx]
            logits = head.forward(x)
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
            if path_ids:        # a plan of this epoch's tensors, dropped once it has run
                dev_embs = _plan_embeds(model.plan(path_ids), path_ids, dev, None)
            eer = _dev_eer(head, dev_embs, dev)
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
    return _fit(model, [0], model.fc, None, data, None, dev, cfg, 0, on_epoch)


def train_two_step(model: SpoofModel, data: LabeledDataset, cfg: TrainConfig,
                   dev: LabeledDataset | None = None, on_epoch=None) -> TwoStepResult:
    """Two-step scheme for two-path models.

    Step 1 trains each path independently, exactly like a one-path model,
    under a temporary softmax classifier attached to its pooling output.
    Step 2 discards the temporary classifiers, freezes every conv/res
    parameter (batch statistics included, so the paths are bit-identical
    afterwards), and trains only the shared head on the concatenated
    embeddings; the frozen paths run with their step-1 running statistics.
    Step 1 of each path and step 2 run ``cfg.epochs`` epochs each.  One plan
    of the frozen paths embeds step 2's inputs once; the fused dev EER is
    that of step 2's best epoch, whose head the model keeps.
    """
    if model.cfg.paths != 2:
        raise ValueError("train_two_step expects a two-path model")

    step1_results: list[TrainResult] = []
    path_dev_eers: list[float] = []
    for k in range(model.cfg.paths):
        temp_head = Linear(model.cfg.channels, 2, init="zero")
        res = _fit(model, [k], temp_head, None, data, None, dev, cfg, 1 + k, on_epoch)
        step1_results.append(res)
        if res.dev_eer_trace:
            path_dev_eers.append(min(res.dev_eer_trace))

    frozen_state = paths_state(model.paths)

    # Step 2: one plan of the frozen paths embeds each input once; fit only the head.
    every = range(model.cfg.paths)
    plan = model.plan(every)
    train_embs = np.concatenate(_plan_embeds(plan, every, data, model.cfg.input_length))
    dev_embs = None if dev is None else _plan_embeds(plan, every, dev, None)
    del plan
    step2 = _fit(model, [], model.fc, train_embs, data, dev_embs, dev, cfg, 100, on_epoch)

    dev_eer = min(step2.dev_eer_trace) if dev is not None else float("nan")
    return TwoStepResult(step1=step1_results, step2=step2,
                         path_dev_eers=path_dev_eers, dev_eer=dev_eer,
                         frozen_state=frozen_state)
