"""Metrics, score files, protocol parsing, and linear score fusion.

Scores are oriented so that larger means more bona fide.  A *miss* is a
bona fide trial scored below the threshold; a *false acceptance* is a
spoof trial scored at or above it.  Both summary metrics sweep every
threshold and are therefore invariant to strictly increasing score maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ProtocolError, naming
from .nn import sigmoid
from .tensorio import write_file

LABELS = ("bonafide", "spoof")


def detection_tradeoff(bona: np.ndarray, spoof: np.ndarray):
    """Miss/false-acceptance rates swept over every threshold.

    Thresholds are -inf, each distinct score, and +inf; at threshold t,
    P_miss = #(bona < t)/#bona and P_fa = #(spoof >= t)/#spoof.  Returns
    (thresholds, p_miss, p_fa) with p_miss non-decreasing and p_fa
    non-increasing.
    """
    bona = np.asarray(bona, dtype=np.float64)
    spoof = np.asarray(spoof, dtype=np.float64)
    if bona.size == 0 or spoof.size == 0:
        raise ValueError("need at least one trial of each class")
    thresholds = np.concatenate(
        [[-np.inf], np.unique(np.concatenate([bona, spoof])), [np.inf]]
    )
    bona_sorted = np.sort(bona)
    spoof_sorted = np.sort(spoof)
    p_miss = np.searchsorted(bona_sorted, thresholds, side="left") / bona.size
    p_fa = (spoof.size - np.searchsorted(spoof_sorted, thresholds, side="left")) / spoof.size
    return thresholds, p_miss, p_fa


def eer_from_scores(bona: np.ndarray, spoof: np.ndarray) -> tuple[float, float]:
    """Equal error rate and the threshold where miss and false-acceptance cross.

    The tradeoff is a step function, so the crossing is located by linear
    interpolation between the adjacent operating points.  For finite scores
    the threshold is finite: miss minus false acceptance is -1 at -inf and
    at the lowest score and +1 at +inf, so an exact crossing lies at a score,
    and an interpolation past the top score ends there.
    """
    thresholds, p_miss, p_fa = detection_tradeoff(bona, spoof)
    diff = p_miss - p_fa              # monotone from -1 to +1
    k = int(np.flatnonzero(diff >= 0.0)[0])
    if diff[k] == 0.0:
        return float((p_miss[k] + p_fa[k]) / 2.0), float(thresholds[k])
    alpha = diff[k - 1] / (diff[k - 1] - diff[k])
    eer = (1.0 - alpha) * p_miss[k - 1] + alpha * p_miss[k]
    if np.isfinite(thresholds[k]):
        thr = (1.0 - alpha) * thresholds[k - 1] + alpha * thresholds[k]
    else:
        thr = thresholds[k - 1]
    return float(eer), float(thr)


@dataclass
class TdcfCostModel:
    """Constants of the tandem cost, ASVspoof 2019 style.

    The priors and costs below are the published ASVspoof 2019 evaluation
    values; the three ASV error rates describe the fixed verification
    system the countermeasure is paired with and must come from that
    system's scores.
    """

    p_target: float = 0.9405
    p_nontarget: float = 0.0095
    p_spoof: float = 0.05
    c_miss_asv: float = 1.0
    c_fa_asv: float = 10.0
    c_miss_cm: float = 1.0
    c_fa_cm: float = 10.0
    p_miss_asv: float = 0.01
    p_fa_asv: float = 0.01
    p_miss_spoof_asv: float = 0.05

    def __post_init__(self):
        priors = (self.p_target, self.p_nontarget, self.p_spoof)
        if any(not 0.0 < p < 1.0 for p in priors):
            raise ValueError("priors must lie in (0, 1)")
        if abs(sum(priors) - 1.0) > 1e-6:
            raise ValueError(f"priors sum to {sum(priors)!r}, expected 1")
        costs = (self.c_miss_asv, self.c_fa_asv, self.c_miss_cm, self.c_fa_cm)
        if not all(0.0 < c < np.inf for c in costs):    # a NaN fails too
            raise ValueError("costs must be positive and finite")
        for rate in (self.p_miss_asv, self.p_fa_asv, self.p_miss_spoof_asv):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("ASV error rates must lie in [0, 1]")

    def coefficients(self) -> tuple[float, float]:
        """(C1, C2): weights of the countermeasure miss and false-acceptance rates."""
        c1 = (self.p_target * (self.c_miss_cm - self.c_miss_asv * self.p_miss_asv)
              - self.p_nontarget * self.c_fa_asv * self.p_fa_asv)
        c2 = self.c_fa_cm * self.p_spoof * (1.0 - self.p_miss_spoof_asv)
        if c1 <= 0.0 or c2 <= 0.0:
            raise ValueError(f"degenerate cost model: C1={c1}, C2={c2}")
        return c1, c2


def min_tdcf_from_scores(bona: np.ndarray, spoof: np.ndarray,
                         cost: TdcfCostModel) -> float:
    """Minimum normalized tandem cost over all countermeasure thresholds."""
    c1, c2 = cost.coefficients()
    _, p_miss, p_fa = detection_tradeoff(bona, spoof)
    tdcf = (c1 * p_miss + c2 * p_fa) / min(c1, c2)
    return float(tdcf.min())


# -- score fusion -------------------------------------------------------------


@dataclass
class FusionResult:
    weights: np.ndarray
    dev_eer: float
    fused_eval: dict[str, float]


_RIDGE = 1e-6            # L2 penalty of the fusion's logistic regression
_NEWTON_STEPS = 50       # fixed, so the fit is deterministic


def fuse_scores(dev_systems: Sequence[Mapping[str, float]],
                dev_labels: Mapping[str, str],
                eval_systems: Sequence[Mapping[str, float]] | None = None) -> FusionResult:
    """Fit linear logistic-regression fusion weights on dev; apply them to eval.

    All subsystems must cover identical trial ids on each partition.  The
    weights and a bias are fitted by Newton's method on the mean log-loss of
    the dev labels (bona fide = 1), with a small ridge, starting from zero
    for a fixed number of steps (Brümmer & du Preez, Computer Speech &
    Language 2006).  The bias cannot move EER or min t-DCF, so it is
    dropped, and the weights are scaled to unit L1 norm; they may be
    negative.  If every fitted weight is 0, as for all-zero dev scores,
    the weights are equal.
    """
    if not dev_systems:
        raise ValueError("need at least one subsystem")
    ids, scores = _score_matrix(dev_systems, "dev")
    missing = [u for u in ids if u not in dev_labels]
    if missing:
        raise ValueError(f"no label for trial {missing[0]!r}")
    is_bona = both_classes([dev_labels[u] == "bonafide" for u in ids], "the dev scores")

    # Each system enters the fit divided by its largest magnitude, so no
    # square overflows and the ridge does not depend on a system's units.
    k, n = scores.shape
    scale = np.abs(scores).max(axis=1)
    scale[scale == 0.0] = 1.0
    x = np.vstack([scores / scale[:, None], np.ones(n)])      # (K+1, n)
    w = np.zeros(k + 1)
    for _ in range(_NEWTON_STEPS):
        p = sigmoid(w @ x)
        grad = x @ (p - is_bona) / n + _RIDGE * w
        hess = (x * (p * (1.0 - p))) @ x.T / n + _RIDGE * np.eye(k + 1)
        w -= np.linalg.solve(hess, grad)
    weights = w[:k] / scale
    norm = np.abs(weights).sum()
    weights = weights / norm if norm > 0.0 else np.full(k, 1.0 / k)
    fused = weights @ scores
    dev_eer = eer_from_scores(fused[is_bona], fused[~is_bona])[0]

    fused_eval: dict[str, float] = {}
    if eval_systems:
        if len(eval_systems) != len(dev_systems):
            raise ValueError("dev and eval subsystem counts differ")
        eval_ids, eval_scores = _score_matrix(eval_systems, "eval")
        fused_eval = dict(zip(eval_ids, (weights @ eval_scores).tolist()))

    return FusionResult(weights=weights, dev_eer=dev_eer, fused_eval=fused_eval)


def _score_matrix(systems: Sequence[Mapping[str, float]], part: str):
    """Sorted trial ids and the (K, n) score matrix; every system must cover the same ids."""
    ids = sorted(systems[0])
    for k, system in enumerate(systems):
        if sorted(system) != ids:
            raise ValueError(f"{part} subsystem {k} covers different trial ids")
    return ids, np.array([[system[u] for u in ids] for system in systems])


# -- text formats -------------------------------------------------------------


def _read_two_columns(path, what: str):
    rows = []
    seen = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            fields = stripped.split()
            if len(fields) != 2:
                raise ProtocolError(f"expected 'utt_id {what}', got {len(fields)} fields",
                                    line=lineno)
            utt_id, value = fields
            if utt_id in seen:
                raise ProtocolError(f"duplicate utterance id {utt_id!r}", line=lineno)
            seen.add(utt_id)
            rows.append((lineno, utt_id, value))
    return rows


def read_protocol(path) -> dict[str, str]:
    """Parse ``utt_id label`` lines; labels must be bonafide or spoof."""
    out: dict[str, str] = {}
    with naming(path):
        for lineno, utt_id, label in _read_two_columns(path, "label"):
            if label not in LABELS:
                raise ProtocolError(f"unknown label {label!r}", line=lineno)
            out[utt_id] = label
        if not out:
            raise ProtocolError("empty protocol")
    return out


def write_protocol(path, labels: Mapping[str, str]) -> None:
    unknown = [label for label in labels.values() if label not in LABELS]
    if unknown:
        raise ValueError(f"unknown label {unknown[0]!r}")
    write_file(path, "".join(f"{u} {label}\n" for u, label in labels.items()).encode("utf-8"))


def read_scores(path) -> dict[str, float]:
    """Parse ``utt_id score`` lines; scores must be finite decimals."""
    out: dict[str, float] = {}
    with naming(path):
        for lineno, utt_id, text in _read_two_columns(path, "score"):
            try:
                value = float(text)
            except ValueError:
                raise ProtocolError(f"bad score {text!r}", line=lineno) from None
            if not np.isfinite(value):
                raise ProtocolError(f"non-finite score {text!r}", line=lineno)
            out[utt_id] = value
        if not out:
            raise ProtocolError("empty score file")
    return out


def write_scores(path, scores: Mapping[str, float]) -> None:
    """Full-precision score lines; reading them back reproduces the floats."""
    write_file(path, "".join(f"{u} {float(s)!r}\n" for u, s in scores.items()).encode("utf-8"))


def read_trials(score_path, protocol_path) -> tuple[np.ndarray, np.ndarray]:
    """Join a score file with a protocol by utterance id.

    Returns the (bona fide, spoof) score arrays in score-file order; scores
    the protocol does not label, or of one class only, fail naming it.
    """
    scores = read_scores(score_path)
    labels = read_protocol(protocol_path)
    with naming(protocol_path):
        missing = [u for u in scores if u not in labels]
        if missing:
            raise ProtocolError(f"no label for scored trial {missing[0]!r}")
        is_bona = both_classes([labels[u] == "bonafide" for u in scores], score_path)
    values = np.array(list(scores.values()))
    return values[is_bona], values[~is_bona]


def both_classes(is_bona, trials) -> np.ndarray:
    """``is_bona`` as an array; a ValueError naming ``trials`` if it is one class."""
    is_bona = np.asarray(is_bona, dtype=bool)
    if is_bona.all() or not is_bona.any():
        raise ValueError(f"every trial of {trials} is {LABELS[not is_bona.any()]}; "
                         "need at least one trial of each class")
    return is_bona
