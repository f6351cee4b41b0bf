"""The three workloads: the CLI commands of one pass, and the output checks.

Each workload is a closed loop with one client: its commands run one after
another in this process through ``lgpnet.cli.main``, with ``--workers 1``.
A *pass* is one run of the workload's command list; the benchmark repeats
passes until its time is up.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from lgpnet import tensorio, training
from lgpnet.evaluation import (TdcfCostModel, eer_from_scores, min_tdcf_from_scores,
                               read_protocol, read_scores)
from lgpnet.frontend import load_features
from lgpnet.gmm import Gmm
from lgpnet.lgp import LgpNormStats
from lgpnet.model import SpoofModel, UfmConfig, segment_ufm

# Tolerance between a UFM score and the mean of forward_model over its
# segments: the batched and one-segment paths may sum in another order.
SCORE_TOL = 1e-9
# `lgpnet evaluate` prints EER and min t-DCF with 4 decimals.
PRINTED_TOL = 0.5e-4 + 1e-12
EXACT_TOL = 1e-12


@dataclass
class PassRecord:
    index: int
    traced: bool
    out: Path
    seconds: dict[str, float] = field(default_factory=dict)   # per command, summed
    codes: list[tuple[str, int]] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())


class Checks:
    """Operations attempted and failed: CLI exits and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


class Workload:
    name = ""
    item = ""                      # what throughput_per_s counts
    throughput_name = ""           # the workload's own name for throughput_per_s, if any
    generate = None                # inputs.<name>(dir, seed): writes the inputs, returns info

    def __init__(self, root: Path, inputs_dir: Path, info: dict, seed: int):
        self.root = root
        self.inputs = inputs_dir
        self.info = info
        self.seed = seed

    def prepare(self, out: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)

    def commands(self, out: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def items(self) -> int:
        raise NotImplementedError

    def begin_pass(self, record: PassRecord) -> None:
        pass

    def check(self, passes: list[PassRecord], checks: Checks) -> None:
        raise NotImplementedError

    def summary(self, passes: list[PassRecord]) -> list[tuple[str, float, str, str]]:
        """Workload-specific metrics for the text lines: (name, value, unit, how)."""
        return []


class TrainPaper(Workload):
    """One-path `lgpnet train`, paper widths, one batch-32 Adam step."""

    name = "train_paper"
    generate = staticmethod(inputs.train_paper)
    item = "training example"
    throughput_name = "train_examples_per_s"

    def __init__(self, *args):
        super().__init__(*args)
        self._record = None
        # Observe the loss of every step where training looks it up; the
        # result passes through unchanged.
        original = training.softmax_cross_entropy

        @functools.wraps(original)
        def observed(logits, labels):
            loss, grad = original(logits, labels)
            if self._record is not None:
                self._record.losses.append(loss)
            return loss, grad

        training.softmax_cross_entropy = observed

    def begin_pass(self, record):
        self._record = record

    def commands(self, out):
        i = self.inputs
        return [("train", ["train", "--config", str(i / "run.cfg"), "--features", str(i / "feats"),
                           "--protocol", str(i / "train.txt"), "--gmm", str(i / "model.gmm"),
                           "--stats", str(i / "model.stats"), "--out", str(out)])]

    def items(self):
        return inputs.TRAIN_UTTS

    def check(self, passes, checks):
        steps = inputs.TRAIN_UTTS // inputs.BATCH
        for p in passes:
            losses = p.losses
            checks.check(f"pass {p.index}: {steps} step(s) ran", len(losses) == steps,
                         f"saw {len(losses)} losses")
            if losses:
                checks.check(f"pass {p.index}: first-batch loss is ln 2",
                             abs(losses[0] - math.log(2.0)) <= 1e-12, repr(losses[0]))
            checks.check(f"pass {p.index}: every loss finite",
                         all(math.isfinite(x) for x in losses), repr(losses))
        model_path = passes[0].out / "model.lgpn"
        gmm_path, stats_path = self.inputs / "model.gmm", self.inputs / "model.stats"
        try:
            SpoofModel.load(model_path, [Gmm.load(gmm_path)], [LgpNormStats.load(stats_path)])
            stored = tensorio.load_tensors(model_path)
            ok = (_digest(stored["path0.gmm_sha256"]) == tensorio.file_fingerprint(gmm_path)
                  and _digest(stored["path0.stats_sha256"]) == tensorio.file_fingerprint(stats_path))
            checks.check("model.lgpn reloads with matching fingerprints", ok, "fingerprint differs")
        except (OSError, ValueError, KeyError) as exc:
            checks.check("model.lgpn reloads with matching fingerprints", False, repr(exc))


def _digest(arr) -> bytes:
    return bytes(np.asarray(arr).astype(np.uint8).tobytes())


class ScoreUfm(Workload):
    """`lgpnet score` with a paper-width checkpoint over 1..9-segment utterances."""

    name = "score_ufm"
    generate = staticmethod(inputs.score_ufm)
    item = "scored utterance"
    throughput_name = "score_utts_per_s"

    def commands(self, out):
        i = self.inputs
        return [("score", ["score", "--model", str(i / "model.lgpn"), "--features", str(i / "feats"),
                           "--protocol", str(i / "eval.txt"), "--gmm", str(i / "model.gmm"),
                           "--stats", str(i / "model.stats"), "--out", str(out / "scores.eval"),
                           "--workers", "1"])]

    def items(self):
        return self.info["utterances"]

    def check(self, passes, checks):
        labels = read_protocol(self.inputs / "eval.txt")
        for p in passes:
            try:
                scores = read_scores(p.out / "scores.eval")
            except (OSError, ValueError) as exc:
                checks.check(f"pass {p.index}: score file readable", False, repr(exc))
                continue
            checks.check(f"pass {p.index}: one finite score per protocol id",
                         list(scores) == list(labels)
                         and all(math.isfinite(s) for s in scores.values()))
            checks.check(f"pass {p.index}: scores are not all equal",
                         len(set(scores.values())) > 1)

        # Oracle: a 1-segment and a 3-segment utterance, rescored segment by
        # segment through forward_model.
        scores = read_scores(passes[0].out / "scores.eval")
        model = SpoofModel.load(self.inputs / "model.lgpn", [Gmm.load(self.inputs / "model.gmm")],
                                [LgpNormStats.load(self.inputs / "model.stats")])
        rng = np.random.default_rng(self.seed)
        per = inputs.SCORE_PER_BRACKET
        ids = list(labels)
        sample = [ids[int(rng.integers(0, per))], ids[per + int(rng.integers(0, per))]]
        for utt_id in sample:
            feats = load_features(self.inputs / "feats" / f"{utt_id}.lgpf")
            segments = segment_ufm(feats, UfmConfig(inputs.SEGMENT))
            expected = float(np.mean([model.forward_model(seg)[1] for seg in segments]))
            got = scores.get(utt_id, float("nan"))
            checks.check(f"{utt_id}: score equals mean forward_model over {len(segments)} segments",
                         abs(got - expected) <= SCORE_TOL * (1.0 + abs(expected)),
                         f"{got!r} vs {expected!r}")


def oracle_rates(bona: np.ndarray, spoof: np.ndarray):
    """Miss and false-acceptance rates at every threshold, counted pairwise: O(n^2)."""
    thresholds = np.concatenate([[-np.inf], np.unique(np.concatenate([bona, spoof])), [np.inf]])
    p_miss = (bona[None, :] < thresholds[:, None]).mean(axis=1)
    p_fa = (spoof[None, :] >= thresholds[:, None]).mean(axis=1)
    return p_miss, p_fa


def oracle_eer(bona, spoof) -> float:
    """EER where miss and false acceptance cross, interpolated between operating points."""
    p_miss, p_fa = oracle_rates(bona, spoof)
    diff = p_miss - p_fa
    k = int(np.argmax(diff >= 0.0))
    if diff[k] == 0.0:
        return float((p_miss[k] + p_fa[k]) / 2.0)
    alpha = diff[k - 1] / (diff[k - 1] - diff[k])
    return float((1.0 - alpha) * p_miss[k - 1] + alpha * p_miss[k])


def oracle_min_tdcf(bona, spoof, cfg: dict[str, float]) -> float:
    """Normalized min t-DCF, ASVspoof 2019 form (Kinnunen et al., 2018)."""
    c1 = (cfg["p_target"] * (cfg["c_miss_cm"] - cfg["c_miss_asv"] * cfg["p_miss_asv"])
          - cfg["p_nontarget"] * cfg["c_fa_asv"] * cfg["p_fa_asv"])
    c2 = cfg["c_fa_cm"] * cfg["p_spoof"] * (1.0 - cfg["p_miss_spoof_asv"])
    p_miss, p_fa = oracle_rates(bona, spoof)
    return float(((c1 * p_miss + c2 * p_fa) / min(c1, c2)).min())


def _read_keyvalues(path: Path) -> dict[str, float]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        text = line.split("#", 1)[0].strip()
        if text:
            key, _, value = text.partition("=")
            out[key.strip()] = float(value)
    return out


class Baseline(Workload):
    """The classical chain, no network: LFCC -> two GMMs -> LLR -> metrics, plus fusion."""

    name = "baseline"
    generate = staticmethod(inputs.baseline)
    item = "eval utterance through the whole chain"
    GMM_ITERS = 4

    def prepare(self, out):
        super().prepare(out)
        for label, ids in self.info["train_ids"].items():
            self._list(out, label).write_text(
                "".join(f"{out / 'feats' / (u + '.lgpf')}\n" for u in ids), encoding="utf-8")

    @staticmethod
    def _list(out: Path, label: str) -> Path:
        return out.parent / f"{out.name}.{label}.list"

    def commands(self, out):
        i = self.inputs
        bona, spoof = self._list(out, "bonafide"), self._list(out, "spoof")
        gmm_args = ["--components", str(inputs.ORDER), "--iters", str(self.GMM_ITERS)]
        return [
            ("extract-lfcc", ["extract-lfcc", "--wav-dir", str(i / "wavs"),
                              "--out-dir", str(out / "feats"), "--workers", "1"]),
            ("train-gmm", ["train-gmm", "--features", str(bona), *gmm_args, "--seed", "1",
                           "--out", str(out / "bona.gmm")]),
            ("train-gmm", ["train-gmm", "--features", str(spoof), *gmm_args, "--seed", "2",
                           "--out", str(out / "spoof.gmm")]),
            ("fit-lgp-stats", ["fit-lgp-stats", "--gmm", str(out / "bona.gmm"),
                               "--features", str(bona), "--out", str(out / "bona.stats")]),
            ("score-gmm", ["score-gmm", "--gmm", str(out / "bona.gmm"),
                           "--gmm2", str(out / "spoof.gmm"), "--features", str(out / "feats"),
                           "--protocol", str(i / "eval.txt"), "--out", str(out / "llr.eval"),
                           "--workers", "1"]),
            ("evaluate", ["evaluate", "--scores", str(out / "llr.eval"),
                          "--protocol", str(i / "eval.txt"),
                          "--tdcf-config", str(self._tdcf_config()),
                          "--out", str(out / "llr.metrics")]),
            ("fuse", ["fuse", "--dev", *(str(i / f"sys{k}.dev") for k in range(3)),
                      "--eval", *(str(i / f"sys{k}.eval") for k in range(3)),
                      "--protocol", str(i / "fuse_dev.txt"), "--out", str(out / "fused.eval")]),
        ]

    def _tdcf_config(self) -> Path:
        return self.root / "configs" / "tdcf_asvspoof2019.cfg"

    def items(self):
        return self.info["eval_utterances"]

    def _split(self, out: Path):
        labels = read_protocol(self.inputs / "eval.txt")
        scores = read_scores(out / "llr.eval")
        bona = np.array([s for u, s in scores.items() if labels[u] == "bonafide"])
        spoof = np.array([s for u, s in scores.items() if labels[u] == "spoof"])
        return labels, scores, bona, spoof

    def check(self, passes, checks):
        cost = _read_keyvalues(self._tdcf_config())
        fuse_ids = list(read_scores(self.inputs / "sys0.eval"))
        for p in passes:
            try:
                labels, scores, bona, spoof = self._split(p.out)
                printed = {}
                for line in (p.out / "llr.metrics").read_text(encoding="utf-8").splitlines():
                    key, value = line.split()
                    printed[key] = float(value)
                fused = read_scores(p.out / "fused.eval")
            except (OSError, ValueError, KeyError) as exc:
                checks.check(f"pass {p.index}: baseline outputs readable", False, repr(exc))
                continue
            checks.check(f"pass {p.index}: one finite LLR per protocol id",
                         list(scores) == list(labels)
                         and all(math.isfinite(s) for s in scores.values()))
            eer, tdcf = oracle_eer(bona, spoof), oracle_min_tdcf(bona, spoof, cost)
            checks.check(f"pass {p.index}: printed EER equals the O(n^2) oracle",
                         abs(printed.get("EER", math.nan) - eer) <= PRINTED_TOL,
                         f"{printed.get('EER')} vs {eer!r}")
            checks.check(f"pass {p.index}: printed min-tDCF equals the O(n^2) oracle",
                         abs(printed.get("min-tDCF", math.nan) - tdcf) <= PRINTED_TOL,
                         f"{printed.get('min-tDCF')} vs {tdcf!r}")
            checks.check(f"pass {p.index}: fused eval scores cover the eval trials",
                         sorted(fused) == sorted(fuse_ids)
                         and all(math.isfinite(s) for s in fused.values()))
        _, _, bona, spoof = self._split(passes[0].out)
        eer = eer_from_scores(bona, spoof)[0]
        checks.check("eer_from_scores equals the oracle",
                     abs(eer - oracle_eer(bona, spoof)) <= EXACT_TOL, repr(eer))
        tdcf = min_tdcf_from_scores(bona, spoof, TdcfCostModel(**cost))
        checks.check("min_tdcf_from_scores equals the oracle",
                     abs(tdcf - oracle_min_tdcf(bona, spoof, cost)) <= EXACT_TOL, repr(tdcf))

    def summary(self, passes):
        n = f"median of {len(passes)} passes"
        _, _, bona, spoof = self._split(passes[0].out)
        cost = TdcfCostModel(**_read_keyvalues(self._tdcf_config()))
        return [
            ("gmm_fit_s", statistics.median([p.seconds["train-gmm"] for p in passes]), "s", n),
            ("fuse_s", statistics.median([p.seconds["fuse"] for p in passes]), "s", n),
            ("baseline_wall_s", statistics.median([p.wall for p in passes]), "s", n),
            ("eer", eer_from_scores(bona, spoof)[0], "share", "LLR eval scores, deterministic"),
            ("min_tdcf", min_tdcf_from_scores(bona, spoof, cost), "share",
             "LLR eval scores, deterministic"),
        ]


WORKLOADS = {w.name: w for w in (TrainPaper, ScoreUfm, Baseline)}
