#!/usr/bin/env python3
"""End-to-end desk-scale experiment on a synthetic corpus.

Drives the CLI through the whole pipeline: corpus generation, GMM baseline,
LGP statistics, one-path training, scoring, evaluation, and fusion of the
network with the baseline.  The corpus comes from a ``corpus.cfg`` spec
that this script writes under --out (the given task and seed, the default
sizes), read by ``gen-corpus --config``.  With ``--paths 2`` the network is
the two-path model: LGP statistics under the bona fide and the spoof GMM,
and two-step training and scoring with ``--gmm2/--stats2``, the second pair
that makes the model two paths.  Writes all artifacts plus a final metrics
file under --out.

    python scripts/run_synthetic_pipeline.py --out /tmp/lgpnet-demo
    python scripts/run_synthetic_pipeline.py --out /tmp/lgpnet-se --task marginal-shift --se
    python scripts/run_synthetic_pipeline.py --out /tmp/lgpnet-two --paths 2
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lgpnet.cli import main as cli
from lgpnet.evaluation import read_protocol
from lgpnet.runconfig import write_flat_config
from lgpnet.synthcorpus import CorpusSpec


def sh(*argv):
    code = cli([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"step failed ({code}): {' '.join(str(a) for a in argv)}")


def train_list(corpus: Path, out: Path, label: str | None = None) -> Path:
    """List file of the train partition's features, or of one class of it."""
    labels = read_protocol(corpus / "train.txt")
    path = out / f"{label or 'train'}.list"
    path.write_text(
        "".join(f"{corpus / 'feats' / (u + '.lgpf')}\n" for u, l in labels.items()
                if label in (None, l))
    )
    return path


def run(args) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus = out / "corpus"

    corpus_cfg = out / "corpus.cfg"
    write_flat_config(CorpusSpec(task=args.task, seed=args.seed), corpus_cfg)
    sh("gen-corpus", "--config", corpus_cfg, "--out", corpus)

    # GMMs and normalization stats see the train partition only, never dev or eval.
    all_list = train_list(corpus, out)
    bona_list = train_list(corpus, out, "bonafide")
    spoof_list = train_list(corpus, out, "spoof")

    if args.paths == 1:
        sh("train-gmm", "--features", all_list, "--components", args.gmm_order,
           "--iters", 30, "--seed", 1, "--out", out / "pooled.gmm")
    sh("train-gmm", "--features", bona_list, "--components", args.gmm_order,
       "--iters", 30, "--seed", 2, "--out", out / "bona.gmm")
    sh("train-gmm", "--features", spoof_list, "--components", args.gmm_order,
       "--iters", 30, "--seed", 3, "--out", out / "spoof.gmm")
    # the front end of each path: the pooled GMM, or the bona fide and the spoof GMM
    fronts = ["pooled"] if args.paths == 1 else ["bona", "spoof"]
    models = []
    for suffix, name in zip(("", "2"), fronts):
        sh("fit-lgp-stats", "--gmm", out / f"{name}.gmm", "--features", all_list,
           "--out", out / f"{name}.stats")
        models += [f"--gmm{suffix}", out / f"{name}.gmm", f"--stats{suffix}", out / f"{name}.stats"]

    run_cfg = out / "run.cfg"
    run_cfg.write_text(
        f"gmm_order = {args.gmm_order}\n"
        "channels = 16\n"
        "blocks = 2\n"
        f"se_enabled = {'true' if args.se else 'false'}\n"
        "se_reduction = 4\n"
        "segment_length = 32\n"
        "batch_size = 32\n"
        f"epochs = {args.epochs}\n"
        "lr = 0.001\n"
        f"seed = {args.seed}\n"
    )
    sh("train", "--config", run_cfg, "--features", corpus / "feats",
       "--protocol", corpus / "train.txt", "--dev-protocol", corpus / "dev.txt",
       *models, "--out", out / "ckpt")

    for part in ("dev", "eval"):
        sh("score", "--model", out / "ckpt" / "model.lgpn", "--features", corpus / "feats",
           "--protocol", corpus / f"{part}.txt", *models, "--out", out / f"net.{part}")
        sh("score-gmm", "--gmm", out / "bona.gmm", "--gmm2", out / "spoof.gmm",
           "--features", corpus / "feats", "--protocol", corpus / f"{part}.txt",
           "--out", out / f"gmm.{part}")

    print("\n== GMM baseline ==")
    sh("evaluate", "--scores", out / "gmm.eval", "--protocol", corpus / "eval.txt",
       "--out", out / "metrics-gmm.txt")
    print("\n== network ==")
    sh("evaluate", "--scores", out / "net.eval", "--protocol", corpus / "eval.txt",
       "--out", out / "metrics-net.txt")
    print("\n== fusion (network + baseline) ==")
    sh("fuse", "--dev", out / "net.dev", out / "gmm.dev",
       "--eval", out / "net.eval", out / "gmm.eval",
       "--protocol", corpus / "dev.txt", "--out", out / "fused.eval")
    sh("evaluate", "--scores", out / "fused.eval", "--protocol", corpus / "eval.txt",
       "--out", out / "metrics-fused.txt")
    print(f"\nmetrics written under {out}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--task", choices=("order-only", "marginal-shift"),
                        default="order-only")
    parser.add_argument("--gmm-order", type=int, default=8)
    parser.add_argument("--epochs", type=int, default=12)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--se", action="store_true", help="squeeze-excitation blocks")
    parser.add_argument("--paths", type=int, choices=(1, 2), default=1,
                        help="network paths; 2 trains with the two-step scheme")
    run(parser.parse_args())
