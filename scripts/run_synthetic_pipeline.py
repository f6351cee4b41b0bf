#!/usr/bin/env python3
"""End-to-end desk-scale experiment on a synthetic corpus.

Drives the CLI through the whole pipeline: corpus generation, GMM baseline,
LGP statistics, one-path training, scoring, evaluation, and fusion of the
network with the baseline.  Writes all artifacts plus a final metrics file
under --out.

    python scripts/run_synthetic_pipeline.py --out /tmp/lgpnet-demo
    python scripts/run_synthetic_pipeline.py --task marginal-shift --se
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lgpnet.cli import main as cli
from lgpnet.evaluation import read_protocol


def sh(*argv):
    code = cli([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"step failed ({code}): {' '.join(str(a) for a in argv)}")


def class_list(corpus: Path, out: Path, label: str) -> Path:
    labels = read_protocol(corpus / "train.txt")
    path = out / f"{label}.list"
    path.write_text(
        "".join(f"{corpus / 'feats' / (u + '.lgpf')}\n" for u, l in labels.items() if l == label)
    )
    return path


def run(args) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus = out / "corpus"

    sh("gen-corpus", "--task", args.task, "--out", corpus, "--seed", args.seed,
       "--train-utts", 400, "--dev-utts", 200, "--eval-utts", 200)

    bona_list = class_list(corpus, out, "bonafide")
    spoof_list = class_list(corpus, out, "spoof")

    sh("train-gmm", "--features", corpus / "feats", "--components", args.gmm_order,
       "--iters", 30, "--seed", 1, "--out", out / "pooled.gmm")
    sh("train-gmm", "--features", bona_list, "--components", args.gmm_order,
       "--iters", 30, "--seed", 2, "--out", out / "bona.gmm")
    sh("train-gmm", "--features", spoof_list, "--components", args.gmm_order,
       "--iters", 30, "--seed", 3, "--out", out / "spoof.gmm")
    sh("fit-lgp-stats", "--gmm", out / "pooled.gmm", "--features", corpus / "feats",
       "--out", out / "pooled.stats")

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
       "--gmm", out / "pooled.gmm", "--stats", out / "pooled.stats",
       "--out", out / "ckpt")

    for part in ("dev", "eval"):
        sh("score", "--model", out / "ckpt" / "model.lgpn", "--features", corpus / "feats",
           "--protocol", corpus / f"{part}.txt",
           "--gmm", out / "pooled.gmm", "--stats", out / "pooled.stats",
           "--out", out / f"net.{part}")
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
    run(parser.parse_args())
