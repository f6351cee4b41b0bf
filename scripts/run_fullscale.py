#!/usr/bin/env python3
"""Full-scale ASVspoof 2019 pipeline at the published configuration.

Requires the corpus prepared locally (this repository ships no audio):

    <corpus-root>/
        wav/            mono 16-bit PCM WAV of every utterance
        train.txt       protocols: `utt_id label` with bonafide/spoof
        dev.txt
        eval.txt

Runs LFCC extraction, 512-mixture GMMs (30 EM iterations), fast-form LGP
statistics, a two-path two-step classifier (512 channels, 6 residual
blocks, N=400, batch 32, lr 1e-4, 100+100 epochs), scoring, and
evaluation: EER and min t-DCF under ``configs/tdcf_asvspoof2019.cfg``.
That file's ASV operating point is a placeholder, not the rates of the
organisers' ASV system, so this min t-DCF does not compare with published
ones (the paper's 0.0498 LA / 0.0162 PA) until measured rates replace it.
Use --pa for the physical-access segment length (N=1000).  Expect a long
run; everything here is plain NumPy on CPU.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lgpnet.cli import main as cli
from lgpnet.evaluation import read_protocol

TDCF_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "tdcf_asvspoof2019.cfg"


def sh(*argv):
    code = cli([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"step failed ({code}): {' '.join(str(a) for a in argv)}")


def run(args) -> None:
    root = Path(args.corpus_root)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    feats = out / "lfcc"
    n = args.segment_length or (1000 if args.pa else 400)

    sh("extract-lfcc", "--wav-dir", root / "wav", "--out-dir", feats)

    # lfcc/ holds every partition; GMMs and LGP stats see the train partition only.
    labels = read_protocol(root / "train.txt")
    lists = {}
    for cls in ("train", "bonafide", "spoof"):
        lst = out / f"{cls}.list"
        lst.write_text("".join(f"{feats / (u + '.lgpf')}\n"
                               for u, l in labels.items() if cls in ("train", l)))
        lists[cls] = lst

    sh("train-gmm", "--features", lists["bonafide"], "--components", args.mixtures,
       "--iters", 30, "--seed", 1, "--out", out / "bona.gmm")
    sh("train-gmm", "--features", lists["spoof"], "--components", args.mixtures,
       "--iters", 30, "--seed", 2, "--out", out / "spoof.gmm")
    sh("fit-lgp-stats", "--gmm", out / "bona.gmm", "--features", lists["train"],
       "--out", out / "bona.stats")
    sh("fit-lgp-stats", "--gmm", out / "spoof.gmm", "--features", lists["train"],
       "--out", out / "spoof.stats")

    run_cfg = out / "run.cfg"
    run_cfg.write_text(
        f"gmm_order = {args.mixtures}\n"
        f"channels = {args.channels}\n"
        f"blocks = {args.blocks}\n"
        f"se_enabled = {'true' if args.se else 'false'}\n"
        "se_reduction = 16\n"
        f"segment_length = {n}\n"
        f"batch_size = 32\nepochs = {args.epochs}\nlr = 0.0001\nseed = 0\n"
    )
    sh("train", "--config", run_cfg, "--features", feats,
       "--protocol", root / "train.txt", "--dev-protocol", root / "dev.txt",
       "--gmm", out / "bona.gmm", "--gmm2", out / "spoof.gmm",
       "--stats", out / "bona.stats", "--stats2", out / "spoof.stats",
       "--out", out / "ckpt")

    sh("score", "--model", out / "ckpt" / "model.lgpn", "--features", feats,
       "--protocol", root / "eval.txt",
       "--gmm", out / "bona.gmm", "--gmm2", out / "spoof.gmm",
       "--stats", out / "bona.stats", "--stats2", out / "spoof.stats",
       "--out", out / "net.eval")
    sh("evaluate", "--scores", out / "net.eval", "--protocol", root / "eval.txt",
       "--tdcf-config", TDCF_CONFIG, "--out", out / "metrics.txt")
    print(f"metrics written to {out / 'metrics.txt'}; its min-tDCF uses the placeholder ASV "
          f"operating point of {TDCF_CONFIG.name}, not the organisers' ASV scores, so it does "
          "not compare with published min t-DCF")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus-root", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--pa", action="store_true",
                        help="physical-access segment length (N=1000)")
    parser.add_argument("--se", action="store_true",
                        help="squeeze-excitation residual blocks")
    # published configuration by default; override to smoke-test the wiring
    parser.add_argument("--mixtures", type=int, default=512)
    parser.add_argument("--channels", type=int, default=512)
    parser.add_argument("--blocks", type=int, default=6)
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--segment-length", type=int, default=0,
                        help="override N (default 400, or 1000 with --pa)")
    run(parser.parse_args())
