#!/usr/bin/env python3
"""Conv work of ``lgpnet score``'s ScoringPlan, utterance by utterance.

Scores every utterance of a protocol with the checkpoint's plan, as
``lgpnet score`` does, and prints one line per utterance: its frames T, its
overlap segments S, the conv columns and ``gutter_conv`` calls its paths
ran, and the milliseconds it took; then the totals.  The calls are counted
by wrapping ``lgpnet.model.gutter_conv`` in this process, so the plan runs
unchanged:

    python scripts/plan_work.py ckpt/model.lgpn data/feats data/eval.txt \\
        --gmm pooled.gmm --stats pooled.stats
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lgpnet import model, tensorio
from lgpnet.evaluation import read_protocol
from lgpnet.frontend import load_features
from lgpnet.gmm import Gmm
from lgpnet.lgp import LgpNormStats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("model", type=Path)
    parser.add_argument("features", type=Path)
    parser.add_argument("protocol", type=Path)
    parser.add_argument("--gmm", required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--gmm2")
    parser.add_argument("--stats2")
    args = parser.parse_args(argv)
    gmms = [Gmm.load(f) for f in (args.gmm, args.gmm2) if f is not None]
    stats = [LgpNormStats.load(f) for f in (args.stats, args.stats2) if f is not None]
    plan = model.ScoringPlan.from_tensors(tensorio.load_tensors(args.model), gmms, stats)
    n = plan.cfg.input_length
    work = {"columns": 0, "calls": 0}
    conv = model.gutter_conv

    def counted(xbuf, taps):
        work["columns"] += xbuf.shape[1] * xbuf.shape[2]
        work["calls"] += 1
        return conv(xbuf, taps)

    model.gutter_conv = counted
    line = "{:<24} {:>7} {:>4} {:>10} {:>6} {:>9}"
    print(line.format("utterance", "T", "S", "columns", "calls", "ms"))
    rows = []
    for utt in read_protocol(args.protocol):
        feats = load_features(args.features / f"{utt}.lgpf")
        work.update(columns=0, calls=0)
        start = time.perf_counter()
        plan.score_utterance(feats)
        ms = 1e3 * (time.perf_counter() - start)
        t = len(feats)
        rows.append((t, 2 * -(-t // n) - 1, work["columns"], work["calls"], ms))
        print(line.format(utt, *rows[-1][:4], f"{ms:.1f}"))
    totals = [sum(row[i] for row in rows) for i in range(5)]
    print(line.format("total", *totals[:4], f"{totals[4]:.1f}"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
