#!/usr/bin/env python3
"""Largest difference between two score files of the same utterances.

Prints the number of ids, how many of their scores are bit-identical, and
the largest absolute and relative difference.  Exits 1 if the two files do
not hold the same ids, and 2 if one cannot be read:

    python scripts/score_drift.py before/net.eval after/net.eval
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lgpnet.evaluation import read_scores


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    try:
        a, b = read_scores(args.a), read_scores(args.b)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if set(a) != set(b):
        print(f"ids differ: {len(set(a) ^ set(b))} are in one file only", file=sys.stderr)
        return 1
    absolute = {u: abs(a[u] - b[u]) for u in a}
    relative = [d / max(abs(a[u]), abs(b[u])) for u, d in absolute.items() if d]
    print(f"ids {len(a)}")
    print(f"identical {sum(a[u] == b[u] for u in a)}")
    print(f"max_abs {max(absolute.values(), default=0.0):.3g}")
    print(f"max_rel {max(relative, default=0.0):.3g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
