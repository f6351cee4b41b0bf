#!/usr/bin/env python3
"""Digest of every file under a directory, for byte-identity checks.

Prints one ``sha256  relative/path`` line per file under DIR, sorted by
path.  ``*.list`` files are skipped: they hold absolute paths, so they
differ between two output directories of the same run.  Two trees compare
with ``diff``:

    python scripts/tree_digest.py /tmp/before > before.txt
    python scripts/tree_digest.py /tmp/after > after.txt
    diff before.txt after.txt
"""

import argparse
import hashlib
from pathlib import Path


def tree_digest(root: Path) -> list[str]:
    files = sorted(p for p in root.rglob("*") if p.is_file() and p.suffix != ".list")
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}"
            for p in files]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path)
    args = parser.parse_args(argv)
    if not args.dir.is_dir():
        parser.error(f"{args.dir} is not a directory")
    for line in tree_digest(args.dir):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
