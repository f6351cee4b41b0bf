#!/usr/bin/env python3
"""Size of the package: line count of ``src/``, file by file, and its settable values.

A settable value is anything a caller can set without editing the code:
an argparse option (one per ``add_argument`` call), a dataclass field, or
a function parameter with a default.  The count is an AST walk over every
``.py`` file under ``src/``, so two trees compare with one command:

    python scripts/src_budget.py            # this checkout
    python scripts/src_budget.py OTHER/src  # another tree
"""

import argparse
import ast
import sys
from collections import Counter
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> Counter:
    counts = Counter({"options": 0, "fields": 0, "defaulted parameters": 0})
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            counts["options"] += 1
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            counts["fields"] += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            counts["defaulted parameters"] += (
                len(args.defaults) + sum(d is not None for d in args.kw_defaults))
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=Path(__file__).resolve().parent.parent / "src")
    root = Path(parser.parse_args(argv).src)
    files = sorted(root.rglob("*.py"))
    lines, totals = 0, Counter()
    for path in files:
        text = path.read_text(encoding="utf-8")
        count = len(text.splitlines())
        print(f"{count:6,}  {path.relative_to(root)}")
        lines += count
        totals.update(settable_values(ast.parse(text, str(path))))
    print(f"lines {lines:,} in {len(files)} files")
    detail = ", ".join(f"{key} {value}" for key, value in totals.items())
    print(f"settable values {sum(totals.values())} ({detail})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
