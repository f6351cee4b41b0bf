#!/usr/bin/env python3
"""Lines of ``src/lgpnet`` that tier-1 never runs.

Runs the tier-1 tests (pytest over ``tests/``) in this process under
``sys.settrace`` and ``threading.settrace``, tracing only frames of the
package, and prints each run of executable lines (the lines of the code
objects' ``co_lines``) that nothing reached, as ``file:first-last`` with
the first line's source, leaving out the lines of ``ALLOWED``.  With
``--run`` it traces one script, run through ``runpy`` with its directory
first on ``sys.path``, in place of the tests:

    python scripts/reach.py
    python scripts/reach.py --run bench/run.py --workload baseline --seed 1 --seconds 1

It exits 0 when every line outside ``ALLOWED`` was reached and 1 otherwise,
whatever the tests or the script returned: pytest's summary is printed as
pytest writes it, and no test is deselected.  The tracer allocates only
when a file's set of reached lines grows, which ``tracemalloc`` sees, so a
test that bounds a traced peak may read a little higher under it.
"""

import argparse
import os
import runpy
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lgpnet"

# Lines that no in-process test can run, by file: the console-script
# entry point and the ``python -m`` guard, and a file that shrinks between
# its size being taken and its bytes being read.
ALLOWED = {"cli.py": {342, 346}, "tensorio.py": {91, 118, 119}}


def executable_lines(path: Path) -> set[int]:
    """The lines of every code object compiled from ``path``."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for *_, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced(run) -> dict[str, set[int]]:
    """Call ``run()`` with every thread's frames in the package traced; the
    lines reached, by file name relative to the package."""
    prefix = str(PACKAGE.resolve()) + os.sep
    files: dict[str, set[int] | None] = {}

    def line(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            files[name] = set() if os.path.realpath(name).startswith(prefix) else None
        if files[name] is None:
            return None
        files[name].add(frame.f_lineno)             # the def line, where a call starts
        return line

    threading.settrace(call)
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    reached: dict[str, set[int]] = {}
    for name, lines in files.items():
        if lines is not None:
            key = Path(os.path.realpath(name)).relative_to(PACKAGE.resolve()).as_posix()
            reached.setdefault(key, set()).update(lines)
    return reached


def unreached(reached: dict[str, set[int]]) -> list[tuple[str, int, int]]:
    """Each run of unreached executable lines outside ``ALLOWED``, with no
    reached executable line inside it: (file, first, last)."""
    runs = []
    for path in sorted(PACKAGE.rglob("*.py")):
        key = path.relative_to(PACKAGE).as_posix()
        seen, allowed = reached.get(key, set()), ALLOWED.get(key, set())
        start = last = None
        for n in sorted(executable_lines(path)):
            if n in seen or n in allowed:
                if start is not None:
                    runs.append((key, start, last))
                start = None
            else:
                start, last = start or n, n
        if start is not None:
            runs.append((key, start, last))
    return runs


def run_tests() -> None:
    import pytest

    pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])


def run_script(argv: list[str]) -> None:
    script = Path(argv[0]).resolve()
    sys.argv = [str(script), *argv[1:]]
    sys.path.insert(0, str(script.parent))
    try:
        runpy.run_path(str(script), run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (None, 0):
            print(f"{argv[0]} exited with {exc.code}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run", nargs=argparse.REMAINDER, metavar="SCRIPT ARGS",
                        help="trace this script and its arguments in place of the tests")
    args = parser.parse_args(argv)
    if args.run == []:
        parser.error("--run needs a script")
    reached = traced(lambda: run_script(args.run) if args.run else run_tests())
    runs = unreached(reached)
    for key, first, last in runs:
        text = (PACKAGE / key).read_text(encoding="utf-8").splitlines()[first - 1].strip()
        span = f"{first}" if first == last else f"{first}-{last}"
        print(f"{key}:{span}  {text}")
    print(f"unreached: {len(runs)} runs of lines outside the allowlist")
    return 1 if runs else 0


if __name__ == "__main__":
    raise SystemExit(main())
