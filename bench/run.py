#!/usr/bin/env python3
"""lgpnet benchmark: seeded workloads run end to end through the CLI.

    python3 bench/run.py --workload train_paper --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Inputs are generated from ``--seed`` under ``.bench_work/``,
set-up is repeated five times (``setup_s`` is the median), then passes of
the workload's CLI commands repeat until ``--seconds`` have passed, and the
outputs are checked.  With ``--trace 0`` the result carries the end-to-end
metrics; with ``--trace 1`` passes alternate between untraced and traced
and the result carries the per-layer metrics (see bench/README.md).

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas_threads() -> int:
    """At most nproc (and at most 2) BLAS threads; must run before numpy loads."""
    threads = max(1, min(2, len(os.sched_getaffinity(0))))
    for key in BLAS_ENV:
        os.environ[key] = str(threads)
    return threads


def _tree_digest(path: Path) -> dict[str, str]:
    return {str(f.relative_to(path)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.rglob("*")) if f.is_file()}


def _blas_roof_gflops() -> float:
    """Float64 matmul rate on this machine, best of 10 after warm-up."""
    import numpy as np

    n = 1024
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    for _ in range(3):
        a @ b
    best = float("inf")
    for _ in range(10):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n ** 3 / best / 1e9


def _provenance(threads: int, roof: float) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "lgpnet").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "machine.blas_roof_gflops": roof,
    }


def _run_cli(cli_main, argv: list[str], log) -> int:
    """One in-process CLI call; its stdout/stderr go to the pass log."""
    with redirect_stdout(log), redirect_stderr(log):
        try:
            return cli_main(argv)
        except Exception:          # the benchmark must report, not crash
            traceback.print_exc(file=log)
            return -1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lgpnet" / "__init__.py").is_file():
        print(f"error: no lgpnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = _pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    import lgpnet
    from lgpnet.cli import main as cli_main

    if Path(lgpnet.__file__).resolve().parent != ROOT / "src" / "lgpnet":
        print(f"error: imported lgpnet from {lgpnet.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    import tracing
    from workloads import WORKLOADS, Checks, PassRecord

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    input_dir = work / "inputs"
    checks = Checks()

    # -- set-up: generate the inputs several times, report the median ---------
    setup_times, digests = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(input_dir, ignore_errors=True)
        input_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        info = WORKLOADS[args.workload].generate(input_dir, args.seed)
        setup_times.append(time.perf_counter() - t0)
        digests.append(_tree_digest(input_dir))
    checks.check("same seed gives the same inputs", all(d == digests[0] for d in digests))
    roof = _blas_roof_gflops()
    workload = WORKLOADS[args.workload](ROOT, input_dir, info, args.seed)

    # -- timed passes ---------------------------------------------------------
    # Two passes at least, so the median is never one sample; a traced run
    # makes untraced, traced, untraced at least.
    min_passes = 3 if args.trace else 2
    recorder = tracing.Recorder()
    passes: list[PassRecord] = []
    start = time.perf_counter()
    with open(work / "cli.log", "w", encoding="utf-8") as log:
        while True:
            index = len(passes)
            record = PassRecord(index, bool(args.trace) and index % 2 == 1,
                                work / "passes" / f"pass{index}")
            workload.prepare(record.out)
            workload.begin_pass(record)
            recorder.run = index
            if record.traced:
                recorder.install()
            try:
                for name, cli_argv in workload.commands(record.out):
                    print(f"## pass {index} lgpnet {' '.join(cli_argv)}", file=log)
                    t0 = time.perf_counter()
                    if record.traced:
                        code = recorder.span(f"cli.{name}", _run_cli, cli_main, cli_argv, log)
                    else:
                        code = _run_cli(cli_main, cli_argv, log)
                    record.seconds[name] = record.seconds.get(name, 0.0) + time.perf_counter() - t0
                    record.codes.append((name, code))
            finally:
                recorder.restore()
            passes.append(record)
            if time.perf_counter() - start >= args.seconds and len(passes) >= min_passes:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks ---------------------------------------------------------------
    for p in passes:
        for name, code in p.codes:
            checks.check(f"pass {p.index}: lgpnet {name} exits 0", code == 0, f"exit {code}")
    reference = _tree_digest(passes[0].out)
    for p in passes[1:]:
        what = "traced pass writes the same bytes as the untraced" if p.traced \
            else "repeated pass writes the same bytes"
        checks.check(f"pass {p.index}: {what}", _tree_digest(p.out) == reference)
    try:
        workload.check(passes, checks)
    except Exception as exc:       # a crashing check is a failed check
        checks.check(f"{args.workload} output checks ran", False, repr(exc))

    # -- report ---------------------------------------------------------------
    provenance = _provenance(threads, roof)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    timed = [p for p in passes if not p.traced]
    rate = statistics.median(workload.items() / p.wall for p in timed)
    setup_s = statistics.median(setup_times)
    try:
        for name, value, unit, how in workload.summary(timed):
            print(f"metric {name} {value!r} {unit} ({how})")
    except Exception as exc:       # outputs missing: already a failed check
        checks.check(f"{args.workload} summary metrics computed", False, repr(exc))
    for name in filter(None, (workload.throughput_name, "throughput_per_s")):
        print(f"metric {name} {rate!r} 1/s "
              f"(per second: {workload.item}, median of {len(timed)} untraced passes)")
    print(f"metric peak_rss_mb {peak_rss_mb!r} MB (ru_maxrss of this process)")
    print(f"metric setup_s {setup_s!r} s (median of {SETUP_REPEATS} set-ups)")
    print("passes " + " ".join(f"{p.wall:.3f}{'T' if p.traced else ''}" for p in passes)
          + " s (T: traced)")
    if args.trace:
        traced = [p for p in passes if p.traced]
        per_pass = [tracing.layer_metrics(recorder.spans, p.index, roof) for p in traced]
        metrics = {name: (statistics.median(m[name] for m in per_pass), tracing.unit(name))
                   for name in per_pass[0]}
        metrics["machine.blas_roof_gflops"] = (roof, "GFLOP/s")
        # pass 0 pays the process's first-touch costs; compare with later passes
        overhead = (statistics.median(p.wall for p in traced)
                    / statistics.median(p.wall for p in timed[1:] or timed) - 1.0)
        metrics["trace.overhead_share"] = (overhead, "share")
        recorder.write(work / "spans.jsonl")
    else:
        metrics = {
            "throughput_per_s": (rate, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
    failed = len(checks.failures)
    print(f"metric ops_failed_share {failed / checks.attempted!r} share "
          f"({failed} failed of {checks.attempted} attempted: CLI exits and output checks)")
    for failure in checks.failures:
        print(f"FAILED {failure}")

    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({"provenance": provenance, **result}, indent=1),
                                      encoding="utf-8")
    shutil.rmtree(input_dir, ignore_errors=True)
    shutil.rmtree(work / "passes", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
