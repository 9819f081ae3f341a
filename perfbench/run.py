"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload spec-sweep --seed 1 --seconds 30 --trace 0

Set-up (import ``repro``, resolve the programs) runs ``SETUP_REPEATS``
times: once in this process and the rest in fresh processes, run one
after another.  Rounds then repeat for ``--seconds``: with ``--trace 0``
every round is untraced and the end-to-end metrics are printed; with
``--trace 1`` untraced and traced rounds alternate and the per-layer
metrics of the median traced round are printed, preceded by one row of
stage self-times per program.  The last stdout line is the JSON result.
Host times are scaled to a reference host speed (see ``bench.probe``);
the run record keeps the raw ones.

A run record (host, versions, ``REPRO_*`` environment, metrics) is
written under ``.bench_runs/`` in the checkout; ``compare.py`` compares
records.  ``--inject PROGRAM=corrupt-output`` corrupts that program's
emulated output through ``repro.harness.faults.FaultInjector`` to show
the checks catch it.

Exit codes: 0 when every operation passed its checks, 1 when any
failed, 2 on a usage error or when ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402

RECORD_DIR = bench.ROOT / ".bench_runs"

#: The only ``FaultInjector`` mode the benchmark plants.
INJECT_MODE = "corrupt-output"


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", action="append", default=[],
                        metavar="PROGRAM=corrupt-output")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for entry in args.inject:
        if entry.partition("=")[2] != INJECT_MODE:
            parser.error(f"--inject {entry!r}: mode must be {INJECT_MODE}")
    return args


def _fresh_setup(workload: str, seed: int) -> Dict[str, float]:
    """Time one set-up in a new interpreter and return its timings."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_rev() -> str:
    """The checkout's commit, or ``unknown`` outside git or without it.

    Only a checkout with its own ``.git`` (a directory, or a file in a
    worktree or submodule) is asked, so git never reports an enclosing
    repository's commit.
    """
    if not (bench.ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def run_record(args, programs, rounds, loadavg: float) -> Dict:
    """Host, versions and environment a run was measured under."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "kernel_built": any(r.kernel_built for rnd in rounds
                            for r in rnd.rows),
        "loadavg_start": loadavg,
        "git_rev": _git_rev(),
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        "scale": bench.SCALES[args.workload],
        "programs": [p.name for p in programs],
    }


def _program_rows(rnd) -> List[str]:
    """One line per program: self time of each stage, in milliseconds."""
    times = bench.layer_self_times(rnd)
    lines = ["program " + " ".join(f"{s}_ms" for s in bench.STAGES)]
    for row in rnd.rows:
        t = times.get(row.name, {})
        lines.append(row.name + " " + " ".join(
            f"{t.get(bench.LAYER_OF_STAGE[s], 0.0) * rnd.speed * 1e3:.3f}"
            for s in bench.STAGES))
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    if not (bench.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {bench.SRC}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(bench.setup(args.workload, args.seed)[1]))
        return 0

    loadavg = os.getloadavg()[0]
    programs, setup_times = bench.setup(args.workload, args.seed)
    setups = [setup_times]
    for _ in range(bench.SETUP_REPEATS - 1):
        setups.append(_fresh_setup(args.workload, args.seed))

    injector = None
    if args.inject:
        from repro.harness.faults import FaultInjector

        injector = FaultInjector.parse(args.inject)
    configs = bench.sweep(args.workload)
    golden = bench.load_golden(args.workload)
    kinds = (False, True) if args.trace else (False,)
    rounds = []
    started = perf_counter()
    while True:
        t0 = perf_counter()
        for traced in kinds:
            rounds.append(bench.run_round(programs, configs, golden,
                                          traced, injector))
        elapsed = perf_counter() - started
        if elapsed + (perf_counter() - t0) > args.seconds:
            break

    untraced = [r for r in rounds if not r.traced]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        traced = sorted((r for r in rounds if r.traced),
                        key=lambda r: r.wall * r.speed)
        rep = traced[(len(traced) - 1) // 2]
        metrics = bench.per_layer(rep, untraced, setup_times)
        units = dict(bench.PER_LAYER)
        for line in _program_rows(rep):
            print(line)
    else:
        metrics = bench.end_to_end(untraced, setups, peak_rss_mb)
        units = dict(bench.END_TO_END)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    errors = sorted({e for r in rounds for e in r.errors})
    for err in errors:
        print(f"perfbench: FAILED {err}", file=sys.stderr)

    record = run_record(args, programs, rounds, loadavg)
    record.update(attempted=attempted, failed=failed, errors=errors,
                  setups=setups, metrics=metrics, rounds=[
                      {"traced": r.traced, "wall": r.wall, "speed": r.speed,
                       "programs": bench.layer_self_times(r)}
                      for r in rounds])
    RECORD_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RECORD_DIR / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                         f"-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
