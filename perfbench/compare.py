"""Compare two sets of benchmark run records, metric by metric.

Usage (from the root of a checkout)::

    python3 perfbench/compare.py --base .bench_runs/A*.json --head .bench_runs/B*.json

Each side's value of a metric is its median over that side's records.
A metric whose head median is worse than the base median by more than
its ``bound`` in ``BENCHMARK.json`` is reported as a regression.  The
exact metrics (``EXACT``) are compared seed by seed instead, over the
seeds both sides ran, and any change at all is a regression: a
speed-only change leaves them as they were.  A head record with failed
operations is a regression whatever its metrics say.

Records are only comparable when they were measured the same way: same
workload, scale and trace mode, same Python and numpy versions, same
CPU count and the same ``REPRO_*`` environment.  Otherwise an
environment knob or a version change, not the code, could decide which
path was measured, so the comparison is refused.  A base record with
failed operations is no baseline, so that is refused too.

Exit codes: 0 no regression, 1 a regression, 2 records not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402

#: Record fields that must agree across every record compared.
SAME = ("workload", "scale", "trace", "python", "numpy", "nproc",
        "repro_env")

#: Metrics that repeat exactly on correct code: any change is flagged.
EXACT = ("ok_frac", "speedup_geomean")


def _load(paths):
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def incompatibilities(records) -> list:
    """Fields whose values differ across *records*, with the values seen."""
    out = []
    for key in SAME:
        seen = {json.dumps(r.get(key), sort_keys=True) for r in records}
        if len(seen) > 1:
            out.append(f"{key}: {' vs '.join(sorted(seen))}")
    return out


def _exact_changes(name, base, head) -> list:
    """Seeds both sides ran on which metric *name* differs."""
    by_seed = {r.get("seed"): r["metrics"][name] for r in base}
    return sorted({r.get("seed") for r in head
                   if r.get("seed") in by_seed
                   and r["metrics"][name] != by_seed[r.get("seed")]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, head = _load(args.base), _load(args.head)
    problems = incompatibilities(base + head)
    if problems:
        print("refusing to compare runs measured differently:",
              file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        return 2
    if any(r.get("failed") for r in base):
        print("refusing to compare: a base record has failed operations",
              file=sys.stderr)
        return 2
    regressed = False
    for r in head:
        if r.get("failed"):
            print(f"head seed {r.get('seed')}: {r['failed']} of "
                  f"{r.get('attempted')} operations FAILED")
            regressed = True
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if base[0]["trace"] else "end_to_end"]
    print(f"{'metric':<40} {'base':>14} {'head':>14} {'change':>8} bound")
    for m in metrics:
        b = statistics.median(r["metrics"][m["name"]] for r in base)
        h = statistics.median(r["metrics"][m["name"]] for r in head)
        change = (h - b) / b if b else 0.0
        worse = -change if m["better"] == "higher" else change
        bound = m.get("bound")
        flag = ""
        if m["name"] in EXACT:
            bound = "exact"
            if _exact_changes(m["name"], base, head):
                flag, regressed = "  REGRESSION", True
        elif bound is not None and worse > bound:
            flag, regressed = "  REGRESSION", True
        print(f"{m['name']:<40} {b:>14.6g} {h:>14.6g} {change:>+8.1%} "
              f"{bound if bound is not None else '-'}{flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
