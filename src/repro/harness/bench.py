"""Benchmark trajectory harness: time the pipeline stages per workload.

Every run times the four stages of the reproduction pipeline —
compile, emulate, address-profile, and the full set of independent
timing-simulator replays a workload's row fragments need (see
:func:`repro.harness.experiments.sim_requests`) — and writes a
``BENCH_<timestamp>.json`` snapshot so the performance trajectory of the
repo is tracked from PR to PR.

Usage::

    python -m repro.harness.bench [--scale 0.05] [--suite all|spec|media]
                                  [--output FILE] [--label TEXT]
                                  [--baseline FILE]
                                  [--check FILE [--max-regression 0.30]]

* ``--baseline`` compares against a previously recorded snapshot and
  reports the speedup (it defaults to ``BENCH_baseline.json`` in the
  current directory when that file exists).
* ``--check`` turns the comparison into a gate: the run exits 2 when
  aggregate simulator throughput (simulated instructions per second of
  ``sim_s``) regresses more than ``--max-regression`` (default 30%)
  below the recorded snapshot.  CI uses this against the committed
  snapshot.

The recorded metrics:

==========================  =============================================
``wall_s``                  whole-workload wall time (all stages)
``compile_s``               mini-C -> classified machine code
``emulate_s``               functional emulation producing the trace
``profile_s``               unbounded-predictor address profiling
``precompute_s``            one-time config-invariant stream construction
                            (see :mod:`repro.sim.precompute`)
``sim_s``                   all timing-simulator replays, summed
``sweep_s``                 ``precompute_s + sim_s``: everything the
                            config sweep costs
``sim_runs``                number of independent replays (incl. baseline)
``sim_instructions``        dynamic instructions replayed across all runs
``sims_per_sec``            ``sim_runs / sim_s``
``sim_instructions_per_sec``  ``sim_instructions / sim_s``
==========================  =============================================

The rates are computed over the whole of ``sim_s``: no sub-stage is
ever subtracted from a rate's denominator.  Schema 4 snapshots computed
them over ``replay_s``, a part of ``sim_s`` that left out the array
replay's shared scheduling stages, which hid where the time went.
:func:`compare_snapshots` therefore recomputes every snapshot's
throughput from its ``sim_instructions`` and ``sim_s`` totals instead
of trusting the stored rate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro import obs
from repro.compiler.driver import compile_source
from repro.compiler.profile_feedback import profile_overrides
from repro.harness.experiments import eg_tag, sim_requests
from repro.profiling.address_profile import profile_trace
from repro.sim.executor import Executor
from repro.sim.machine import BASELINE, MachineConfig
from repro.sim.precompute import simulate_many, warm_precompute
from repro.workloads import get_workload, workload_names

#: Version stamp of the snapshot JSON schema.  2: added the
#: ``precompute_s`` stage (shared stream construction split out of
#: ``sim_s``).  3 and 4: added array-replay stage columns and computed
#: the rates over ``replay_s``, a part of ``sim_s``.  5: dropped those
#: columns, added ``sweep_s``, and computes the rates over all of
#: ``sim_s``.
BENCH_SCHEMA = 5

#: Snapshot compared against by default when it exists in the cwd.
DEFAULT_BASELINE = "BENCH_baseline.json"

_SUITES = {
    "all": ("spec", "mediabench"),
    "spec": ("spec",),
    "media": ("mediabench",),
}


def _rate(numerator: float, denominator: float, ndigits: int) -> float:
    """``numerator / denominator`` rounded, or 0.0 for a zero/negative
    denominator.

    Stage durations come from ``perf_counter`` differences and genuinely
    reach 0.0 on coarse clocks or trivially small scales; a rate computed
    from them must degrade to 0.0 instead of raising
    ``ZeroDivisionError`` mid-snapshot.
    """
    if denominator <= 0:
        return 0.0
    return round(numerator / denominator, ndigits)


def bench_workload(
    name: str, scale: float, machine: Optional[MachineConfig] = None
) -> Dict:
    """Time one workload's compile/emulate/profile/simulate stages."""
    if machine is None:
        machine = MachineConfig()
    workload = get_workload(name)
    scaled = max(1, int(round(workload.default_scale * scale)))
    source = workload.source(scaled)
    tracer = obs.current()

    with tracer.span("bench:workload", workload=name) as wspan:
        started = time.perf_counter()
        with tracer.span("compile", workload=name):
            result = compile_source(source)
        t_compile = time.perf_counter() - started

        t0 = time.perf_counter()
        with tracer.span("emulate", workload=name):
            exec_result = Executor(result.program).run()
        t_emulate = time.perf_counter() - t0
        trace = exec_result.trace

        t0 = time.perf_counter()
        with tracer.span("profile", workload=name):
            profile = profile_trace(result.program, trace)
        t_profile = time.perf_counter() - t0

        requests = sim_requests(workload.suite)
        overrides = None
        if any(req.use_profile_override for req in requests):
            overrides = profile_overrides(
                result.program, trace, predictor=profile.predictor
            )

        configs = [BASELINE] + [req.earlygen for req in requests]
        per_config_overrides = [None] + [
            overrides if req.use_profile_override else None
            for req in requests
        ]
        span_tags = [{"workload": name, "config": "baseline"}] + [
            {"workload": name, "config": eg_tag(req.earlygen, req.cache_key)}
            for req in requests
        ]

        t0 = time.perf_counter()
        with tracer.span("precompute", workload=name):
            pre = warm_precompute(trace, machine, configs, per_config_overrides)
        t_precompute = time.perf_counter() - t0

        t0 = time.perf_counter()
        simulate_many(
            trace, configs, machine=machine,
            overrides=per_config_overrides, span_tags=span_tags,
        )
        sim_runs = len(configs)
        t_sim = time.perf_counter() - t0

        wall = time.perf_counter() - started
        sim_instructions = sim_runs * len(trace)
        wspan.set_counters(
            sim_runs=sim_runs, trace_instructions=len(trace)
        )
    return {
        "suite": workload.suite,
        "wall_s": round(wall, 4),
        "compile_s": round(t_compile, 4),
        "emulate_s": round(t_emulate, 4),
        "profile_s": round(t_profile, 4),
        "precompute_s": round(t_precompute, 4),
        "sim_s": round(t_sim, 4),
        "sweep_s": round(t_precompute + t_sim, 4),
        "sim_runs": sim_runs,
        "trace_instructions": len(trace),
        "sim_instructions": sim_instructions,
        "sims_per_sec": _rate(sim_runs, t_sim, 2),
        "sim_instructions_per_sec": _rate(sim_instructions, t_sim, 1),
    }


def run_bench(
    scale: float,
    suites: tuple,
    label: str = "",
    progress=None,
) -> Dict:
    """Benchmark every workload of *suites*; returns the snapshot dict."""
    names = [n for s in suites for n in workload_names(s)]
    workloads: Dict[str, Dict] = {}
    started = time.perf_counter()
    for i, name in enumerate(names, 1):
        entry = bench_workload(name, scale)
        workloads[name] = entry
        if progress is not None:
            progress(
                f"[{i}/{len(names)}] {name}: {entry['wall_s']:.2f}s wall, "
                f"{entry['sim_s']:.2f}s sim "
                f"({entry['sim_instructions_per_sec']:,.0f} sim inst/s)"
            )
    total_wall = time.perf_counter() - started

    total_sim = sum(w["sim_s"] for w in workloads.values())
    total_pre = sum(w["precompute_s"] for w in workloads.values())
    total_insts = sum(w["sim_instructions"] for w in workloads.values())
    total_runs = sum(w["sim_runs"] for w in workloads.values())
    return {
        "schema": BENCH_SCHEMA,
        "label": label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scale": scale,
        "suites": list(suites),
        "workloads": workloads,
        "totals": {
            "wall_s": round(total_wall, 3),
            "precompute_s": round(total_pre, 3),
            "sim_s": round(total_sim, 3),
            "sweep_s": round(total_pre + total_sim, 3),
            "sim_runs": total_runs,
            "sim_instructions": total_insts,
            "sims_per_sec": _rate(total_runs, total_sim, 2),
            "sim_instructions_per_sec": _rate(total_insts, total_sim, 1),
        },
    }


def sim_throughput(snapshot: Dict) -> float:
    """Simulated instructions per second of the snapshot's whole
    ``sim_s``, recomputed from its totals.

    Never the stored ``sim_instructions_per_sec``: schema-4 snapshots
    stored a rate over ``replay_s``, which left part of ``sim_s`` out
    and so overstated throughput.  0.0 when the
    totals lack either figure.
    """
    totals = snapshot.get("totals", {})
    return _rate(totals.get("sim_instructions") or 0,
                 totals.get("sim_s") or 0.0, 1)


def compare_snapshots(current: Dict, baseline: Dict) -> Dict:
    """Speedup of *current* over *baseline* (matching workloads only)."""
    base_totals = baseline.get("totals", {})
    cur_totals = current.get("totals", {})
    comparison: Dict = {
        "baseline_label": baseline.get("label", ""),
        "baseline_timestamp": baseline.get("timestamp", ""),
        "comparable": (
            baseline.get("scale") == current.get("scale")
            and baseline.get("suites") == current.get("suites")
        ),
    }
    if base_totals.get("wall_s") and cur_totals.get("wall_s"):
        comparison["wall_speedup"] = round(
            base_totals["wall_s"] / cur_totals["wall_s"], 3
        )
    base_tp = sim_throughput(baseline)
    cur_tp = sim_throughput(current)
    if base_tp:
        comparison["sim_throughput_ratio"] = round(cur_tp / base_tp, 3)
    per_workload = {}
    for name, entry in current.get("workloads", {}).items():
        base_entry = baseline.get("workloads", {}).get(name)
        if not base_entry or not entry.get("wall_s"):
            continue
        per_workload[name] = round(
            base_entry["wall_s"] / entry["wall_s"], 3
        )
    comparison["workload_wall_speedups"] = per_workload
    return comparison


def _atomic_write_json(path: Path, payload: Dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the pipeline stages and record a perf snapshot."
    )
    parser.add_argument("--scale", type=float, default=0.05,
                        help="workload scale factor (default 0.05)")
    parser.add_argument("--suite", choices=("all", "spec", "media"),
                        default="all")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="snapshot path (default BENCH_<timestamp>.json)")
    parser.add_argument("--label", default="",
                        help="free-form label recorded in the snapshot")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="snapshot to compare against (default "
                        f"{DEFAULT_BASELINE} when present)")
    parser.add_argument("--check", default=None, metavar="FILE",
                        help="gate: exit 2 if simulator throughput regresses "
                        "more than --max-regression below this snapshot")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="allowed fractional throughput regression for "
                        "--check (default 0.30)")
    parser.add_argument("--trace-out", default=None, metavar="DIR",
                        help="write a JSONL span trace and a run "
                        "manifest.json under DIR")
    args = parser.parse_args(argv)

    say = lambda msg: print(msg, file=sys.stderr, flush=True)  # noqa: E731
    try:
        if args.trace_out is not None:
            obs.configure(args.trace_out, command="bench", worker="main")
        with obs.current().span(
            "run", scale=args.scale, suite=args.suite
        ):
            snapshot = run_bench(
                args.scale, _SUITES[args.suite], label=args.label,
                progress=say,
            )
        if args.trace_out is not None:
            entries = [
                dict(entry, name=name, status="ok")
                for name, entry in snapshot["workloads"].items()
            ]
            manifest = obs.build_manifest(
                command="repro.harness.bench",
                argv=list(argv) if argv is not None else list(sys.argv[1:]),
                scale=args.scale,
                machine=MachineConfig(),
                workloads=entries,
                extra={"suite": args.suite, "totals": snapshot["totals"]},
            )
            obs.write_manifest(args.trace_out, manifest)
    finally:
        if args.trace_out is not None:
            obs.disable()

    baseline_path = args.baseline or args.check
    if baseline_path is None and Path(DEFAULT_BASELINE).exists():
        baseline_path = DEFAULT_BASELINE
    comparison = None
    if baseline_path is not None:
        try:
            with open(baseline_path, "r", encoding="utf-8") as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline {baseline_path!r}: {exc}",
                  file=sys.stderr)
            return 2 if args.check else 0
        comparison = compare_snapshots(snapshot, baseline)
        snapshot["baseline"] = dict(comparison, file=str(baseline_path))

    output = Path(
        args.output
        if args.output is not None
        else f"BENCH_{time.strftime('%Y%m%dT%H%M%S')}.json"
    )
    _atomic_write_json(output, snapshot)

    totals = snapshot["totals"]
    print(f"wall {totals['wall_s']:.2f}s, "
          f"sweep {totals['sweep_s']:.2f}s "
          f"(precompute {totals['precompute_s']:.2f}s + "
          f"sim {totals['sim_s']:.2f}s), "
          f"{totals['sim_runs']} sims, "
          f"{totals['sim_instructions_per_sec']:,.0f} sim inst/s")
    print(f"snapshot written to {output}")
    if comparison is not None:
        ratio = comparison.get("sim_throughput_ratio")
        wall = comparison.get("wall_speedup")
        if ratio is not None:
            print(f"vs {baseline_path}: {ratio:.2f}x sim throughput, "
                  f"{wall if wall is not None else '?'}x wall")

    if args.check is not None:
        ratio = (comparison or {}).get("sim_throughput_ratio")
        if ratio is None:
            print("regression check failed: baseline lacks throughput data",
                  file=sys.stderr)
            return 2
        floor = 1.0 - args.max_regression
        if ratio < floor:
            print(
                f"regression check FAILED: throughput ratio {ratio:.3f} "
                f"below allowed floor {floor:.3f}",
                file=sys.stderr,
            )
            return 2
        print(f"regression check ok ({ratio:.2f}x >= {floor:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
