"""Regenerate ``golden.json``: SimStats digests from the seed oracle.

Usage (from the root of a checkout)::

    python3 perfbench/golden.py [--workload NAME ...]

For every program a workload can draw (so every seed's draw is covered)
and every config of its sweep, the program is compiled, emulated and
checked against ``Workload.expected_output``, and each config is
simulated with ``repro.sim._pipeline_reference.reference_run``, the
retained seed implementation of the timing simulator.  The digests of
those ``SimStats`` are what every benchmark run compares against.  The
fast sweep path is replayed too and any disagreement is reported: it is
a simulator bug, and the run exits 1 after writing the oracle's digests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402


def golden_for(workload: str) -> tuple:
    """``(programs -> {tag: digest}, fast-path mismatches)`` of a workload."""
    from repro.compiler.driver import CompileOptions, compile_source
    from repro.compiler.profile_feedback import profile_overrides
    from repro.profiling.address_profile import profile_trace
    from repro.sim._pipeline_reference import reference_run
    from repro.sim.executor import Executor
    from repro.sim.machine import MachineConfig
    from repro.sim.pipeline import TimingSimulator
    from repro.sim.precompute import simulate_many
    from repro.workloads import get_workload

    machine = MachineConfig()
    configs = bench.sweep(workload)
    programs = {}
    mismatches = []
    for name in bench.pool(workload):
        started = perf_counter()
        wl = get_workload(name)
        scale = max(1, int(round(wl.default_scale * bench.SCALES[workload])))
        result = compile_source(wl.source(scale), CompileOptions(verify=True))
        ex = Executor(result.program).run()
        if ex.output != wl.expected_output(scale):
            raise SystemExit(f"{name}: emulated output differs from the "
                             "reference mirror")
        override = profile_overrides(
            result.program, ex.trace,
            predictor=profile_trace(result.program, ex.trace).predictor,
        )
        overrides = [override if c.profile_override else None
                     for c in configs]
        digests = {}
        for cfg, ov in zip(configs, overrides):
            sim = TimingSimulator(
                ex.trace, machine.with_earlygen(cfg.earlygen), ov
            )
            digests[cfg.tag] = bench.digest(reference_run(sim))
        fast = simulate_many(ex.trace, [c.earlygen for c in configs],
                             machine=machine, overrides=overrides)
        for cfg, st in zip(configs, fast):
            if bench.digest(st) != digests[cfg.tag]:
                mismatches.append(f"{workload} {name} [{cfg.tag}]")
        programs[name] = digests
        print(f"{workload} {name}: {len(ex.trace)} insts, "
              f"{len(configs)} configs, {perf_counter() - started:.2f}s",
              file=sys.stderr)
    return programs, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=bench.WORKLOADS,
                        help="regenerate only these (default: all)")
    args = parser.parse_args(argv)
    bench.use_src()
    try:
        with bench.GOLDEN_PATH.open(encoding="utf-8") as fh:
            golden = json.load(fh)
    except FileNotFoundError:
        golden = {"workloads": {}}
    golden["digest"] = ("sha256 of the sorted-key JSON of SimStats fields "
                        "except timeline, first 20 hex digits")
    all_mismatches = []
    for workload in args.workload or bench.WORKLOADS:
        programs, mismatches = golden_for(workload)
        all_mismatches += mismatches
        golden["workloads"][workload] = {
            "scale": bench.SCALES[workload],
            "programs": programs,
        }
    bench.GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    for line in all_mismatches:
        print(f"fast path differs from reference_run: {line}",
              file=sys.stderr)
    return 1 if all_mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
