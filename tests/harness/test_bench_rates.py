"""Rates and comparisons in the bench harness (regression tests).

``perf_counter`` differences legitimately reach 0.0 on coarse clocks or
trivially small workloads; every derived rate must degrade to 0.0
instead of raising ``ZeroDivisionError`` halfway through a snapshot.
Rates are taken over the whole ``sim_s``, and comparisons recompute
them from the totals rather than trusting a stored rate.
"""

import time

import pytest

from repro.harness.bench import (
    _rate,
    bench_workload,
    compare_snapshots,
    run_bench,
    sim_throughput,
)


def test_rate_guards_zero_and_negative_denominators():
    assert _rate(5, 0, 2) == 0.0
    assert _rate(5, 0.0, 2) == 0.0
    assert _rate(5, -1.0, 2) == 0.0
    assert _rate(5, 2.0, 2) == 2.5
    assert _rate(1, 3.0, 2) == 0.33


def test_bench_workload_survives_frozen_clock(monkeypatch):
    """All stage durations 0.0 → rates 0.0, no ZeroDivisionError."""
    monkeypatch.setattr(time, "perf_counter", lambda: 42.0)
    entry = bench_workload("026.compress", 0.02)
    assert entry["sim_s"] == 0.0
    assert entry["precompute_s"] == 0.0
    assert entry["wall_s"] == 0.0
    assert entry["sweep_s"] == 0.0
    assert entry["sims_per_sec"] == 0.0
    assert entry["sim_instructions_per_sec"] == 0.0
    assert entry["sim_runs"] > 0  # the sims themselves still ran


def test_run_bench_totals_survive_zero_sim_time(monkeypatch):
    from repro.harness import bench

    entry = {
        "suite": "spec", "wall_s": 0.0, "compile_s": 0.0,
        "emulate_s": 0.0, "profile_s": 0.0, "precompute_s": 0.0,
        "sim_s": 0.0, "sweep_s": 0.0, "sim_runs": 3, "trace_instructions": 10,
        "sim_instructions": 30, "sims_per_sec": 0.0,
        "sim_instructions_per_sec": 0.0,
    }
    monkeypatch.setattr(bench, "workload_names", lambda suite: ["fake"])
    monkeypatch.setattr(
        bench, "bench_workload", lambda name, scale: dict(entry)
    )
    snapshot = bench.run_bench(1.0, ("spec",))
    totals = snapshot["totals"]
    assert totals["sim_s"] == 0.0
    assert totals["sweep_s"] == 0.0
    assert totals["sims_per_sec"] == 0.0
    assert totals["sim_instructions_per_sec"] == 0.0


def test_compare_snapshots_survives_zero_wall():
    zeroed = {
        "scale": 1.0, "suites": ["spec"],
        "totals": {"wall_s": 0.0, "sim_instructions_per_sec": 0.0},
        "workloads": {"a": {"wall_s": 0.0}},
    }
    healthy = {
        "scale": 1.0, "suites": ["spec"],
        "totals": {"wall_s": 2.0, "sim_instructions_per_sec": 100.0},
        "workloads": {"a": {"wall_s": 2.0}},
    }
    comparison = compare_snapshots(zeroed, healthy)
    assert "wall_speedup" not in comparison
    assert comparison["workload_wall_speedups"] == {}
    comparison = compare_snapshots(healthy, zeroed)
    assert "sim_throughput_ratio" not in comparison


def test_rates_cover_the_whole_sim_time():
    """Schema 5: both rates divide by all of ``sim_s``."""
    from repro.harness import bench

    assert bench.BENCH_SCHEMA == 5
    entry = bench_workload("026.compress", 0.02)
    for gone in ("replay_kernel_s", "leader_s", "repair_s", "replay_s",
                 "kernel_fallbacks"):
        assert gone not in entry
    assert entry["sweep_s"] == pytest.approx(
        entry["precompute_s"] + entry["sim_s"], abs=2e-4
    )
    # sim_s is stored rounded to 0.1 ms; the rate used the exact time.
    assert entry["sim_instructions_per_sec"] == pytest.approx(
        entry["sim_instructions"] / entry["sim_s"],
        rel=1e-3 + 1e-4 / entry["sim_s"],
    )


def test_compare_recomputes_an_inflated_stored_rate():
    """A schema-4 baseline stored its rate over ``replay_s`` (a part of
    ``sim_s``); the comparison must use ``sim_instructions / sim_s``."""
    inflated = {
        "schema": 4, "scale": 0.05, "suites": ["spec"],
        "totals": {
            "wall_s": 4.0, "sim_s": 2.0, "replay_s": 0.2,
            "sim_instructions": 1000,
            "sim_instructions_per_sec": 5000.0,  # 1000 / replay_s
        },
        "workloads": {},
    }
    current = {
        "schema": 5, "scale": 0.05, "suites": ["spec"],
        "totals": {
            "wall_s": 3.0, "sim_s": 1.0, "sim_instructions": 1000,
            "sim_instructions_per_sec": 1000.0,
        },
        "workloads": {},
    }
    assert sim_throughput(inflated) == 500.0
    comparison = compare_snapshots(current, inflated)
    # 1000/s now against 500/s over the baseline's full sim_s — a 2x
    # gain, not the 0.2x regression the stored rate would report.
    assert comparison["sim_throughput_ratio"] == 2.0


def _snapshot(compile_s: float) -> dict:
    return {
        "schema": 5, "scale": 0.05, "suites": ["spec"],
        "totals": {
            "wall_s": 2.0, "precompute_s": 0.5, "sim_s": 1.0,
            "sweep_s": 1.5, "sim_runs": 10, "sim_instructions": 1000,
            "sim_instructions_per_sec": 1000.0,
        },
        "workloads": {
            "a": {"wall_s": 1.0, "compile_s": compile_s / 2},
            "b": {"wall_s": 1.0, "compile_s": compile_s / 2},
        },
    }


@pytest.mark.parametrize("compile_s, code", [(1.25, 0), (1.35, 2)])
def test_check_gates_summed_compile_time(tmp_path, monkeypatch, capsys,
                                         compile_s, code):
    """``--check`` fails on a >30% compile-time regression even when
    simulator throughput is unchanged."""
    import json

    from repro.harness import bench

    baseline = tmp_path / "base.json"
    baseline.write_text(json.dumps(_snapshot(1.0)))
    monkeypatch.setattr(
        bench, "run_bench", lambda *a, **k: _snapshot(compile_s)
    )
    assert bench.main([
        "--check", str(baseline), "--max-regression", "0.30",
        "--output", str(tmp_path / "cur.json"),
    ]) == code
    err = capsys.readouterr().err
    assert ("compile time ratio" in err) == bool(code)
    assert "throughput ratio" not in err
