"""Self-tests of the benchmark.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py

The end-to-end tests run the command on gen-compile, the workload with
the shortest rounds, for one second of rounds (about 20 s each, most of
it the five set-ups).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import compare  # noqa: E402

RUN = HERE / "run.py"
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=bench.ROOT):
    proc = subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


def _gen(seed, seconds="1", trace="0", *extra):
    return _run("--workload", bench.GEN, "--seed", str(seed),
                "--seconds", seconds, "--trace", trace, *extra)


@pytest.fixture(scope="module")
def gen_setup():
    bench.use_src()
    programs, times = bench.setup(bench.GEN, 1)
    configs = bench.sweep(bench.GEN)
    return programs, times, configs, bench.load_golden(bench.GEN)


def test_declared_metrics_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        bench.PER_LAYER)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc, result = _gen(1, "1", trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {n: m["unit"] for n, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[key]}
    if trace == "1":
        rows = proc.stdout.strip().splitlines()[1:len(bench.GEN_FINGERPRINTS)
                                                + 1]
        assert sorted(r.split()[0] for r in rows) == sorted(
            bench.draw(bench.GEN, 1))


def test_self_times_partition_the_traced_round(gen_setup):
    programs, times, configs, golden = gen_setup
    untraced = bench.run_round(programs, configs, golden)
    traced = bench.run_round(programs, configs, golden, traced=True)
    m = bench.per_layer(traced, [untraced], times)
    layers = sum(m[name] for name in bench.LAYER_OF_STAGE.values())
    assert math.isclose(layers + m["trace.unattributed_s"], m["trace.wall_s"],
                        abs_tol=1e-9)
    assert 0 <= m["trace.unattributed_s"] < 0.05 * m["trace.wall_s"]
    parts = (m["compile.frontend_s"] + m["compile.verify_s"]
             + m["compile.other_s"]
             + sum(m[f"compile.pass.{p}_s"] for p in bench.PASSES))
    assert math.isclose(parts, m["compile.s"], rel_tol=1e-9)
    rows = bench.layer_self_times(traced)
    assert math.isclose(sum(t["compile.s"] for t in rows.values())
                        * traced.speed, m["compile.s"], rel_tol=1e-9)
    assert m["compile.verify_calls"] > 0
    assert m["compile.pass.inline_functions_calls"] == len(programs)


def test_same_seed_same_draw_and_exact_metrics(gen_setup):
    programs, times, configs, golden = gen_setup
    assert bench.draw(bench.GEN, 1) == [p.name for p in programs]
    assert bench.draw(bench.GEN, 2) != bench.draw(bench.GEN, 1)
    exact = ["compile.static_insts", "compile.ld_p", "emulate.dyn_insts",
             "sim.insts", "model.ipc", "model.pred_success_rate",
             "compile.pass.constant_propagation_changed"]
    runs = []
    for _ in range(2):
        rnd = bench.run_round(programs, configs, golden, traced=True)
        assert rnd.failed == 0, rnd.errors
        m = bench.per_layer(rnd, [rnd], times)
        runs.append([bench.speedup_geomean(rnd)] + [m[k] for k in exact])
    assert runs[0] == runs[1]


def test_wrong_golden_digest_fails_every_operation(gen_setup):
    programs, _, configs, _ = gen_setup
    rnd = bench.run_round(programs[:1], configs, {})
    assert rnd.attempted == len(configs)
    assert rnd.failed == len(configs)


def test_corrupt_output_fails_the_command():
    victim = bench.draw(bench.GEN, 3)[0]
    proc, result = _gen(3, "1", "0", "--inject", f"{victim}=corrupt-output")
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert victim in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", bench.SPEC_SWEEP, "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _record(seed=1, failed=0, **metrics):
    values = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    values.update(metrics)
    return {"workload": bench.GEN, "scale": 0.1, "trace": 0,
            "python": "3.11.7", "numpy": "2.0", "nproc": 2,
            "repro_env": {}, "seed": seed, "attempted": 100,
            "failed": failed, "metrics": values}


def _compare(tmp_path, base, head):
    paths = {}
    for side, recs in (("base", base), ("head", head)):
        paths[side] = []
        for i, rec in enumerate(recs):
            path = tmp_path / f"{side}{i}.json"
            path.write_text(json.dumps(rec))
            paths[side].append(str(path))
    return compare.main(["--base", *paths["base"], "--head", *paths["head"]])


def test_compare_refuses_different_environments(tmp_path):
    base = _record()
    head = dict(base, repro_env={"REPRO_DISABLE_KERNEL": "1"})
    assert _compare(tmp_path, [base], [head]) == 2
    assert compare.incompatibilities([base, dict(base, numpy="1.26")])


def test_compare_gates_failures_and_exact_metrics(tmp_path):
    assert _compare(tmp_path, [_record()], [_record(wall_s=1.1)]) == 0
    assert _compare(tmp_path, [_record()], [_record(wall_s=1.3)]) == 1
    # Failed operations: a broken head regresses, a broken base is no base.
    assert _compare(tmp_path, [_record()], [_record(failed=1)]) == 1
    assert _compare(tmp_path, [_record(failed=1)], [_record()]) == 2
    # Exact metrics: any change on a shared seed, even within the bound.
    assert _compare(tmp_path, [_record()],
                    [_record(speedup_geomean=1.01)]) == 1
    assert _compare(tmp_path, [_record()],
                    [_record(speedup_geomean=1.0 + 1e-12)]) == 1
    assert _compare(tmp_path, [_record(1), _record(2, ok_frac=0.5)],
                    [_record(2, ok_frac=0.5), _record(1)]) == 0
