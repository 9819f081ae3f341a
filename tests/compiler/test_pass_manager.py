"""Change-driven pass manager: the contract it relies on and its skips.

The driver skips a per-function pass whose last run reported "no
change" until some pass changes the function.  That is exact only if
every pass reports "changed" truthfully, so the first test checks the
contract on every pass call over the whole suite.
"""

from __future__ import annotations

import functools

import pytest

import repro.compiler.driver as driver
from repro import obs
from repro.compiler.driver import CompileOptions, _PassManager, compile_source
from repro.compiler.ir import FuncIR
from repro.isa.program import Function, Label
from repro.workloads.registry import get_workload, workload_names

#: Every per-function pass the driver schedules.
FUNCTION_PASSES = (
    "simplify_control_flow",
    "promote_locals",
    "constant_propagation",
    "copy_propagation",
    "coalesce_moves",
    "redundant_load_elimination",
    "dead_code_elimination",
    "loop_invariant_code_motion",
    "strength_reduction",
)


def _snapshot(fir: FuncIR) -> tuple:
    """Everything a later pass can read of one function, by value."""
    body = tuple(
        ("label", item.name) if isinstance(item, Label) else (
            item.opcode, repr(item.dest), repr(item.srcs), item.target,
            item.lspec,
        )
        for item in fir.func.body
    )
    return (body, fir.next_vreg, fir.local_size, fir.has_calls,
            repr(fir.slots), dict(fir.label_counts))


def test_no_change_report_leaves_the_function_unchanged(monkeypatch):
    calls = {"no_change": 0}
    violations = []

    def checked(fn):
        @functools.wraps(fn)
        def wrapper(fir):
            before = _snapshot(fir)
            changed = fn(fir)
            if not changed:
                calls["no_change"] += 1
                if _snapshot(fir) != before:
                    violations.append((fn.__name__, fir.func.name))
            return changed
        return wrapper

    for name in FUNCTION_PASSES:
        monkeypatch.setattr(driver, name, checked(getattr(driver, name)))
    for name in workload_names():
        source = get_workload(name).source(1)
        for level in (1, 2):
            compile_source(source, opt_level=level)
    assert calls["no_change"] > 1000
    assert violations == []


def _fir(name: str) -> FuncIR:
    return FuncIR(Function(name))


def test_clean_pass_is_skipped_until_another_pass_changes_the_function():
    ran = []

    def quiet(fir):
        ran.append(("quiet", fir.func.name))
        return False

    def noisy(fir):
        ran.append(("noisy", fir.func.name))
        return True

    run = _PassManager(CompileOptions())
    f, g = _fir("f"), _fir("g")
    assert run(quiet, f) is False
    assert run(quiet, f) is False          # clean: skipped
    assert run(quiet, g) is False          # other function: runs
    assert run(noisy, f) is True
    assert run(noisy, f) is True           # a changing pass stays dirty
    assert run(quiet, f) is False          # f changed: runs again
    assert run(quiet, f) is False          # and is clean again
    assert ran == [
        ("quiet", "f"), ("quiet", "g"), ("noisy", "f"), ("noisy", "f"),
        ("quiet", "f"),
    ]
    assert (run.passes_run, run.passes_skipped) == (5, 2)


@pytest.fixture
def tracer(tmp_path):
    obs.configure(tmp_path, command="test")
    try:
        yield tmp_path
    finally:
        obs.disable()


def test_trace_counts_runs_and_skips(tracer):
    from repro.harness.obs_report import read_trace

    # A loop-free function converges before LICM: the post-loop rounds
    # are answered entirely by skips.
    compile_source("int main() { print_int(2 + 3); return 0; }")
    obs.current().close()
    records = read_trace(tracer)
    compile_span = next(r for r in records if r["name"] == "compile")
    passes = [r for r in records if r["name"].startswith("pass:")
              and r["name"][len("pass:"):] in FUNCTION_PASSES]
    skipped = sum(r["counters"]["skipped"] for r in passes)
    counters = compile_span["counters"]
    assert counters["passes_skipped"] == skipped > 0
    assert counters["passes_run"] == len(passes) - skipped
    assert all(r["counters"]["changed"] == 0 for r in passes
               if r["counters"]["skipped"])
