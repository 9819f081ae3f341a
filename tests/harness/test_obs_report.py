"""``obs_report.stage_summary`` over synthetic traces.

Spans of one name can nest — the bench's ``compile`` span wraps the
compiler driver's ``compile`` span — and the summary must count that
inclusive time once while reporting each span's self time.
"""

import pytest

from repro.harness.obs_report import (
    PASS_TOTAL,
    pass_summary,
    render,
    replay_paths,
    stage_summary,
)


def _span(span_id, name, dur, parent=None, pid=1):
    return {"kind": "span", "name": name, "dur_s": dur, "pid": pid,
            "span_id": span_id, "parent_id": parent, "ts": 0.0}


def _nested_trace():
    # bench:workload (10) > compile (6) > compile (5) > pass:x (2)
    #                     > sim (3)
    return [
        _span(4, "pass:x", 2.0, parent=3),
        _span(3, "compile", 5.0, parent=2),
        _span(2, "compile", 6.0, parent=1),
        _span(5, "sim", 3.0, parent=1),
        _span(1, "bench:workload", 10.0),
    ]


def test_nested_same_name_spans_count_once():
    rows = {r["stage"]: r for r in stage_summary(_nested_trace())}
    assert rows["compile"]["total_s"] == 6.0
    assert rows["compile"]["count"] == 1
    assert rows["compile"]["max_s"] == 6.0
    # Self time: outer compile 6-5, inner compile 5-2.
    assert rows["compile"]["self_s"] == 4.0
    assert rows["pass:x"]["self_s"] == 2.0
    assert rows["bench:workload"]["self_s"] == 1.0
    # Self times partition the top-level span.
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(10.0)


def test_parents_resolve_within_one_process():
    """Span ids are per-process: a same-id span in another pid is not
    an ancestor."""
    records = _nested_trace() + [
        _span(3, "compile", 7.0, parent=2, pid=2),
        _span(2, "prepare", 8.0, pid=2),
    ]
    rows = {r["stage"]: r for r in stage_summary(records)}
    assert rows["compile"]["total_s"] == 13.0
    assert rows["compile"]["count"] == 2
    assert rows["prepare"]["self_s"] == 1.0


def test_replay_paths_group_by_path():
    events = [
        {"kind": "event", "name": "sim.replay", "tags": {"path": "scalar"}},
        {"kind": "event", "name": "sim.replay", "tags": {"path": "scalar"}},
        {"kind": "event", "name": "sim.replay", "tags": {"path": "memo"}},
        {"kind": "event", "name": "sim.replay",
         "tags": {"path": "inline", "reason": "hw-dual"}},
        {"kind": "event", "name": "sim.replay",
         "tags": {"path": "inline", "reason": "divergence-fallback"}},
    ]
    assert replay_paths(events) == [
        {"path": "inline:divergence-fallback", "runs": 1},
        {"path": "inline:hw-dual", "runs": 1},
        {"path": "memo", "runs": 1},
        {"path": "scalar", "runs": 2},
    ]


def _pass_span(span_id, name, dur, parent, **counters):
    return dict(_span(span_id, name, dur, parent=parent), counters=counters)


def _compile_trace():
    # One compile: constprop runs twice (changes once), then is skipped;
    # dce runs once; the classifier span carries no change flags.
    return [
        _pass_span(2, "pass:constant_propagation", 0.5, 1,
                   changed=1, skipped=0),
        _pass_span(3, "pass:dead_code_elimination", 0.25, 1,
                   changed=0, skipped=0),
        _pass_span(4, "pass:constant_propagation", 0.25, 1,
                   changed=0, skipped=0),
        _pass_span(5, "pass:constant_propagation", 0.0, 1,
                   changed=0, skipped=1),
        _pass_span(6, "pass:classify", 0.125, 1, ld_n=1),
        _pass_span(1, "compile", 2.0, None,
                   passes_run=3, passes_skipped=1),
    ]


def test_pass_summary_counts_runs_skips_and_changes():
    rows = {r["pass"]: r for r in pass_summary(_compile_trace())}
    assert rows["constant_propagation"] == {
        "pass": "constant_propagation", "runs": 2, "skipped": 1,
        "changed": 1, "total_s": 0.75,
    }
    assert rows["dead_code_elimination"]["runs"] == 1
    assert rows["classify"]["skipped"] == 0
    assert rows[PASS_TOTAL] == {"pass": PASS_TOTAL, "runs": 3, "skipped": 1}


def test_report_renders_the_pass_table(tmp_path):
    import json

    with open(tmp_path / "trace-1.jsonl", "w", encoding="utf-8") as fh:
        for rec in _compile_trace():
            fh.write(json.dumps(rec) + "\n")
    out = render(tmp_path)
    assert "Compiler passes (change-driven)" in out
    header = next(line for line in out.splitlines() if "Skipped" in line)
    assert header.split() == ["Pass", "Runs", "Skipped", "Changed", "Total",
                              "s"]
    total = next(line for line in out.splitlines()
                 if line.strip().startswith(PASS_TOTAL))
    assert total.split()[-2:] == ["3", "1"]
