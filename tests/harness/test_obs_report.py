"""``obs_report.stage_summary`` over synthetic traces.

Spans of one name can nest — the bench's ``compile`` span wraps the
compiler driver's ``compile`` span — and the summary must count that
inclusive time once while reporting each span's self time.
"""

import pytest

from repro.harness.obs_report import replay_paths, stage_summary


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
        {"kind": "event", "name": "sim.replay",
         "tags": {"path": "scalar", "patches": 2}},
        {"kind": "event", "name": "sim.replay",
         "tags": {"path": "memo", "patches": 0}},
        {"kind": "event", "name": "sim.replay",
         "tags": {"path": "inline", "reason": "hw-dual"}},
    ]
    rows = {r["path"]: r for r in replay_paths(events)}
    assert rows["scalar"] == {"path": "scalar", "runs": 1, "patches": 2}
    assert rows["inline:hw-dual"]["runs"] == 1
    assert set(rows["memo"]) == {"path", "runs", "patches"}
