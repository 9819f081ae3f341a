"""Listing lock: the classified program of every suite workload, at
every optimization level, must match the recorded snapshot exactly.

Compile-time optimizations of the compiler itself (pass scheduling,
analysis reuse) must be invisible in its output; this test is the gate.
See ``gen_listing_golden.py`` for the snapshot format and when it may be
regenerated.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from gen_listing_golden import (  # noqa: E402
    GOLDEN_PATH,
    iter_cases,
    listing_record,
)

from repro.compiler.driver import compile_source  # noqa: E402
from repro.workloads.registry import get_workload  # noqa: E402


def test_listings_match_golden():
    with GOLDEN_PATH.open(encoding="utf-8") as fh:
        golden = json.load(fh)["cases"]
    seen = set()
    failures = []
    for case_id, source, level in iter_cases():
        seen.add(case_id)
        actual = listing_record(source, level)
        if actual != golden.get(case_id):
            failures.append(case_id)
    assert not failures, f"listing changed for {failures}"
    assert seen == set(golden), "snapshot and suite disagree on the cases"


def test_listing_does_not_depend_on_earlier_compiles():
    """Pass-created labels are numbered per function, not per process."""
    source = get_workload("130.li").source(1)
    first = compile_source(source).listing()
    second = compile_source(source).listing()
    assert "main__pre1:" in first
    assert first == second
