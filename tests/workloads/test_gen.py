"""Generated-workload subsystem: planner accuracy, determinism,
registry integration, differential driver, and provenance."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.compiler.driver import compile_source
from repro.profiling import profile_trace
from repro.sim.executor import execute
from repro.workloads import get_workload, workload_names
from repro.workloads.gen import (
    CANONICAL,
    GEN_DEFAULT_SCALE,
    TOLERANCE,
    Fingerprint,
    format_fingerprint,
    generate,
    materialize,
    parse_fingerprint,
    parse_gen_name,
    provenance,
)
from repro.workloads.gen.differential import check_program
from repro.workloads.gen.sweep import simplex_tokens

_SRC = str(Path(__file__).resolve().parents[2] / "src")


# -- fingerprint grammar ---------------------------------------------------

def test_fingerprint_roundtrip():
    for token in ("n20p70e10", "n34p33e33-d2", "n15p25e60-a30",
                  "n60p25e15-d3-a40-wl"):
        fp = parse_fingerprint(token)
        assert format_fingerprint(fp) == token


def test_fingerprint_canonical_names():
    for name, fp in CANONICAL.items():
        assert parse_fingerprint(name) == fp


@pytest.mark.parametrize("bad", [
    "", "bogus", "n20p60e30", "n200p0e0", "n20p70e10-x9", "n20p70", "p100",
])
def test_fingerprint_rejects_bad_tokens(bad):
    with pytest.raises(ValueError):
        parse_fingerprint(bad)


def test_fingerprint_validates_fields():
    with pytest.raises(ValueError):
        Fingerprint(nt=0.5, pd=0.5, ec=0.5)
    with pytest.raises(ValueError):
        Fingerprint(nt=0.4, pd=0.3, ec=0.3, depth=9)
    with pytest.raises(ValueError):
        Fingerprint(nt=0.4, pd=0.3, ec=0.3, ws="huge")


def test_parse_gen_name_errors():
    with pytest.raises(ValueError):
        parse_gen_name("gen:strided")
    with pytest.raises(ValueError):
        parse_gen_name("gen:strided:x")
    with pytest.raises(ValueError):
        parse_gen_name("gen:strided:-1")
    with pytest.raises(ValueError):
        parse_gen_name("spec:strided:1")


# -- planner accuracy (acceptance criterion) -------------------------------

@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_planner_hits_canonical_fingerprints(name):
    """±10% per class fraction, measured by the real profiler."""
    plan = generate(CANONICAL[name], seed=0)
    source = plan.source_template.replace(
        "__SCALE__", str(GEN_DEFAULT_SCALE)
    )
    result = compile_source(source)
    shares = profile_trace(
        result.program, execute(result.program).trace
    ).dynamic_class_shares()
    for cls, want in CANONICAL[name].shares().items():
        assert abs(shares[cls] - want) <= TOLERANCE


def test_generated_program_matches_reference_at_other_scales():
    workload = materialize("gen:pointer:11")
    for scale in (1, 2):
        result = compile_source(workload.source(scale))
        assert execute(result.program).output == \
            workload.expected_output(scale)


def test_texture_knobs_shape_the_program():
    deep = generate(parse_fingerprint("n34p33e33-d3"), seed=0)
    flat = generate(parse_fingerprint("n34p33e33"), seed=0)
    # Depth adds decorative loop nests around every kernel's rep loop.
    assert deep.source_template.count("for (o1") > 0
    assert flat.source_template.count("for (o0") == 0
    aliased = generate(parse_fingerprint("n34p33e33-a50"), seed=0)
    assert aliased.weights["alias"] > 0
    assert flat.weights["alias"] == 0


# -- determinism -----------------------------------------------------------

def test_same_seed_same_plan_in_process():
    a = generate(CANONICAL["mixed"], seed=5)
    b = generate(CANONICAL["mixed"], seed=5)
    assert a is b  # cached
    c = generate(CANONICAL["mixed"], seed=6)
    assert c.source_template != a.source_template


_SUBPROC = """
import json, sys
sys.path.insert(0, {src!r})
from repro.workloads.gen import materialize
w = materialize("gen:mixed:17")
print(json.dumps({{
    "source": w.source_template,
    "ref": w.expected_output(2),
}}))
"""


def test_cross_process_determinism():
    """Same name → byte-identical source and reference in any process."""
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", _SUBPROC.format(src=_SRC)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]
    # ... and identical to this process's materialization.
    local = materialize("gen:mixed:17")
    assert outputs[0]["source"] == local.source_template
    assert outputs[0]["ref"] == local.expected_output(2)


# -- registry integration --------------------------------------------------

def test_registry_materializes_gen_names():
    workload = get_workload("gen:strided:23")
    assert workload.suite == "gen"
    assert workload.name == "gen:n20p70e10:23"  # canonicalized
    assert workload.name in workload_names("gen")
    # Idempotent, and alias spelling resolves to the same object.
    assert get_workload("gen:strided:23") is workload
    assert get_workload("gen:n20p70e10:23") is workload
    # The alias spelling does not create a duplicate registry entry.
    assert workload_names("gen").count("gen:n20p70e10:23") == 1


def test_registry_did_you_mean():
    with pytest.raises(KeyError, match="did you mean '008.espresso'"):
        get_workload("espresso")


def test_registry_bad_gen_name_raises_value_error():
    with pytest.raises(ValueError, match="fingerprint"):
        get_workload("gen:whatever:1")
    with pytest.raises(ValueError, match="seed"):
        get_workload("gen:mixed:one")


def test_workload_scale_validation():
    workload = get_workload("026.compress")
    with pytest.raises(ValueError, match="scale must be a positive"):
        workload.source(0)
    with pytest.raises(ValueError, match="scale must be a positive"):
        workload.expected_output(-3)


# -- differential driver ---------------------------------------------------

def test_differential_check_passes():
    report = check_program("gen:irregular:2", scale=0.25)
    assert report.ok, report.mismatches
    # reference at 3 opt levels + invariance + sim parity
    assert report.checks == 5


def test_differential_detects_broken_reference(monkeypatch):
    import dataclasses

    from repro.workloads.registry import REGISTRY

    workload = materialize("gen:mixed:29")
    broken = dataclasses.replace(
        workload, reference=lambda n: [v + 1 for v in
                                       workload.reference(n)],
    )
    monkeypatch.setitem(REGISTRY, workload.name, broken)
    report = check_program("gen:n34p33e33:29", scale=0.25)
    assert not report.ok
    assert {m.check for m in report.mismatches} == {"reference"}


# -- provenance and obs ----------------------------------------------------

def test_provenance_is_json_ready_and_complete():
    prov = provenance("gen:pointer:4")
    payload = json.loads(json.dumps(prov))
    for key in ("fingerprint", "seed", "requested", "achieved",
                "weights", "depth", "alias", "ws", "budget",
                "iterations"):
        assert key in payload
    assert payload["fingerprint"] == "n15p25e60"
    assert payload["seed"] == 4
    assert set(payload["weights"]) == {
        "strided", "chase", "irregular", "alias"
    }


def test_manifest_records_gen_provenance():
    from repro.obs.manifest import build_manifest, validate_manifest

    manifest = build_manifest(
        command="test", argv=[], scale=1.0, machine=None,
        workloads=[
            {"name": "gen:mixed:0", "status": "ok"},
            {"name": "026.compress", "status": "ok"},
        ],
    )
    gen_entry = manifest["workloads"][0]
    assert gen_entry["gen"]["fingerprint"] == "n34p33e33"
    assert gen_entry["gen"]["seed"] == 0
    assert "gen" not in manifest["workloads"][1]
    assert validate_manifest(manifest) == []
    # A manifest claiming a gen workload without provenance is invalid.
    del gen_entry["gen"]
    problems = validate_manifest(manifest)
    assert any("provenance" in p for p in problems)


def test_gen_fingerprint_event_emitted(tmp_path):
    from repro import obs
    from repro.workloads.gen.planner import plan_program

    obs.configure(tmp_path, command="test", worker="main")
    try:
        plan_program(CANONICAL["strided"], seed=91)
    finally:
        obs.disable()
    events = []
    for path in tmp_path.glob("*.jsonl"):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record.get("name") == "gen.fingerprint":
                events.append(record)
    assert events, "no gen.fingerprint event in the trace"
    tags = events[0]["tags"]
    assert tags["fingerprint"] == "n20p70e10"
    assert tags["seed"] == 91
    assert "achieved" in tags and "weights" in tags


def test_planner_self_check_compares_the_accepted_probe(monkeypatch):
    """The self-check reuses the accepted probe's emulated output: the
    plan's reference must equal it, and a mismatch is refused."""
    from repro.workloads.gen import planner

    plan = planner.plan_program(CANONICAL["strided"], seed=92)
    source = plan.source_template.replace(
        "__SCALE__", str(GEN_DEFAULT_SCALE))
    assert execute(compile_source(source).program).output == \
        plan.reference(GEN_DEFAULT_SCALE)

    monkeypatch.setattr(
        planner, "reference_output", lambda *args: [-1]
    )
    with pytest.raises(planner.GenerationError, match="self-check"):
        planner.plan_program(CANONICAL["strided"], seed=92)


# -- sweep grid ------------------------------------------------------------

def test_simplex_tokens_cover_the_grid():
    tokens = simplex_tokens(20)
    assert len(tokens) == 21  # (5+1)(5+2)/2 points at 20% pitch
    assert "n100p0e0" in tokens and "n0p0e100" in tokens
    assert len(set(tokens)) == len(tokens)
    for token in tokens:
        parse_fingerprint(token)
    with pytest.raises(ValueError):
        simplex_tokens(30)
    with pytest.raises(ValueError):
        simplex_tokens(0)
