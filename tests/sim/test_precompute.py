"""The timing loop and its precompute (:mod:`repro.sim.precompute`).

Covers what the parity suites do not:

* cache bounds — the Program-attached caches (front-end outcomes, trace
  precomputes, per-config streams/routes) stay bounded no matter how
  many machines or configs a long service session replays;
* outcomes, whatever the route — one-shot ``run()`` calls, warm runs,
  hook runs, hardware dual-path configs and short traces all produce
  the reference pipeline's stats, and a hook's payload equals the
  returned stats;
* live mode — every golden case replayed through the loop's live entry,
  for every predictor backend, matches its snapshot or the reference,
  and hardware dual-path selection looks at the decode cycle *after*
  the fetch penalty;
* golden lock — every golden case without a timeline replayed through
  ``simulate_many`` reproduces its recorded snapshot exactly;
* sweep parity — long traces, random assembly, and generated workloads
  swept through ``simulate_many`` (stats memo + scalar stream replay)
  match the reference pipeline config for config;
* divergence fallback — a config whose stream replay meets a
  wrong-address prediction with no free port reruns in live mode and
  still equals the reference, for every backend and entry point, and a
  sweep mixing such configs with clean ones is exact in either order.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.compiler.driver import compile_source
from repro.isa import parse_asm
from repro.sim import precompute
from repro.sim._pipeline_reference import reference_run
from repro.sim.executor import execute
from repro.sim.machine import (
    CacheConfig,
    EarlyGenConfig,
    MachineConfig,
    SelectionMode,
)
from repro.sim.pipeline import _FRONTEND_CACHE_LIMIT, TimingSimulator
from repro.sim.precompute import (
    _PRECOMPUTE_LIMIT,
    _ROUTE_LIMIT,
    _STREAM_LIMIT,
    _machine_key,
    get_precompute,
    simulate_many,
    simulate_one,
    warm_kernel,
    warm_precompute,
)
from repro.sim.predictors import backend_names
from repro.workloads import get_workload

from golden_cases import GOLDEN_PATH, iter_cases, stats_to_record
from test_pipeline_parity import _random_asm

#: Configs with static routing (hardware dual-path runs in live mode).
_EG_POOL = (
    EarlyGenConfig(0, 0, SelectionMode.HARDWARE),
    EarlyGenConfig(16, 0, SelectionMode.HARDWARE),
    EarlyGenConfig(64, 0, SelectionMode.HARDWARE),
    EarlyGenConfig(256, 0, SelectionMode.HARDWARE),
    EarlyGenConfig(16, 0, SelectionMode.HARDWARE, table_confidence_bits=2),
    EarlyGenConfig(0, 1, SelectionMode.COMPILER),
    EarlyGenConfig(0, 2, SelectionMode.COMPILER),
    EarlyGenConfig(64, 2, SelectionMode.COMPILER),
)


@pytest.fixture
def trace():
    rng = random.Random(0xBEEF)
    return execute(parse_asm(_random_asm(rng))).trace


def _machine_variant(n: int) -> MachineConfig:
    """Distinct machine shapes (different icache => different keys)."""
    return MachineConfig(icache=CacheConfig(size=1024 << n))


def _reference(trace, machine, override=None) -> dict:
    """The reference pipeline's stats record for one config."""
    return stats_to_record(
        reference_run(TimingSimulator(trace, machine, override))
    )


# ---------------------------------------------------------------------------
# Cache bounds
# ---------------------------------------------------------------------------

def test_frontend_cache_is_bounded(trace):
    program = trace.program
    for n in range(_FRONTEND_CACHE_LIMIT + 4):
        TimingSimulator(trace, _machine_variant(n)).run()
    uids, inner = program._frontend_pre
    assert uids is trace.uids
    assert len(inner) <= _FRONTEND_CACHE_LIMIT


def test_precompute_store_is_bounded(trace):
    program = trace.program
    for n in range(_PRECOMPUTE_LIMIT + 3):
        assert get_precompute(trace, _machine_variant(n)) is not None
    uids, store = program._sim_precompute
    assert uids is trace.uids
    assert len(store) <= _PRECOMPUTE_LIMIT
    # LRU: the most recent machine is still warm.
    assert _machine_key(_machine_variant(_PRECOMPUTE_LIMIT + 2)) in store


def test_stream_and_route_caches_are_bounded(trace):
    pre = get_precompute(trace, MachineConfig())
    n_static = len(pre.static_load_uids)
    assert n_static > 0
    for n in range(_ROUTE_LIMIT + 5):
        # Distinct synthetic routings: first n loads prediction-routed.
        scheme = bytes(1 if i < n % (n_static + 1) else 0
                       for i in range(n_static))
        pre.route_for(scheme)
    assert len(pre._routes) <= _ROUTE_LIMIT

    route = pre.route_for(bytes([1] * n_static))
    combos = [
        (entries, conf)
        for entries in (2, 4, 8, 16, 32, 64, 128, 256)
        for conf in (0, 1, 2, 3, 4)
    ]
    for entries, conf in combos[: _STREAM_LIMIT + 6]:
        eg = EarlyGenConfig(entries, 0, SelectionMode.HARDWARE,
                            table_confidence_bits=conf)
        pre.dstream(eg, route)
    assert len(pre._dstreams) <= _STREAM_LIMIT


def test_precompute_invalidated_when_program_recompiled(trace):
    pre = get_precompute(trace, MachineConfig())
    assert get_precompute(trace, MachineConfig()) is pre
    trace.program.flat = list(trace.program.flat)  # simulate re-lowering
    assert get_precompute(trace, MachineConfig()) is not pre


# ---------------------------------------------------------------------------
# Outcomes, whatever the route
# ---------------------------------------------------------------------------

def test_one_shot_run_matches_reference(trace):
    machine = MachineConfig().with_earlygen(
        EarlyGenConfig(64, 0, SelectionMode.HARDWARE)
    )
    expected = _reference(trace, machine)
    assert stats_to_record(TimingSimulator(trace, machine).run()) == expected
    # A second run on the same trace reuses the first one's precompute.
    assert stats_to_record(TimingSimulator(trace, machine).run()) == expected


def test_warm_run_uses_fast_path_and_matches_inline(trace):
    machine = MachineConfig().with_earlygen(
        EarlyGenConfig(64, 0, SelectionMode.HARDWARE)
    )
    expected = _reference(trace, machine)
    (batched,) = simulate_many(trace, [machine])
    assert stats_to_record(batched) == expected
    # The precompute and the stats memo are now warm; a plain run()
    # must agree too.
    assert stats_to_record(TimingSimulator(trace, machine).run()) == expected


@pytest.mark.parametrize("eg", (
    EarlyGenConfig(64, 0, SelectionMode.HARDWARE),
    EarlyGenConfig(64, 2, SelectionMode.COMPILER),
    EarlyGenConfig(16, 2, SelectionMode.HARDWARE),
), ids=("t64_hw", "t64_r2_cc", "t16_r2_hw"))
def test_event_hook_payload_matches_stats(trace, eg):
    machine = MachineConfig().with_earlygen(eg)
    warm_precompute(trace, MachineConfig(), [eg])
    payloads = []
    stats = TimingSimulator(
        trace, machine, event_hook=payloads.append
    ).run()
    assert stats_to_record(stats) == _reference(trace, machine)
    (payload,) = payloads
    expected = precompute._event_counters(stats, payload["raddr_interlock"])
    assert payload == expected
    assert 0 <= payload["raddr_interlock"] <= stats.calc_spec_dispatched


def test_hw_dual_configs_match_reference(trace):
    machine = MachineConfig().with_earlygen(
        EarlyGenConfig(16, 2, SelectionMode.HARDWARE)
    )
    expected = _reference(trace, machine)
    (batched,) = simulate_many(trace, [machine])
    assert stats_to_record(batched) == expected
    assert stats_to_record(TimingSimulator(trace, machine).run()) == expected


def test_short_trace_matches_reference():
    """A trace of a handful of records streams like any other: every
    config, dual-path included, matches the reference pipeline."""
    trace = execute(parse_asm("\n".join([
        ".data arr 64",
        "main:",
        "    lea r4, arr",
        "    st r4, r4(0)",
        "    ld_p r5, r4(0)",
        "    ld_e r6, r4(4)",
        "    add r5, r5, r6",
        "    halt",
    ]))).trace
    assert len(trace.uids) < 10
    machines = _sweep_machines(
        [EarlyGenConfig(0, 0)] + list(_EG_POOL)
        + [EarlyGenConfig(16, 2, SelectionMode.HARDWARE)]
    )
    expected = _reference_records(trace, machines)
    stats = simulate_many(trace, machines)
    assert [stats_to_record(s) for s in stats] == expected
    assert [
        stats_to_record(TimingSimulator(trace, m).run()) for m in machines
    ] == expected


def test_simulate_many_accepts_earlygen_and_machine_items(trace):
    base = MachineConfig(mem_ports=1)
    eg = EarlyGenConfig(16, 0, SelectionMode.HARDWARE)
    mixed = simulate_many(
        trace, [eg, base.with_earlygen(eg)], machine=base
    )
    assert stats_to_record(mixed[0]) == stats_to_record(mixed[1])


# ---------------------------------------------------------------------------
# Golden lock
# ---------------------------------------------------------------------------

def test_simulate_many_reproduces_golden_stats_exactly():
    with GOLDEN_PATH.open(encoding="utf-8") as fh:
        golden = json.load(fh)["cases"]
    groups: dict = {}
    for case_id, trace, machine, overrides, collect_timeline in iter_cases():
        if collect_timeline:
            continue  # simulate_many never collects timelines
        entry = groups.setdefault(id(trace), (trace, []))
        entry[1].append((case_id, machine, overrides))
    checked = 0
    for trace, cases in groups.values():
        stats_list = simulate_many(
            trace,
            [machine for _, machine, _ in cases],
            overrides=[ov for _, _, ov in cases],
        )
        for (case_id, _, _), stats in zip(cases, stats_list):
            assert stats_to_record(stats) == golden[case_id], case_id
            checked += 1
    assert checked >= 15


# ---------------------------------------------------------------------------
# Sweep parity
# ---------------------------------------------------------------------------

def _loop_asm(iters: int) -> str:
    """A strided walk whose trace runs to several thousand records."""
    return "\n".join([
        f".data arr {4 * iters + 64}",
        "main:",
        "    lea r4, arr",
        "    mov r6, 0",
        "init:",
        "    st r6, r4(0)",
        "    add r4, r4, 4",
        "    add r6, r6, 1",
        f"    blt r6, {iters}, init",
        "    lea r4, arr",
        "    mov r6, 0",
        "walk:",
        "    ld_p r7, r4(0)",
        "    ld_n r8, r4(4)",
        "    add r7, r7, r8",
        "    st r7, r4(0)",
        "    add r4, r4, 4",
        "    add r6, r6, 1",
        f"    blt r6, {iters - 2}, walk",
    ])


def _sweep_machines(eg_list):
    return [MachineConfig().with_earlygen(eg) for eg in eg_list]


def _reference_records(trace, machines):
    return [_reference(trace, m) for m in machines]


def _path_delta(before: dict, after: dict, path: str) -> int:
    return after.get(path, 0) - before.get(path, 0)


def test_long_trace_sweep_matches_inline():
    """A long strided trace streams every config of its sweep and
    matches the reference pipeline."""
    trace = execute(parse_asm(_loop_asm(700))).trace
    assert len(trace.uids) > 4096
    machines = _sweep_machines([
        EarlyGenConfig(0, 0, SelectionMode.HARDWARE),
        EarlyGenConfig(16, 0, SelectionMode.HARDWARE),
        EarlyGenConfig(64, 0, SelectionMode.HARDWARE),
        EarlyGenConfig(16, 0, SelectionMode.HARDWARE, table_confidence_bits=2),
        EarlyGenConfig(0, 2, SelectionMode.COMPILER),
    ])
    before = precompute.replay_path_counts()
    stats = simulate_many(trace, machines)
    after = precompute.replay_path_counts()
    streamed = (_path_delta(before, after, "scalar")
                + _path_delta(before, after, "memo"))
    assert streamed == len(machines), after
    assert [stats_to_record(s) for s in stats] == _reference_records(
        trace, machines
    )


def test_random_asm_sweep_matches_inline():
    rng = random.Random(0x7E57)
    for _ in range(4):
        trace = execute(parse_asm(_random_asm(rng))).trace
        machines = _sweep_machines([
            EarlyGenConfig(16, 0, SelectionMode.HARDWARE),
            EarlyGenConfig(32, 0, SelectionMode.HARDWARE),
            EarlyGenConfig(16, 0, SelectionMode.HARDWARE,
                           table_confidence_bits=2),
            EarlyGenConfig(0, 2, SelectionMode.COMPILER),
        ])
        stats = simulate_many(trace, machines)
        assert [stats_to_record(s) for s in stats] == _reference_records(
            trace, machines
        )


def _fresh_trace(name: str, scale: float = 0.05):
    """A fresh trace of workload *name*: new trace identity, so a fresh
    precompute and stats memo."""
    w = get_workload(name)
    scaled = max(1, int(round(w.default_scale * scale)))
    return execute(compile_source(w.source(scaled)).program).trace


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_gen_sweep_matches_inline(data):
    """Random sweeps over generated workloads: every config's stats
    from the shared-precompute batch equal the reference pipeline's."""
    alias = data.draw(st.sampled_from(
        ("strided", "pointer", "irregular", "mixed")), label="fingerprint")
    seed = data.draw(st.integers(min_value=0, max_value=31), label="seed")
    width = data.draw(st.integers(min_value=4, max_value=6), label="sweep")
    order = data.draw(st.permutations(range(len(_EG_POOL))), label="configs")
    trace = _fresh_trace(f"gen:{alias}:{seed}")
    machines = _sweep_machines([_EG_POOL[i] for i in order[:width]])
    stats = simulate_many(trace, machines)
    assert [stats_to_record(s) for s in stats] == _reference_records(
        trace, machines
    )


def test_adpcm_decode_sweep_streams_at_defaults():
    """adpcm_decode at bench scale 0.05: no config of its static-route
    sweep runs in live mode, and every one stays exact."""
    trace = _fresh_trace("adpcm_decode")
    machines = _sweep_machines([_EG_POOL[i] for i in (0, 1, 2, 4, 5, 6)])
    before = precompute.replay_path_counts()
    stats = simulate_many(trace, machines)
    after = precompute.replay_path_counts()
    assert not any(
        _path_delta(before, after, path)
        for path in after if path.startswith("inline:")
    ), after
    assert [stats_to_record(s) for s in stats] == _reference_records(
        _fresh_trace("adpcm_decode"), machines
    )


def test_stats_memo_dedupes_identical_streams():
    """The same stream tuple listed twice resolves from the stats memo
    — equal records, but independent SimStats objects."""
    trace = execute(parse_asm(_random_asm(random.Random(0xBEE5)))).trace
    eg = EarlyGenConfig(16, 0, SelectionMode.HARDWARE)
    before = precompute.replay_path_counts()
    first, second = simulate_many(trace, _sweep_machines([eg, eg]))
    after = precompute.replay_path_counts()
    assert _path_delta(before, after, "memo") > 0
    assert stats_to_record(first) == stats_to_record(second)
    assert first is not second
    first.scheme_counts["__mutated__"] = 1
    assert "__mutated__" not in second.scheme_counts


def test_fresh_interpreter_sweep_imports_no_numpy():
    """A sweep in a fresh interpreter reproduces the in-process stats
    records and never imports numpy."""
    script = r"""
import json, random, sys
from repro.isa import parse_asm
from repro.sim.executor import execute
from repro.sim.machine import EarlyGenConfig, MachineConfig, SelectionMode
from repro.sim.precompute import simulate_many
sys.path.insert(0, {testdir!r})
from test_pipeline_parity import _random_asm
from golden_cases import stats_to_record

trace = execute(parse_asm(_random_asm(random.Random(0x9A11)))).trace
machines = [MachineConfig().with_earlygen(eg) for eg in (
    EarlyGenConfig(16, 0, SelectionMode.HARDWARE),
    EarlyGenConfig(32, 0, SelectionMode.HARDWARE),
    EarlyGenConfig(64, 0, SelectionMode.HARDWARE),
    EarlyGenConfig(0, 2, SelectionMode.COMPILER),
)]
records = [stats_to_record(s) for s in simulate_many(trace, machines)]
print(json.dumps({{"numpy": "numpy" in sys.modules, "records": records}}))
"""
    testdir = str(Path(__file__).resolve().parent)
    src = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script.format(testdir=testdir)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["numpy"] is False
    trace = execute(parse_asm(_random_asm(random.Random(0x9A11)))).trace
    machines = _sweep_machines([
        EarlyGenConfig(16, 0, SelectionMode.HARDWARE),
        EarlyGenConfig(32, 0, SelectionMode.HARDWARE),
        EarlyGenConfig(64, 0, SelectionMode.HARDWARE),
        EarlyGenConfig(0, 2, SelectionMode.COMPILER),
    ])
    assert out["records"] == [
        stats_to_record(s) for s in simulate_many(trace, machines)
    ]


def test_warm_kernel_shim_returns_zero(trace):
    """``warm_kernel`` exists only for the frozen perfbench harness and
    never builds anything."""
    assert warm_kernel(None) == 0.0
    pre = warm_precompute(trace, MachineConfig(),
                          [EarlyGenConfig(16, 0, SelectionMode.HARDWARE)])
    assert pre is not None
    assert warm_kernel(pre, sweep=17) == 0.0


# ---------------------------------------------------------------------------
# Divergence fallback
# ---------------------------------------------------------------------------

_FALLBACK = "inline:divergence-fallback"


def _starved_machine(eg):
    """A port-starved machine: wrong-address predictions often find no
    free port one cycle early, so the stream replay cannot finish."""
    return MachineConfig(
        mem_ports=1, dcache=CacheConfig(size=1024)
    ).with_earlygen(eg)


def _asm_trace(asm: str):
    return execute(parse_asm(asm)).trace


def _diverges(trace, machine) -> bool:
    """True when *machine*'s run on *trace* reran in live mode after its
    stream replay met a wrong-address prediction with no free port."""
    before = precompute.replay_path_counts()
    simulate_one(TimingSimulator(trace, machine))
    return _path_delta(before, precompute.replay_path_counts(), _FALLBACK) > 0


def _diverging_asm(seed: int, eg) -> list:
    """Random-assembly programs from *seed* that diverge under *eg* on
    the port-starved machine."""
    rng = random.Random(seed)
    found = [
        asm for asm in (_random_asm(rng) for _ in range(8))
        if _diverges(_asm_trace(asm), _starved_machine(eg))
    ]
    assert found, "seeds no longer produce divergence; rotate them"
    return found


def _diverging_cases(eg) -> list:
    """``(make_trace, machine)`` pairs that diverge under *eg*.  The
    port-starved random assembly diverges often, but its wrong-address
    accesses only re-touch cached blocks; on 085.cc1 the pollution
    changes the miss counts, so a replay that ran on past the
    divergence would show."""
    cases = [
        (functools.partial(_asm_trace, asm), _starved_machine(eg))
        for asm in _diverging_asm(0xD1CE, eg)
    ]
    cc1 = functools.partial(_fresh_trace, "085.cc1", 0.02)
    machine = MachineConfig().with_earlygen(eg)
    assert _diverges(cc1(), machine), "085.cc1 no longer diverges"
    return cases + [(cc1, machine)]


@pytest.mark.parametrize("backend", backend_names())
def test_divergence_fallback_matches_reference(backend):
    """Every diverging config equals the reference pipeline: through
    ``simulate_one`` and ``simulate_many``, on a fresh trace and on
    repeat runs, and with a timeline (the observer on a live rerun)."""
    eg = dataclasses.replace(
        EarlyGenConfig(16, 0, SelectionMode.HARDWARE), predictor=backend
    )
    for make_trace, machine in _diverging_cases(eg):
        trace = make_trace()
        expected = _reference(trace, machine)
        (batched,) = simulate_many(trace, [machine])
        assert stats_to_record(batched) == expected
        for _ in range(2):
            one = simulate_one(TimingSimulator(trace, machine))
            assert stats_to_record(one) == expected
            (again,) = simulate_many(trace, [machine])
            assert stats_to_record(again) == expected
        sim = TimingSimulator(trace, machine, collect_timeline=True)
        observed = stats_to_record(simulate_one(sim))
        assert observed["timeline"]
        assert observed == stats_to_record(reference_run(
            TimingSimulator(trace, machine, collect_timeline=True)
        ))


@pytest.mark.parametrize("source", (0xF11B, 0xC0111, "085.cc1"),
                         ids=("asm-f11b", "asm-c0111", "085.cc1"))
def test_sweep_mixing_diverging_and_clean_configs(source):
    """One sweep on one trace mixes configs that fall back after a
    divergence with configs that stream to the end, including repeats
    that can hit the stats memo.  In either order, on a fresh trace,
    every config equals its own reference run."""
    eg = EarlyGenConfig(16, 0, SelectionMode.HARDWARE)
    if isinstance(source, int):
        make_trace = functools.partial(
            _asm_trace, _diverging_asm(source, eg)[0])
        machine = _starved_machine
    else:
        make_trace = functools.partial(_fresh_trace, source, 0.02)
        machine = MachineConfig().with_earlygen
    egs = [
        eg,
        EarlyGenConfig(0, 0, SelectionMode.HARDWARE),
        EarlyGenConfig(16, 2, SelectionMode.COMPILER),
        EarlyGenConfig(0, 2, SelectionMode.COMPILER),
        dataclasses.replace(eg, predictor="cache-level"),
        EarlyGenConfig(64, 2, SelectionMode.COMPILER),
        eg,
        EarlyGenConfig(0, 0, SelectionMode.HARDWARE),
    ]
    machines = [machine(e) for e in egs]
    expected = _reference_records(make_trace(), machines)
    for order in (list(range(len(egs))), list(reversed(range(len(egs))))):
        trace = make_trace()  # fresh precompute and stats memo
        before = precompute.replay_path_counts()
        stats = simulate_many(trace, [machines[i] for i in order])
        after = precompute.replay_path_counts()
        assert _path_delta(before, after, _FALLBACK) >= 2, after
        assert (_path_delta(before, after, "scalar")
                + _path_delta(before, after, "memo")) >= 2, after
        assert [stats_to_record(s) for s in stats] == [
            expected[i] for i in order
        ]


# ---------------------------------------------------------------------------
# Live mode
# ---------------------------------------------------------------------------

def _live_stats(sim: TimingSimulator):
    """*sim* replayed through the loop's live entry: a fresh predictor,
    ``R_addr``/BRIC and d-cache driven at each load, no streams."""
    pre = get_precompute(sim.trace, sim.config)
    sb = precompute._scheme_bytes(
        sim.trace.program, sim.config.earlygen, sim.spec_override
    )
    route = None if sb is None else pre.route_for(sb)
    observer = (precompute._Observer(sim, pre)
                if sim.collect_timeline else None)
    stats, _ = precompute._replay(pre, sim.config, route, None, observer)
    if observer is not None:
        stats.timeline = observer.timeline
    return stats


def _with_backend(machine: MachineConfig, backend: str) -> MachineConfig:
    """*machine* predicting with *backend* (confidence counters are a
    stride-table option, so other backends run without them)."""
    eg = machine.earlygen
    if not eg.table_entries or backend == eg.predictor:
        return machine
    return machine.with_earlygen(dataclasses.replace(
        eg, predictor=backend, table_confidence_bits=0,
    ))


@pytest.mark.parametrize("backend", backend_names())
def test_live_mode_reproduces_golden_cases(backend):
    """Every golden case through live mode: the stride backend must
    reproduce the recorded snapshot, every other backend the reference
    pipeline."""
    with GOLDEN_PATH.open(encoding="utf-8") as fh:
        golden = json.load(fh)["cases"]
    checked = 0
    for case_id, trace, machine, overrides, timeline in iter_cases():
        machine = _with_backend(machine, backend)
        sim = TimingSimulator(trace, machine, spec_override=overrides,
                              collect_timeline=timeline)
        got = stats_to_record(_live_stats(sim))
        if machine.earlygen.predictor == "stride":
            expected = golden[case_id]
        else:
            expected = stats_to_record(reference_run(TimingSimulator(
                trace, machine, spec_override=overrides,
                collect_timeline=timeline,
            )))
        assert got == expected, case_id
        checked += 1
    assert checked == len(golden)


@pytest.mark.parametrize("name", ("023.eqntott", "adpcm_encode"))
def test_hw_dual_selection_sees_the_fetch_penalty(name):
    """Eickemeyer-Vassiliadis selection tests the base register against
    the decode cycle *after* the i-cache fetch penalty.  Deciding before
    the penalty misroutes loads that sit right after an i-cache miss on
    both of these traces."""
    trace = _fresh_trace(name, scale=0.1)
    machine = MachineConfig().with_earlygen(
        EarlyGenConfig(16, 2, SelectionMode.HARDWARE)
    )
    expected = _reference(trace, machine)
    assert stats_to_record(_live_stats(TimingSimulator(trace, machine))) \
        == expected
