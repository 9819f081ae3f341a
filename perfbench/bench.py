"""Core of the repo benchmark: workloads, set-up, timed rounds and checks.

A run resolves a workload's programs (set-up), then repeats *rounds*: one
client runs every program in sequence through compile -> emulate ->
reference check -> profile -> precompute -> kernel build -> sweep
replay, each stage a call into a public function of ``repro`` timed
from outside.  Every (program, config) ``SimStats`` is digested and
compared with ``golden.json``.

Nothing here imports ``repro`` at module import time: :func:`setup`
times that import as part of ``setup_s``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import statistics
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from spans import CHANGE_FLAG_PASSES, FRONTEND, PASSES, VERIFIERS, Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_PATH = HERE / "golden.json"

SPEC_SWEEP = "spec-sweep"
MEDIA = "media-predictors"
GEN = "gen-compile"
WORKLOADS = (SPEC_SWEEP, MEDIA, GEN)

#: Workload scale factors, applied as the harness does
#: (``max(1, round(default_scale * scale))``).
SCALES = {SPEC_SWEEP: 0.1, MEDIA: 0.25, GEN: 0.1}

#: gen-compile draws one program per fingerprint: the four canonical
#: mixes plus depth, alias and large-working-set variants.
GEN_FINGERPRINTS = (
    "strided",
    "pointer",
    "irregular",
    "mixed",
    "n20p70e10-d2",
    "n60p25e15-d3",
    "n34p33e33-a30",
    "n15p25e60-wl",
)
#: Generator seeds the draw picks from; no test or tuning uses them.
GEN_POOL_SEEDS = tuple(range(9000, 9008))

#: Tag of the proposed configuration: 256-entry stride table plus one
#: compiler-directed early-calculation register.
PROPOSED_TAG = "t256_r1_compiler"

#: Set-ups per run (one in this process, the rest in fresh ones).
SETUP_REPEATS = 5

#: Stages summed into ``sweep_s``; no sub-stage is ever subtracted.
SWEEP_STAGES = ("precompute", "kernel", "sim")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sweep_s", "s"),
    ("sim_inst_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
    ("speedup_geomean", "x"),
)


def _per_layer() -> Tuple[Tuple[str, str], ...]:
    names = [
        ("workloads.plan_s", "s"),
        ("workloads.source_s", "s"),
        ("workloads.reference_s", "s"),
        ("compile.s", "s"),
        ("compile.frontend_s", "s"),
    ]
    for p in PASSES:
        names += [
            (f"compile.pass.{p}_s", "s"),
            (f"compile.pass.{p}_calls", "count"),
            (f"compile.pass.{p}_changed", "count"),
        ]
    names += [
        ("compile.pass_useful_share", "fraction"),
        ("compile.verify_s", "s"),
        ("compile.verify_calls", "count"),
        ("compile.other_s", "s"),
        ("compile.static_insts", "count"),
        ("compile.static_loads", "count"),
        ("compile.ld_n", "count"),
        ("compile.ld_p", "count"),
        ("compile.ld_e", "count"),
        ("emulate.s", "s"),
        ("emulate.dyn_insts", "count"),
        ("emulate.ns_per_inst", "ns/inst"),
        ("profile.s", "s"),
        ("profile.overrides_s", "s"),
        ("precompute.s", "s"),
        ("kernel.build_s", "s"),
        ("sim.s", "s"),
        ("sim.configs", "count"),
        ("sim.insts", "count"),
        ("sim.ns_per_inst", "ns/inst"),
        ("sim.inline_share", "fraction"),
        ("model.ipc", "inst/cycle"),
        ("model.pred_success_rate", "fraction"),
        ("model.calc_success_rate", "fraction"),
        ("model.dcache_miss_rate", "fraction"),
        ("trace.wall_s", "s"),
        ("trace.overhead_frac", "fraction"),
        ("trace.unattributed_s", "s"),
    ]
    return tuple(names)


PER_LAYER = _per_layer()

#: The stage spans a round records around each call into ``repro``, in
#: call order, and the per-layer time metric of each (its self time).
LAYER_OF_STAGE = {
    "compile": "compile.s",
    "emulate": "emulate.s",
    "reference": "workloads.reference_s",
    "profile": "profile.s",
    "overrides": "profile.overrides_s",
    "precompute": "precompute.s",
    "kernel": "kernel.build_s",
    "sim": "sim.s",
}
STAGES = tuple(LAYER_OF_STAGE)


#: Host speed: a fixed pure-Python loop (``probe``) runs between
#: programs and after each set-up, and every host time is scaled by
#: ``PROBE_REF_S / median probe time`` of its round or set-up.  On a
#: shared 2-vCPU VM the host speed drifted by up to 2x within minutes
#: (other tenants); the probe slows with the program, so the drift
#: cancels.  ``PROBE_REF_S`` is the probe's time on that VM when quiet,
#: so scaled times read as seconds on a quiet host.
PROBE_REF_S = 0.004
PROBES_PER_PROGRAM = 3


def probe(n: int = PROBES_PER_PROGRAM) -> List[float]:
    """Time *n* runs of the host-speed probe."""
    times = []
    for _ in range(n):
        t0 = perf_counter()
        acc = 0
        for i in range(60000):
            acc += i * i % 7
        times.append(perf_counter() - t0)
    return times


def use_src() -> None:
    """Make the checkout's ``src`` importable ahead of anything installed."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# Programs and sweeps
# ---------------------------------------------------------------------------

def pool(workload: str) -> List[str]:
    """Every program *workload* can draw; ``golden.json`` covers them all."""
    if workload == GEN:
        return [
            f"gen:{fp}:{s}" for fp in GEN_FINGERPRINTS for s in GEN_POOL_SEEDS
        ]
    from repro.workloads import workload_names

    return workload_names("spec" if workload == SPEC_SWEEP else "mediabench")


def draw(workload: str, seed: int) -> List[str]:
    """The programs of one run, in run order, as drawn from *seed*.

    gen-compile draws one generator seed per fingerprint.  The suites
    are fixed by the paper, so the seed only picks their run order.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == GEN:
        names = [
            f"gen:{fp}:{rng.choice(GEN_POOL_SEEDS)}" for fp in GEN_FINGERPRINTS
        ]
    else:
        names = pool(workload)
    rng.shuffle(names)
    return names


@dataclass(frozen=True)
class Config:
    """One replay of a sweep: its tag, early-gen config, and whether it
    replays with the profile-guided specifier overrides."""

    tag: str
    earlygen: object
    profile_override: bool = False


def sweep(workload: str) -> List[Config]:
    """The baseline plus every config the workload replays each trace under.

    spec-sweep: the 16 configs of ``sim_requests("spec")`` (Fig. 5a-c,
    Table 3).  media-predictors: the proposed config once per predictor
    backend.  gen-compile: the Table-4 proposed config.
    """
    from repro.harness.experiments import ablation_config, eg_tag, sim_requests
    from repro.sim.machine import BASELINE
    from repro.sim.predictors import backend_names

    configs = [Config("baseline", BASELINE)]
    if workload == MEDIA:
        for backend in backend_names():
            eg = ablation_config(backend)
            configs.append(Config(eg_tag(eg), eg))
    else:
        suite = "spec" if workload == SPEC_SWEEP else "gen"
        for req in sim_requests(suite):
            configs.append(Config(
                eg_tag(req.earlygen, req.cache_key), req.earlygen,
                req.use_profile_override,
            ))
    return configs


@dataclass
class Program:
    """A resolved program: registry entry, integer scale and its source."""

    name: str
    workload: object
    scale: int
    source: str


def setup(workload: str, seed: int) -> Tuple[List[Program], Dict[str, float]]:
    """Import ``repro`` and resolve the run's programs, timed.

    ``plan_s`` is the time in ``get_workload`` (gen-planner probes for
    generated programs) and ``source_s`` the time in ``Workload.source``;
    all three are raw host seconds, and ``speed`` is the host-speed
    factor measured right after them.
    """
    started = perf_counter()
    use_src()
    import repro.compiler.driver  # noqa: F401
    import repro.compiler.profile_feedback  # noqa: F401
    import repro.harness.experiments  # noqa: F401
    import repro.profiling.address_profile  # noqa: F401
    import repro.sim.executor  # noqa: F401
    import repro.sim.precompute  # noqa: F401
    import repro.sim.replay_kernel  # noqa: F401
    from repro.workloads import get_workload

    plan_s = source_s = 0.0
    programs = []
    for name in draw(workload, seed):
        t0 = perf_counter()
        wl = get_workload(name)
        t1 = perf_counter()
        scale = max(1, int(round(wl.default_scale * SCALES[workload])))
        source = wl.source(scale)
        source_s += perf_counter() - t1
        plan_s += t1 - t0
        programs.append(Program(name, wl, scale, source))
    setup_s = perf_counter() - started
    times = {
        "setup_s": setup_s,
        "plan_s": plan_s,
        "source_s": source_s,
        "speed": PROBE_REF_S / statistics.median(probe(5)),
    }
    return programs, times


# ---------------------------------------------------------------------------
# Golden digests
# ---------------------------------------------------------------------------

def digest(stats) -> str:
    """Stable digest of every counter of one ``SimStats``."""
    record = asdict(stats)
    record.pop("timeline", None)
    blob = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def load_golden(workload: str) -> Dict[str, Dict[str, str]]:
    """``{program: {config tag: digest}}`` for *workload* at its scale.

    An absent file or a file recorded at another scale yields no
    digests, so every operation fails the check.
    """
    try:
        with GOLDEN_PATH.open(encoding="utf-8") as fh:
            entry = json.load(fh)["workloads"].get(workload, {})
    except (OSError, ValueError, KeyError):
        return {}
    if entry.get("scale") != SCALES[workload]:
        return {}
    return entry.get("programs", {})


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------

@dataclass
class ProgramRow:
    """What one program contributed to a round."""

    name: str
    trace_len: int = 0
    configs: int = 0
    baseline_cycles: int = 0
    proposed: Optional[object] = None
    kernel_built: bool = False
    inline_configs: int = 0
    static: Dict[str, int] = field(default_factory=dict)


@dataclass
class Round:
    """One pass over every program of a run.

    ``wall`` runs from each program's ``compile_source`` call to its last
    ``SimStats``, summed over programs: the checks, garbage collection
    and host-speed probes the benchmark runs between programs are not
    counted.  ``wall`` and the spans are raw host seconds; ``speed``
    scales them to the reference host speed.
    """

    wall: float
    rec: Recorder
    traced: bool
    rows: List[ProgramRow]
    speed: float
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def sweep(self) -> float:
        return sum(self.rec.duration(s) for s in SWEEP_STAGES)

    @property
    def sim_insts(self) -> int:
        return sum(r.trace_len * r.configs for r in self.rows)


def run_round(
    programs: List[Program],
    configs: List[Config],
    golden: Dict[str, Dict[str, str]],
    traced: bool = False,
    injector=None,
) -> Round:
    """Run every program through the pipeline once and check the results.

    An operation is one (program, config) replay.  It fails when any
    stage of its program raises, when the program's emulated output
    differs from ``Workload.expected_output``, or when its ``SimStats``
    digest differs from the golden one.
    """
    from contextlib import nullcontext

    from spans import compile_shims

    rnd = Round(0.0, Recorder(), traced, [], 0.0)
    probes: List[float] = []
    with compile_shims(rnd.rec) if traced else nullcontext():
        for prog in programs:
            # Each program's state (IR, trace, precompute, kernel arrays)
            # dies with _run_program's frame; collecting its cycles here,
            # outside the timed stages, keeps one program's garbage out
            # of the next one's wall time and peak memory.
            gc.collect()
            probes += probe()
            rnd.rows.append(_run_program(rnd, prog, configs, golden,
                                         injector))
    rnd.speed = PROBE_REF_S / statistics.median(probes)
    return rnd


def _run_program(rnd: Round, prog: Program, configs: List[Config],
                 golden: Dict[str, Dict[str, str]], injector) -> ProgramRow:
    """Run one program through every stage, recording into *rnd*.

    Only the scalars and the proposed config's ``SimStats`` leave this
    frame, in the returned row.
    """
    from repro.compiler.classify import class_counts
    from repro.compiler.driver import CompileOptions, compile_source
    from repro.compiler.profile_feedback import profile_overrides
    from repro.profiling.address_profile import profile_trace
    from repro.sim.executor import Executor
    from repro.sim.machine import MachineConfig
    from repro.sim.precompute import (
        replay_path_counts,
        simulate_many,
        warm_kernel,
        warm_precompute,
    )

    machine = MachineConfig()
    egs = [c.earlygen for c in configs]
    rec = rnd.rec
    rec.program = prog.name
    row = ProgramRow(prog.name, configs=len(configs))
    rnd.attempted += len(configs)
    started = perf_counter()
    try:
        with rec.span("compile"):
            result = compile_source(prog.source, CompileOptions(verify=True))
        with rec.span("emulate"):
            ex = Executor(result.program).run()
        with rec.span("reference"):
            expected = prog.workload.expected_output(prog.scale)
        with rec.span("profile"):
            profile = profile_trace(result.program, ex.trace)
        override = None
        if any(c.profile_override for c in configs):
            with rec.span("overrides"):
                override = profile_overrides(
                    result.program, ex.trace, predictor=profile.predictor,
                )
        overrides = [override if c.profile_override else None
                     for c in configs]
        with rec.span("precompute"):
            pre = warm_precompute(ex.trace, machine, egs, overrides)
        with rec.span("kernel"):
            row.kernel_built = warm_kernel(pre, sweep=len(egs)) > 0
        paths_before = replay_path_counts()
        with rec.span("sim"):
            stats = simulate_many(
                ex.trace, egs, machine=machine, overrides=overrides,
            )
    except Exception as exc:  # the round goes on; the ops fail
        rnd.wall += perf_counter() - started
        rnd.failed += len(configs)
        rnd.errors.append(f"{prog.name}: {type(exc).__name__}: {exc}")
        return row
    rnd.wall += perf_counter() - started
    row.inline_configs = sum(
        count - paths_before.get(path, 0)
        for path, count in replay_path_counts().items()
        if path.startswith("inline:")
    )
    row.trace_len = len(ex.trace)
    output = ex.output
    if injector:
        output = injector.corrupt_output(prog.name, output)
    if output != expected:
        rnd.failed += len(configs)
        rnd.errors.append(f"{prog.name}: emulated output differs from "
                          "Workload.expected_output")
    else:
        want = golden.get(prog.name, {})
        for cfg, st in zip(configs, stats):
            if digest(st) != want.get(cfg.tag):
                rnd.failed += 1
                rnd.errors.append(f"{prog.name} [{cfg.tag}]: SimStats "
                                  "digest differs from golden")
    for cfg, st in zip(configs, stats):
        if cfg.tag == "baseline":
            row.baseline_cycles = st.cycles
        elif cfg.tag == PROPOSED_TAG:
            row.proposed = st
    if rnd.traced:
        counts = class_counts(result.program)
        row.static = {
            "static_insts": len(result.program.flat),
            "static_loads": sum(counts.values()),
            "ld_n": counts["n"], "ld_p": counts["p"], "ld_e": counts["e"],
        }
    return row


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def speedup_geomean(rnd: Round) -> float:
    """Geomean over programs of baseline cycles / proposed-config cycles
    (0.0 when no program completed)."""
    ratios = [
        r.baseline_cycles / r.proposed.cycles
        for r in rnd.rows if r.proposed is not None and r.proposed.cycles
    ]
    if not ratios:
        return 0.0
    # fsum is exactly rounded, so the run order cannot move the last bit.
    return math.exp(math.fsum(math.log(v) for v in ratios) / len(ratios))


def end_to_end(rounds: List[Round], setups: List[Dict[str, float]],
               peak_rss_mb: float) -> Dict[str, float]:
    """Every end-to-end metric: medians over set-ups and untraced rounds
    of host times scaled to the reference speed."""
    rates = [r.sim_insts / (r.sweep * r.speed) for r in rounds if r.sweep]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {
        "setup_s": statistics.median(t["setup_s"] * t["speed"]
                                     for t in setups),
        "wall_s": statistics.median(r.wall * r.speed for r in rounds),
        "sweep_s": statistics.median(r.sweep * r.speed for r in rounds),
        "sim_inst_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (attempted - failed) / attempted,
        "speedup_geomean": speedup_geomean(rounds[0]),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_self_times(rnd: Round) -> Dict[str, Dict[str, float]]:
    """``{program: {layer metric: self seconds}}`` of one round.

    Stage spans map through :data:`LAYER_OF_STAGE`; compile shim spans
    map to their compile sub-layer.  ``compile.s`` is the whole compile
    layer (its sub-layers partition it), so it is filled in from them.
    """
    out: Dict[str, Dict[str, float]] = {}
    for span, self_s in zip(rnd.rec.spans, rnd.rec.self_times()):
        layer = LAYER_OF_STAGE.get(span.name)
        if span.name == "compile":
            layer = "compile.other_s"
        elif span.name in FRONTEND:
            layer = "compile.frontend_s"
        elif span.name in VERIFIERS:
            layer = "compile.verify_s"
        elif span.name in PASSES:
            layer = f"compile.pass.{span.name}_s"
        times = out.setdefault(span.program, {})
        times[layer] = times.get(layer, 0.0) + self_s
    for times in out.values():
        times["compile.s"] = sum(
            v for k, v in times.items() if k.startswith("compile.")
        )
    return out


def per_layer(rnd: Round, untraced: List[Round],
              setup_times: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced round, at reference speed."""
    m: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for times in layer_self_times(rnd).values():
        for key, value in times.items():
            m[key] += value
    calls = {p: 0 for p in PASSES}
    changed = {p: 0 for p in PASSES}
    verify_calls = 0
    for span in rnd.rec.spans:
        if span.name in calls:
            calls[span.name] += 1
            changed[span.name] += bool(span.changed)
        elif span.name in VERIFIERS:
            verify_calls += 1
    for p in PASSES:
        m[f"compile.pass.{p}_calls"] = calls[p]
        m[f"compile.pass.{p}_changed"] = changed[p]
    m["compile.pass_useful_share"] = _ratio(
        sum(changed[p] for p in CHANGE_FLAG_PASSES),
        sum(calls[p] for p in CHANGE_FLAG_PASSES),
    )
    m["compile.verify_calls"] = verify_calls
    for key in ("static_insts", "static_loads", "ld_n", "ld_p", "ld_e"):
        m[f"compile.{key}"] = sum(r.static.get(key, 0) for r in rnd.rows)
    dyn = sum(r.trace_len for r in rnd.rows)
    m["emulate.dyn_insts"] = dyn
    m["emulate.ns_per_inst"] = _ratio(m["emulate.s"] * 1e9, dyn)
    m["sim.configs"] = sum(r.configs for r in rnd.rows if r.trace_len)
    m["sim.insts"] = rnd.sim_insts
    m["sim.ns_per_inst"] = _ratio(m["sim.s"] * 1e9, rnd.sim_insts)
    m["sim.inline_share"] = _ratio(
        sum(r.inline_configs for r in rnd.rows), m["sim.configs"]
    )
    prop = [r.proposed for r in rnd.rows if r.proposed is not None]
    m["model.ipc"] = _ratio(
        sum(s.instructions for s in prop), sum(s.cycles for s in prop)
    )
    m["model.pred_success_rate"] = _ratio(
        sum(s.pred_success for s in prop), sum(s.pred_loads for s in prop)
    )
    m["model.calc_success_rate"] = _ratio(
        sum(s.calc_success for s in prop), sum(s.calc_loads for s in prop)
    )
    m["model.dcache_miss_rate"] = _ratio(
        sum(s.dcache_misses for s in prop),
        sum(s.dcache_hits + s.dcache_misses for s in prop),
    )
    m["trace.wall_s"] = rnd.wall
    m["trace.unattributed_s"] = rnd.wall - sum(
        m[name] for name in LAYER_OF_STAGE.values()
    )
    for name, unit in PER_LAYER:
        if unit in ("s", "ns/inst"):
            m[name] *= rnd.speed
    untraced_wall = statistics.median(r.wall * r.speed for r in untraced)
    m["trace.overhead_frac"] = m["trace.wall_s"] / untraced_wall - 1.0
    m["workloads.plan_s"] = setup_times["plan_s"] * setup_times["speed"]
    m["workloads.source_s"] = setup_times["source_s"] * setup_times["speed"]
    return m
