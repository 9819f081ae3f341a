"""The timing loop: config-invariant precomputation + windowed replay.

A config sweep replays one :class:`~repro.sim.trace.Trace` under many
:class:`~repro.sim.machine.EarlyGenConfig` variants (the harness runs
~17 per workload).  Most of the per-replay work is provably identical
across those variants, because the trace fixes the dynamic instruction
and address streams and the model accesses memory strictly in trace
order:

* **Demand D-cache outcomes** — every dynamic load performs exactly one
  demand access and every store one write access, in trace order, so
  the hit/miss stream and the fill-state timeline depend only on the
  address stream — *except* for wrong-address prediction accesses,
  which pollute the cache with the mispredicted block (see below).
* **Predictor outcomes** — the backend is probed and updated
  unconditionally for every load routed to the prediction path, so the
  outcome stream depends only on the backend's canonical
  ``predictor_key`` (backend name, capacity, confidence, params) and
  on *which* loads are routed there (the routing mask), never on
  ports, latencies, or the calc path.  Backends that train on demand
  d-cache outcomes additionally see the demand-hit stream, which is
  itself a pure function of the routing mask.
* **Early-calc cache outcomes** — ``R_addr`` bindings and BRIC probes
  likewise evolve only with the sequence of calc-routed loads.

This module precomputes those streams once per trace (cached on the
Program the same way ``_precompute_frontend`` caches front-end
outcomes) and replays them through :func:`_replay`, a window-local
scoreboard that only does timing accounting.  What is *not*
config-invariant stays in the replay: port arbitration, store
interlocks, the ``R_addr`` writeback interlock, and issue scheduling.
:func:`_replay` is the only fast encoding of the timing model; the seed
implementation in :mod:`repro.sim._pipeline_reference` is its oracle.

Two effects cannot be precomputed:

* **Wrong-address pollution** is gated on a port being free one cycle
  early.  The streams assume every wrong-address access dispatches and
  fills the cache.  A stream replay that reaches a wrong-address
  prediction with no free port stops there: every later cache outcome
  in its streams may be wrong.
* **Hardware dual-path selection** routes each load at decode using the
  current interlock state (timing-dependent).

Both are served by the loop's *live mode*: the same replay over the same
records, driving a fresh predictor, ``R_addr``/BRIC and d-cache through
their public methods at each load instead of reading streams.  Live mode
is exact for any config; it runs the hardware dual-path configs and
every config whose stream replay stopped at such a divergence
(exact-or-live).

:func:`simulate_one` (behind ``TimingSimulator.run``) and
:func:`simulate_many` build the precompute on first use and share it
across every later run on the trace.  Timelines and tightened watchdogs
are a per-record observer of the loop; event hooks run after it.  The
golden snapshots, the randomized parity suites, and the ``python -m
repro.sim.precompute`` gate hold every path byte-identical to the
reference.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict, deque
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Union

from repro import obs
from repro.errors import SimulationHang
from repro.isa.opcodes import LoadSpec
from repro.sim.addr_reg import RAddr, RegisterCache
from repro.sim.cache import DirectMappedCache
from repro.sim.machine import (
    EarlyGenConfig,
    MachineConfig,
    SelectionMode,
)
from repro.sim.pipeline import (
    _DRAIN,
    TimingSimulator,
    _decode_program,
    _precompute_frontend,
)
from repro.sim.stats import SimStats
from repro.sim.predictors import (
    create as _create_predictor,
    predictor_key as _predictor_key,
)
from repro.sim.predictors.stride import TableEntry
from repro.sim.trace import Trace

#: Per-program bound on cached machine variants (front-end + dcache
#: geometry differ per variant; the harness sweeps early-gen configs on
#: a single machine, so this stays tiny in practice).
_PRECOMPUTE_LIMIT = 4
#: Per-precompute bounds on derived per-config streams.
_STREAM_LIMIT = 32
_ROUTE_LIMIT = 32

# Replay record kinds (coarser than the decode kinds: the replay only
# distinguishes the unit an instruction consumes).
_R_LOAD = 0
_R_STORE = 1
_R_BRANCH = 2
_R_CALL = 3
_R_ALU = 4
_R_FP = 5
_R_FREE = 6

#: Source-slot sentinel that always reads ready-at-0, and a junk dest
#: slot, so the replay never branches on "has operand / has dest".
_NO_SRC = 128
_NO_DEST = 129

# route byte -> membership masks, applied with bytes.translate.
_PMASK_TAB = bytes(1 if b == 1 else 0 for b in range(256))
_EMASK_TAB = bytes(1 if b == 2 else 0 for b in range(256))


#: Identical stream tuples produce identical stats (the replay is a
#: pure function of them), so sweeps memoize per-tuple results.
_STATS_MEMO_LIMIT = 64


def _machine_key(cfg: MachineConfig) -> tuple:
    """Everything that shapes the precompute except the early-gen config."""
    return (
        cfg.issue_width, cfg.int_alus, cfg.mem_ports, cfg.fp_alus,
        cfg.branch_units, cfg.icache, cfg.dcache, cfg.btb_entries,
        cfg.load_latency, cfg.mispredict_penalty, cfg.jump_bubble,
        cfg.ras_entries,
    )


class TracePrecompute:
    """One trace's config-invariant replay state for one machine shape.

    Built in a single pass over the trace:

    * ``records`` — per-dynamic-instruction replay tuples
      ``(kind, fetch_penalty, src1, src2, src3, dest, extra)`` with the
      front-end outcomes (i-cache stall, branch redirect cycles) baked
      in.  Tuples are interned on ``(uid, penalty, extra)`` so the list
      costs one pointer per position.
    * the load/store order of the memory ops, per-load facts (PC,
      effective address, base/displacement slots, addressing mode) and
      per-store word addresses, which the per-config stream builders
      and live mode read.

    Per-config streams are derived lazily and cached with an LRU bound:

    * ``dstream`` — demand-hit / prediction-outcome codes per dynamic
      load, keyed ``(predictor_key, p-mask)``, plus the
      demand/store/pollution miss totals,
    * ``estream`` — calc-path dispatch-candidate codes, keyed
      ``(cached_regs, use_raddr, e-mask)``.

    Counter semantics (asserted in the stream builders and pinned by
    ``tests/sim/test_counter_semantics.py``): a load's demand access
    always counts exactly once (hit or miss-and-fill), a store's write
    access counts but never fills, and a wrong-address speculative
    access counts and fills under the *predicted* address — therefore
    ``SimStats.dcache_misses = demand + store + pollution misses`` and
    ``SimStats.dcache_hits = loads - demand misses``.
    """

    __slots__ = (
        "flat", "uids", "machine_key", "dcache_cfg",
        "n", "n_loads", "n_stores", "records",
        "imiss_total", "misp_total",
        "mseq_kind", "lpc", "lea", "lbase", "lro", "ldisp",
        "dyn_load_uids", "sword", "static_load_uids",
        "per_entry_bound", "total_cycle_bound",
        "_routes", "_dstreams", "_estreams", "_stats_memo",
    )

    def __init__(self, program, trace: Trace, cfg: MachineConfig):
        dec, load_uids = _decode_program(program)
        ifetch, imiss_total, br_extra, misp_total = _precompute_frontend(
            program, trace, cfg, dec
        )
        self.flat = program.flat
        self.uids = trace.uids
        self.machine_key = _machine_key(cfg)
        self.dcache_cfg = cfg.dcache
        self.imiss_total = imiss_total
        self.misp_total = misp_total
        self.static_load_uids = load_uids

        uids = trace.uids
        eas = trace.eas
        n = len(uids)
        self.n = n

        records: list = []
        rec_append = records.append
        intern: dict = {}
        mseq_kind = bytearray()
        mk_append = mseq_kind.append
        lpc = array("q")
        lea = array("q")
        lbase = bytearray()
        lro = bytearray()
        ldisp = bytearray()
        dyn_load_uids = array("q")
        sword = array("q")
        max_lat = 1

        for i in range(n):
            uid = uids[i]
            d = dec[uid]
            kind = d[0]
            pen = ifetch[i]
            x = 0
            if kind == 0:
                k = _R_LOAD
            elif kind == 1:
                k = _R_STORE
            elif kind <= 5:
                k = _R_CALL if kind == 4 else _R_BRANCH
                x = br_extra[i]
            elif kind == 6:
                k = _R_FP
                x = d[7]
            elif kind == 7:
                k = _R_FREE
                x = d[7]
            else:
                k = _R_ALU
                x = d[7]
            key = (uid, pen, x)
            rec = intern.get(key)
            if rec is None:
                # _decode_program guarantees at most three sources.
                srcs = d[2]
                ns = len(srcs)
                s1 = srcs[0] if ns else _NO_SRC
                s2 = srcs[1] if ns > 1 else _NO_SRC
                s3 = srcs[2] if ns > 2 else _NO_SRC
                dest = d[3]
                if dest < 0:
                    dest = _NO_DEST
                if k >= _R_ALU and x > max_lat:
                    max_lat = x
                rec = intern[key] = (k, pen, s1, s2, s3, dest, x)
            rec_append(rec)
            if k == _R_LOAD:
                ea = eas[i]
                mk_append(0)
                lpc.append(d[8])
                lea.append(ea)
                lbase.append(d[4])
                lro.append(d[5])
                ldisp.append(d[6] if d[6] >= 0 else 0)
                dyn_load_uids.append(uid)
            elif k == _R_STORE:
                ea = eas[i]
                mk_append(1)
                sword.append(ea >> 2)

        self.records = records
        self.mseq_kind = bytes(mseq_kind)
        self.lpc = lpc
        self.lea = lea
        self.lbase = bytes(lbase)
        self.lro = bytes(lro)
        self.ldisp = bytes(ldisp)
        self.dyn_load_uids = dyn_load_uids
        self.sword = sword
        self.n_loads = len(lea)
        self.n_stores = len(sword)

        # Watchdog bound: the most cycles one replay record can advance
        # the clock (fetch stall + operand wait + one resource
        # re-arbitration + branch redirect).  Watchdogs looser than this
        # provably cannot fire, so only tighter ones need the observer.
        self.per_entry_bound = (
            cfg.icache.miss_penalty
            + max(cfg.load_latency + cfg.dcache.miss_penalty, max_lat)
            + cfg.mispredict_penalty
            + cfg.jump_bubble
            + 8
        )
        self.total_cycle_bound = n * self.per_entry_bound + _DRAIN + 16

        self._routes: OrderedDict = OrderedDict()
        self._dstreams: OrderedDict = OrderedDict()
        self._estreams: OrderedDict = OrderedDict()
        self._stats_memo: OrderedDict = OrderedDict()

    # -- derived per-config streams --------------------------------------

    def route_for(self, scheme_bytes: bytes) -> bytes:
        """Per-dynamic-load routing (0/1/2) from per-static-load bytes."""
        routes = self._routes
        route = routes.get(scheme_bytes)
        if route is not None:
            routes.move_to_end(scheme_bytes)
            return route
        per_uid = bytearray(len(self.flat))
        for u, s in zip(self.static_load_uids, scheme_bytes):
            per_uid[u] = s
        route = bytes(map(per_uid.__getitem__, self.dyn_load_uids))
        while len(routes) >= _ROUTE_LIMIT:
            routes.popitem(last=False)
        routes[scheme_bytes] = route
        return route

    def dstream(self, eg: EarlyGenConfig, route: bytes) -> tuple:
        """Demand/prediction outcome stream for *eg* under *route*.

        Returns ``(codes, demand_misses, store_misses, pollution_misses)``
        where ``codes[li]`` has bit 0 = demand access hit, bit 1 = a
        functioning prediction was made, bit 2 = the prediction matched
        the computed address.  Every wrong-address prediction (bit 1
        without bit 2) is assumed to dispatch and fill the cache under
        the predicted address; :func:`_replay` stops where it did not.
        """
        if not eg.table_entries or 1 not in route:
            key = None
        else:
            key = (_predictor_key(eg), route.translate(_PMASK_TAB))
        streams = self._dstreams
        hit = streams.get(key)
        if hit is not None:
            streams.move_to_end(key)
            return hit
        if key is None:
            built = self._build_dstream(None, None)
        else:
            built = self._build_dstream(eg, key[1])
        while len(streams) >= _STREAM_LIMIT:
            streams.popitem(last=False)
        streams[key] = built
        return built

    def _build_dstream(self, eg: Optional[EarlyGenConfig],
                       pmask: Optional[bytes]) -> tuple:
        dc = DirectMappedCache(self.dcache_cfg)
        direct = type(dc) is DirectMappedCache
        if direct:
            tags = dc._tags
            bs = dc._block_shift
            im = dc._index_mask
            ts = dc._tag_shift
        dc_access = dc.access
        dc_write = dc.write_access

        # The backend comes from the same registry factory as live mode
        # and the reference, so the stream replays the identical state
        # machine.
        table = (_create_predictor(eg)
                 if eg is not None and pmask is not None else None)
        tb_inline = (table is not None and eg.predictor == "stride"
                     and not eg.table_confidence_bits)
        # Demand-trained backends consume the demand outcome, so their
        # update is deferred until after the demand access below (the
        # update itself never touches the cache — same outcome as the
        # reference's probe-before-access).
        tb_demand = table is not None and table.trains_on_demand
        if tb_inline:
            tbl = table._table
            t_im = table._index_mask
            t_ib = table._index_bits
        tb_probe = table.probe if table is not None else None
        tb_update = table.update if table is not None else None

        codes = bytearray(self.n_loads)
        dmiss = store_miss = poll_miss = poll_hit = 0
        lpc = self.lpc
        lea = self.lea
        sword = self.sword
        li = 0
        si = 0
        for mk in self.mseq_kind:
            if mk == 0:
                ea = lea[li]
                code = 0
                probed = pmask is not None and pmask[li]
                if probed:
                    pc_addr = lpc[li]
                    if tb_inline:
                        tword = pc_addr >> 2
                        t_idx = tword & t_im
                        t_tag = tword >> t_ib
                        entry = tbl[t_idx]
                        if (
                            entry is None
                            or entry.tag != t_tag
                            or entry.state
                        ):
                            predicted = None
                        else:
                            predicted = entry.pa
                    else:
                        predicted = tb_probe(pc_addr)
                    if predicted is not None:
                        if predicted == ea:
                            code = 6
                        else:
                            # Assumed-dispatched wrong-address access:
                            # counts and fills under the predicted
                            # address (the replay stops if the dispatch
                            # did not actually happen).
                            code = 2
                            if direct:
                                cblk = predicted >> bs
                                cidx = cblk & im
                                ctag = cblk >> ts
                                if tags[cidx] != ctag:
                                    tags[cidx] = ctag
                                    poll_miss += 1
                                else:
                                    poll_hit += 1
                            elif dc_access(predicted):
                                poll_hit += 1
                            else:
                                poll_miss += 1
                    if tb_inline:
                        # Identical state-machine arcs to
                        # AddressPredictionTable.update (Figure 3):
                        # Replace / Correct / New_Stride / Verified_Stride.
                        if entry is None:
                            tbl[t_idx] = TableEntry(t_tag, ea)
                        elif entry.tag != t_tag:
                            entry.allocate(t_tag, ea)
                        elif entry.state == 0:
                            if entry.pa == ea:
                                entry.pa = ea + entry.st
                            else:
                                entry.st = ea - entry.pa
                                entry.stc = 0
                                entry.pa = ea
                                entry.state = 1
                        elif ea - entry.pa == entry.st:
                            entry.pa = ea + entry.st
                            entry.stc = 1
                            entry.state = 0
                        else:
                            entry.st = ea - entry.pa
                            entry.pa = ea
                    elif not tb_demand:
                        tb_update(pc_addr, ea, predicted)
                # The demand access happens for every load, whatever
                # the speculation outcome: a successful speculative
                # access probed the same state the demand access sees,
                # so one `access` covers both (same result, same fill,
                # same LRU refresh).
                if direct:
                    cblk = ea >> bs
                    cidx = cblk & im
                    ctag = cblk >> ts
                    if tags[cidx] == ctag:
                        code |= 1
                    else:
                        tags[cidx] = ctag
                        dmiss += 1
                elif dc_access(ea):
                    code |= 1
                else:
                    dmiss += 1
                if probed and tb_demand:
                    tb_update(pc_addr, ea, predicted, bool(code & 1))
                codes[li] = code
                li += 1
            else:
                # Write-through, no-allocate: counts, never fills.  The
                # word address lies in the store's block.
                ea = sword[si] << 2
                si += 1
                if direct:
                    cblk = ea >> bs
                    if tags[cblk & im] != cblk >> ts:
                        store_miss += 1
                elif not dc_write(ea):
                    store_miss += 1

        if not direct:
            # Counter-semantics contract (satellite): the cache's own
            # accounting must agree with the stream totals, which is
            # exactly what makes SimStats.dcache_* reconstructible.
            assert dc.misses == dmiss + store_miss + poll_miss
            assert dc.hits == (
                (self.n_loads - dmiss)
                + (self.n_stores - store_miss)
                + poll_hit
            )
            assert dc.accesses == dc.hits + dc.misses
        return (bytes(codes), dmiss, store_miss, poll_miss)

    def estream(self, eg: EarlyGenConfig, route: bytes) -> bytes:
        """Calc-path dispatch-candidate codes for *eg* under *route*.

        ``codes[li]`` bit 0 = the load may dispatch a speculative access
        (binding/BRIC hit with a usable addressing mode), bit 1 = the
        reg+reg partial case (latency 1 instead of 0).
        """
        if not eg.cached_regs or 2 not in route:
            return b""
        use_raddr = eg.selection is SelectionMode.COMPILER
        key = (eg.cached_regs, use_raddr, route.translate(_EMASK_TAB))
        streams = self._estreams
        hit = streams.get(key)
        if hit is not None:
            streams.move_to_end(key)
            return hit
        built = self._build_estream(key[0], key[1], key[2])
        while len(streams) >= _STREAM_LIMIT:
            streams.popitem(last=False)
        streams[key] = built
        return built

    def _build_estream(self, cached_regs: int, use_raddr: bool,
                       emask: bytes) -> bytes:
        n_loads = self.n_loads
        codes = bytearray(n_loads)
        lbase = self.lbase
        lro = self.lro
        ldisp = self.ldisp
        if use_raddr:
            bound = -1
            for li in range(n_loads):
                if emask[li]:
                    base = lbase[li]
                    # A load that just switched the binding reads a
                    # stale value; reg+reg cannot use R_addr at all.
                    if bound == base and lro[li]:
                        codes[li] = 1
                    bound = base
        else:
            rc = RegisterCache(cached_regs)
            rc_probe = rc.probe
            rc_insert = rc.insert
            for li in range(n_loads):
                if emask[li]:
                    if rc_probe(lbase[li]):
                        if lro[li]:
                            codes[li] = 1
                        elif rc_probe(ldisp[li]):
                            codes[li] = 3
                    rc_insert(lbase[li])
        return bytes(codes)


def _scheme_bytes(program, eg: EarlyGenConfig,
                  override: Optional[Dict[int, LoadSpec]]) -> Optional[bytes]:
    """Per-static-load routing (0/1/2), or None when routing is decided
    at decode (hardware dual-path selection)."""
    dec, load_uids = _decode_program(program)
    nl = len(load_uids)
    if not (eg.table_entries or eg.cached_regs):
        return bytes(nl)
    has_table = eg.table_entries > 0
    has_reg = eg.cached_regs > 0
    if eg.selection is SelectionMode.COMPILER:
        flat = program.flat
        get_override = override.get if override is not None else None
        out = bytearray(nl)
        for j in range(nl):
            u = load_uids[j]
            lspec = flat[u].lspec
            if get_override is not None:
                lspec = get_override(u, lspec)
            if lspec is LoadSpec.P:
                if has_table:
                    out[j] = 1
            elif lspec is LoadSpec.E and has_reg:
                out[j] = 2
        return bytes(out)
    if has_table and has_reg:
        return None
    return (b"\x01" if has_table else b"\x02") * nl


def get_precompute(trace: Trace, cfg: MachineConfig) -> TracePrecompute:
    """The trace's precompute for *cfg*'s machine shape, built on first use.

    Cached on the Program keyed by trace identity (like the front-end
    cache) with an LRU bound of ``_PRECOMPUTE_LIMIT`` machine shapes.
    """
    program = trace.program
    cached = getattr(program, "_sim_precompute", None)
    if cached is None or cached[0] is not trace.uids:
        cached = (trace.uids, OrderedDict())
        program._sim_precompute = cached
    store = cached[1]
    key = _machine_key(cfg)
    pre = store.get(key)
    if pre is not None and pre.flat is program.flat:
        store.move_to_end(key)
        return pre
    pre = TracePrecompute(program, trace, cfg)
    while len(store) >= _PRECOMPUTE_LIMIT:
        store.popitem(last=False)
    store[key] = pre
    return pre


def _watchdogs_compatible(pre: TracePrecompute, sim: TimingSimulator) -> bool:
    """True when the watchdogs provably cannot fire on this trace, so
    the replay needs no observer to enforce them."""
    if sim.stall_limit and sim.stall_limit < pre.per_entry_bound:
        return False
    if sim.max_cycles and sim.max_cycles < pre.total_cycle_bound:
        return False
    return True


#: Watchdog threshold standing in for a disabled (``0``) watchdog.
_NEVER = 1 << 62


class _Observer:
    """Per-record observer of :func:`_replay`: one run's timeline and
    watchdogs.

    Called at every record boundary, in trace order, with the cycle the
    previous record ended on, that record's route and success flag (if
    it was a load), and the register-ready scoreboard its latency is
    read from.  The first call, before any record, reports nothing.
    """

    __slots__ = ("sim", "records", "uids", "timeline", "stall_limit",
                 "max_cycles", "i", "t_enter", "stores")

    def __init__(self, sim: TimingSimulator, pre: TracePrecompute):
        self.sim = sim
        self.records = pre.records
        self.uids = pre.uids
        self.timeline: Optional[list] = (
            [] if sim.collect_timeline else None
        )
        self.stall_limit = sim.stall_limit or _NEVER
        self.max_cycles = sim.max_cycles or _NEVER
        self.i = -1
        self.t_enter = 0
        #: Issue cycles of stores still in flight (for the hang dump).
        self.stores: deque = deque()

    def __call__(self, cur: int, route: int, success: bool,
                 rr: list) -> None:
        i = self.i
        self.i = i + 1
        if i < 0:
            return
        k, _, _, _, _, dest, x = self.records[i]
        t = cur
        if k == _R_STORE:
            stores = self.stores
            while stores and stores[0] < cur - 2:
                stores.popleft()
            stores.append(cur)
        elif k == _R_BRANCH or k == _R_CALL:
            t = cur - x  # issue cycle, before the redirect
        if self.timeline is not None:
            if k == _R_LOAD:
                lat = rr[dest] - cur
                if route == 0:
                    note = f"load lat={lat}"
                else:
                    outcome = "hit" if success else "miss"
                    note = f"{'pe'[route - 1]}-{outcome} lat={lat}"
            elif k == _R_STORE:
                note = "store"
            elif k == _R_BRANCH or k == _R_CALL:
                note = "branch mispredict" if x > 1 else "branch"
            else:
                note = ""
            self.timeline.append((self.uids[i], t, note))
        if cur - self.t_enter > self.stall_limit:
            self._hang(i, cur, f"no retirement for {cur - self.t_enter} "
                       f"cycles (stall limit {self.sim.stall_limit})")
        if cur > self.max_cycles:
            self._hang(i, cur,
                       f"cycle budget exceeded ({self.sim.max_cycles})")
        self.t_enter = cur

    def _hang(self, i: int, cur: int, message: str) -> None:
        sim = self.sim
        uid = self.uids[i]
        op = sim.trace.program.flat[uid].opcode
        raise SimulationHang(
            message, dump=sim._hang_dump(i, uid, op, cur, self.stores)
        )


#: Process-wide replay path counters, keyed by the ``sim.replay`` event
#: ``path`` field: ``memo`` and ``scalar`` for replays on precomputed
#: streams, ``inline:<reason>`` for runs in live mode, not on
#: precomputed streams (``hw-dual`` or ``divergence-fallback``).
#: Exposed for tests and ``obs_report``.
_replay_paths: Dict[str, int] = {}


def replay_path_counts() -> Dict[str, int]:
    return dict(_replay_paths)


def _count_path(path: str) -> None:
    _replay_paths[path] = _replay_paths.get(path, 0) + 1


def _copy_stats(stats: SimStats) -> SimStats:
    return replace(stats, scheme_counts=dict(stats.scheme_counts))


def simulate_one(sim: TimingSimulator) -> SimStats:
    """Run *sim* on the timing loop (what ``TimingSimulator.run`` does).

    Static routes replay the precomputed streams: through the stats memo
    when an identical stream tuple was already replayed, through
    :func:`_replay` otherwise.  Hardware dual-path configs, and configs
    whose stream replay stopped at a wrong-address prediction that found
    no port, run the same loop in live mode.  A timeline, or a watchdog
    tighter than the trace can reach, attaches the per-record observer
    to a final replay; the event hook and tracer counters run after the
    loop.
    """
    cfg = sim.config
    eg = cfg.earlygen
    trace = sim.trace
    pre = get_precompute(trace, cfg)
    observer = None
    if sim.collect_timeline or not _watchdogs_compatible(pre, sim):
        observer = _Observer(sim, pre)
    sb = _scheme_bytes(trace.program, eg, sim.spec_override)
    if sb is None:
        stats, ra_interlock = _run_live(pre, cfg, None, "hw-dual", observer)
    else:
        route = pre.route_for(sb)
        streamed = _run_streams(pre, cfg, route)
        if streamed is None:
            stats, ra_interlock = _run_live(
                pre, cfg, route, "divergence-fallback", observer
            )
        elif observer is None:
            stats, ra_interlock, _ = streamed
        else:
            # A completed stream replay is exact, so the observed replay
            # sees exactly the run the unobserved one accounted.
            stats, ra_interlock = _replay(
                pre, cfg, route, streamed[2], observer
            )
    if observer is not None:
        stats.timeline = observer.timeline
    _emit_counters(sim.event_hook, eg, stats, ra_interlock)
    return stats


def _run_streams(pre: TracePrecompute, cfg: MachineConfig, route: bytes):
    """Replay *route* on its precomputed streams.

    Returns ``(stats, ra_interlock, streams)``, or None when the replay
    stopped at a wrong-address prediction that found no port.
    """
    eg = cfg.earlygen
    dcodes, dmiss, store_miss, poll_miss = pre.dstream(eg, route)
    streams = (dcodes, (dmiss, store_miss, poll_miss),
               pre.estream(eg, route))
    # The replay is a pure function of the stream tuple (the machine
    # shape is fixed per precompute), so an identical tuple
    # short-circuits to the memoized result.  Only completed replays are
    # memoized.
    memo = pre._stats_memo
    memo_key = (route,) + streams
    result = memo.get(memo_key)
    if result is not None:
        memo.move_to_end(memo_key)
        path = "memo"
    else:
        result = _replay(pre, cfg, route, streams)
        if result is None:
            return None
        while len(memo) >= _STATS_MEMO_LIMIT:
            memo.popitem(last=False)
        memo[memo_key] = result
        path = "scalar"
    _count_path(path)
    tracer = obs.current()
    if tracer.enabled:
        tracer.event(
            "sim.replay",
            path=path,
            table=eg.table_entries,
            regs=eg.cached_regs,
            selection=eg.selection.value,
            predictor=eg.predictor,
        )
    stats, ra_interlock = result
    return _copy_stats(stats), ra_interlock, streams


def _run_live(pre: TracePrecompute, cfg: MachineConfig,
              route: Optional[bytes], reason: str,
              observer: Optional[_Observer]):
    """Run the loop in live mode, recording why it did not stream."""
    eg = cfg.earlygen
    _count_path("inline:" + reason)
    tracer = obs.current()
    if tracer.enabled:
        tracer.event("sim.replay", path="inline", reason=reason,
                     predictor=eg.predictor)
    return _replay(pre, cfg, route, None, observer)


def _event_counters(stats: SimStats, ra_interlock: int) -> dict:
    """Flat event-counter payload handed to the observability hook."""
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "loads": stats.loads,
        "stores": stats.stores,
        "scheme_n": stats.scheme_counts.get("n", 0),
        "scheme_p": stats.scheme_counts.get("p", 0),
        "scheme_e": stats.scheme_counts.get("e", 0),
        "pred_loads": stats.pred_loads,
        "pred_dispatched": stats.pred_spec_dispatched,
        "pred_success": stats.pred_success,
        "pred_wrong_address": stats.pred_wrong_address,
        "calc_loads": stats.calc_loads,
        "calc_dispatched": stats.calc_spec_dispatched,
        "calc_success": stats.calc_success,
        "calc_success_partial": stats.calc_success_partial,
        "raddr_interlock": ra_interlock,
        "spec_no_port": stats.spec_no_port,
        "spec_mem_interlock": stats.spec_mem_interlock,
        "spec_dcache_miss": stats.spec_dcache_miss,
        "dcache_hits": stats.dcache_hits,
        "dcache_misses": stats.dcache_misses,
        "icache_misses": stats.icache_misses,
        "btb_mispredicts": stats.btb_mispredicts,
    }


def _emit_counters(hook, eg: EarlyGenConfig, stats: SimStats,
                   ra_interlock: int) -> None:
    """The post-run observability seam: strictly after the loop, and
    free when neither a hook nor a tracer is installed."""
    tracer = obs.current()
    if hook is None and not tracer.enabled:
        return
    payload = _event_counters(stats, ra_interlock)
    if hook is not None:
        hook(payload)
    if tracer.enabled:
        tracer.event(
            "sim.counters",
            counters=payload,
            table=eg.table_entries,
            regs=eg.cached_regs,
            selection=eg.selection.value,
        )


def _replay(pre: TracePrecompute, cfg: MachineConfig,
            route: Optional[bytes], streams: Optional[tuple] = None,
            observer: Optional[_Observer] = None):
    """One timing pass over ``pre.records``: the model's cycle loop.

    The conventions are the ones documented in :mod:`repro.sim.pipeline`.
    The per-cycle scoreboards collapse to a handful of locals because
    the issue cycle is monotone: ``iss`` / ``alu`` / ``fpu`` / ``bru``
    count units consumed at the current cycle, and a three-slot window
    ``pp`` / ``pm`` / ``pc`` tracks memory ports at cycles ``cur-1`` /
    ``cur`` / ``cur+1`` (speculative accesses charge ``pp``, normal MEM
    accesses charge ``pc``).  Every clock advance shifts the window by
    the advance distance.

    With ``streams = (dcodes, dtotals, ecodes)`` each load's cache,
    predictor and calc-path outcomes come from the precomputed streams
    under the static per-load *route*.  The streams assume every
    wrong-address prediction dispatched and filled the cache, so the
    replay returns None at once when one finds no free port.  With
    ``streams=None`` the loop runs in live mode: each load drives a
    fresh predictor, ``R_addr``/BRIC and d-cache through their public
    methods, producing the same codes and filling the cache only when
    the wrong-address access dispatches, and ``route=None`` picks each
    load's path at decode (hardware dual-path selection).  Live mode
    always completes.

    *observer*, when set, is called at every record boundary: before
    each record and after the last (see :class:`_Observer`).

    Returns ``(stats, ra_interlock)``, or None for a stopped stream
    replay.
    """
    records = pre.records
    lea = pre.lea
    lbase = pre.lbase
    sword = pre.sword

    width = cfg.issue_width
    n_ports = cfg.mem_ports
    n_alus = cfg.int_alus
    n_fpus = cfg.fp_alus
    n_brus = cfg.branch_units
    ld_lat, ld_hit_lat, miss_lat = cfg.load_latencies()

    live = streams is None
    hw_dual = route is None
    if live:
        eg = cfg.earlygen
        if hw_dual:
            route = bytearray(pre.n_loads)
        ecodes = bytearray(pre.n_loads)
        lpc = pre.lpc
        lro = pre.lro
        ldisp = pre.ldisp
        dcache = DirectMappedCache(cfg.dcache)
        dc_access = dcache.access
        dc_write = dcache.write_access
        table = _create_predictor(eg)
        if table is not None:
            tb_probe = table.probe
            tb_update = table.update
            tb_demand = table.trains_on_demand
        raddr = regcache = None
        if eg.cached_regs:
            if eg.selection is SelectionMode.COMPILER:
                raddr = RAddr()
            else:
                regcache = RegisterCache(eg.cached_regs)
        wi = 0  # stores already written to the live d-cache
        ldmiss = 0
    else:
        dcodes, dtotals, ecodes = streams
    spec_any = hw_dual or 1 in route or 2 in route

    rr = [0] * 130
    cur = 0
    iss = alu = fpu = bru = 0
    pp = pm = pc = 0

    sq: deque = deque()
    sq_append = sq.append
    sq_popleft = sq.popleft

    li = 0
    si = 0
    r = 0
    success = False
    pred_disp = pred_succ = pred_wrong = 0
    calc_disp = calc_succ = calc_part = 0
    sp_noport = sp_interlock = sp_dmiss = 0
    ra_interlock = 0

    for k, pen, s1, s2, s3, dest, x in records:
        if observer is not None:
            observer(cur, r, success, rr)
        t_enter = cur
        if pen:
            if pen == 1:
                pp = pm
                pm = pc
            elif pen == 2:
                pp = pc
                pm = 0
            else:
                pp = 0
                pm = 0
            pc = 0
            iss = alu = fpu = bru = 0
            cur += pen

        t = rr[s1]
        r2 = rr[s2]
        if r2 > t:
            t = r2
        r3 = rr[s3]
        if r3 > t:
            t = r3
        if t > cur:
            d = t - cur
            if d == 1:
                pp = pm
                pm = pc
            elif d == 2:
                pp = pc
                pm = 0
            else:
                pp = 0
                pm = 0
            pc = 0
            iss = alu = fpu = bru = 0
            cur = t

        if k == 4:  # int ALU
            if iss >= width or alu >= n_alus:
                cur += 1
                pp = pm
                pm = pc
                pc = 0
                iss = alu = fpu = bru = 0
            iss += 1
            alu += 1
            rr[dest] = cur + x

        elif k == 0:  # load
            if live:
                ea = lea[li]
                while wi < si:  # earlier stores, in trace order
                    dc_write(sword[wi] << 2)
                    wi += 1
                if hw_dual:
                    # Eickemeyer-Vassiliadis: prediction only for loads
                    # whose base register is interlocked at decode,
                    # which is after the fetch penalty.
                    r = 1 if rr[lbase[li]] > t_enter + pen - 2 else 2
                    route[li] = r
                else:
                    r = route[li]
                code = 0
                if r == 1:
                    pc_addr = lpc[li]
                    predicted = tb_probe(pc_addr)
                    if predicted is not None:
                        if predicted == ea:
                            code = 6
                        else:
                            code = 2
                            if pp < n_ports:
                                # The wrong-address access dispatches
                                # and fetches its block (the "extra
                                # load").
                                dc_access(predicted)
                elif r == 2:
                    base = lbase[li]
                    if raddr is not None:
                        # A load that just switched the binding reads a
                        # stale value; reg+reg cannot use R_addr at all.
                        if raddr.probe(base) and lro[li]:
                            ecodes[li] = 1
                        raddr.bind(base)
                    else:
                        if regcache.probe(base):
                            if lro[li]:
                                ecodes[li] = 1
                            elif regcache.probe(ldisp[li]):
                                ecodes[li] = 3
                        regcache.insert(base)
                demand_hit = dc_access(ea)
                if demand_hit:
                    code |= 1
                else:
                    ldmiss += 1
                if r == 1:
                    if tb_demand:
                        tb_update(pc_addr, ea, predicted, demand_hit)
                    else:
                        tb_update(pc_addr, ea, predicted)
            else:
                code = dcodes[li]
                r = route[li]
            if r == 0:
                if iss >= width or pc >= n_ports:
                    cur += 1
                    pp = pm
                    pm = pc
                    pc = 0
                    iss = alu = fpu = bru = 0
                iss += 1
                pc += 1
                rr[dest] = cur + (ld_lat if code else miss_lat)
            elif r == 1:
                success = False
                if code & 2:  # functioning prediction
                    if pp < n_ports:
                        pp += 1
                        pred_disp += 1
                        if code & 4:  # predicted address was right
                            c = cur - 1
                            ilk = False
                            if sq:
                                while sq and sq[0][0] + 1 <= c:
                                    sq_popleft()
                                w = lea[li] >> 2
                                for _, s_w in sq:
                                    if s_w == w:
                                        ilk = True
                                        break
                            if ilk:
                                sp_interlock += 1
                            elif code & 1:
                                success = True
                                pred_succ += 1
                            else:
                                sp_dmiss += 1
                        else:
                            pred_wrong += 1
                    else:
                        if not live and not code & 4:
                            # The stream assumed this wrong-address
                            # access filled the cache; it had no port.
                            return None
                        sp_noport += 1
                if success:
                    if iss >= width:
                        cur += 1
                        pp = pm
                        pm = pc
                        pc = 0
                        iss = alu = fpu = bru = 0
                    iss += 1
                    rr[dest] = cur + ld_hit_lat
                else:
                    if iss >= width or pc >= n_ports:
                        cur += 1
                        pp = pm
                        pm = pc
                        pc = 0
                        iss = alu = fpu = bru = 0
                    iss += 1
                    pc += 1
                    rr[dest] = cur + (ld_lat if code & 1 else miss_lat)
            else:  # r == 2: early calculation
                success = False
                lat = 0
                ec = ecodes[li]
                if ec:
                    if pp < n_ports:
                        pp += 1
                        calc_disp += 1
                        if rr[lbase[li]] > cur - 2:
                            # base not written back by ID1
                            ra_interlock += 1
                        else:
                            c = cur - 1
                            ilk = False
                            if sq:
                                while sq and sq[0][0] + 1 <= c:
                                    sq_popleft()
                                w = lea[li] >> 2
                                for _, s_w in sq:
                                    if s_w == w:
                                        ilk = True
                                        break
                            if ilk:
                                sp_interlock += 1
                            elif code & 1:
                                success = True
                                calc_succ += 1
                                if ec & 2:
                                    calc_part += 1
                                    lat = 1
                            else:
                                sp_dmiss += 1
                    else:
                        sp_noport += 1
                if success:
                    if iss >= width:
                        cur += 1
                        pp = pm
                        pm = pc
                        pc = 0
                        iss = alu = fpu = bru = 0
                    iss += 1
                    rr[dest] = cur + lat
                else:
                    if iss >= width or pc >= n_ports:
                        cur += 1
                        pp = pm
                        pm = pc
                        pc = 0
                        iss = alu = fpu = bru = 0
                    iss += 1
                    pc += 1
                    rr[dest] = cur + (ld_lat if code & 1 else miss_lat)
            li += 1

        elif k == 2 or k == 3:  # branch / call
            if iss >= width or bru >= n_brus:
                cur += 1
                pp = pm
                pm = pc
                pc = 0
                iss = alu = fpu = bru = 0
            iss += 1
            bru += 1
            if k == 3:
                rr[63] = cur + 1
            if x:  # precomputed redirect cycles
                if x == 1:
                    pp = pm
                    pm = pc
                elif x == 2:
                    pp = pc
                    pm = 0
                else:
                    pp = 0
                    pm = 0
                pc = 0
                iss = alu = fpu = bru = 0
                cur += x

        elif k == 1:  # store
            if iss >= width or pc >= n_ports:
                cur += 1
                pp = pm
                pm = pc
                pc = 0
                iss = alu = fpu = bru = 0
            iss += 1
            pc += 1
            if spec_any:
                sq_append((cur, sword[si]))
                if len(sq) > 32:
                    c = cur - 1
                    while sq[0][0] + 1 <= c:
                        sq_popleft()
            si += 1

        elif k == 5:  # FP
            if iss >= width or fpu >= n_fpus:
                cur += 1
                pp = pm
                pm = pc
                pc = 0
                iss = alu = fpu = bru = 0
            iss += 1
            fpu += 1
            rr[dest] = cur + x

        else:  # k == 6: HALT/NOP, issue-width bound only
            if iss >= width:
                cur += 1
                pp = pm
                pm = pc
                pc = 0
                iss = alu = fpu = bru = 0
            iss += 1
            rr[dest] = cur + x

    if observer is not None:
        observer(cur, r, success, rr)
    if live:
        while wi < si:  # stores after the last load
            dc_write(sword[wi] << 2)
            wi += 1
        dtotals = (ldmiss, 0, dcache.misses - ldmiss)
    stats = _assemble_stats(
        pre, route, dtotals, cur,
        pred_disp, pred_succ, pred_wrong,
        calc_disp, calc_succ, calc_part,
        sp_noport, sp_interlock, sp_dmiss,
    )
    return stats, ra_interlock


def _assemble_stats(pre: TracePrecompute, route: bytes, dtotals: tuple,
                    cur: int,
                    pred_disp: int, pred_succ: int, pred_wrong: int,
                    calc_disp: int, calc_succ: int, calc_part: int,
                    sp_noport: int, sp_interlock: int,
                    sp_dmiss: int) -> SimStats:
    """``SimStats`` from the replay's end cycle and event counts plus the
    trace-level totals the precompute already knows."""
    dmiss_total, store_miss_total, poll_miss_total = dtotals
    n_loads = pre.n_loads
    sc_p = route.count(1)
    sc_e = route.count(2)

    stats = SimStats()
    stats.cycles = cur + 1 + _DRAIN
    stats.instructions = pre.n
    stats.loads = n_loads
    stats.stores = pre.n_stores
    stats.pred_loads = sc_p
    stats.pred_spec_dispatched = pred_disp
    stats.pred_success = pred_succ
    stats.pred_wrong_address = pred_wrong
    stats.calc_loads = sc_e
    stats.calc_spec_dispatched = calc_disp
    stats.calc_success = calc_succ
    stats.calc_success_partial = calc_part
    stats.spec_no_port = sp_noport
    stats.spec_mem_interlock = sp_interlock
    stats.spec_dcache_miss = sp_dmiss
    stats.dcache_hits = n_loads - dmiss_total
    stats.dcache_misses = dmiss_total + store_miss_total + poll_miss_total
    stats.icache_misses = pre.imiss_total
    stats.btb_mispredicts = pre.misp_total
    stats.scheme_counts = {
        "n": n_loads - sc_p - sc_e, "p": sc_p, "e": sc_e,
    }
    return stats


def warm_precompute(
    trace: Trace,
    machine: MachineConfig,
    configs: Sequence[EarlyGenConfig],
    overrides: Optional[Sequence[Optional[Dict[int, LoadSpec]]]] = None,
) -> TracePrecompute:
    """Build the precompute and every stream *configs* will need.

    Separating this from :func:`simulate_many` lets callers (the bench
    harness in particular) attribute one-time stream construction to a
    ``precompute`` stage and keep the per-config passes pure.  Configs
    routed at decode (hardware dual-path) run in live mode and need no
    streams.
    """
    pre = get_precompute(trace, machine)
    for idx, eg in enumerate(configs):
        ov = overrides[idx] if overrides is not None else None
        sb = _scheme_bytes(trace.program, eg, ov)
        if sb is None:
            continue
        route = pre.route_for(sb)
        pre.dstream(eg, route)
        pre.estream(eg, route)
    return pre


def warm_kernel(pre: Optional[TracePrecompute],
                sweep: Optional[int] = None) -> float:
    """Compatibility shim for the frozen ``perfbench`` harness, which
    times a ``kernel`` stage between precompute and sweep.  Warm sweeps
    run on the scalar stream replay, so there is nothing to build:
    always returns ``0.0``."""
    return 0.0


def simulate_many(
    trace: Trace,
    configs: Sequence[Union[EarlyGenConfig, MachineConfig]],
    machine: Optional[MachineConfig] = None,
    overrides: Optional[Sequence[Optional[Dict[int, LoadSpec]]]] = None,
    span_tags: Optional[Sequence[Optional[dict]]] = None,
) -> List[SimStats]:
    """Simulate *trace* under every config, sharing one precompute.

    ``configs`` entries are :class:`EarlyGenConfig` (applied to
    *machine*, default machine if None) or full :class:`MachineConfig`
    objects.  ``overrides`` optionally carries a per-config
    ``spec_override`` map; ``span_tags`` optional per-config tag dicts
    for a ``sim`` span on the ambient tracer.  Results are in input
    order and byte-identical to independent ``TimingSimulator`` runs.
    """
    base = machine if machine is not None else MachineConfig()
    tracer = obs.current()
    results: List[SimStats] = []
    for idx, item in enumerate(configs):
        if isinstance(item, MachineConfig):
            mcfg = item
        else:
            mcfg = base.with_earlygen(item)
        ov = overrides[idx] if overrides is not None else None
        sim = TimingSimulator(trace, mcfg, ov)
        tags = span_tags[idx] if span_tags is not None else None
        if tags is not None:
            with tracer.span("sim", **tags):
                results.append(simulate_one(sim))
        else:
            results.append(simulate_one(sim))
    return results


# ---------------------------------------------------------------------------
# Parity gate: python -m repro.sim.precompute
# ---------------------------------------------------------------------------

def _parity_main(argv: Optional[Sequence[str]] = None) -> int:
    """Replay every harness sim request on the timing loop and on the
    reference pipeline and diff the stats.

    CI runs this at a small scale as a standing parity gate; exit status
    1 means at least one config produced non-identical
    :class:`SimStats`.
    """
    import argparse
    import dataclasses
    from dataclasses import asdict

    from repro.compiler.profile_feedback import (
        DEFAULT_THRESHOLD,
        profile_overrides,
    )
    from repro.harness.experiments import (
        ExperimentContext,
        eg_tag,
        sim_requests,
    )
    from repro.sim._pipeline_reference import reference_run
    from repro.sim.machine import BASELINE
    from repro.workloads import workload_names

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.precompute",
        description="timing-loop vs reference-pipeline SimStats parity "
        "check",
    )
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument(
        "--suite", choices=("spec", "mediabench", "all"), default="all"
    )
    parser.add_argument(
        "--workloads", nargs="*", default=None,
        help="restrict to these workload names",
    )
    parser.add_argument(
        "--predictor", default=None, metavar="NAME",
        help="run every table-bearing config with this prediction "
        "backend instead of the default stride table",
    )
    args = parser.parse_args(argv)
    if args.predictor is not None:
        from repro.sim.predictors import backend_names
        if args.predictor not in backend_names():
            parser.error(
                f"unknown predictor backend {args.predictor!r} "
                f"(registered: {', '.join(backend_names())})"
            )

    suites = ("spec", "mediabench") if args.suite == "all" else (args.suite,)
    if args.workloads:
        known = {n for s in suites for n in workload_names(s)}
        unknown = sorted(set(args.workloads) - known)
        if unknown:
            parser.error(f"unknown workloads for --suite {args.suite}: "
                         f"{', '.join(unknown)}")
    ctx = ExperimentContext(scale=args.scale)
    mismatches = 0
    checked = 0
    for suite in suites:
        requests = sim_requests(suite)
        names = [
            n for n in workload_names(suite)
            if not args.workloads or n in args.workloads
        ]
        for name in names:
            run = ctx.run(name)
            override = None
            if any(r.use_profile_override for r in requests):
                override = profile_overrides(
                    run.program, run.trace, DEFAULT_THRESHOLD,
                    run.get_profile().predictor,
                )
            configs = [BASELINE] + [r.earlygen for r in requests]
            if args.predictor is not None:
                configs = [
                    dataclasses.replace(eg, predictor=args.predictor)
                    if eg.table_entries else eg
                    for eg in configs
                ]
            overrides = [None] + [
                override if r.use_profile_override else None
                for r in requests
            ]
            tags = ["baseline"] + [
                eg_tag(r.earlygen, r.cache_key) for r in requests
            ]
            expected = [
                reference_run(TimingSimulator(
                    run.trace, ctx.machine.with_earlygen(eg), ov
                ))
                for eg, ov in zip(configs, overrides)
            ]
            got = simulate_many(
                run.trace, configs, machine=ctx.machine, overrides=overrides
            )
            bad = [
                tag for tag, a, b in zip(tags, expected, got)
                if asdict(a) != asdict(b)
            ]
            checked += len(configs)
            if bad:
                mismatches += len(bad)
                print(f"MISMATCH {name}: {', '.join(bad)}")
            else:
                print(f"ok {name} ({len(configs)} configs)")
    paths = replay_path_counts()
    print(
        f"parity: {checked} configs checked, {mismatches} mismatches, "
        f"{paths.get('inline:divergence-fallback', 0)} divergence "
        f"fallbacks to live mode"
    )
    print("paths: " + ", ".join(
        f"{k}={v}" for k, v in sorted(paths.items())
    ))
    return 1 if mismatches else 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    import sys

    sys.exit(_parity_main())
