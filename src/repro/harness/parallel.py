"""Process-pool scheduler for the experiment harness.

Two levels of parallelism on top of the sequential
:class:`~repro.harness.runner.WorkloadRunner` semantics:

* **workload level** — each workload's compile→emulate→profile pipeline
  (the *prepare* task) runs in a worker process, so a wedged attempt is
  killed for real instead of abandoned on a daemon thread;
* **config level** — the independent
  :class:`~repro.sim.machine.EarlyGenConfig` replays enumerated by
  :func:`~repro.harness.experiments.sim_requests` fan out across the
  same pool as *sim* tasks.  The compiled Program/Trace bundle crosses
  the process boundary exactly once, through the content-keyed
  :class:`~repro.harness.artifacts.ArtifactStore`; nothing is
  recompiled or re-emulated per config.

The parent never touches a Program or Trace: once a workload's sims
land, a final *rows* task runs on the worker that still holds the
bundle in memory, pre-fills an
:class:`~repro.harness.experiments.ExperimentContext` cache with the
collected :class:`~repro.sim.stats.SimStats`, and runs the unchanged
row drivers (:func:`~repro.harness.runner.compute_rows`), so every
float in every table is produced by the same code path as a sequential
run — parallel output is identical row for row.  The parent only ever
handles plain row dicts.

Fault-isolation semantics mirror the sequential runner exactly:
per-workload wall-clock deadline (workers running its tasks are
terminated and respawned), bounded retries with exponential backoff
(timeouts are not retried), degradation to ERROR/TIMEOUT rows, and
identical checkpoint payloads.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
import time
from array import array
from collections import deque
from multiprocessing.connection import wait as _conn_wait
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.compiler.profile_feedback import DEFAULT_THRESHOLD, profile_overrides
from repro.errors import ReproError
from repro.harness.artifacts import ArtifactStore, artifact_key
from repro.harness.experiments import (
    ExperimentContext,
    SimRequest,
    WorkloadRun,
    eg_tag,
    sim_requests,
)
from repro.sim.machine import BASELINE
from repro.sim.pipeline import _decode_program, _precompute_frontend
from repro.sim.precompute import simulate_many
from repro.workloads import get_workload

_FORK = multiprocessing.get_context("fork")

#: Scheduler tick when no deadline is nearer (seconds).
_POLL = 0.05


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _child_context(init: dict) -> ExperimentContext:
    """A fresh child-side context (no checkpointing in workers)."""
    return ExperimentContext(
        scale=init["scale"],
        machine=init["machine"],
        verify=init["verify"],
        verify_ir=init["verify_ir"],
        fault_injector=init["injector"],
    )


def _task_prepare(init: dict, store: ArtifactStore, payload: dict):
    """Compile + emulate + profile one workload, publish the bundle."""
    name = payload["name"]
    attempt = payload["attempt"]
    with obs.current().span(
        "task:prepare", workload=name, attempt=attempt
    ):
        return _task_prepare_body(init, store, payload, name, attempt)


def _task_prepare_body(init, store, payload, name, attempt):
    injector = init["injector"]
    if injector is not None:
        injector.prime(name, attempt)
        injector.fire(name, attempt)
    ctx = _child_context(init)
    run = ctx.run(name)
    profile = run.get_profile()
    overrides = None
    if get_workload(name).suite == "spec":
        overrides = profile_overrides(
            run.program, run.trace, DEFAULT_THRESHOLD, profile.predictor
        )
    # The front-end walk (i-cache stalls, branch outcomes) depends only
    # on the trace and the machine's front end, never the EarlyGenConfig
    # — run it once here and ship it as packed arrays so no sim worker
    # redoes the trace-length precompute.  It goes into a *side* file:
    # only stealing sim workers read it, and the parent (which loads the
    # core bundle to assemble rows) never pays for the two trace-length
    # arrays.
    dec, _ = _decode_program(run.program)
    _precompute_frontend(run.program, run.trace, init["machine"], dec)
    fe_key, fe = next(iter(run.program._frontend_pre[1].items()))
    ifetch, imiss_total, br_extra, misp_total = fe
    store.put(payload["key"] + "-fe", {
        "frontend": (fe_key, array("q", ifetch), imiss_total,
                     array("q", br_extra), misp_total),
    })
    store.put(payload["key"], {
        "compile_result": run.compile_result,
        "trace": run.trace,
        "steps": run.steps,
        "profile": profile,
        "overrides": overrides,
    })
    return run.steps


def _task_sim(init: dict, store: ArtifactStore, payload: dict):
    """A batch of timing replays against the published bundle."""
    bundle = store.get(payload["key"])
    trace = bundle["trace"]
    program = trace.program
    cached = getattr(program, "_frontend_pre", None)
    if cached is None or cached[0] is not trace.uids:
        # Stealing worker: install the precomputed front end shipped by
        # the prepare task.  The affinity worker already carries it.
        frontend = store.get(payload["key"] + "-fe")["frontend"]
        fe_key, ifetch, imiss_total, br_extra, misp_total = frontend
        program._frontend_pre = (trace.uids, {
            fe_key: (ifetch.tolist(), imiss_total,
                     br_extra.tolist(), misp_total),
        })
    machine = init["machine"]
    sims = payload["sims"]
    return simulate_many(
        trace,
        [machine.with_earlygen(sim["earlygen"]) for sim in sims],
        overrides=[
            bundle["overrides"] if sim["use_profile_override"] else None
            for sim in sims
        ],
        span_tags=[
            {
                "workload": payload["name"],
                "config": eg_tag(sim["earlygen"], sim["cache_key"]),
            }
            for sim in sims
        ],
    )


def _task_rows(init: dict, store: ArtifactStore, payload: dict):
    """Assemble the row fragments once every sim for a workload landed.

    Runs on the workload's affinity worker, which still holds the bundle
    (and its decode/front-end caches) in memory from the prepare task —
    the parent never unpickles a Program or Trace.  Faults cannot fire
    here: the injector only acts inside ``ExperimentContext.run``, and
    the context's run cache is pre-filled below, so the row drivers see
    exactly the artifacts the prepare attempt produced.
    """
    from repro.harness.runner import compute_rows

    with obs.current().span("task:rows", workload=payload["name"]):
        bundle = store.get(payload["key"])
        run = WorkloadRun(
            payload["name"],
            bundle["compile_result"],
            bundle["trace"],
            bundle["steps"],
            profile=bundle["profile"],
        )
        run.baseline = payload["baseline"]
        run._sims = payload["sims"]
        ctx = _child_context(init)
        ctx._runs[payload["name"]] = run
        return compute_rows(ctx, payload["name"])


def _task_service(init: dict, store: ArtifactStore, payload: dict):
    """One service-layer compile-and-simulate job (see repro.service).

    The service scheduler drives the same :class:`_Worker` pool as the
    suite scheduler; its jobs arrive as this task kind.  Imported
    lazily so harness runs never load the service layer.
    """
    from repro.service.jobs import execute_job

    return execute_job(payload["spec"], machine=init["machine"])


def _task_rows_full(init: dict, store: ArtifactStore, payload: dict):
    """One workload's *entire* sweep, prepare through rows, in one task.

    The coarse-grained unit behind :func:`run_suite_pooled`: nothing of
    the workload crosses the process boundary except the final row
    fragments, which is exactly the shape a remote worker returns —
    local and remote pools are interchangeable per workload.
    """
    name = payload["name"]
    attempt = payload.get("attempt", 1)
    injector = init["injector"]
    with obs.current().span(
        "task:rows_full", workload=name, attempt=attempt
    ):
        if injector is not None:
            injector.prime(name, attempt)
            injector.fire(name, attempt)
        from repro.harness.runner import compute_rows

        ctx = _child_context(init)
        return {
            "suite": get_workload(name).suite,
            "rows": compute_rows(ctx, name),
        }


_TASKS = {
    "prepare": _task_prepare,
    "sim": _task_sim,
    "rows": _task_rows,
    "rows_full": _task_rows_full,
    "service": _task_service,
}


def _worker_main(conn, init: dict, slot: int = 0) -> None:
    """Worker loop: run tasks off the pipe until told to exit."""
    tracer = obs.current()
    if tracer.enabled:
        tracer.add_tags(worker=f"w{slot}")
    store = ArtifactStore(init["artifact_dir"])
    while True:
        message = conn.recv()
        if message is None:
            return
        task_id, kind, payload = message
        try:
            result = _TASKS[kind](init, store, payload)
        except Exception as exc:
            if isinstance(exc, ReproError):
                exc.add_context(workload=payload.get("name"))
            conn.send((task_id, False, (type(exc).__name__, str(exc))))
        else:
            conn.send((task_id, True, result))


class _Worker:
    """One pooled process plus its duplex pipe and current task."""

    __slots__ = ("proc", "conn", "current", "slot")

    def __init__(self, init: dict, slot: int = 0):
        self.slot = slot
        self.conn, child_conn = _FORK.Pipe(duplex=True)
        self.proc = _FORK.Process(
            target=_worker_main, args=(child_conn, init, slot), daemon=True
        )
        self.proc.start()
        child_conn.close()
        self.current: Optional[dict] = None

    def submit(self, task: dict) -> None:
        self.current = task
        self.conn.send((task["id"], task["kind"], task["payload"]))

    def kill(self) -> None:
        self.proc.terminate()
        self.proc.join()
        self.conn.close()

    def stop(self) -> None:
        try:
            self.conn.send(None)
            self.proc.join(1.0)
        except (BrokenPipeError, OSError):
            pass
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()
        self.conn.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

class _WorkloadState:
    """Progress of one workload through prepare → sims → assembly."""

    __slots__ = ("name", "suite", "attempt", "started", "deadline",
                 "not_before", "key", "requests", "pending_sims",
                 "baseline", "sims", "failed", "outstanding")

    def __init__(self, name: str, suite: str):
        self.name = name
        self.suite = suite
        self.attempt = 0
        self.started: Optional[float] = None
        self.deadline: Optional[float] = None
        self.not_before = 0.0
        self.key: Optional[str] = None
        self.requests: List[SimRequest] = []
        self.pending_sims = 0
        self.baseline = None
        self.sims: Dict[tuple, object] = {}
        self.failed = False
        #: Task ids of the current attempt still owned by a worker.
        self.outstanding: set = set()


def run_suite_parallel(runner, names: Sequence[str]):
    """run_suite with ``runner.jobs`` worker processes.

    Returns outcomes in *names* order with the same statuses, rows,
    attempt counts, and checkpoint side effects as the sequential
    :meth:`~repro.harness.runner.WorkloadRunner.run_suite`.
    """
    from repro.harness.runner import (
        STATUS_OK,
        STATUS_TIMEOUT,
        WorkloadOutcome,
    )

    ctx = runner.ctx
    config = runner.config
    outcomes: Dict[str, WorkloadOutcome] = {}
    total = len(names)
    finished = 0

    def announce(outcome: WorkloadOutcome) -> None:
        nonlocal finished
        finished += 1
        note = outcome.status.upper()
        if outcome.cached:
            note += f" ({outcome.cache_kind or 'checkpointed'})"
        elif outcome.attempts > 1:
            note += f" ({outcome.attempts} attempts)"
        runner._say(
            f"[{finished}/{total}] {outcome.name}: {note} "
            f"in {outcome.elapsed:.1f}s"
        )

    states: Dict[str, _WorkloadState] = {}
    queue: deque = deque()
    for name in names:
        checkpoint = (
            ctx.load_checkpoint(name) if ctx.checkpoint_dir else None
        )
        if checkpoint is not None and checkpoint.get("status") == STATUS_OK:
            outcomes[name] = WorkloadOutcome.from_payload(name, checkpoint)
            announce(outcomes[name])
            continue
        cached = runner.load_cached_rows(name)
        if cached is not None:
            if ctx.checkpoint_dir is not None:
                ctx.store_checkpoint(name, cached.payload())
            outcomes[name] = cached
            announce(cached)
            continue
        states[name] = _WorkloadState(name, get_workload(name).suite)

    if not states:
        return [outcomes[name] for name in names]

    artifact_dir = tempfile.mkdtemp(prefix="repro-artifacts-")
    init = {
        "scale": ctx.scale,
        "machine": ctx.machine,
        "verify": ctx.verify,
        "verify_ir": ctx.verify_ir,
        "injector": ctx.fault_injector,
        "artifact_dir": artifact_dir,
    }
    workers = [
        _Worker(init, slot)
        for slot in range(max(1, min(runner.jobs, len(states))))
    ]
    next_task_id = 0
    #: Workload -> worker slot holding its bundle in memory (soft
    #: affinity: sims prefer that worker to skip a redundant unpickle,
    #: but any idle worker may steal them to keep the pool busy).
    affinity: Dict[str, int] = {}

    def make_key(ws: _WorkloadState) -> str:
        return artifact_key(
            ws.name, ctx.scale, ctx.machine, ctx.verify, ctx.verify_ir,
            ctx.fault_injector.mode(ws.name) if ctx.fault_injector else None,
            ws.attempt,
        )

    def start_attempt(ws: _WorkloadState) -> None:
        ws.attempt += 1
        ws.failed = False
        ws.key = make_key(ws)
        ws.baseline = None
        ws.sims = {}
        ws.pending_sims = 0
        queue.append({
            "id": None,  # assigned at dispatch
            "workload": ws.name,
            "attempt": ws.attempt,
            "kind": "prepare",
            "payload": {
                "name": ws.name,
                "attempt": ws.attempt,
                "key": ws.key,
            },
        })

    def enqueue_sims(ws: _WorkloadState) -> None:
        ws.requests = sim_requests(ws.suite)
        plan = [{
            "earlygen": BASELINE,
            "use_profile_override": False,
            "cache_key": None,
            "is_baseline": True,
        }]
        for req in ws.requests:
            plan.append({
                "earlygen": req.earlygen,
                "use_profile_override": req.use_profile_override,
                "cache_key": req.cache_key,
                "is_baseline": False,
            })
        ws.pending_sims = len(plan)
        # One chunk per worker: enough grain to fan the sweep across the
        # pool, few enough round trips that scheduling stays cheap.
        chunk = max(1, -(-len(plan) // len(workers)))
        for start in range(0, len(plan), chunk):
            queue.append({
                "id": None,
                "workload": ws.name,
                "attempt": ws.attempt,
                "kind": "sim",
                "payload": {
                    "name": ws.name,
                    "key": ws.key,
                    "sims": plan[start : start + chunk],
                },
            })

    def drop_queued(name: str) -> None:
        retained = [t for t in queue if t["workload"] != name]
        queue.clear()
        queue.extend(retained)

    def finish(ws: _WorkloadState, outcome: WorkloadOutcome) -> None:
        runner.store_rows(outcome)
        if ctx.checkpoint_dir is not None:
            ctx.store_checkpoint(ws.name, outcome.payload())
        outcomes[ws.name] = outcome
        del states[ws.name]
        announce(outcome)

    def fail(ws: _WorkloadState, error_type: str, error: str) -> None:
        """Apply the retry policy after a failed attempt."""
        ws.failed = True
        drop_queued(ws.name)
        if ws.outstanding:
            return  # wait for stragglers before retrying or degrading
        attempt = ws.attempt
        if attempt <= config.retries:
            delay = config.backoff * (2 ** (attempt - 1))
            runner._say(
                f"{ws.name}: attempt {attempt} failed "
                f"({error_type}); retrying in {delay:g}s"
            )
            ws.not_before = time.monotonic() + delay
            ws.deadline = None
            start_attempt(ws)
            return
        from repro.harness.runner import STATUS_ERROR
        finish(ws, WorkloadOutcome(
            ws.name, ws.suite, STATUS_ERROR,
            error=error, error_type=error_type,
            attempts=attempt,
            elapsed=time.monotonic() - ws.started,
        ))

    # Remember the last error per workload so stragglers can hand the
    # failure back to ``fail`` once the attempt fully drains.
    last_error: Dict[str, tuple] = {}

    def enqueue_rows(ws: _WorkloadState) -> None:
        """All sims landed: build the rows on the affinity worker."""
        queue.append({
            "id": None,
            "workload": ws.name,
            "attempt": ws.attempt,
            "kind": "rows",
            "payload": {
                "name": ws.name,
                "key": ws.key,
                "baseline": ws.baseline,
                "sims": dict(ws.sims),
            },
        })

    for name in list(states):
        start_attempt(states[name])

    try:
        while states:
            now = time.monotonic()

            # Enforce per-workload attempt deadlines.
            if config.timeout:
                for ws in list(states.values()):
                    if ws.deadline is None or now < ws.deadline:
                        continue
                    for worker in workers:
                        task = worker.current
                        if task and task["workload"] == ws.name:
                            worker.kill()
                            idx = workers.index(worker)
                            workers[idx] = _Worker(init, worker.slot)
                            ws.outstanding.discard(task["id"])
                    drop_queued(ws.name)
                    if ctx.fault_injector is not None:
                        ctx.fault_injector.stop_event.set()
                    finish(ws, WorkloadOutcome(
                        ws.name, ws.suite, STATUS_TIMEOUT,
                        error=f"no result within {config.timeout:g}s",
                        error_type="Timeout",
                        attempts=ws.attempt,
                        elapsed=now - ws.started,
                    ))
                if not states:
                    break

            # Dispatch ready tasks to idle workers, preferring the
            # worker that already holds the workload's bundle.
            def pick_task(worker):
                chosen = chosen_idx = None
                for idx, task in enumerate(queue):
                    ws = states.get(task["workload"])
                    if ws is None or task["attempt"] != ws.attempt:
                        continue  # cancelled or superseded
                    if ws.not_before > now:
                        continue  # backing off before a retry
                    if affinity.get(task["workload"]) == worker.slot:
                        return task, idx
                    if chosen is None:
                        chosen, chosen_idx = task, idx
                return chosen, chosen_idx

            for worker in workers:
                if worker.current is not None or not queue:
                    continue
                task, idx = pick_task(worker)
                if task is None:
                    break
                del queue[idx]
                task["id"] = next_task_id
                next_task_id += 1
                ws = states[task["workload"]]
                if ws.started is None:
                    ws.started = time.monotonic()
                if config.timeout and ws.deadline is None:
                    ws.deadline = time.monotonic() + config.timeout
                ws.outstanding.add(task["id"])
                worker.submit(task)
                if task["kind"] == "prepare":
                    affinity[task["workload"]] = worker.slot

            # Wait for results (bounded by the nearest deadline).
            busy = [w.conn for w in workers if w.current is not None]
            if not busy:
                if queue:
                    time.sleep(_POLL)
                    continue
                break  # nothing queued, nothing running
            timeout = _POLL
            if config.timeout:
                deadlines = [
                    ws.deadline for ws in states.values()
                    if ws.deadline is not None
                ]
                if deadlines:
                    timeout = min(
                        timeout, max(0.0, min(deadlines) - now)
                    )
            ready = _conn_wait(busy, timeout=timeout)
            for conn in ready:
                worker = next(w for w in workers if w.conn is conn)
                task = worker.current
                try:
                    task_id, ok, result = conn.recv()
                except (EOFError, OSError):
                    worker.kill()
                    workers[workers.index(worker)] = _Worker(
                        init, worker.slot
                    )
                    ws = states.get(task["workload"])
                    if ws is not None and task["attempt"] == ws.attempt:
                        ws.outstanding.discard(task["id"])
                        last_error[ws.name] = (
                            "WorkerCrash", "worker process died"
                        )
                        fail(ws, *last_error[ws.name])
                    continue
                worker.current = None
                ws = states.get(task["workload"])
                if ws is None or task["attempt"] != ws.attempt:
                    continue  # stale result from a superseded attempt
                ws.outstanding.discard(task_id)
                if ws.failed:
                    if not ws.outstanding:
                        fail(ws, *last_error[ws.name])
                    continue
                if not ok:
                    last_error[ws.name] = result
                    fail(ws, *result)
                    continue
                if task["kind"] == "prepare":
                    enqueue_sims(ws)
                elif task["kind"] == "rows":
                    finish(ws, WorkloadOutcome(
                        ws.name, ws.suite, STATUS_OK, rows=result,
                        attempts=ws.attempt,
                        elapsed=time.monotonic() - ws.started,
                    ))
                else:
                    for sim, stats in zip(task["payload"]["sims"], result):
                        if sim["is_baseline"]:
                            ws.baseline = stats
                        else:
                            ws.sims[
                                (sim["earlygen"], sim["cache_key"])
                            ] = stats
                    ws.pending_sims -= len(result)
                    if ws.pending_sims == 0:
                        enqueue_rows(ws)
    finally:
        for worker in workers:
            worker.stop()
        shutil.rmtree(artifact_dir, ignore_errors=True)

    return [outcomes[name] for name in names]


# ---------------------------------------------------------------------------
# Pool-based suite scheduling (local or distributed)
# ---------------------------------------------------------------------------

def run_suite_pooled(runner, names: Sequence[str], pool):
    """run_suite over any :class:`~repro.service.pool.Pool`.

    The coarse-grained sibling of :func:`run_suite_parallel`: each
    workload is one ``rows_full`` task (compile → emulate → sweep →
    rows inside a single worker), so the same driver shards a sweep
    across forked processes (:class:`~repro.service.pool.LocalPool`) or
    across coordinators with leased remote workers
    (:class:`~repro.service.pool.RemotePool`).  Statuses, rows, and
    checkpoint side effects match the sequential runner; with a local
    pool the retry/backoff/timeout policy runs here, while a remote
    pool's coordinator owns it (``pool.handles_retries``), including
    lease-based recovery from workers that crash or vanish mid-job.
    """
    from repro.harness.runner import (
        STATUS_ERROR,
        STATUS_OK,
        STATUS_TIMEOUT,
        WorkloadOutcome,
    )

    ctx = runner.ctx
    config = runner.config
    outcomes: Dict[str, WorkloadOutcome] = {}
    total = len(names)
    finished = 0

    def announce(outcome) -> None:
        nonlocal finished
        finished += 1
        note = outcome.status.upper()
        if outcome.cached:
            note += f" ({outcome.cache_kind or 'checkpointed'})"
        elif outcome.attempts > 1:
            note += f" ({outcome.attempts} attempts)"
        runner._say(
            f"[{finished}/{total}] {outcome.name}: {note} "
            f"in {outcome.elapsed:.1f}s"
        )

    class _State:
        __slots__ = ("name", "suite", "attempt", "started", "deadline",
                     "not_before", "task_id")

        def __init__(self, name: str, suite: str):
            self.name = name
            self.suite = suite
            self.attempt = 0
            self.started: Optional[float] = None
            self.deadline: Optional[float] = None
            self.not_before = 0.0
            self.task_id: Optional[str] = None

    pending: deque = deque()  # states not yet submitted
    states: Dict[str, "_State"] = {}  # name -> state (all unfinished)
    by_task: Dict[str, "_State"] = {}  # task_id -> state (submitted)
    for name in names:
        checkpoint = (
            ctx.load_checkpoint(name) if ctx.checkpoint_dir else None
        )
        if checkpoint is not None and checkpoint.get("status") == STATUS_OK:
            outcomes[name] = WorkloadOutcome.from_payload(name, checkpoint)
            announce(outcomes[name])
            continue
        cached = runner.load_cached_rows(name)
        if cached is not None:
            if ctx.checkpoint_dir is not None:
                ctx.store_checkpoint(name, cached.payload())
            outcomes[name] = cached
            announce(cached)
            continue
        state = _State(name, get_workload(name).suite)
        states[name] = state
        pending.append(state)

    def finish(state: "_State", outcome) -> None:
        runner.store_rows(outcome)
        if ctx.checkpoint_dir is not None:
            ctx.store_checkpoint(state.name, outcome.payload())
        outcomes[state.name] = outcome
        del states[state.name]
        announce(outcome)

    def submit(state: "_State", now: float) -> None:
        state.attempt += 1
        if state.started is None:
            state.started = now
        if config.timeout and not pool.handles_retries:
            state.deadline = now + config.timeout
        state.task_id = f"{state.name}#{state.attempt}"
        by_task[state.task_id] = state
        pool.submit({
            "id": state.task_id,
            "kind": "rows_full",
            "payload": {
                "name": state.name,
                "attempt": state.attempt,
                "scale": ctx.scale,
                "verify_ir": ctx.verify_ir,
            },
        })

    def retry_or_fail(state: "_State", error_type: str,
                      message: str, now: float) -> None:
        if not pool.handles_retries and state.attempt <= config.retries:
            delay = config.backoff * (2 ** (state.attempt - 1))
            runner._say(
                f"{state.name}: attempt {state.attempt} failed "
                f"({error_type}); retrying in {delay:g}s"
            )
            state.not_before = now + delay
            state.deadline = None
            pending.append(state)
            return
        status = (STATUS_TIMEOUT if error_type == "Timeout"
                  else STATUS_ERROR)
        finish(state, WorkloadOutcome(
            state.name, state.suite, status,
            error=message, error_type=error_type,
            attempts=state.attempt,
            elapsed=now - state.started,
        ))

    try:
        while states:
            now = time.monotonic()

            # Local-pool deadlines (a remote pool's coordinator enforces
            # its own; see JobScheduler._enforce_deadlines).
            if config.timeout and not pool.handles_retries:
                for state in list(by_task.values()):
                    if state.deadline is None or now < state.deadline:
                        continue
                    pool.kill_task(state.task_id)
                    del by_task[state.task_id]
                    if ctx.fault_injector is not None:
                        ctx.fault_injector.stop_event.set()
                    finish(state, WorkloadOutcome(
                        state.name, state.suite, STATUS_TIMEOUT,
                        error=f"no result within {config.timeout:g}s",
                        error_type="Timeout",
                        attempts=state.attempt,
                        elapsed=now - state.started,
                    ))
                if not states:
                    break

            # Submit ready workloads while the pool has room.
            deferred = []
            while pending and pool.idle():
                state = pending.popleft()
                if state.not_before > now:
                    deferred.append(state)
                    continue
                submit(state, now)
            pending.extend(deferred)

            if not pool.busy():
                time.sleep(_POLL)
                continue

            timeout = _POLL
            if config.timeout and not pool.handles_retries:
                deadlines = [s.deadline for s in by_task.values()
                             if s.deadline is not None]
                if deadlines:
                    timeout = min(timeout, max(0.0, min(deadlines) - now))
            for task_id, ok, result in pool.poll(timeout):
                state = by_task.pop(task_id, None)
                if state is None or state.name not in states:
                    continue  # superseded attempt or late straggler
                now = time.monotonic()
                if not ok:
                    error_type, message = result[0], result[1]
                    if len(result) > 2 and result[2]:
                        # The coordinator's attempt count (its retries
                        # happened remotely, invisible to this loop).
                        state.attempt = result[2]
                    retry_or_fail(state, error_type, message, now)
                    continue
                attempts = result.get("attempts", state.attempt) or \
                    state.attempt
                outcome = WorkloadOutcome(
                    state.name,
                    result.get("suite", state.suite),
                    STATUS_OK,
                    rows=result["rows"],
                    attempts=attempts,
                    elapsed=now - state.started,
                )
                if result.get("cached"):
                    outcome.cached = True
                    outcome.cache_kind = "service"
                finish(state, outcome)
    finally:
        pool.stop()

    return [outcomes[name] for name in names]
