"""In-memory spans recorded around calls into the program, and self time.

The benchmark records one span per stage call it makes (compile,
emulate, ...).  In a traced round it also installs timing shims over the
functions :mod:`repro.compiler.driver` imports, so each front-end phase,
optimization pass and verifier call gets a span nested in its compile
span.  A span's self time is its duration minus the durations of its
direct children; self times of all spans sum to the roots' durations, so
no second is counted twice.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional

#: Front-end phases the driver imports (reported as ``compile.frontend_s``).
FRONTEND = ("parse", "analyze", "generate_ir")

#: Passes the driver runs, in pipeline order (``compile.pass.<name>_*``).
PASSES = (
    "inline_functions",
    "simplify_control_flow",
    "promote_locals",
    "constant_propagation",
    "copy_propagation",
    "coalesce_moves",
    "redundant_load_elimination",
    "dead_code_elimination",
    "loop_invariant_code_motion",
    "strength_reduction",
    "classify_program",
    "allocate_registers",
)

#: Passes whose return value is their "changed the IR" flag; the
#: classifier returns nothing and the allocator returns its spill loads.
CHANGE_FLAG_PASSES = PASSES[:10]

#: IR verifier entry points (``compile.verify_*``).
VERIFIERS = ("verify_func", "verify_module")


class Span:
    """One timed call: name, owning program, interval and parent index."""

    __slots__ = ("name", "program", "start", "end", "parent", "changed")

    def __init__(self, name: str, program: str, parent: int) -> None:
        self.name = name
        self.program = program
        self.parent = parent
        self.start = perf_counter()
        self.end = self.start
        self.changed: Optional[bool] = None


class Recorder:
    """Spans of one round, kept in memory in start order.

    ``program`` names the program whose calls are being recorded; every
    span of one program shares it, so it serves as the request id.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.program = ""
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.program, parent))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        popped = self._open.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} is open")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def duration(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_times(self) -> List[float]:
        """Self time of every span, index-aligned with :attr:`spans`."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]


def _shim(rec: Recorder, fn, name: str):
    # functools.wraps keeps __name__: the driver names verifier errors
    # after ``pass_fn.__name__``.
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        rec.spans[idx].changed = bool(result)
        return result

    return shim


@contextmanager
def compile_shims(rec: Recorder) -> Iterator[None]:
    """Time every front-end phase, pass and verifier call the driver makes.

    The driver looks these names up as module globals on every call, so
    replacing the module attributes reaches every call site; the
    originals are restored on exit, so untraced rounds run unmodified.
    """
    import repro.compiler.driver as driver

    names = FRONTEND + PASSES + VERIFIERS
    originals: Dict[str, object] = {n: getattr(driver, n) for n in names}
    try:
        for name, fn in originals.items():
            setattr(driver, name, _shim(rec, fn, name))
        yield
    finally:
        for name, fn in originals.items():
            setattr(driver, name, fn)
