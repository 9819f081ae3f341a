"""End-to-end compilation driver.

``compile_source`` runs the full pipeline::

    parse -> sema -> irgen -> [inline -> mem2reg -> (constprop | copyprop
    | redundant loads | dce)* -> licm -> strength reduction -> cleanup]
    -> regalloc -> layout -> load classification

Optimization levels:

* ``opt_level=0`` — naive code, no classical optimization.  The Section 4
  heuristics degenerate (almost every load becomes load-dependent),
  demonstrating the paper's dependence on the classical passes.
* ``opt_level=1`` — scalar optimizations without loop transforms.
* ``opt_level=2`` (default) — everything, matching the paper's setup.

With ``verify=True`` the structural IR verifier
(:mod:`repro.compiler.verify`) runs after IR generation, after every
optimization pass, and after register allocation; a pass that breaks an
invariant raises :class:`~repro.errors.IRVerificationError` naming that
pass.  ``post_pass_hook`` is a test seam (used by the harness fault
injector) called as ``hook(pass_name, fir)`` after each per-function
pass, *before* verification — corrupting the IR there must be caught.

Per-function passes are scheduled change-driven (:class:`_PassManager`),
with output identical to running every pass every time.  A pass's first
call on a function always runs, so the hook sees every pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set

from repro import obs
from repro.compiler.classify import (
    class_counts,
    classify_late_loads,
    classify_program,
)
from repro.compiler.ir import FuncIR, ModuleIR
from repro.compiler.irgen import generate_ir
from repro.compiler.opt import (
    coalesce_moves,
    constant_propagation,
    copy_propagation,
    dead_code_elimination,
    inline_functions,
    loop_invariant_code_motion,
    promote_locals,
    redundant_load_elimination,
    simplify_control_flow,
    strength_reduction,
)
from repro.compiler.regalloc import allocate_registers
from repro.compiler.verify import verify_func, verify_module
from repro.isa.program import Program
from repro.lang.parser import parse
from repro.lang.sema import analyze

#: Signature of the post-pass test hook: ``(pass_name, fir) -> None``.
PassHook = Callable[[str, FuncIR], None]


@dataclass
class CompileOptions:
    """Knobs for the compilation pipeline."""

    opt_level: int = 2
    classify: bool = True
    inline: bool = True
    max_scalar_rounds: int = 4
    #: Run the structural IR verifier between passes.
    verify: bool = False
    #: Test seam called after each per-function pass (fault injection).
    post_pass_hook: Optional[PassHook] = None


@dataclass
class CompileResult:
    """A compiled program plus compile-time artifacts."""

    program: Program
    module: ModuleIR
    options: CompileOptions
    source: str = field(repr=False, default="")

    def class_counts(self) -> Dict[str, int]:
        """Static load counts per scheme specifier."""
        return class_counts(self.program)

    def listing(self) -> str:
        """Assembly listing of the final program."""
        return self.program.dump()


def _func_ir_counts(fir: FuncIR) -> tuple:
    """``(instructions, loads, blocks)`` of one function's current IR.

    Blocks are counted as leader labels plus the entry; only computed
    when tracing is enabled (see :func:`_run_pass`).
    """
    instructions = loads = 0
    for inst in fir.func.instructions():
        instructions += 1
        if inst.is_load:
            loads += 1
    return instructions, loads, len(fir.func.body) - instructions + 1


def _run_pass(pass_fn, fir: FuncIR, options: CompileOptions) -> bool:
    """Run one per-function pass, then the hook and the verifier.

    With a tracer configured, each invocation emits a ``pass:<name>``
    span carrying IR-delta counters (instructions/loads/blocks
    before→after); the disabled path is byte-identical to the
    uninstrumented driver.
    """
    name = pass_fn.__name__
    tracer = obs.current()
    if not tracer.enabled:
        changed = pass_fn(fir)
        hook = options.post_pass_hook
        if hook is not None:
            hook(name, fir)
        if options.verify:
            verify_func(fir.func, pass_name=name)
        return bool(changed)

    before_i, before_l, before_b = _func_ir_counts(fir)
    with tracer.span("pass:" + name, func=fir.func.name) as span:
        changed = pass_fn(fir)
        hook = options.post_pass_hook
        if hook is not None:
            hook(name, fir)
        if options.verify:
            verify_func(fir.func, pass_name=name)
        after_i, after_l, after_b = _func_ir_counts(fir)
        span.set_counters(
            changed=int(bool(changed)), skipped=0,
            instructions_before=before_i, instructions_after=after_i,
            loads_before=before_l, loads_after=after_l,
            blocks_before=before_b, blocks_after=after_b,
        )
    return bool(changed)


class _PassManager:
    """Change-driven scheduling of the per-function passes of one compile.

    Per function it tracks the *clean* passes: those whose last run
    returned "no change" and that no pass has changed the function
    since.  Calling a clean pass skips it and returns False.  A pass is
    deterministic on its input IR and returns False only when it left
    the function unchanged, so a run on that identical IR would have
    returned False too.  Any change makes every pass dirty again,
    including the one that made it.
    """

    def __init__(self, options: CompileOptions):
        self.options = options
        self.passes_run = 0
        self.passes_skipped = 0
        self._clean: Dict[str, Set[str]] = {}

    def __call__(self, pass_fn, fir: FuncIR) -> bool:
        name = pass_fn.__name__
        clean = self._clean.setdefault(fir.func.name, set())
        if name in clean:
            self.passes_skipped += 1
            tracer = obs.current()
            if tracer.enabled:
                with tracer.span("pass:" + name, func=fir.func.name) as span:
                    span.set_counters(changed=0, skipped=1)
            return False
        self.passes_run += 1
        changed = _run_pass(pass_fn, fir, self.options)
        if changed:
            clean.clear()
        else:
            clean.add(name)
        return changed


def _scalar_round(run: _PassManager, fir: FuncIR) -> bool:
    changed = False
    changed |= run(constant_propagation, fir)
    changed |= run(copy_propagation, fir)
    changed |= run(coalesce_moves, fir)
    changed |= run(redundant_load_elimination, fir)
    changed |= run(dead_code_elimination, fir)
    changed |= run(simplify_control_flow, fir)
    return changed


def compile_source(
    source: str, options: Optional[CompileOptions] = None, **kwargs
) -> CompileResult:
    """Compile mini-C *source* into a laid-out, classified program.

    Keyword arguments are shorthand for :class:`CompileOptions` fields,
    e.g. ``compile_source(src, opt_level=0)``.
    """
    if options is None:
        options = CompileOptions(**kwargs)
    elif kwargs:
        raise TypeError("pass either options or keyword overrides, not both")

    tracer = obs.current()
    with tracer.span("compile") as compile_span:
        with tracer.span("frontend"):
            unit = parse(source)
            analyzer = analyze(unit)
            module = generate_ir(unit, analyzer)

        if options.verify:
            verify_module(module, pass_name="irgen")

        run = _PassManager(options)
        if options.opt_level >= 1:
            if options.inline:
                with tracer.span("pass:inline_functions") as span:
                    changed = inline_functions(module)
                    span.set_counters(changed=int(bool(changed)), skipped=0)
                    hook = options.post_pass_hook
                    if hook is not None:
                        for fir in module.funcs.values():
                            hook("inline_functions", fir)
                    if options.verify:
                        verify_module(module, pass_name="inline_functions")
            for fir in module.funcs.values():
                run(simplify_control_flow, fir)
                run(promote_locals, fir)
                for _ in range(options.max_scalar_rounds):
                    if not _scalar_round(run, fir):
                        break
                if options.opt_level >= 2:
                    run(loop_invariant_code_motion, fir)
                    run(strength_reduction, fir)
                    for _ in range(2):
                        if not _scalar_round(run, fir):
                            break

        # Classification runs on virtual-register code, as IMPACT's heuristics
        # did: after register allocation, physical-register reuse merges
        # unrelated values into S_load and degrades the load-dependence test.
        # Spill and callee-save loads added by the allocator afterwards keep
        # the conservative default ``ld_n``.
        if options.classify:
            with tracer.span("pass:classify") as span:
                classify_program(module.program)
                if tracer.enabled:
                    counts = class_counts(module.program)
                    span.set_counters(
                        ld_n=counts["n"], ld_p=counts["p"], ld_e=counts["e"]
                    )

        with tracer.span("regalloc"):
            for fir in module.funcs.values():
                created = allocate_registers(fir)
                if options.classify:
                    classify_late_loads(fir.func, created)
            if options.verify:
                verify_module(
                    module, pass_name="allocate_registers",
                    require_physical=True,
                )

        module.program.layout()
        if tracer.enabled:
            counts = class_counts(module.program)
            compile_span.set_counters(
                instructions=len(module.program.flat),
                static_loads=sum(counts.values()),
                ld_n=counts["n"], ld_p=counts["p"], ld_e=counts["e"],
                passes_run=run.passes_run,
                passes_skipped=run.passes_skipped,
            )
    return CompileResult(module.program, module, options, source)
