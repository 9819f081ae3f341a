"""Compile-unit containers shared by the compiler passes.

The IR is the machine ISA with virtual registers
(:class:`repro.isa.instruction.Reg` with ``virtual=True``).  A
:class:`ModuleIR` bundles the :class:`~repro.isa.program.Program` under
construction with per-function bookkeeping that the passes and the
register allocator need (frame slots, virtual-register counters).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.isa.program import Function, Program


class FrameSlot:
    """One stack-frame slot of a function."""

    __slots__ = ("name", "offset", "size", "promotable", "is_double")

    def __init__(self, name: str, offset: int, size: int,
                 promotable: bool, is_double: bool = False):
        self.name = name
        self.offset = offset
        self.size = size
        #: True for scalar locals that are never address-taken; the
        #: mem2reg pass rewrites their loads/stores to register moves
        #: (the paper's "virtual register allocation").
        self.promotable = promotable
        self.is_double = is_double

    def __repr__(self) -> str:
        flag = " promotable" if self.promotable else ""
        return f"FrameSlot({self.name}@{self.offset}, {self.size}B{flag})"


class FuncIR:
    """A function plus its compile-time metadata."""

    def __init__(self, func: Function):
        self.func = func
        self.slots: List[FrameSlot] = []
        #: Bytes of locals (before spill/save areas are appended).
        self.local_size = 0
        self.next_vreg = 1
        self.has_calls = False
        #: Per-hint counters of labels the passes create (see
        #: :meth:`new_label`).
        self.label_counts: Dict[str, int] = {}

    def slot_by_offset(self, offset: int) -> Optional[FrameSlot]:
        for slot in self.slots:
            if slot.offset == offset:
                return slot
        return None

    def new_vreg_index(self) -> int:
        index = self.next_vreg
        self.next_vreg += 1
        return index

    def new_label(self, hint: str) -> str:
        """A fresh ``<func>__<hint><n>`` label, numbered per function.

        Numbering per function (never per process) keeps a listing a
        pure function of the source: compiling the same program twice in
        one process yields the same labels.
        """
        count = self.label_counts.get(hint, 0) + 1
        self.label_counts[hint] = count
        return f"{self.func.name}__{hint}{count}"


class ModuleIR:
    """The whole compile unit in virtual-register form."""

    def __init__(self, program: Program):
        self.program = program
        self.funcs: Dict[str, FuncIR] = {}

    def add(self, fir: FuncIR) -> FuncIR:
        self.program.add_function(fir.func)
        self.funcs[fir.func.name] = fir
        return fir
