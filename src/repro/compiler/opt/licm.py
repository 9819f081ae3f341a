"""Loop-invariant code motion, including invariant loads.

The paper's cyclic heuristics assume that "after loop optimizations,
loop invariant loads should have been moved out of the loop", so this
pass hoists both pure ALU computations and loads whose address is loop-
invariant and provably not overwritten inside the loop.

Hoisting conditions for an instruction ``I`` with destination ``d``:

* ``I`` is a pure ALU/LEA/MOV op, or a load (see below); DIV/REM are
  hoisted only with a constant non-zero divisor (they can fault);
* every register operand is loop-invariant: defined zero times in the
  loop, or by a single already-invariant loop instruction;
* ``d`` has exactly one definition in the loop and is not live-in at the
  loop header (so every use is dominated by this definition);
* loads additionally require: no call in the loop, no may-aliasing store
  in the loop, and the load's block must dominate every loop exit (loads
  are not speculated).

Hoisted instructions move to a freshly created preheader block.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Set, Tuple

from repro.compiler.cfg import CFG, BasicBlock
from repro.compiler.dataflow import Liveness, inst_defs
from repro.compiler.dominators import dominators
from repro.compiler.ir import FuncIR
from repro.compiler.loops import Loop, find_loops
from repro.compiler.opt.alias import may_alias, mem_key
from repro.isa.instruction import Imm, Instruction, Reg, Sym
from repro.isa.opcodes import FP_ALU_OPS, INT_ALU_OPS, Opcode

_PURE_ALU = (INT_ALU_OPS | FP_ALU_OPS) - {Opcode.DIV, Opcode.REM}


def loop_invariant_code_motion(fir: FuncIR) -> bool:
    """Hoist until no loop yields anything."""
    changed = False
    while _hoist_one(fir):
        changed = True
    return changed


def _hoist_one(fir: FuncIR) -> bool:
    """Process loops innermost-first; returns True after one mutation.

    A loop that hoists nothing leaves the CFG untouched, so dominators
    and liveness are computed once per CFG state and shared by every
    loop tried on it; liveness only when some loop first needs it.
    """
    cfg = CFG(fir.func)
    dom = dominators(cfg)
    liveness = lru_cache(maxsize=None)(lambda: Liveness(cfg))
    for loop in find_loops(cfg, dom):
        if _process_loop(fir, cfg, loop, dom, liveness):
            # The freshly inserted preheader has no wired-up edges, so
            # unreachable-block filtering must be skipped here.
            cfg.to_function(drop_unreachable=False)
            return True
    return False


def _process_loop(
    fir: FuncIR,
    cfg: CFG,
    loop: Loop,
    dom: Dict[int, Set[int]],
    liveness: Callable[[], Liveness],
) -> bool:
    blocks = cfg.blocks
    loop_blocks = [blocks[i] for i in sorted(loop.blocks)]

    # The preheader is inserted positionally before the header; a loop
    # block falling through into the header from above would be broken.
    header_pos = loop.header
    if header_pos > 0:
        prev = blocks[header_pos - 1]
        if prev.index in loop.blocks and prev.terminator is None:
            return False

    defs_in_loop: Dict[Tuple, int] = {}
    stores: List = []
    has_call = False
    for block in loop_blocks:
        for inst in block.instrs:
            for key in inst_defs(inst):
                defs_in_loop[key] = defs_in_loop.get(key, 0) + 1
            if inst.is_store:
                stores.append(mem_key(inst))
            elif inst.opcode is Opcode.CALL:
                has_call = True

    live_in_header = liveness().live_in[loop.header]
    exit_blocks = {
        b.index
        for b in loop_blocks
        for s in b.succs
        if s not in loop.blocks
    }
    dominates_exits = {
        b.index: all(b.index in dom[e] for e in exit_blocks)
        for b in loop_blocks
    }

    invariant_defs: Set[Tuple] = set()  # reg keys defined by hoisted instrs
    hoisted: List[Instruction] = []
    hoisted_ids: Set[int] = set()

    def operand_invariant(operand) -> bool:
        if isinstance(operand, (Imm, Sym)):
            return True
        assert isinstance(operand, Reg)
        key = operand.key
        count = defs_in_loop.get(key, 0)
        if count == 0:
            return True
        return key in invariant_defs

    progress = True
    while progress:
        progress = False
        for block in loop_blocks:
            block_dominates_exits = dominates_exits[block.index]
            for inst in block.instrs:
                if id(inst) in hoisted_ids or inst.dest is None:
                    continue
                key = inst.dest.key
                if defs_in_loop.get(key, 0) != 1 or key in live_in_header:
                    continue
                op = inst.opcode
                if op in _PURE_ALU or op is Opcode.LEA:
                    ok = all(operand_invariant(s) for s in inst.srcs)
                elif op in (Opcode.DIV, Opcode.REM):
                    divisor = inst.srcs[1]
                    ok = (
                        isinstance(divisor, Imm)
                        and divisor.value != 0
                        and operand_invariant(inst.srcs[0])
                    )
                elif inst.is_load:
                    ok = (
                        not has_call
                        and block_dominates_exits
                        and all(operand_invariant(s) for s in inst.srcs)
                        and not _store_conflict(inst, stores)
                    )
                else:
                    continue
                if ok:
                    hoisted.append(inst)
                    hoisted_ids.add(id(inst))
                    invariant_defs.add(key)
                    progress = True

    if not hoisted:
        return False

    for block in loop_blocks:
        block.instrs = [
            inst for inst in block.instrs if id(inst) not in hoisted_ids
        ]

    # Build the preheader and retarget out-of-loop branches to it.
    pre_label = fir.new_label("pre")
    header_labels = set(blocks[loop.header].labels)
    for block in blocks:
        if block.index in loop.blocks:
            continue
        for inst in block.instrs:
            if inst.target is not None and inst.target in header_labels:
                inst.target = pre_label

    preheader = BasicBlock(-1)
    preheader.labels.append(pre_label)
    preheader.instrs = hoisted
    position = next(
        i for i, b in enumerate(blocks) if b.index == loop.header
    )
    blocks.insert(position, preheader)
    return True


def _store_conflict(load: Instruction, stores: List) -> bool:
    load_key = mem_key(load)
    if load_key is None:
        return True
    return any(may_alias(store_key, load_key) for store_key in stores)
