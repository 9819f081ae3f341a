"""Induction-variable strength reduction.

Finds basic induction variables (``v = v + c`` with a single definition
inside a loop) and derived variables (``w = v * k`` / ``w = v << k`` with
a single definition), and rewrites the derived computation into a running
accumulator:

* preheader: ``w' = v * k`` (computed once from the entry value of v);
* immediately after ``v = v + c``: ``w' = w' + c*k``;
* the original ``w = v * k`` becomes ``w = w' `` (a MOV, cleaned by
  copy propagation).

This is what turns per-iteration index scaling into strided pointer
updates — together with LICM it gives the table-based predictor the
linear address streams the paper's PD class relies on.  The dead basic
IV left behind when all its uses were derived is removed by DCE
("induction variable elimination").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.compiler.cfg import CFG, BasicBlock
from repro.compiler.dataflow import inst_defs
from repro.compiler.ir import FuncIR
from repro.compiler.loops import Loop, find_loops
from repro.isa.instruction import Imm, Instruction, Reg
from repro.isa.opcodes import Opcode


def strength_reduction(fir: FuncIR) -> bool:
    changed = False
    # One rewrite per iteration: every mutation invalidates the CFG.
    for _ in range(64):  # safety bound
        if not _reduce_one(fir):
            return changed
        changed = True
    return changed


def _reduce_one(fir: FuncIR) -> bool:
    cfg = CFG(fir.func)
    for loop in find_loops(cfg):
        if _process_loop(fir, cfg, loop):
            cfg.to_function(drop_unreachable=False)
            return True
    return False


def _process_loop(fir: FuncIR, cfg: CFG, loop: Loop) -> bool:
    blocks = cfg.blocks
    loop_blocks = [blocks[i] for i in sorted(loop.blocks)]

    header_pos = loop.header
    if header_pos > 0:
        prev = blocks[header_pos - 1]
        if prev.index in loop.blocks and prev.terminator is None:
            return False  # cannot insert a preheader positionally

    defs_in_loop: Dict[Tuple, List[Instruction]] = {}
    inst_block: Dict[int, BasicBlock] = {}
    for block in loop_blocks:
        for inst in block.instrs:
            inst_block[id(inst)] = block
            for key in inst_defs(inst):
                defs_in_loop.setdefault(key, []).append(inst)

    # Basic IVs: v = v + c, the only def of v in the loop.
    basic_ivs: Dict[Tuple, Tuple[Instruction, int]] = {}
    for key, defs in defs_in_loop.items():
        if len(defs) != 1:
            continue
        inst = defs[0]
        if (
            inst.opcode is Opcode.ADD
            and inst.dest is not None
            and inst.dest.virtual
            and isinstance(inst.srcs[0], Reg)
            and inst.srcs[0].key == key
            and isinstance(inst.srcs[1], Imm)
        ):
            basic_ivs[key] = (inst, inst.srcs[1].value)
        elif (
            inst.opcode is Opcode.SUB
            and inst.dest is not None
            and inst.dest.virtual
            and isinstance(inst.srcs[0], Reg)
            and inst.srcs[0].key == key
            and isinstance(inst.srcs[1], Imm)
        ):
            basic_ivs[key] = (inst, -inst.srcs[1].value)
    if not basic_ivs:
        return False

    # Derived IV: w = v * k or w = v << k, single def, v a basic IV,
    # and the multiply is not itself the IV update.
    for key, defs in defs_in_loop.items():
        if len(defs) != 1:
            continue
        inst = defs[0]
        if inst.dest is None or not inst.dest.virtual:
            continue
        if inst.opcode is Opcode.MUL and isinstance(inst.srcs[1], Imm):
            factor: Optional[int] = inst.srcs[1].value
        elif inst.opcode is Opcode.SLL and isinstance(inst.srcs[1], Imm):
            factor = 1 << (inst.srcs[1].value & 31)
        else:
            continue
        src = inst.srcs[0]
        if not isinstance(src, Reg) or src.key not in basic_ivs:
            continue
        iv_update, step = basic_ivs[src.key]
        if inst is iv_update:
            continue
        _rewrite(fir, cfg, loop, inst, iv_update, src, factor, step)
        return True
    return False


def _rewrite(
    fir: FuncIR,
    cfg: CFG,
    loop: Loop,
    derived: Instruction,
    iv_update: Instruction,
    iv_reg: Reg,
    factor: int,
    step: int,
) -> None:
    blocks = cfg.blocks
    accumulator = Reg(fir.new_vreg_index(), "int", virtual=True)

    # Preheader: accumulator = iv * factor.
    pre_label = fir.new_label("sr")
    header_labels = set(blocks[loop.header].labels)
    for block in blocks:
        if block.index in loop.blocks:
            continue
        for inst in block.instrs:
            if inst.target is not None and inst.target in header_labels:
                inst.target = pre_label
    preheader = BasicBlock(-1)
    preheader.labels.append(pre_label)
    if factor and (factor & (factor - 1)) == 0 and factor > 0:
        preheader.instrs.append(
            Instruction(
                Opcode.SLL, accumulator,
                [iv_reg, Imm(factor.bit_length() - 1)],
            )
        )
    else:
        preheader.instrs.append(
            Instruction(Opcode.MUL, accumulator, [iv_reg, Imm(factor)])
        )
    position = next(i for i, b in enumerate(blocks) if b.index == loop.header)
    blocks.insert(position, preheader)

    # Bump the accumulator right after the IV update.
    bump = Instruction(
        Opcode.ADD, accumulator, [accumulator, Imm(step * factor)]
    )
    for block in blocks:
        for i, inst in enumerate(block.instrs):
            if inst is iv_update:
                block.instrs.insert(i + 1, bump)
                break
        else:
            continue
        break

    # The derived computation becomes a copy of the accumulator.
    derived.opcode = Opcode.MOV
    derived.srcs = (accumulator,)
