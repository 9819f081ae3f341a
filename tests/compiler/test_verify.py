"""Structural IR verifier: every invariant class, plus driver wiring."""

import pytest

from repro.compiler.driver import CompileOptions, compile_source
from repro.compiler.verify import verify_func, verify_program
from repro.errors import IRVerificationError
from repro.isa import (
    Function,
    Imm,
    Instruction,
    Label,
    Opcode,
    Program,
    Reg,
    Sym,
)
from repro.isa.opcodes import LoadSpec


def I(op, dest=None, srcs=(), target=None, lspec=LoadSpec.N):  # noqa: E743
    return Instruction(op, dest, srcs, target, lspec=lspec)


def func_of(items, name="main"):
    f = Function(name)
    for item in items:
        f.append(item)
    return f


def v(index):
    return Reg(index, virtual=True)


HALT = I(Opcode.HALT)


# -- well-formed inputs ----------------------------------------------------

def test_minimal_function_verifies():
    verify_func(func_of([HALT]))


def test_straightline_virtual_code_verifies():
    verify_func(
        func_of(
            [
                I(Opcode.MOV, v(1), [Imm(4)]),
                I(Opcode.ADD, v(2), [v(1), Imm(1)]),
                I(Opcode.OUT, None, [v(2)]),
                HALT,
            ]
        )
    )


def test_compiled_workload_verifies_at_every_stage():
    source = """
    int main() {
        int i;
        int s;
        s = 0;
        for (i = 0; i < 10; i = i + 1) { s = s + i; }
        print_int(s);
        return 0;
    }
    """
    result = compile_source(source, options=CompileOptions(verify=True))
    verify_program(result.program, require_physical=True)


# -- branch/CFG invariants -------------------------------------------------

def test_branch_to_undefined_label():
    func = func_of(
        [
            I(Opcode.BEQ, None, [Imm(0), Imm(0)], target="nowhere"),
            HALT,
        ]
    )
    with pytest.raises(IRVerificationError, match="undefined label"):
        verify_func(func)


def test_branch_to_local_label_is_legal():
    func = func_of(
        [
            I(Opcode.BEQ, None, [Imm(0), Imm(0)], target="L1"),
            Label("L1"),
            HALT,
        ]
    )
    verify_func(func)


def test_call_to_unknown_function():
    func = func_of([I(Opcode.CALL, target="ghost"), HALT])
    with pytest.raises(IRVerificationError, match="unknown function"):
        verify_func(func, known_funcs={"main"})


def test_call_unchecked_without_known_funcs():
    verify_func(func_of([I(Opcode.CALL, target="ghost"), HALT]))


# -- terminator placement --------------------------------------------------

def test_missing_terminator():
    func = func_of([I(Opcode.MOV, v(1), [Imm(1)])])
    with pytest.raises(IRVerificationError, match="falls off the end"):
        verify_func(func)


def test_empty_function():
    with pytest.raises(IRVerificationError, match="no instructions"):
        verify_func(func_of([]))


def test_ret_terminator_is_legal():
    verify_func(func_of([I(Opcode.RET)]))


# -- def-before-use --------------------------------------------------------

def test_use_of_undefined_virtual_register():
    func = func_of(
        [
            I(Opcode.ADD, v(2), [v(1), Imm(1)]),
            HALT,
        ]
    )
    with pytest.raises(
        IRVerificationError, match="possibly-undefined virtual register"
    ):
        verify_func(func)


def test_def_on_only_one_path_is_rejected():
    func = func_of(
        [
            I(Opcode.BEQ, None, [Imm(0), Imm(1)], target="join"),
            I(Opcode.MOV, v(1), [Imm(7)]),
            Label("join"),
            I(Opcode.OUT, None, [v(1)]),
            HALT,
        ]
    )
    with pytest.raises(
        IRVerificationError, match="possibly-undefined virtual register"
    ):
        verify_func(func)


def test_def_on_both_paths_is_accepted():
    func = func_of(
        [
            I(Opcode.BEQ, None, [Imm(0), Imm(1)], target="other"),
            I(Opcode.MOV, v(1), [Imm(7)]),
            I(Opcode.JMP, target="join"),
            Label("other"),
            I(Opcode.MOV, v(1), [Imm(8)]),
            Label("join"),
            I(Opcode.OUT, None, [v(1)]),
            HALT,
        ]
    )
    verify_func(func)


def test_physical_registers_exempt_from_def_before_use():
    # The ABI defines physical registers at entry (args, sp, ra).
    verify_func(
        func_of(
            [
                I(Opcode.ADD, v(1), [Reg(4), Imm(1)]),
                I(Opcode.OUT, None, [v(1)]),
                HALT,
            ]
        )
    )


def test_loop_carried_def_is_accepted():
    # v1 defined before the loop; redefinition inside keeps it defined.
    func = func_of(
        [
            I(Opcode.MOV, v(1), [Imm(0)]),
            Label("loop"),
            I(Opcode.ADD, v(1), [v(1), Imm(1)]),
            I(Opcode.BLT, None, [v(1), Imm(10)], target="loop"),
            HALT,
        ]
    )
    verify_func(func)


# -- operand-kind legality -------------------------------------------------

def test_fp_binop_rejects_immediate_source():
    func = func_of(
        [
            I(Opcode.FADD, Reg(1, bank="fp"), [Reg(2, bank="fp"), Imm(1)]),
            HALT,
        ]
    )
    with pytest.raises(IRVerificationError, match="FP registers"):
        verify_func(func)


def test_int_binop_rejects_fp_source():
    func = func_of(
        [
            I(Opcode.ADD, Reg(1), [Reg(2, bank="fp"), Imm(1)]),
            HALT,
        ]
    )
    with pytest.raises(IRVerificationError, match="integer registers"):
        verify_func(func)


def test_load_base_must_be_register():
    func = func_of(
        [
            I(Opcode.LD, Reg(1), [Imm(100), Imm(0)]),
            HALT,
        ]
    )
    with pytest.raises(IRVerificationError, match="base must be"):
        verify_func(func)


def test_store_must_not_have_destination():
    func = func_of(
        [
            I(Opcode.ST, Reg(1), [Reg(2), Reg(3), Imm(0)]),
            HALT,
        ]
    )
    with pytest.raises(IRVerificationError, match="must not have a dest"):
        verify_func(func)


def test_wrong_arity():
    func = func_of(
        [
            I(Opcode.ADD, Reg(1), [Reg(2)]),
            HALT,
        ]
    )
    with pytest.raises(IRVerificationError, match="expects 2"):
        verify_func(func)


def test_branch_without_target():
    func = func_of(
        [
            I(Opcode.BEQ, None, [Imm(0), Imm(0)]),
            HALT,
        ]
    )
    with pytest.raises(IRVerificationError, match="must have a target"):
        verify_func(func)


# -- load-spec validity ----------------------------------------------------

def test_ld_e_requires_base_offset_addressing():
    # base+index (register displacement) cannot use the E scheme.
    func = func_of(
        [
            I(Opcode.MOV, v(1), [Imm(0)]),
            I(Opcode.MOV, v(2), [Imm(0)]),
            I(Opcode.LD, v(3), [v(1), v(2)], lspec=LoadSpec.E),
            HALT,
        ]
    )
    with pytest.raises(IRVerificationError, match="base\\+offset"):
        verify_func(func)


def test_ld_e_with_immediate_offset_is_legal():
    func = func_of(
        [
            I(Opcode.MOV, v(1), [Imm(0)]),
            I(Opcode.LD, v(2), [v(1), Imm(8)], lspec=LoadSpec.E),
            HALT,
        ]
    )
    verify_func(func)


def test_non_load_must_not_carry_spec():
    func = func_of(
        [
            I(Opcode.ADD, v(1), [Imm(1), Imm(2)], lspec=LoadSpec.P),
            HALT,
        ]
    )
    with pytest.raises(IRVerificationError, match="non-load carries"):
        verify_func(func)


# -- post-regalloc mode ----------------------------------------------------

def test_require_physical_rejects_virtual_registers():
    func = func_of(
        [
            I(Opcode.MOV, v(1), [Imm(1)]),
            HALT,
        ]
    )
    with pytest.raises(IRVerificationError, match="survives register"):
        verify_func(func, require_physical=True)


# -- diagnostics -----------------------------------------------------------

def test_diagnostic_names_pass_function_and_instruction():
    func = func_of(
        [
            I(Opcode.ADD, v(2), [v(1), Imm(1)]),
            HALT,
        ],
        name="hot_loop",
    )
    with pytest.raises(IRVerificationError) as info:
        verify_func(func, pass_name="strength_reduction")
    err = info.value
    assert err.pass_name == "strength_reduction"
    assert err.func_name == "hot_loop"
    assert "strength_reduction" in str(err)
    assert "inst=" in str(err)


@pytest.mark.parametrize("target", [
    "simplify_control_flow",
    "promote_locals",
    "constant_propagation",
    "copy_propagation",
    "coalesce_moves",
    "redundant_load_elimination",
    "dead_code_elimination",
    "loop_invariant_code_motion",
    "strength_reduction",
])
def test_driver_verification_catches_corrupted_pass_output(target):
    # Simulate a miscompiling pass through the driver's post-pass hook:
    # the verifier must pin the failure on that pass by name.  The
    # change-driven pass manager always runs a pass's first call on a
    # function, so no pass can be skipped before its hook fires.
    def corrupt(pass_name, fir):
        if pass_name == target and not corrupt.done:
            corrupt.done = True
            fir.func.body.insert(
                0,
                Instruction(
                    Opcode.ADD,
                    Reg(0x7_0001, virtual=True),
                    [Reg(0x7_0000, virtual=True), Imm(1)],
                ),
            )

    corrupt.done = False
    source = "int main() { print_int(2 + 3); return 0; }"
    with pytest.raises(IRVerificationError) as info:
        compile_source(
            source,
            options=CompileOptions(verify=True, post_pass_hook=corrupt),
        )
    assert info.value.pass_name == target
    assert corrupt.done
