"""Interpreter tests: control flow, memory, PAL services, traps."""

import pytest

from repro.asm import assemble
from repro.interp import Halted, Interpreter
from repro.isa.semantics import ALU_OPS, CMOV_CONDITIONS, Trap, TrapKind
from repro.utils.bitops import MASK64


def run(source, max_instructions=100_000):
    interp = Interpreter(assemble(source))
    interp.run(max_instructions=max_instructions)
    return interp


#: name -> (source, the registers after the halt, or the trap it raises)
#: for every kind of instruction that names R31 as its destination.  A
#: register value given as a string is that symbol's address.
R31_CASES = {
    "addq": ("""
            li r1, 5
            addq r1, r1, r31
            mov r31, r2
            call_pal halt
        """, {2: 0}),
    "cmov": ("""
            clr r1
            cmoveq r1, 5, r31
            call_pal halt
        """, {1: 0}),
    "lda": ("""
            lda r31, 5(r31)
            call_pal halt
        """, {}),
    "ldah": ("""
            ldah r31, 1(r31)
            call_pal halt
        """, {}),
    "ldq-mapped": ("""
            la r1, var
            ldq r31, 0(r1)
            call_pal halt
            .data
var:        .quad 7
        """, {1: "var"}),
    # the load still performs its access, so it still faults
    "ldq-unmapped": ("""
            li r1, 0x400000
            ldq r31, 0(r1)
            call_pal halt
        """, TrapKind.ACCESS_VIOLATION),
    "br": ("""
            br r31, target
            li r2, 1
target:     li r3, 7
            call_pal halt
        """, {2: 0, 3: 7}),
    "jmp": ("""
            la r1, target
            jmp r31, (r1)
            li r2, 1
target:     li r3, 7
            call_pal halt
        """, {1: "target", 2: 0, 3: 7}),
    # the target is read before the link is written
    "jsr-same-register": ("""
            la r1, target
            jsr r1, (r1)
back:       call_pal halt
target:     li r3, 7
            call_pal halt
        """, {1: "back", 3: 7}),
}


class TestArithmeticPrograms:
    def test_simple_sum(self):
        interp = run("""
            li r1, 10
            li r2, 32
            addq r1, r2, r3
            call_pal halt
        """)
        assert interp.state.regs[3] == 42

    def test_loop_sum(self):
        interp = run("""
            li r1, 100
            clr r2
loop:       addq r2, r1, r2
            subq r1, 1, r1
            bne r1, loop
            call_pal halt
        """)
        assert interp.state.regs[2] == 5050

    def test_r31_always_zero(self):
        for name, (source, expected) in R31_CASES.items():
            interp = Interpreter(assemble(source))
            if isinstance(expected, TrapKind):
                with pytest.raises(Trap) as excinfo:
                    interp.run()
                # raised at the load's own V-PC, before the PC advances
                assert excinfo.value.kind is expected, name
                assert excinfo.value.vpc == interp.state.pc, name
                assert interp.fetch(interp.state.pc).mnemonic == "ldq", name
            else:
                interp.run()
                assert interp.fetch(interp.state.pc).mnemonic == \
                    "call_pal", name
                symbols = interp.program.symbols
                for register, value in expected.items():
                    if isinstance(value, str):
                        value = symbols[value]
                    assert interp.state.regs[register] == value, name
            assert interp.state.regs[31] == 0, name

    def test_negative_wraps(self):
        interp = run("""
            clr r1
            subq r1, 1, r1
            call_pal halt
        """)
        assert interp.state.regs[1] == MASK64


class TestMemoryPrograms:
    def test_store_load(self):
        interp = run("""
            la r1, var
            li r2, 123
            stq r2, 0(r1)
            ldq r3, 0(r1)
            call_pal halt
            .data
var:        .quad 0
        """)
        assert interp.state.regs[3] == 123

    def test_ldl_sign_extends(self):
        interp = run("""
            la r1, var
            ldl r2, 0(r1)
            call_pal halt
            .data
var:        .long 0x80000000
        """)
        assert interp.state.regs[2] == 0xFFFFFFFF80000000

    def test_ldbu_zero_extends(self):
        interp = run("""
            la r1, var
            ldbu r2, 0(r1)
            call_pal halt
            .data
var:        .byte 0xFF
        """)
        assert interp.state.regs[2] == 0xFF

    def test_ldah_scales(self):
        interp = run("""
            ldah r1, 2(r31)
            call_pal halt
        """)
        assert interp.state.regs[1] == 0x20000


class TestControlFlow:
    def test_bsr_links_and_ret_returns(self):
        interp = run("""
            br main
fn:         li r0, 7
            ret
main:       bsr r26, fn
            addq r0, 1, r0
            call_pal halt
        """)
        assert interp.state.regs[0] == 8

    def test_jsr_indirect(self):
        interp = run("""
            la r27, fnp
            ldq r27, 0(r27)
            jsr r26, (r27)
            call_pal halt
fn:         li r0, 99
            ret
            .data
fnp:        .quad fn
        """)
        assert interp.state.regs[0] == 99

    def test_conditional_not_taken(self):
        interp = run("""
            clr r1
            bne r1, skip
            li r2, 1
skip:       call_pal halt
        """)
        assert interp.state.regs[2] == 1

    def test_cmov(self):
        interp = run("""
            li r1, 1
            li r2, 10
            li r3, 20
            cmovne r1, r2, r3
            cmoveq r1, 99, r2
            call_pal halt
        """)
        assert interp.state.regs[3] == 10   # condition true: moved
        assert interp.state.regs[2] == 10   # condition false: unchanged
        # the step reads a mnemonic missing from ALU_OPS as a cmov
        assert not ALU_OPS.keys() & CMOV_CONDITIONS.keys()


class TestPalAndTraps:
    def test_putc_console(self):
        interp = run("""
            li r16, 65
            call_pal putc
            li r16, 66
            call_pal putc
            call_pal halt
        """)
        assert interp.console_text() == "AB"

    def test_gentrap_raises(self):
        interp = Interpreter(assemble("""
            nop
            call_pal gentrap
        """))
        with pytest.raises(Trap) as excinfo:
            interp.run()
        assert excinfo.value.kind is TrapKind.GENTRAP

    def test_access_violation_has_vpc(self):
        interp = Interpreter(assemble("""
            li r1, 0x400000
            ldq r2, 0(r1)
        """))
        with pytest.raises(Trap) as excinfo:
            interp.run()
        assert excinfo.value.kind is TrapKind.ACCESS_VIOLATION
        assert excinfo.value.vpc == interp.state.pc

    def test_halt_stops_step(self):
        interp = Interpreter(assemble("  call_pal halt"))
        with pytest.raises(Halted):
            interp.step()

    def test_events_report_branches(self):
        interp = Interpreter(assemble("""
            clr r1
            beq r1, target
            nop
target:     call_pal halt
        """))
        interp.step()
        pc, _, next_pc, taken, _ = interp.step()
        assert taken
        assert next_pc == pc + 8

    def test_decode_cache_keyed_by_word(self):
        # two textually identical instructions at different PCs share one
        # content-keyed cache entry
        interp = Interpreter(assemble("""
            addq r1, 1, r1
            addq r1, 1, r1
            call_pal halt
        """))
        first = interp.fetch(interp.state.pc)
        second = interp.fetch(interp.state.pc + 4)
        assert first is second

    def test_decode_cache_shared_between_interpreters(self):
        source = """
            li r1, 3
loop:       subq r1, 1, r1
            bne r1, loop
            call_pal halt
        """
        a = Interpreter(assemble(source))
        b = Interpreter(assemble(source))
        assert a.fetch(a.state.pc) is b.fetch(b.state.pc)

    def test_decode_cache_sees_code_rewrite(self):
        # a stale entry must not survive a code rewrite: the word is the
        # key, so a rewritten instruction decodes as its new self
        from repro.isa.encoding import encode
        from repro.isa.instruction import Instruction

        interp = Interpreter(assemble("""
            addq r1, 1, r1
            call_pal halt
        """))
        pc = interp.state.pc
        before = interp.fetch(pc)
        assert before.mnemonic == "addq"
        word = encode(Instruction("subq", ra=2, rb=3, rc=4))
        interp.memory.store(pc, word, 4)
        after = interp.fetch(pc)
        assert after.mnemonic == "subq"
        assert (after.ra, after.rb, after.rc) == (2, 3, 4)
