"""Edge-case tests for the fragment executor and VM mode switching."""

import pytest

from repro.asm import assemble
from repro.ildp_isa.opcodes import IFormat
from repro.translator.chaining import ChainingPolicy
from repro.vm import CoDesignedVM, VMConfig
from repro.vm.executor import RAS_DEPTH
from tests.conftest import assert_cosim_equivalent

DEEP_RECURSION = """
_start: br main
down:   lda  r30, -16(r30)
        stq  r26, 0(r30)
        beq  r16, base
        subq r16, 1, r16
        bsr  r26, down
        addq r0, 1, r0
        ldq  r26, 0(r30)
        lda  r30, 16(r30)
        ret
base:   clr  r0
        ldq  r26, 0(r30)
        lda  r30, 16(r30)
        ret
main:   li   r15, 120
loop:   li   r16, 25
        bsr  r26, down
        subq r15, 1, r15
        bne  r15, loop
        and  r0, 0x7f, r16
        call_pal putc
        call_pal halt
"""


class TestRASDepth:
    def test_recursion_deeper_than_ras_still_correct(self):
        """25-deep recursion overflows a 16-entry dual RAS: predictions
        miss but architecture must be exact."""
        vm = assert_cosim_equivalent(
            DEEP_RECURSION, VMConfig(fmt=IFormat.MODIFIED,
                                     policy=ChainingPolicy.SW_PRED_RAS))
        assert vm.stats.ras_misses > 0   # overflow really happened
        assert vm.stats.ras_hits > 0     # shallow returns still hit

    def test_tiny_ras_depth(self):
        """The naive walk's push drops the oldest entry past RAS_DEPTH,
        as the generated code does; the 25-deep recursion overflows
        it."""
        assert RAS_DEPTH < 25
        vm = assert_cosim_equivalent(
            DEEP_RECURSION, VMConfig(fmt=IFormat.MODIFIED,
                                     policy=ChainingPolicy.SW_PRED_RAS,
                                     exec_engine="naive"))
        assert vm.stats.ras_misses > 0

    def test_ras_depth_one(self):
        vm = assert_cosim_equivalent(
            DEEP_RECURSION, VMConfig(fmt=IFormat.BASIC,
                                     policy=ChainingPolicy.SW_PRED_RAS))
        assert vm.stats.ras_misses > 0


class TestPutcInTranslatedCode:
    def test_putc_inside_hot_loop(self):
        source = """
_start: li r1, 70
loop:   and r1, 0x7f, r16
        call_pal putc
        subq r1, 1, r1
        bne r1, loop
        call_pal halt
"""
        vm = assert_cosim_equivalent(source,
                                     VMConfig(fmt=IFormat.MODIFIED))
        assert len(vm.interpreter.console) == 70
        # the loop was hot: most putcs ran from translated code
        assert vm.stats.iop_counts.get(
            __import__("repro.ildp_isa.opcodes",
                       fromlist=["IOp"]).IOp.PUTC, 0) > 0


class TestModeSwitching:
    def test_alternating_hot_and_cold_paths(self):
        # a hot loop calling a rarely-executed cold helper: execution
        # keeps bouncing between translated code and the interpreter
        source = """
_start: li r1, 200
        clr r2
loop:   and r1, 63, r3
        bne r3, common
        addq r2, 100, r2     ; cold path, executed every 64th iteration
        sll r2, 1, r2
        srl r2, 1, r2
        xor r2, r3, r2
common: addq r2, 1, r2
        subq r1, 1, r1
        bne r1, loop
        and r2, 0x7f, r16
        call_pal putc
        call_pal halt
"""
        for fmt in (IFormat.BASIC, IFormat.MODIFIED):
            vm = assert_cosim_equivalent(source, VMConfig(fmt=fmt))
            assert vm.stats.fragments_created >= 1
            assert vm.stats.interpreted_instructions > 0

    def test_fragment_to_fragment_chains_stay_internal(self):
        source = """
_start: li r9, 300
outer:  li r1, 20
inner:  subq r1, 1, r1
        addq r2, r1, r2
        bne r1, inner
        subq r9, 1, r9
        bne r9, outer
        call_pal halt
"""
        vm = assert_cosim_equivalent(source,
                                     VMConfig(fmt=IFormat.MODIFIED))
        # once both loops are translated and patched, the VM should barely
        # re-enter interpretation: the chained fragments run back-to-back
        stats = vm.stats
        assert stats.fragments_created >= 2
        assert stats.source_instructions_executed > \
            stats.interpreted_instructions


class TestInterpretationOverheadModel:
    def test_near_paper_thousand(self):
        """Paper Section 4.1: threshold 50 x ~20 instructions ~= 1,000
        interpreter instructions per hot source instruction."""
        from repro.harness.runner import run_vm

        result = run_vm("gzip", budget=80_000, collect_trace=False)
        overhead = result.stats.interpretation_overhead()
        assert 500 < overhead < 2500
