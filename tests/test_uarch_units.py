"""Unit tests for the smaller microarchitecture building blocks."""

import pytest

from repro.uarch.cache import MemoryHierarchy
from repro.uarch.config import MachineConfig
from repro.uarch.frontend import FrontEnd
from repro.uarch.predictors import BranchUnit
from repro.uarch.retire import RetireUnit


def make_frontend(**overrides):
    config = MachineConfig("test", **overrides)
    hierarchy = MemoryHierarchy(config)
    return FrontEnd(config, hierarchy, BranchUnit(config)), config


class TestRetireUnit:
    def test_in_order(self):
        unit = RetireUnit(rob_size=4, bandwidth=2)
        first = unit.retire(10)
        second = unit.retire(5)    # completed earlier but retires later
        assert second >= first

    def test_bandwidth_limit(self):
        unit = RetireUnit(rob_size=128, bandwidth=2)
        cycles = [unit.retire(0) for _ in range(6)]
        # at most two retirements share any cycle
        for cycle in set(cycles):
            assert cycles.count(cycle) <= 2

    def test_rob_occupancy_stalls_dispatch(self):
        unit = RetireUnit(rob_size=2, bandwidth=1)
        unit.retire(100)
        unit.retire(100)
        # ROB full of instructions retiring at ~100: dispatch at 5 waits
        assert unit.admit(5) >= 100

    def test_admit_passes_when_space(self):
        unit = RetireUnit(rob_size=8, bandwidth=4)
        assert unit.admit(5) == 5


class TestFrontEnd:
    def test_width_limits_group(self):
        frontend, _config = make_frontend()
        cycles = [frontend.fetch(0x1000 + 4 * i) for i in range(8)]
        # warm-up miss aside, instructions 0-3 share a cycle, 4-7 the next
        assert cycles[3] == cycles[0]
        assert cycles[4] == cycles[0] + 1

    def test_taken_branch_ends_group(self):
        frontend, _config = make_frontend()
        frontend.fetch(0x1000)
        cycle = frontend.fetch(0x1004)
        frontend.resolve_control(0x1004, "uncond", True, 0x2000, None, cycle)
        next_cycle = frontend.fetch(0x2000)
        assert next_cycle > cycle

    def test_mispredict_redirects_fetch(self):
        frontend, config = make_frontend()
        # a never-taken branch first predicted taken mispredicts
        cycle = frontend.fetch(0x1000)
        assert frontend.resolve_control(0x1000, "cond", False, None, None,
                                        cycle + 10)
        assert frontend.cycle >= cycle + 10 + config.redirect_latency
        assert frontend.mispredictions == 1

    def test_icache_miss_stalls(self):
        frontend, _config = make_frontend()
        first = frontend.fetch(0x1000)   # cold miss charged
        frontend_warm, _ = make_frontend()
        frontend_warm.fetch(0x1000)
        warm = frontend_warm.fetch(0x1004)  # same line: no miss
        assert warm < first + 80


class TestIInstructionMethods:
    def test_gpr_dest_by_format(self):
        from repro.ildp_isa.instruction import IInstruction
        from repro.ildp_isa.opcodes import IFormat, IOp

        alu = IInstruction(IOp.ALU, op="addq", acc=0, src_a="acc",
                           src_b="imm", imm=1, dest_gpr=5,
                           operational=False)
        assert alu.gpr_dest(IFormat.BASIC) is None
        assert alu.gpr_dest(IFormat.MODIFIED) is None   # not operational
        alu.operational = True
        assert alu.gpr_dest(IFormat.MODIFIED) == 5
        assert alu.gpr_dest(IFormat.ALPHA) == 5

    def test_copy_classification(self):
        from repro.ildp_isa.instruction import IInstruction
        from repro.ildp_isa.opcodes import IOp

        assert IInstruction(IOp.COPY_TO_GPR, acc=0, gpr=1).is_copy()
        assert IInstruction(IOp.COPY_FROM_GPR, acc=0, gpr=1).is_copy()
        assert not IInstruction(IOp.SAVE_VRA, gpr=26,
                                vtarget=0).is_copy()


class TestSuperblockHelpers:
    def test_side_exit_vpcs(self):
        from repro.asm import assemble
        from repro.ildp_isa.opcodes import IFormat
        from repro.vm import CoDesignedVM, VMConfig

        vm = CoDesignedVM(assemble("""
_start: li r1, 80
loop:   and r1, 1, r2
        beq r2, even
        addq r3, 1, r3
even:   subq r1, 1, r1
        bne r1, loop
        call_pal halt
"""), VMConfig(fmt=IFormat.MODIFIED))
        vm.run(max_v_instructions=100_000)
        superblock = vm.tcache.fragments[0].superblock
        exits = superblock.side_exit_vpcs()
        assert exits  # the beq produces one side exit
        for vpc in exits:
            assert vpc != superblock.entry_vpc
