"""Functional executor tests: co-simulation, budgets, staleness checks."""

import pytest

from repro.ildp_isa.opcodes import IFormat
from repro.translator.chaining import ChainingPolicy
from repro.vm import CoDesignedVM, VMConfig
from repro.vm.executor import ExitReason, StalenessError
from repro.asm import assemble
from tests.conftest import (
    ALL_FORMATS,
    CALL_KERNEL,
    FIG2_KERNEL,
    assert_cosim_equivalent,
    run_reference,
)


class TestCoSimulation:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_fig2_kernel(self, fmt):
        assert_cosim_equivalent(FIG2_KERNEL, VMConfig(fmt=fmt))

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_call_kernel(self, fmt):
        assert_cosim_equivalent(CALL_KERNEL, VMConfig(fmt=fmt))

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_memory_mutation_kernel(self, fmt):
        source = """
_start: li r1, 90
        la r2, buf
loop:   ldq r3, 0(r2)
        addq r3, r1, r3
        stq r3, 0(r2)
        ldq r4, 8(r2)
        subq r4, 1, r4
        stq r4, 8(r2)
        subq r1, 1, r1
        bne r1, loop
        call_pal halt
        .data
buf:    .quad 5
        .quad 1000
"""
        vm = assert_cosim_equivalent(source, VMConfig(fmt=fmt))
        reference = run_reference(source)
        base = vm.program.symbols["buf"]
        assert vm.program.memory.load(base, 8) == \
            reference.program.memory.load(base, 8)

    def test_eight_accumulators(self):
        assert_cosim_equivalent(
            FIG2_KERNEL, VMConfig(fmt=IFormat.BASIC, n_accumulators=8))

    def test_two_accumulators_forces_spills(self):
        vm = assert_cosim_equivalent(
            FIG2_KERNEL, VMConfig(fmt=IFormat.BASIC, n_accumulators=2))
        assert vm.stats.premature_terminations >= 0  # correctness first

    def test_fuse_memory_mode(self):
        source = """
_start: li r1, 80
        la r2, buf
loop:   ldq r3, 16(r2)
        addq r3, 1, r3
        stq r3, 16(r2)
        subq r1, 1, r1
        bne r1, loop
        call_pal halt
        .data
buf:    .space 64
"""
        for fmt in (IFormat.BASIC, IFormat.MODIFIED):
            assert_cosim_equivalent(source,
                                    VMConfig(fmt=fmt, fuse_memory=True))


class TestBudget:
    def test_budget_stops_at_fragment_boundary(self):
        from repro.asm import assemble

        vm = CoDesignedVM(assemble(FIG2_KERNEL),
                          VMConfig(fmt=IFormat.MODIFIED))
        stats = vm.run(max_v_instructions=800)
        assert not vm.halted
        assert stats.total_v_instructions() >= 800
        # the VM must be resumable: state.pc is a clean V-PC
        assert vm.state.pc != 0

    def test_budget_resume_completes(self):
        from repro.asm import assemble

        reference = run_reference(FIG2_KERNEL)
        vm = CoDesignedVM(assemble(FIG2_KERNEL),
                          VMConfig(fmt=IFormat.BASIC))
        while not vm.halted:
            vm.run(max_v_instructions=vm.stats.total_v_instructions() + 311)
        assert vm.state.regs == reference.state.regs


class TestStaleness:
    def test_strict_mode_passes_on_correct_translations(self):
        assert_cosim_equivalent(FIG2_KERNEL,
                                VMConfig(fmt=IFormat.MODIFIED))

    def test_stale_read_detected(self):
        """Manually corrupt an operational flag: strict mode must catch a
        same-fragment GPR read of the now-stale value."""
        source = """
_start: li r1, 90
loop:   addq r1, 3, r2
        addq r2, 1, r3
        addq r3, r2, r4
        subq r1, 1, r1
        bne r1, loop
        call_pal halt
"""
        vm = CoDesignedVM(assemble(source),
                          VMConfig(fmt=IFormat.MODIFIED))
        # translate first, then sabotage: clear every operational flag on
        # instructions whose value is read through a GPR later
        try:
            vm.run(max_v_instructions=2_000)
        except StalenessError:
            pytest.fail("correct translation flagged as stale")
        fragment = vm.tcache.fragments[0]
        sabotaged = False
        for instr in fragment.body:
            if instr.dest_gpr == 2 and instr.operational:
                instr.operational = False
                sabotaged = True
        if not sabotaged:
            pytest.skip("kernel did not produce an operational r2")
        vm2 = CoDesignedVM(assemble(source),
                           VMConfig(fmt=IFormat.MODIFIED))
        vm2.tcache = vm.tcache  # reuse the sabotaged cache
        vm2.executor.tcache = vm.tcache
        with pytest.raises(StalenessError):
            vm2.run(max_v_instructions=50_000)


class TestExitReasons:
    def test_halt_exit(self):
        vm = CoDesignedVM(assemble(FIG2_KERNEL),
                          VMConfig(fmt=IFormat.MODIFIED))
        vm.run(max_v_instructions=1_000_000)
        assert vm.halted

    def test_untranslated_exit_notes_candidate(self):
        vm = CoDesignedVM(assemble(FIG2_KERNEL),
                          VMConfig(fmt=IFormat.MODIFIED))
        vm.run(max_v_instructions=1_000_000)
        # the loop fall-through became a fragment-exit candidate
        from repro.interp.profiler import CandidateKind

        kinds = [vm.profiler.candidate_kind(vpc)
                 for vpc in vm.profiler._kinds]
        assert CandidateKind.FRAGMENT_EXIT in kinds
