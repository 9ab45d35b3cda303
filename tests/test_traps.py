"""Precise-trap tests (Section 2.2): the VM must reconstruct exactly the
architected state a pure interpreter reaches at the same trap."""

import pytest

from repro.asm import assemble
from repro.ildp_isa.opcodes import IFormat
from repro.interp import Interpreter
from repro.isa.semantics import Trap, TrapKind
from repro.vm import CoDesignedVM, VMConfig, VMTrap
from tests.conftest import ALL_FORMATS

#: A hot loop that eventually dereferences an unmapped address.  The
#: faulting load sits mid-fragment with a *local* value (r4) live across
#: it: under the basic format that value exists only in an accumulator at
#: the trap, exercising the PEI recovery map's hard case.  The pointer is
#: poisoned with a conditional move so no side exit forces a copy.
FAULTING_LOAD = """
_start: li r1, 90
        la r2, buf
        li r8, 0x700000
        clr r3
loop:   addq r3, r1, r4
        cmpeq r1, 21, r7
        cmovne r7, r8, r2
        ldq  r6, 0(r2)
        addq r4, r6, r3
        clr  r4
        subq r1, 1, r1
        bne  r1, loop
        call_pal halt
        .data
buf:    .quad 17
"""

#: FAULTING_LOAD with its poisoned load turned into a store: the last
#: iteration's store faults at 0x700000.
FAULTING_STORE = FAULTING_LOAD.replace("ldq  r6, 0(r2)", "stq  r4, 0(r2)")

GENTRAP_KERNEL = """
_start: li r1, 80
        clr r2
loop:   addq r2, r1, r2
        subq r1, 1, r1
        cmpeq r1, 10, r3
        bne  r3, boom
        bne  r1, loop
        call_pal halt
boom:   call_pal gentrap
        br   loop
"""

#: A countdown loop that leaves through an indirect jump through R31,
#: to V-PC 0.  Code generation cannot translate a jump through the zero
#: register, so the superblock holding it fails to translate; the VM
#: must interpret on and trap where the interpreter does.
JUMP_THROUGH_R31 = """
_start: li r1, 3
loop:   subq r1, 1, r1
        bne  r1, loop
        jmp  r31, (r31)
"""

UNALIGNED_STORE = """
_start: li r1, 70
        la r2, buf
        clr r4
loop:   addq r4, r1, r4
        subq r1, 1, r1
        cmpeq r1, 15, r3
        beq  r3, okay
        lda  r2, 1(r2)
okay:   stq  r4, 0(r2)
        bne  r1, loop
        call_pal halt
        .data
        .align 8
buf:    .quad 0
"""


def reference_trap(source):
    """Interpret until the trap; returns (trap, precise state)."""
    interp = Interpreter(assemble(source))
    with pytest.raises(Trap) as excinfo:
        interp.run(max_instructions=1_000_000)
    return excinfo.value, interp.state


def vm_trap(source, fmt):
    vm = CoDesignedVM(assemble(source), VMConfig(fmt=fmt))
    with pytest.raises(VMTrap) as excinfo:
        vm.run(max_v_instructions=1_000_000)
    return excinfo.value, vm


class TestPreciseTraps:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_faulting_load_state_matches(self, fmt):
        ref_trap, ref_state = reference_trap(FAULTING_LOAD)
        trap, vm = vm_trap(FAULTING_LOAD, fmt)
        assert trap.trap.kind is TrapKind.ACCESS_VIOLATION
        assert trap.state.pc == ref_state.pc
        assert trap.state.regs == ref_state.regs, \
            trap.state.diff(ref_state)
        # the trap must have been raised from translated code, otherwise
        # this test exercises nothing
        assert vm.tcache.fragments

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_gentrap_state_matches(self, fmt):
        _ref_trap, ref_state = reference_trap(GENTRAP_KERNEL)
        trap, _vm = vm_trap(GENTRAP_KERNEL, fmt)
        assert trap.trap.kind is TrapKind.GENTRAP
        assert trap.state.pc == ref_state.pc
        assert trap.state.regs == ref_state.regs, \
            trap.state.diff(ref_state)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_unaligned_store_state_matches(self, fmt):
        _ref_trap, ref_state = reference_trap(UNALIGNED_STORE)
        trap, _vm = vm_trap(UNALIGNED_STORE, fmt)
        assert trap.trap.kind is TrapKind.UNALIGNED
        assert trap.state.pc == ref_state.pc
        assert trap.state.regs == ref_state.regs, \
            trap.state.diff(ref_state)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_memory_consistent_at_trap(self, fmt):
        source = UNALIGNED_STORE
        interp = Interpreter(assemble(source))
        with pytest.raises(Trap):
            interp.run(max_instructions=1_000_000)
        vm = CoDesignedVM(assemble(source), VMConfig(fmt=fmt))
        with pytest.raises(VMTrap):
            vm.run(max_v_instructions=1_000_000)
        base = vm.program.symbols["buf"]
        assert vm.program.memory.read_bytes(base, 16) == \
            interp.program.memory.read_bytes(base, 16)

    def test_trap_counted_in_stats(self):
        _trap, vm = vm_trap(FAULTING_LOAD, IFormat.BASIC)
        assert vm.stats.traps_delivered == 1

    def test_basic_recovery_uses_accumulators(self):
        """At least one PEI recovery map in the faulting fragment must name
        an accumulator — otherwise the basic format's hard case (values not
        yet copied) is not being exercised."""
        vm = CoDesignedVM(assemble(FAULTING_LOAD),
                          VMConfig(fmt=IFormat.BASIC))
        with pytest.raises(VMTrap):
            vm.run(max_v_instructions=1_000_000)
        acc_entries = [
            location
            for fragment in vm.tcache.fragments
            for _i, _vpc, recovery in fragment.pei_table
            if recovery
            for location in recovery.values()
            if location[0] == "acc"
        ]
        assert acc_entries


class TestUntranslatableSuperblock:
    @pytest.mark.parametrize("engine", ("naive", "jit"))
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_translation_failure_degrades(self, fmt, engine):
        ref_trap, ref_state = reference_trap(JUMP_THROUGH_R31)
        vm = CoDesignedVM(assemble(JUMP_THROUGH_R31),
                          VMConfig(fmt=fmt, exec_engine=engine, threshold=1))
        with pytest.raises(VMTrap) as excinfo:
            vm.run(max_v_instructions=1_000_000)
        trap = excinfo.value
        assert trap.trap.kind is ref_trap.kind is TrapKind.ACCESS_VIOLATION
        assert trap.trap.vpc == ref_trap.vpc == 0
        assert trap.state.regs == ref_state.regs, \
            trap.state.diff(ref_state)
        assert vm.stats.translation_failures == 1


class TestTracedFaults:
    @pytest.mark.parametrize("engine", ("naive", "jit"))
    def test_faulting_store_leaves_no_row(self, engine):
        """A store that faults wrote nothing, so (like a faulting load)
        it leaves no trace row; the stores before it do."""
        vm = CoDesignedVM(assemble(FAULTING_STORE),
                          VMConfig(fmt=IFormat.MODIFIED, collect_trace=True,
                                   exec_engine=engine))
        with pytest.raises(VMTrap) as excinfo:
            vm.run(max_v_instructions=1_000_000)
        assert excinfo.value.trap.kind is TrapKind.ACCESS_VIOLATION
        stored = [mem_addr for template, _taken, _target, mem_addr, _ras
                  in vm.trace if template.op_class == "store"]
        assert stored
        assert 0x700000 not in stored


class TestPEIRecoveryError:
    def _fragment(self):
        from tests.conftest import FIG2_KERNEL

        vm = CoDesignedVM(assemble(FIG2_KERNEL), VMConfig())
        vm.run(max_v_instructions=500_000)
        return vm.tcache.fragments[0]

    def test_pei_index_mirrors_table(self):
        fragment = self._fragment()
        assert fragment.pei_index == \
            {row[0]: row for row in fragment.pei_table}

    def test_missing_entry_is_structured(self):
        from repro.vm.traps import PEIRecoveryError, reconstruct_state

        fragment = self._fragment()
        bogus = max(fragment.pei_index) + 1
        assert bogus not in fragment.pei_index
        with pytest.raises(PEIRecoveryError) as excinfo:
            reconstruct_state(fragment, bogus, [0] * 32, [0] * 4)
        err = excinfo.value
        assert err.fid == fragment.fid
        assert err.entry_vpc == fragment.entry_vpc
        assert err.body_index == bogus
        assert err.table_size == len(fragment.pei_table)
        assert f"f{fragment.fid}" in str(err)
