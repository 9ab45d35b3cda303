"""Direct unit tests of the fragment executor: hand-built fragments,
one IOp at a time, no translator in the loop."""

import pytest

from repro.ildp_isa.instruction import IInstruction
from repro.ildp_isa.opcodes import IFormat, IOp
from repro.interp.state import ArchState
from repro.memory.image import Memory
from repro.tcache.cache import TranslationCache
from repro.tcache.fragment import Fragment
from repro.vm.config import VMConfig
from repro.vm.executor import ExitReason, FragmentExecutor, fragment_plan
from repro.vm.stats import VMStats


def build_fragment(body, fmt=IFormat.BASIC, entry_vpc=0x1000):
    return Fragment(entry_vpc=entry_vpc, fmt=fmt, body=body, exits=[],
                    pei_table=[], source_instr_count=1, n_accumulators=4)


@pytest.fixture
def machine():
    memory = Memory()
    memory.map_segment("data", 0x2000, 0x1000)
    tcache = TranslationCache()
    state = ArchState(0x1000)
    stats = VMStats()
    executor = FragmentExecutor(VMConfig(fmt=IFormat.BASIC), tcache,
                                memory, [], stats)
    return executor, tcache, state, memory


def run_fragment(machine, body, fmt=IFormat.BASIC, entry_vpc=0x1000):
    executor, tcache, state, _memory = machine
    fragment = build_fragment(body + [IInstruction(IOp.HALT)], fmt,
                              entry_vpc)
    tcache.add(fragment)
    result = executor.run(fragment, state)
    return executor, state, result


class TestAluOps:
    def test_strand_start_from_gpr(self, machine):
        machine[2].regs[5] = 40
        executor, _state, _result = run_fragment(machine, [
            IInstruction(IOp.ALU, op="addq", acc=2, src_a="gpr", gpr=5,
                         src_b="imm", imm=2, islit=True),
        ])
        assert executor.accs[2] == 42

    def test_acc_chaining(self, machine):
        executor, _state, _result = run_fragment(machine, [
            IInstruction(IOp.ALU, op="addq", acc=0, src_a="zero",
                         src_b="imm", imm=7, islit=True),
            IInstruction(IOp.ALU, op="sll", acc=0, src_a="acc",
                         src_b="imm", imm=2, islit=True),
        ])
        assert executor.accs[0] == 28

    def test_basic_format_does_not_touch_gprs(self, machine):
        executor, state, _result = run_fragment(machine, [
            IInstruction(IOp.ALU, op="addq", acc=0, src_a="zero",
                         src_b="imm", imm=9, islit=True, dest_gpr=4),
        ])
        assert state.regs[4] == 0      # metadata only in basic format

    def test_modified_format_writes_dest(self, machine):
        executor, state, _result = run_fragment(machine, [
            IInstruction(IOp.ALU, op="addq", acc=0, src_a="zero",
                         src_b="imm", imm=9, islit=True, dest_gpr=4,
                         operational=True),
        ], fmt=IFormat.MODIFIED)
        assert state.regs[4] == 9

    def test_alpha_cmov_semantics(self, machine):
        machine[2].regs[1] = 1        # condition register (non-zero)
        machine[2].regs[4] = 111      # old destination value
        executor, state, _result = run_fragment(machine, [
            IInstruction(IOp.ALU, op="cmovne", src_a="gpr", gpr=1,
                         src_b="imm", imm=55, islit=True, dest_gpr=4),
        ], fmt=IFormat.ALPHA)
        assert state.regs[4] == 55


class TestCopies:
    def test_copy_round_trip(self, machine):
        machine[2].regs[7] = 0xDEAD
        executor, state, _result = run_fragment(machine, [
            IInstruction(IOp.COPY_FROM_GPR, acc=1, gpr=7),
            IInstruction(IOp.ALU, op="addq", acc=1, src_a="acc",
                         src_b="imm", imm=1, islit=True),
            IInstruction(IOp.COPY_TO_GPR, acc=1, gpr=8),
        ])
        assert state.regs[8] == 0xDEAE


class TestMemoryOps:
    def test_store_then_load(self, machine):
        machine[2].regs[2] = 0x2000
        executor, _state, _result = run_fragment(machine, [
            IInstruction(IOp.ALU, op="addq", acc=0, src_a="zero",
                         src_b="imm", imm=77, islit=True),
            IInstruction(IOp.STORE, acc=0, addr_src="gpr", gpr=2,
                         data_src="acc", mem_size=8),
            IInstruction(IOp.LOAD, acc=1, addr_src="gpr", gpr=2,
                         mem_size=8),
        ])
        assert executor.accs[1] == 77

    def test_signed_load(self, machine):
        _executor, _tcache, state, memory = machine
        memory.store(0x2000, 0x80000000, 4)
        state.regs[2] = 0x2000
        executor, _state, _result = run_fragment(machine, [
            IInstruction(IOp.LOAD, acc=0, addr_src="gpr", gpr=2,
                         mem_size=4, mem_signed=True),
        ])
        assert executor.accs[0] == 0xFFFFFFFF80000000

    def test_trap_reports_position(self, machine):
        executor, state, result = run_fragment(machine, [
            IInstruction(IOp.LOAD, acc=0, addr_src="zero", mem_size=8,
                         vpc=0x1010),
        ])
        assert result.reason is ExitReason.TRAP
        assert result.vpc == 0x1010
        assert result.body_index == 0


class TestControl:
    def test_call_translator_exit(self, machine):
        executor, state, result = run_fragment(machine, [
            IInstruction(IOp.CALL_TRANSLATOR, vtarget=0x5555),
        ])
        assert result.reason is ExitReason.UNTRANSLATED
        assert state.pc == 0x5555

    def test_branch_within_cache(self, machine):
        executor, tcache, state, _memory = machine
        target = build_fragment([IInstruction(IOp.HALT)],
                                entry_vpc=0x3000)
        tcache.add(target)
        body = [IInstruction(IOp.ALU, op="addq", acc=0, src_a="zero",
                             src_b="imm", imm=1, islit=True),
                IInstruction(IOp.BRANCH, op="bne", cond_src="acc", acc=0,
                             target=target.entry_address()),
                IInstruction(IOp.GENTRAP)]
        source = build_fragment(body, entry_vpc=0x1000)
        tcache.add(source)
        result = executor.run(source, state)
        assert result.reason is ExitReason.HALT
        assert target.execution_count == 1

    def test_save_vra_and_dispatch(self, machine):
        executor, tcache, state, _memory = machine
        target = build_fragment([IInstruction(IOp.HALT)],
                                entry_vpc=0x4000)
        tcache.add(target)
        body = [IInstruction(IOp.SAVE_VRA, gpr=26, vtarget=0x4000),
                IInstruction(IOp.TO_DISPATCH, gpr=26)]
        source = build_fragment(body, entry_vpc=0x1000)
        tcache.add(source)
        result = executor.run(source, state)
        assert result.reason is ExitReason.HALT
        assert state.regs[26] == 0x4000
        assert executor.stats.dispatch_runs == 1

    def test_dispatch_miss_exits(self, machine):
        executor, state, result = run_fragment(machine, [
            IInstruction(IOp.SAVE_VRA, gpr=26, vtarget=0x7777770),
            IInstruction(IOp.TO_DISPATCH, gpr=26),
        ])
        assert result.reason is ExitReason.UNTRANSLATED
        assert result.vpc == 0x7777770

    def test_ras_hit_and_miss(self, machine):
        executor, tcache, state, _memory = machine
        returnee = build_fragment([IInstruction(IOp.HALT)],
                                  entry_vpc=0x6000)
        tcache.add(returnee)
        state.regs[26] = 0x6000
        body = [IInstruction(IOp.PUSH_RAS, vtarget=0x6000,
                             target=returnee.entry_address()),
                IInstruction(IOp.RET_RAS, gpr=26),
                IInstruction(IOp.GENTRAP)]
        source = build_fragment(body, entry_vpc=0x1000)
        tcache.add(source)
        result = executor.run(source, state)
        assert result.reason is ExitReason.HALT   # RAS hit skipped GENTRAP
        assert executor.stats.ras_hits == 1

        # now a miss: wrong architected return address falls through
        executor2 = FragmentExecutor(VMConfig(fmt=IFormat.BASIC), tcache,
                                     machine[3], [], VMStats())
        state2 = ArchState(0x1000)
        state2.regs[26] = 0x9999998
        result2 = executor2.run(source, state2)
        assert result2.reason is ExitReason.TRAP   # fell into the GENTRAP
        assert executor2.stats.ras_misses == 1


class TestFragmentPlan:
    def test_prefix_totals_stop_at_the_first_exit(self, machine):
        """ALPHA weights 2 for embedded addresses and call-translators;
        the halt after the call-translator is unreachable."""
        _executor, tcache, _state, _memory = machine
        fragment = build_fragment([
            IInstruction(IOp.SET_VPC_BASE, vpc=0x1000),
            IInstruction(IOp.LOAD_EMB, acc=0, vtarget=0x5000, vpc=0x1000),
            IInstruction(IOp.SAVE_VRA, gpr=26, vtarget=0x1010, vpc=0x1004),
            IInstruction(IOp.COPY_FROM_GPR, acc=1, gpr=3, vpc=0x1008),
            IInstruction(IOp.CALL_TRANSLATOR, vtarget=0x5000, vpc=0x100C),
            IInstruction(IOp.HALT),
        ], fmt=IFormat.ALPHA)
        tcache.add(fragment)
        totals, stop = fragment_plan(fragment)
        assert stop is None
        # (iinstructions, copies, V-ISA instructions) up to each index
        assert totals == [(1, 0, 1), (3, 0, 1), (5, 0, 2), (6, 1, 3),
                          (8, 1, 4)]

    def test_staleness_stop(self, machine):
        """A copy to r5 makes it current again; the branch on the stale
        r6 is the stop."""
        _executor, tcache, _state, _memory = machine
        fragment = build_fragment([
            IInstruction(IOp.ALU, op="addq", acc=0, src_a="zero",
                         src_b="imm", imm=1, islit=True, dest_gpr=5),
            IInstruction(IOp.COPY_TO_GPR, acc=0, gpr=5),
            IInstruction(IOp.LOAD, acc=1, addr_src="gpr", gpr=5),
            IInstruction(IOp.ALU, op="addq", acc=2, src_a="zero",
                         src_b="imm", imm=2, islit=True, dest_gpr=6),
            IInstruction(IOp.BRANCH, op="bne", cond_src="gpr", gpr=6,
                         target=0),
            IInstruction(IOp.HALT),
        ], fmt=IFormat.MODIFIED)
        tcache.add(fragment)
        totals, stop = fragment_plan(fragment)
        assert stop == (4, 6, frozenset({6}))
        assert len(totals) == 5
