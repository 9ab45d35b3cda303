"""Tests for the experiment harness plumbing."""

import struct
import sys

import pytest

from repro.harness.reporting import ExperimentResult, format_table
from repro.harness.runner import run_original, run_vm
from repro.ildp_isa.opcodes import IFormat
from repro.vm.config import VMConfig
from repro.vm.events import BLOCK_ROWS, Template, Trace, first_difference
from repro.workloads import WorkloadError


class TestFormatTable:
    def test_alignment(self):
        text = format_table(("name", "x"), [["a", 1.23456], ["bb", 2.0]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.235" in lines[2]
        assert "2.000" in lines[3]

    def test_title(self):
        text = format_table(("a",), [["x"]], title="My Table")
        assert text.splitlines()[0] == "My Table"


class TestExperimentResult:
    @pytest.fixture
    def result(self):
        return ExperimentResult("demo", ("workload", "value"),
                                [["gzip", 1.5], ["mcf", 2.5],
                                 ["Avg.", 2.0]],
                                notes=["a note"])

    def test_row_lookup(self, result):
        assert result.row_for("mcf") == ["mcf", 2.5]
        with pytest.raises(KeyError):
            result.row_for("nope")

    def test_render_contains_notes(self, result):
        assert "note: a note" in result.render()

    def test_rows_copy(self, result):
        rows = result.rows()
        rows.append(["junk", 0])
        assert len(result.rows()) == 3


class TestRunner:
    def test_run_vm_returns_trace(self):
        result = run_vm("gzip", VMConfig(fmt=IFormat.MODIFIED),
                        budget=20_000)
        assert result.trace is not None
        assert result.stats.fragments_created > 0
        assert result.tcache is result.vm.tcache

    def test_run_vm_without_trace(self):
        result = run_vm("gzip", VMConfig(fmt=IFormat.MODIFIED),
                        budget=20_000, collect_trace=False)
        assert result.trace is None

    def test_run_vm_respects_budget(self):
        result = run_vm("gzip", budget=5_000)
        total = result.stats.total_v_instructions()
        assert total >= 5_000
        assert total < 10_000  # fragment-boundary overshoot only

    def test_run_original(self):
        trace, _interp = run_original("gzip", budget=10_000)
        assert len(trace) == 10_000
        assert all(template.size == 4
                   for template in list(trace.column("templates"))[:100])

    def test_unknown_workload(self):
        with pytest.raises(WorkloadError):
            run_vm("nothere")


#: Runs ``slot`` a few times, then overwrites it with the word stored at
#: ``donor`` and runs the new instruction at the same PC.
_SMC_REWRITE = """
        .text
_start: la   r5, donor
        ldl  r6, 0(r5)
        li   r2, 6
        clr  r3
loop:   cmpeq r2, 3, r4
        beq  r4, slot
        la   r7, slot
        stl  r6, 0(r7)
slot:   addq r3, 1, r3
        subq r2, 1, r2
        bne  r2, loop
        call_pal halt
        .data
donor:  .space 4, 0
"""


def _per_event_rows(program):
    """Trace rows of ``program``'s interpreted run, every field derived
    from its event alone: the per-event classification that per-PC
    templates replace, kept here as the reference."""
    from repro.interp.interpreter import Halted, Interpreter
    from repro.isa.opcodes import Format, Kind
    from repro.vm.events import Template

    interpreter = Interpreter(program)
    rows = []
    try:
        while True:
            pc, instr, next_pc, taken, mem_addr = interpreter.step()
            kind = instr.kind
            btype = None
            if kind is Kind.COND_BRANCH:
                btype = "cond"
            elif kind is Kind.UNCOND_BRANCH:
                btype = "call" if instr.ra != 31 else "uncond"
            elif kind is Kind.JUMP:
                if instr.mnemonic == "ret":
                    btype = "ret"
                elif instr.ra != 31:
                    btype = "call_ind"
                else:
                    btype = "indirect"
            if kind is Kind.LOAD:
                op_class = "load"
            elif kind is Kind.STORE:
                op_class = "store"
            elif btype is not None:
                op_class = "branch"
            elif instr.mnemonic in ("mull", "mulq", "umulh"):
                op_class = "mul"
            else:
                op_class = "int"
            nop = (instr.fmt is Format.OPERATE and instr.rc == 31) or \
                (kind is Kind.LDA and instr.ra == 31)
            template = Template(pc, 4, op_class, instr.sources(),
                                instr.dest(), btype=btype,
                                v_weight=0 if nop else 1)
            rows.append((template, taken, next_pc if taken else None,
                         mem_addr, None))
    except Halted:
        pass
    return rows


def _capacity(column):
    """References a list has room for (its allocated item array)."""
    return (sys.getsizeof(column) - sys.getsizeof([])) // \
        struct.calcsize("P")


class TestTraceBlocks:
    """A trace keeps its five columns in blocks of ``BLOCK_ROWS`` rows,
    each column list small enough for CPython's small-object allocator,
    so a trace's memory does not depend on the C heap's layout."""

    @staticmethod
    def _rows(count):
        return [(Template(0x1000 + 4 * i, 4, "load" if i % 5 else "int"),
                 i % 3 == 0, 0x2000 + i if i % 3 == 0 else None,
                 0x100 + 8 * i if i % 5 else None,
                 (i % 7 == 0) if i % 2 else None)
                for i in range(count)]

    def test_rows_and_columns_round_trip_across_blocks(self):
        rows = self._rows(3 * BLOCK_ROWS + 5)
        trace = Trace.from_rows(rows)
        assert len(trace) == len(rows)
        assert list(trace) == rows
        for index, name in enumerate(Trace.COLUMNS):
            assert list(trace.column(name)) == [row[index] for row in rows]
        assert [len(block[0]) for block in trace.blocks] == \
            [BLOCK_ROWS] * 3 + [5]

    def test_producer_fills_blocks_directly(self):
        rows = self._rows(BLOCK_ROWS + 3)
        trace = Trace()
        block = trace.new_block()
        assert trace.new_block() is block   # the empty open block
        for row in rows[:BLOCK_ROWS]:
            for column, value in zip(block, row):
                column.append(value)
        assert len(trace) == BLOCK_ROWS
        for row in rows[BLOCK_ROWS:]:
            trace.append(*row)            # opens the next block itself
        assert len(trace.blocks) == 2
        assert len(trace) == len(rows)
        assert list(trace) == rows

    def test_empty_trace(self):
        trace = Trace()
        assert len(trace) == 0
        assert not trace
        assert list(trace) == []
        assert list(trace.column("templates")) == []

    def test_first_difference_names_row_and_column(self):
        rows = self._rows(BLOCK_ROWS + 3)
        trace = Trace.from_rows(rows)
        assert first_difference(Trace.from_rows(rows), trace) is None
        changed = list(rows)
        template, taken, target, _mem_addr, ras_hit = rows[BLOCK_ROWS + 1]
        changed[BLOCK_ROWS + 1] = (template, taken, target, 0x9999, ras_hit)
        assert first_difference(Trace.from_rows(changed), trace) == \
            f"row {BLOCK_ROWS + 1} column mem_addr: 39321, reference " \
            f"{rows[BLOCK_ROWS + 1][3]!r}"
        assert first_difference(Trace.from_rows(rows[:-1]), trace) == \
            f"{BLOCK_ROWS + 2} rows, reference {BLOCK_ROWS + 3}"

    @pytest.mark.parametrize("producer", ("interpreter", "vm"))
    def test_producers_fill_full_small_blocks(self, producer):
        """Every block but the last is full, and no column list ever
        holds more than ``BLOCK_ROWS`` references: the interpreter fills
        the block lists directly, the VM appends rows and eon's
        dispatch-code rows one by one."""
        if producer == "interpreter":
            trace, _interp = run_original("eon", budget=15_000)
        else:
            result = run_vm("eon", VMConfig(fmt=IFormat.BASIC),
                            budget=15_000)
            assert result.stats.dispatch_runs > 0
            trace = result.trace
        assert len(trace) >= 15_000
        assert all(len(block[0]) == BLOCK_ROWS
                   for block in trace.blocks[:-1])
        assert max(_capacity(column) for block in trace.blocks
                   for column in block) == BLOCK_ROWS


class TestTraceUtils:
    def test_branch_types(self):
        from repro.isa.instruction import Instruction
        from repro.uarch.trace_utils import instruction_template

        cases = [
            (Instruction("bne", ra=1, imm=-2), "cond"),
            (Instruction("br", ra=31, imm=2), "uncond"),
            (Instruction("bsr", ra=26, imm=2), "call"),
            (Instruction("jsr", ra=26, rb=27), "call_ind"),
            (Instruction("jmp", ra=31, rb=27), "indirect"),
            (Instruction("ret", ra=31, rb=26), "ret"),
            (Instruction("addq", ra=1, rb=2, rc=3), None),
        ]
        for instr, expected in cases:
            assert instruction_template(0x1000, instr).btype == expected

    def test_nop_weight_zero(self):
        from repro.isa.instruction import Instruction
        from repro.uarch.trace_utils import instruction_template

        nop = Instruction("bis", ra=31, rb=31, rc=31)
        assert instruction_template(0x1000, nop).v_weight == 0

    def test_mem_addr_propagates(self):
        from repro.asm import assemble
        from repro.uarch.trace_utils import interpreter_trace

        program = assemble("""
                .text
        _start: la   r2, buf
                ldq  r1, 8(r2)
                call_pal halt
                .data
        buf:    .quad 0, 0
        """)
        trace, _interp = interpreter_trace(program)
        loads = [index for index, template
                 in enumerate(trace.column("templates"))
                 if template.op_class == "load"]
        assert len(loads) == 1
        mem_addrs = list(trace.column("mem_addr"))
        assert mem_addrs[loads[0]] == program.symbols["buf"] + 8

    def test_rewritten_instruction_gets_fresh_template(self):
        """A program that rewrites an instruction it already executed:
        the per-PC templates must notice the new word.  The donor reads
        r2 where the original reads r3, so the two templates differ, and
        the whole trace must equal one classified afresh per event."""
        from repro.asm import assemble
        from repro.isa.encoding import encode
        from repro.isa.instruction import Instruction
        from repro.uarch.trace_utils import interpreter_trace

        def program():
            program = assemble(_SMC_REWRITE)
            donor = encode(Instruction("addq", ra=2, rc=3, imm=1,
                                       islit=True))
            program.memory.write_bytes(program.symbols["donor"],
                                       donor.to_bytes(4, "little"))
            return program

        trace, _interp = interpreter_trace(program())
        assert list(trace) == _per_event_rows(program())
        slot = program().symbols["slot"]
        at_slot = {template for template in trace.column("templates")
                   if template.address == slot}
        assert sorted(template.srcs for template in at_slot) == [(2,), (3,)]
