"""Workload suite tests: assembly, determinism, registry."""

import pytest

from repro.interp import Interpreter
from repro.workloads import (
    WORKLOAD_NAMES,
    WorkloadError,
    all_workloads,
    get_workload,
)


class TestRegistry:
    def test_twelve_workloads(self):
        assert len(WORKLOAD_NAMES) == 12

    def test_spec_names(self):
        assert set(WORKLOAD_NAMES) == {
            "bzip2", "crafty", "eon", "gap", "gcc", "gzip", "mcf",
            "parser", "perlbmk", "twolf", "vortex", "vpr",
        }

    def test_unknown_rejected(self):
        with pytest.raises(WorkloadError):
            get_workload("spice")

    def test_descriptions_present(self):
        for workload in all_workloads():
            assert workload.description


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestEachWorkload:
    def test_assembles(self, name):
        program = get_workload(name).program()
        assert program.entry

    def test_runs_to_halt_and_prints(self, name):
        interp = Interpreter(get_workload(name).program())
        executed = interp.run(max_instructions=2_000_000)
        assert executed < 2_000_000, "workload did not halt in budget"
        assert len(interp.console) == 1  # each prints one checksum byte

    def test_deterministic(self, name):
        first = Interpreter(get_workload(name).program())
        first.run(max_instructions=2_000_000)
        second = Interpreter(get_workload(name).program())
        second.run(max_instructions=2_000_000)
        assert first.console == second.console
        assert first.state.regs == second.state.regs


class TestSuiteCharacter:
    """Each stand-in must exhibit the control-flow character that made its
    SPEC namesake interesting to the paper."""

    def _mix(self, name):
        from repro.isa.opcodes import Kind

        interp = Interpreter(get_workload(name).program())
        counts = {"jump": 0, "call": 0, "ret": 0, "cond": 0, "total": 0}
        from repro.interp import Halted

        try:
            while counts["total"] < 300_000:
                instr = interp.step()[1]
                counts["total"] += 1
                kind = instr.kind
                if kind is Kind.JUMP:
                    if instr.mnemonic == "ret":
                        counts["ret"] += 1
                    else:
                        counts["jump"] += 1
                elif kind is Kind.UNCOND_BRANCH and instr.ra != 31:
                    counts["call"] += 1
                elif kind is Kind.COND_BRANCH:
                    counts["cond"] += 1
        except Halted:
            pass
        return counts

    def test_perlbmk_indirect_heavy(self):
        mix = self._mix("perlbmk")
        assert mix["jump"] / mix["total"] > 0.02

    def test_parser_call_heavy(self):
        mix = self._mix("parser")
        assert (mix["call"] + mix["ret"]) / mix["total"] > 0.04

    def test_gzip_loop_heavy(self):
        mix = self._mix("gzip")
        assert mix["jump"] == 0          # no indirect jumps at all
        assert mix["cond"] / mix["total"] > 0.08

    def test_mcf_load_heavy(self):
        from repro.isa.opcodes import Kind
        from repro.interp import Halted

        interp = Interpreter(get_workload("mcf").program())
        loads = total = 0
        try:
            while total < 300_000:
                instr = interp.step()[1]
                total += 1
                if instr.kind is Kind.LOAD:
                    loads += 1
        except Halted:
            pass
        assert loads / total > 0.10
