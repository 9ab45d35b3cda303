"""The differential oracle stack, including its sensitivity self-test.

A fuzzer is only as good as its oracles: beyond checking that clean
programs pass every stage, this suite *injects a semantic bug* (a
test-local mutation of one I-ISA ALU operation — the table only
translated code executes) and requires the oracle to catch it within a
bounded number of seeded programs, then shrink the finding to a minimal
reproducer that still diverges — the guard against a vacuously-passing
fuzzer.
"""

import pytest

import repro.ildp_isa.semantics as ildp_semantics
from repro.fuzz.campaign import Finding, _shrink_finding, run_campaign
from repro.fuzz.gen import generate, program_from_words
from repro.fuzz.oracle import (
    ORACLE_BUDGET,
    Outcome,
    check_program,
    compare_outcomes,
    oracle_config,
    run_reference,
    run_vm_outcome,
)
from repro.isa.encoding import encode
from repro.isa.instruction import Instruction

#: The sensitivity contract: an injected semantic mutation must surface
#: within this many seeded programs.
DETECTION_BOUND = 10


class TestCleanPrograms:
    @pytest.mark.parametrize("index", range(4))
    def test_all_stages_agree(self, index):
        report = check_program(generate(21, index), chaos=True)
        assert report["failures"] == []

    def test_vm_actually_translates(self):
        """A fuzz oracle whose programs never reach translated code
        would compare the interpreter against itself."""
        _outcome, vm = run_vm_outcome(generate(21, 0), oracle_config())
        assert vm.stats.fragments_created > 0

    def test_budget_is_inconclusive_not_a_finding(self):
        report = check_program(generate(21, 0), budget=50)
        assert report["failures"] == []
        assert "cosim" in report["inconclusive"]


class TestCompareOutcomes:
    def _halted(self, **overrides):
        fields = dict(status="halted", pc=0x10040, regs=[0] * 32,
                      console="a", mem="d" * 64, committed=10)
        fields.update(overrides)
        return Outcome(**fields)

    def test_equal_outcomes_no_reasons(self):
        assert compare_outcomes(self._halted(), self._halted()) == []

    def test_register_divergence_named(self):
        other = self._halted(regs=[0] * 30 + [5, 0])
        reasons = compare_outcomes(self._halted(), other)
        assert any("r30" in reason for reason in reasons)

    def test_committed_divergence(self):
        reasons = compare_outcomes(self._halted(),
                                   self._halted(committed=11))
        assert any("committed" in reason for reason in reasons)
        assert compare_outcomes(self._halted(),
                                self._halted(committed=11),
                                check_committed=False) == []

    def test_trap_kind_and_vpc_compared(self):
        a = Outcome("trap", 0x10040, [0] * 32, "", "d", trap_kind="gentrap",
                    trap_vpc=0x10040)
        b = Outcome("trap", 0x10040, [0] * 32, "", "d",
                    trap_kind="unaligned", trap_vpc=0x10040)
        reasons = compare_outcomes(a, b)
        assert any("trap kind" in reason for reason in reasons)

    def test_budget_inconclusive(self):
        budget = self._halted(status="budget")
        assert compare_outcomes(budget, self._halted()) is None
        assert compare_outcomes(self._halted(), budget) is None


def _broken_xor(a, b):
    """The injected semantic bug: ``xor`` with one bit flipped."""
    return (a ^ b) ^ 0x10000


@pytest.fixture
def mutated_xor(monkeypatch):
    """Corrupt the I-ISA ``xor`` semantic — the table only *translated*
    code executes, so the pure interpreter stays correct and cosim must
    notice.  The naive executor looks the table entry up on every
    execution, so no cache invalidation is needed."""
    monkeypatch.setitem(ildp_semantics.IALU_OPS, "xor", _broken_xor)


@pytest.fixture(scope="module")
def xor_finding():
    """Detect and shrink the mutated ``xor`` once for the module.

    Returns ``(index, finding)``: the first of seed 7's programs whose
    cosim stage diverges under the mutation, and its shrunk reproducer
    (``finding`` is None when no program within :data:`DETECTION_BOUND`
    diverges).  The mutation is undone before any test body runs.
    """
    with pytest.MonkeyPatch.context() as patched:
        patched.setitem(ildp_semantics.IALU_OPS, "xor", _broken_xor)
        for index in range(DETECTION_BOUND):
            fprog = generate(7, index, max_insns=24)
            report = check_program(fprog, stages=("cosim",))
            if report["failures"]:
                finding = Finding(fprog, report["failures"])
                _shrink_finding(finding, ORACLE_BUDGET)
                return index, finding
    return None, None


class TestOracleSensitivity:
    def test_mutation_detected_and_shrunk(self, xor_finding):
        _index, finding = xor_finding
        assert finding is not None, \
            f"mutated xor not detected in {DETECTION_BOUND} programs"
        assert len(finding.shrunk_words) < len(finding.program.words)
        # the minimal reproducer still diverges...
        assert finding.shrunk_failures
        # ...and still contains the mutated operation
        from repro.isa.encoding import decode
        mnemonics = {decode(word).mnemonic
                     for word in finding.shrunk_words}
        assert "xor" in mnemonics

    def test_shrunk_reproducer_clean_without_mutation(self, xor_finding):
        """The divergence is the mutation's, not the reproducer's: the
        shrunk program replays clean once the semantics are healthy."""
        index, finding = xor_finding
        # seed 7's first program already diverges under the mutation
        assert index == 0
        replay = check_program(
            finding.program.with_words(finding.shrunk_words))
        assert replay["failures"] == []

    def test_healthy_semantics_pass_same_programs(self):
        """The same seeds the sensitivity test uses are clean when the
        semantics are intact — the divergence is the mutation's."""
        for index in range(2):
            report = check_program(generate(7, index, max_insns=24),
                                   stages=("cosim",))
            assert report["failures"] == []


class TestPalNoOpChaining:
    """Regression: a superblock ending on an *unknown* CALL_PAL (an
    architectural no-op) used to produce a fragment with no terminal
    exit — the executor ran off the end of the fragment body
    (IndexError).  Found by the fuzzer's very first generated program."""

    def _program(self):
        words = [
            encode(Instruction("lda", ra=1, rb=31, imm=40)),
            # loop: a no-op PAL inside the hot body
            encode(Instruction("call_pal", imm=0x3FF)),
            encode(Instruction("addq", ra=2, rc=2, imm=1, islit=True)),
            encode(Instruction("subq", ra=1, rc=1, imm=1, islit=True)),
            encode(Instruction("bne", ra=1, imm=-4)),
            encode(Instruction("call_pal", imm=0)),     # halt
        ]
        return program_from_words(words, name="palnop-loop")

    def test_unknown_pal_block_chains_to_successor(self):
        from repro.vm.system import CoDesignedVM

        program = self._program()
        vm = CoDesignedVM(program, oracle_config())
        vm.run(max_v_instructions=ORACLE_BUDGET)
        assert vm.halted
        assert vm.stats.fragments_created > 0
        assert vm.state.regs[2] == 40

    def test_oracle_stack_agrees(self):
        fprog = generate(1, 0)      # the original finding's program
        assert "palnop" in fprog.shapes
        report = check_program(fprog)
        assert report["failures"] == []


class TestCampaign:
    def test_clean_campaign(self, tmp_path):
        result = run_campaign(4, 31, corpus_dir=str(tmp_path))
        assert result.ok
        assert result.count == 4
        assert len(result.corpus_files) == 4
        assert (tmp_path / "MANIFEST.json").exists()
        assert sum(result.shapes.values()) > 0

    def test_campaign_reports_findings(self, mutated_xor):
        # one program: seed 7's first already diverges under the
        # mutation (test_shrunk_reproducer_clean_without_mutation relies
        # on it), and shrinking each further finding would cost over a
        # minute without adding an assertion
        result = run_campaign(1, 7, max_insns=24, shrink=True)
        assert not result.ok
        finding = result.findings[0]
        # the naive walk looks up the corrupted table entry, so cosim
        # diverges from the pure interpreter; the jit inlines ``xor``
        # as a source template, so the engine stage flags the same
        # mutation as a jit-vs-naive split
        assert "cosim" in finding.stages
        assert finding.shrunk_words is not None
        assert any("shrunk" in line for line in result.render_lines())
