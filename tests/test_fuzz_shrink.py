"""The shrinker's mechanics, independent of any real divergence.

Predicates here are synthetic (word-content checks or interpreter
observations), so the passes can be validated in isolation: chunk
deletion converges, branch displacements are repaired across deleted
ranges, simplification rewrites operands, and the whole thing respects
its check budget.
"""

from repro.fuzz.campaign import SHRINK_BUDGET_FACTOR
from repro.fuzz.gen import FuzzProgram, GENERATOR_VERSION
from repro.fuzz.oracle import run_reference
from repro.fuzz.shrink import NOP_WORD, shrink_words
from repro.isa.encoding import decode, encode
from repro.isa.instruction import Instruction


def _words(*instrs):
    return [encode(instr) for instr in instrs]


def _fprog(words):
    return FuzzProgram(0, 0, GENERATOR_VERSION, 4, words, b"")


HALT = encode(Instruction("call_pal", imm=0))
MARKER = encode(Instruction("xor", ra=3, rb=4, rc=5))


class TestDeletion:
    def test_deletes_to_single_survivor(self):
        filler = encode(Instruction("addq", ra=1, rc=1, imm=1, islit=True))
        words = [filler] * 9 + [MARKER] + [filler] * 9
        shrunk, checks = shrink_words(words, lambda ws: MARKER in ws)
        assert shrunk == [MARKER]
        assert checks > 0

    def test_one_minimal(self):
        words = [MARKER, MARKER, MARKER]
        shrunk, _checks = shrink_words(words,
                                       lambda ws: ws.count(MARKER) >= 2)
        assert shrunk.count(MARKER) == 2
        assert len(shrunk) == 2

    def test_budget_respected(self):
        filler = encode(Instruction("addq", ra=1, rc=1, imm=1, islit=True))
        words = [filler] * 50 + [MARKER]
        _shrunk, checks = shrink_words(words, lambda ws: MARKER in ws,
                                       max_checks=5)
        assert checks <= 5


class TestBranchRepair:
    def test_branch_retargeted_across_deletion(self):
        """Deleting filler under a forward branch shortens its
        displacement; the program must still execute identically."""
        filler = encode(Instruction("addq", ra=9, rc=9, imm=1, islit=True))
        words = _words(
            Instruction("lda", ra=1, rb=31, imm=1),
            Instruction("bne", ra=1, imm=3),          # over 3 fillers
        ) + [filler, filler, filler] + _words(
            Instruction("lda", ra=2, rb=31, imm=7),
            Instruction("call_pal", imm=0),
        )

        def lands_on_target(candidate):
            outcome = run_reference(_fprog(candidate))
            return outcome.status == "halted" and outcome.regs[2] == 7

        assert lands_on_target(words)
        shrunk, _checks = shrink_words(words, lands_on_target)
        assert lands_on_target(shrunk)
        assert len(shrunk) < len(words)
        # the repaired branch, if it survived, has a shorter displacement
        for word in shrunk:
            instr = decode(word)
            if instr.mnemonic == "bne":
                assert instr.imm < 3

    def test_backward_branch_survives_deletion(self):
        body = encode(Instruction("addq", ra=2, rc=2, imm=1, islit=True))
        words = _words(Instruction("lda", ra=1, rb=31, imm=5)) + \
            [body, body] + _words(
                Instruction("subq", ra=1, rc=1, imm=1, islit=True),
                Instruction("bne", ra=1, imm=-4),
                Instruction("call_pal", imm=0),
            )

        # a candidate that deletes the loop exit spins until its budget
        # runs out: bound each check by the loop's own run length, as a
        # campaign's shrink does
        budget = SHRINK_BUDGET_FACTOR * run_reference(_fprog(words)).insns

        def loops_five_times(candidate):
            outcome = run_reference(_fprog(candidate), budget=budget)
            return outcome.status == "halted" and outcome.regs[2] == 10

        assert loops_five_times(words)
        # nothing is deletable without changing the observation: the
        # shrinker must return the input unchanged, not corrupt the loop
        shrunk, _checks = shrink_words(words, loops_five_times)
        assert loops_five_times(shrunk)
        # the loop itself is not deletable (the trailing halt is — the
        # zero-filled text past the end halts anyway), and the backward
        # displacement still points at the loop head
        branches = [decode(word) for word in shrunk
                    if decode(word).mnemonic == "bne"]
        assert len(branches) == 1
        assert branches[0].imm < 0


class TestSimplification:
    def test_irrelevant_instructions_deleted(self):
        words = _words(
            Instruction("addq", ra=1, rc=2, imm=55, islit=True),
            Instruction("xor", ra=3, rb=4, rc=5),
        )
        # predicate only cares that the xor survives
        shrunk, _checks = shrink_words(words, lambda ws: MARKER in ws)
        assert shrunk == [MARKER]

    def test_literal_zeroed_when_preserved(self):
        word = encode(Instruction("addq", ra=1, rc=2, imm=55, islit=True))

        def still_addq_lit(ws):
            return len(ws) == 1 and decode(ws[0]).mnemonic == "addq" \
                and decode(ws[0]).islit

        shrunk, _checks = shrink_words([word], still_addq_lit)
        assert decode(shrunk[0]).imm == 0

    def test_nop_replacement(self):
        """An undeletable-but-irrelevant instruction is NOPped out."""
        store = encode(Instruction("stq", ra=1, rb=2, imm=8))

        def has_both(ws):
            return MARKER in ws and len(ws) == 2

        shrunk, _checks = shrink_words([store, MARKER], has_both)
        assert shrunk == [NOP_WORD, MARKER]


class TestNopWord:
    def test_nop_word_is_canonical_nop(self):
        instr = decode(NOP_WORD)
        assert instr.mnemonic == "bis"
        assert instr.ra == instr.rb == instr.rc == 31
