"""The fuzz generator's structural guarantees.

Generated programs must be deterministic in their seed, terminate on
their own (by halt or a deliberately-emitted trap shape), keep every
memory access inside the sandboxed buffer, and — across a batch of
seeds — exercise every shape the generator knows.
"""

from collections import Counter

import pytest

from repro.fuzz.gen import (
    BUF_SIZE,
    DATA_BASE,
    GENERATOR_VERSION,
    FuzzProgram,
    generate,
    program_from_words,
    random_instruction,
)
from repro.fuzz.oracle import run_reference
from repro.isa.encoding import decode
from repro.isa.instruction import Instruction
from repro.utils.rng import Xorshift64


class TestDeterminism:
    def test_same_seed_same_program(self):
        a = generate(42, 7)
        b = generate(42, 7)
        assert a.words == b.words
        assert a.data == b.data
        assert a.shapes == b.shapes
        assert a.to_bytes() == b.to_bytes()

    def test_different_index_different_program(self):
        assert generate(42, 0).words != generate(42, 1).words

    def test_different_seed_different_program(self):
        assert generate(1, 0).words != generate(2, 0).words

    def test_version_recorded(self):
        assert generate(1, 0).version == GENERATOR_VERSION

    def test_random_instruction_deterministic(self):
        a = [random_instruction(Xorshift64(9)) for _ in range(1)]
        b = [random_instruction(Xorshift64(9)) for _ in range(1)]
        assert a == b


class TestTermination:
    @pytest.mark.parametrize("index", range(8))
    def test_programs_terminate(self, index):
        outcome = run_reference(generate(11, index))
        assert outcome.status in ("halted", "trap")

    def test_words_decode(self):
        for word in generate(3, 0).words:
            decode(word)    # raises on a malformed emission

    def test_shape_coverage_across_batch(self):
        shapes = Counter()
        for index in range(40):
            shapes.update(generate(1, index).shapes)
        for name in ("alu", "byteop", "cmov", "mem", "branch", "loop",
                     "call", "putc", "palnop"):
            assert shapes[name] > 0, f"shape {name!r} never emitted"
        # trap-adjacent shapes are deliberately rare but must appear
        assert any(name.startswith("trap_") or name == "guarded_trap"
                   for name in shapes), "no trap shape in 40 programs"


class TestProgramImage:
    def test_layout(self):
        program = generate(5, 0).to_program()
        assert program.entry == 0x1_0000
        assert program.symbols["buf"] == DATA_BASE
        data = program.memory.read_bytes(DATA_BASE, BUF_SIZE)
        assert data == generate(5, 0).data

    def test_fresh_image_per_call(self):
        fprog = generate(5, 0)
        a = fprog.to_program()
        a.memory.store(DATA_BASE, 0xFF, 1)
        b = fprog.to_program()
        assert b.memory.load(DATA_BASE, 1) == fprog.data[0]

    def test_zero_fill_halts(self):
        """Running off the end of the text lands on zero words, which
        decode as ``call_pal halt`` — shrunk programs always stop."""
        words = [0x47FF041F]    # bis r31, r31, r31 (NOP)
        outcome = run_reference(
            FuzzProgram(0, 0, GENERATOR_VERSION, 4, words, b""))
        assert outcome.status == "halted"

    def test_with_words_replaces_text_only(self):
        fprog = generate(5, 0)
        clone = fprog.with_words(fprog.words[:10])
        assert len(clone.words) == 10
        assert clone.data == fprog.data
        assert clone.seed == fprog.seed


class TestProgramFromWords:
    def test_respects_layout_arguments(self):
        word = 0x47FF041F
        program = program_from_words([word], data=b"\x01\x02",
                                     text_base=0x2_0000,
                                     data_base=0x9_0000)
        assert program.entry == 0x2_0000
        assert program.memory.load(0x2_0000, 4) == word
        assert program.memory.read_bytes(0x9_0000, 2) == b"\x01\x02"

    def test_buffer_always_mapped(self):
        program = program_from_words([0x47FF041F], data=b"")
        assert program.memory.read_bytes(DATA_BASE, BUF_SIZE) == \
            bytes(BUF_SIZE)


class TestRandomInstruction:
    def test_all_formats_reachable(self):
        rng = Xorshift64(1)
        kinds = set()
        for _ in range(300):
            instr = random_instruction(rng)
            assert isinstance(instr, Instruction)
            kinds.add(instr.kind.value)
        assert {"alu", "cond_branch", "pal", "jump"} <= kinds
        assert kinds & {"load", "store", "lda"}
