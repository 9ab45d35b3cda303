"""Seeded, deterministic random program generator for the V-ISA subset.

Programs are emitted *structurally* — never as raw random words — so
every generated program terminates and every memory access stays inside
a sandboxed, mapped data buffer:

* the skeleton is one bounded outer loop (a counter register strictly
  decrements to zero) around a body of randomly chosen **chunks**;
* chunks are straight-line ALU strands, CMOV / byte-op / bit-op idioms,
  sized loads and stores at aligned displacements into the buffer,
  forward branches over filler, bounded inner loops (backward taken
  branches, the superblock-capture trigger), BSR/RET leaf calls (RAS
  and chaining patterns), console output, and trap-adjacent edges:
  unknown-PAL no-ops, boundary literals, and — at low probability —
  genuine guarded traps (GENTRAP from inside the hot loop, unaligned
  and unmapped accesses in the epilogue) so precise-trap delivery is on
  the fuzzed surface;
* ``hostile=True`` adds the hostile-guest chunks: guarded
  self-modifying stores that patch a donor instruction word over a
  labelled slot in the program's own text (the SMC surface), ``protect``
  PAL calls that flip page protections (including, when traps are
  allowed, revoking execute permission on the running code), and the
  ``getc``/``brk``/``yield`` syscalls; hostile programs also carry a
  scripted input for ``getc``;
* all randomness flows from one :class:`~repro.utils.rng.Xorshift64`
  seeded by ``mix(seed, index)``; the same ``(seed, index,
  max_insns, GENERATOR_VERSION)`` always yields byte-identical program
  words and data, in any process.

Bump :data:`GENERATOR_VERSION` whenever a change alters the emitted
words for an existing seed; corpus records carry the version so a
finding is always reproducible.
"""

from repro.isa.encoding import encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    BRANCH_OPS,
    JUMP_OPS,
    MEMORY_OPS,
    OPERATE_OPS,
    PAL_FUNCTIONS,
    RB_ONLY_OPS,
)
from repro.isa.registers import RA_REG, ZERO_REG
from repro.interp.pal import HEAP_BASE
from repro.memory.image import (
    PAGE_SIZE,
    PROT_ALL,
    PROT_READ,
    PROT_WRITE,
    Memory,
    Program,
)
from repro.utils.rng import Xorshift64

#: Bump on any change that alters emitted words for an existing seed.
#: 2: hostile-guest chunks (SMC self-patching, protect flips, syscalls).
GENERATOR_VERSION = 2

#: Section layout; matches the assembler defaults so fuzz programs look
#: exactly like assembled workloads to the VM.
TEXT_BASE = 0x1_0000
DATA_BASE = 0x8_0000
#: Size of the sandboxed data buffer all memory chunks stay inside.
BUF_SIZE = 256

# -- register conventions -----------------------------------------------------
#: outer-loop counter; written only by the prologue and the loop tail.
_COUNTER = 1
#: data-buffer base pointer; never written after the prologue.
_BUF = 2
#: registers the body may freely overwrite.
_BODY_REGS = (3, 4, 5, 6, 7, 8, 9, 13, 14, 15)
#: registers the body may read (never written inside the body loop).
_READ_REGS = _BODY_REGS + (_COUNTER, _BUF)
#: inner-loop counter, guarded-trap scratch, address scratch.
_INNER = 10
_GUARD = 12
_SCRATCH = 11
#: console-output operand (CALL_PAL putc reads R16).
_CONSOLE = 16

#: ALU mnemonics safe for any operand values (semantics mask shifts).
_ALU_REG_OPS = (
    "addq", "subq", "addl", "subl", "s4addq", "s8subq", "s4addl",
    "s8addl", "and", "bis", "bic", "xor", "ornot", "eqv", "sll", "srl",
    "sra", "cmpeq", "cmplt", "cmple", "cmpult", "cmpule", "cmpbge",
    "mull", "mulq", "umulh",
)
_ALU_LIT_OPS = ("addq", "subq", "and", "xor", "bis", "sll", "srl",
                "cmpeq", "cmplt", "mulq", "zap", "zapnot")
_BYTE_OPS = ("extbl", "extwl", "extll", "extql", "insbl", "inswl",
             "insll", "insql", "mskbl", "mskwl", "mskll", "mskql")
_BIT_OPS = ("ctpop", "ctlz", "cttz", "sextb", "sextw")
_CMOV_PAIRS = (("cmpeq", "cmoveq"), ("cmpeq", "cmovne"),
               ("cmplt", "cmovlt"), ("cmpule", "cmovge"),
               ("and", "cmovlbs"), ("xor", "cmovlbc"),
               ("subq", "cmovle"), ("addq", "cmovgt"))
_COND_BRANCHES = ("beq", "bne", "blt", "bge", "ble", "bgt", "blbc",
                  "blbs")
_LOADS = (("ldq", 8), ("ldl", 4), ("ldwu", 2), ("ldbu", 1))
_STORES = (("stq", 8), ("stl", 4), ("stw", 2), ("stb", 1))
#: CALL_PAL functions that are architectural no-ops in this machine.
_PAL_NOOPS = (0x01, 0x13, 0x80, 0x3FF)
#: 8-bit operate literals, weighted toward the boundary encodings.
_BOUNDARY_LITS = (0, 1, 2, 7, 8, 15, 127, 128, 254, 255)


def _mix(seed, index):
    """Derive a non-zero 64-bit RNG seed from (campaign seed, index)."""
    x = (seed * 0x9E3779B97F4A7C15 + (index + 1) * 0xBF58476D1CE4E5B9)
    x &= (1 << 64) - 1
    x ^= x >> 31
    return x | 1


class _Emitter:
    """Accumulates instructions and label-indexed branches."""

    def __init__(self):
        self.items = []          # ("instr", Instruction) |
        #                          ("branch", mnemonic, ra, label) |
        #                          ("label", label)
        self._next_label = 0

    def label(self):
        self._next_label += 1
        return self._next_label

    def place(self, label):
        self.items.append(("label", label))

    def instr(self, instruction):
        self.items.append(("instr", instruction))

    def branch(self, mnemonic, ra, label):
        self.items.append(("branch", mnemonic, ra, label))

    def lda_slot(self, ra, label):
        """``lda ra, <4 * label index>(ra)`` — materialise the byte
        offset of a labelled text slot (combined with an ``ldah`` of the
        text base, this is how SMC chunks address their patch target)."""
        self.items.append(("lda_slot", ra, label))

    def instr_count(self):
        return sum(1 for item in self.items if item[0] != "label")

    def resolve(self):
        """Resolve labels and return the final instruction list."""
        index = 0
        positions = {}
        for item in self.items:
            if item[0] == "label":
                positions[item[1]] = index
            else:
                index += 1
        out = []
        for item in self.items:
            if item[0] == "label":
                continue
            if item[0] == "instr":
                out.append(item[1])
                continue
            if item[0] == "lda_slot":
                _kind, ra, label = item
                out.append(Instruction("lda", ra=ra, rb=ra,
                                       imm=4 * positions[label]))
                continue
            _kind, mnemonic, ra, label = item
            displacement = positions[label] - (len(out) + 1)
            out.append(Instruction(mnemonic, ra=ra, imm=displacement))
        return out


class FuzzProgram:
    """One generated (or corpus-loaded) program, ready to run or store.

    ``words`` are the encoded 32-bit text words, ``data`` the initial
    contents of the sandboxed buffer.  :meth:`to_program` builds a fresh
    :class:`~repro.memory.image.Program` per call — programs mutate
    their data, so every run needs its own image.
    """

    __slots__ = ("seed", "index", "version", "max_insns", "words", "data",
                 "entry", "text_base", "data_base", "shapes", "input",
                 "hostile")

    def __init__(self, seed, index, version, max_insns, words, data,
                 entry=TEXT_BASE, text_base=TEXT_BASE,
                 data_base=DATA_BASE, shapes=None, input=b"",
                 hostile=False):
        self.seed = seed
        self.index = index
        self.version = version
        self.max_insns = max_insns
        self.words = list(words)
        self.data = bytes(data)
        self.entry = entry
        self.text_base = text_base
        self.data_base = data_base
        self.shapes = dict(shapes or {})
        self.input = bytes(input)
        self.hostile = bool(hostile)

    @property
    def name(self):
        return f"fuzz[{self.seed}/{self.index}]"

    def to_bytes(self):
        """The program text as little-endian bytes (the corpus payload)."""
        return b"".join(word.to_bytes(4, "little") for word in self.words)

    def to_program(self):
        """Build a fresh loaded-program image."""
        return program_from_words(self.words, data=self.data,
                                  text_base=self.text_base,
                                  data_base=self.data_base,
                                  entry=self.entry, name=self.name,
                                  input_script=self.input)

    def with_words(self, words):
        """A copy with replacement text words (used by the shrinker)."""
        return FuzzProgram(self.seed, self.index, self.version,
                           self.max_insns, words, self.data,
                           entry=self.entry, text_base=self.text_base,
                           data_base=self.data_base, shapes=self.shapes,
                           input=self.input, hostile=self.hostile)

    def __repr__(self):
        return (f"FuzzProgram({self.name}, {len(self.words)} words, "
                f"v{self.version})")


def program_from_words(words, data=b"", text_base=TEXT_BASE,
                       data_base=DATA_BASE, entry=None, name="fuzz",
                       input_script=b""):
    """Build a loaded program image from raw 32-bit text words.

    The data buffer is always mapped (``BUF_SIZE`` bytes minimum), so
    generated memory chunks have a sandbox even when ``data`` is short.
    Untouched text-page words read as zero, which decodes to ``call_pal
    halt`` — running off the end of a (shrunk) program halts cleanly.
    """
    memory = Memory()
    memory.map_segment("text", text_base, max(len(words) * 4, 4))
    memory.map_segment("data", data_base, max(BUF_SIZE, len(data)))
    for offset, word in enumerate(words):
        memory.store(text_base + 4 * offset, word, 4)
    if data:
        memory.write_bytes(data_base, bytes(data))
    return Program(memory, entry if entry is not None else text_base,
                   symbols={"buf": data_base},
                   text_base=text_base, text_size=len(words) * 4,
                   source_name=name, input_script=input_script)


# -- single-instruction emission (shared with the property tests) -------------

def _literal(rng):
    """An 8-bit operate literal, weighted toward boundary encodings."""
    if rng.next_range(3) == 0:
        return _BOUNDARY_LITS[rng.next_range(len(_BOUNDARY_LITS))]
    return rng.next_range(256)


def _pick(rng, pool):
    return pool[rng.next_range(len(pool))]


def random_instruction(rng):
    """One random-but-valid instruction of any format.

    Used by the hypothesis codec property tests: immediates are
    boundary-weighted, and every format (memory, operate register and
    literal forms, branch, jump, PAL) is reachable.
    """
    fmt = rng.next_range(6)
    if fmt == 0:        # memory format (loads/stores/lda/ldah)
        mnemonic = _pick(rng, tuple(sorted(MEMORY_OPS)))
        disp = _pick(rng, (-32768, -1, 0, 1, 32767,
                           rng.next_range(1 << 16) - (1 << 15)))
        return Instruction(mnemonic, ra=rng.next_range(32),
                           rb=rng.next_range(32), imm=disp)
    if fmt == 1:        # operate, register form
        mnemonic = _pick(rng, tuple(sorted(OPERATE_OPS)))
        ra = ZERO_REG if mnemonic in RB_ONLY_OPS else rng.next_range(32)
        return Instruction(mnemonic, ra=ra, rb=rng.next_range(32),
                           rc=rng.next_range(32))
    if fmt == 2:        # operate, literal form
        mnemonic = _pick(rng, tuple(sorted(OPERATE_OPS)))
        ra = ZERO_REG if mnemonic in RB_ONLY_OPS else rng.next_range(32)
        return Instruction(mnemonic, ra=ra, rc=rng.next_range(32),
                           imm=_literal(rng), islit=True)
    if fmt == 3:        # branch format
        mnemonic = _pick(rng, tuple(sorted(BRANCH_OPS)))
        disp = _pick(rng, (-(1 << 20), -1, 0, 1, (1 << 20) - 1,
                           rng.next_range(1 << 21) - (1 << 20)))
        return Instruction(mnemonic, ra=rng.next_range(32), imm=disp)
    if fmt == 4:        # jump format
        mnemonic = _pick(rng, tuple(sorted(JUMP_OPS)))
        return Instruction(mnemonic, ra=rng.next_range(32),
                           rb=rng.next_range(32),
                           imm=_pick(rng, (0, 1, (1 << 14) - 1,
                                           rng.next_range(1 << 14))))
    return Instruction("call_pal",
                       imm=_pick(rng, (0, 1, (1 << 26) - 1,
                                       rng.next_range(1 << 26))))


# -- chunk emitters -----------------------------------------------------------

def _emit_alu(rng, emitter):
    for _ in range(1 + rng.next_range(5)):
        rc = _pick(rng, _BODY_REGS)
        choice = rng.next_range(4)
        if choice == 0:
            op = _pick(rng, _ALU_LIT_OPS)
            emitter.instr(Instruction(op, ra=_pick(rng, _READ_REGS),
                                      rc=rc, imm=_literal(rng),
                                      islit=True))
        elif choice == 1:
            op = _pick(rng, _BIT_OPS)
            emitter.instr(Instruction(op, ra=ZERO_REG,
                                      rb=_pick(rng, _READ_REGS), rc=rc))
        else:
            op = _pick(rng, _ALU_REG_OPS)
            emitter.instr(Instruction(op, ra=_pick(rng, _READ_REGS),
                                      rb=_pick(rng, _READ_REGS), rc=rc))


def _emit_byteop(rng, emitter):
    """Extract/insert/mask idioms Alpha string code is built from."""
    rc = _pick(rng, _BODY_REGS)
    op = _pick(rng, _BYTE_OPS)
    if rng.next_range(2):
        emitter.instr(Instruction(op, ra=_pick(rng, _READ_REGS), rc=rc,
                                  imm=rng.next_range(8), islit=True))
    else:
        emitter.instr(Instruction(op, ra=_pick(rng, _READ_REGS),
                                  rb=_pick(rng, _READ_REGS), rc=rc))
    if rng.next_range(2):
        emitter.instr(Instruction(_pick(rng, ("zap", "zapnot")),
                                  ra=rc, rc=_pick(rng, _BODY_REGS),
                                  imm=_literal(rng), islit=True))


def _emit_cmov(rng, emitter):
    cmp_op, cmov_op = _pick(rng, _CMOV_PAIRS)
    guard = _pick(rng, _BODY_REGS)
    emitter.instr(Instruction(cmp_op, ra=_pick(rng, _READ_REGS),
                              rb=_pick(rng, _READ_REGS), rc=guard))
    emitter.instr(Instruction(cmov_op, ra=guard,
                              rb=_pick(rng, _READ_REGS),
                              rc=_pick(rng, _BODY_REGS)))


def _emit_mem(rng, emitter):
    """One sized access at an aligned displacement inside the buffer."""
    if rng.next_range(2):
        mnemonic, size = _pick(rng, _LOADS)
        reg = _pick(rng, _BODY_REGS)
    else:
        mnemonic, size = _pick(rng, _STORES)
        reg = _pick(rng, _READ_REGS)
    slot = rng.next_range(BUF_SIZE // size)
    emitter.instr(Instruction(mnemonic, ra=reg, rb=_BUF,
                              imm=slot * size))


def _emit_fwd_branch(rng, emitter):
    """A conditional branch over 1..3 filler instructions."""
    skip = emitter.label()
    emitter.branch(_pick(rng, _COND_BRANCHES), _pick(rng, _READ_REGS),
                   skip)
    for _ in range(1 + rng.next_range(3)):
        emitter.instr(Instruction("addq", ra=_pick(rng, _READ_REGS),
                                  rc=_pick(rng, _BODY_REGS),
                                  imm=_literal(rng), islit=True))
    emitter.place(skip)


def _emit_inner_loop(rng, emitter):
    """A bounded inner loop: the backward-taken-branch capture trigger."""
    emitter.instr(Instruction("lda", ra=_INNER, rb=ZERO_REG,
                              imm=2 + rng.next_range(5)))
    top = emitter.label()
    emitter.place(top)
    for _ in range(1 + rng.next_range(3)):
        if rng.next_range(4) == 0:
            _emit_mem(rng, emitter)
        else:
            emitter.instr(Instruction(_pick(rng, _ALU_REG_OPS),
                                      ra=_pick(rng, _READ_REGS),
                                      rb=_INNER,
                                      rc=_pick(rng, _BODY_REGS)))
    emitter.instr(Instruction("subq", ra=_INNER, rc=_INNER, imm=1,
                              islit=True))
    emitter.branch("bne", _INNER, top)


def _emit_putc(rng, emitter):
    emitter.instr(Instruction("and", ra=_pick(rng, _READ_REGS),
                              rc=_CONSOLE, imm=0x7F, islit=True))
    emitter.instr(Instruction("call_pal", imm=PAL_FUNCTIONS["putc"]))


def _emit_pal_noop(rng, emitter):
    emitter.instr(Instruction("call_pal", imm=_pick(rng, _PAL_NOOPS)))


def _emit_guarded_trap(rng, emitter):
    """GENTRAP fired from inside the hot loop on a late iteration.

    ``cmpeq`` the outer counter against a small value: the trap fires
    exactly once, after enough iterations that the loop is translated —
    precise delivery from translated code, not interpretation.
    """
    skip = emitter.label()
    emitter.instr(Instruction("cmpeq", ra=_COUNTER, rc=_GUARD,
                              imm=1 + rng.next_range(4), islit=True))
    emitter.branch("beq", _GUARD, skip)
    emitter.instr(Instruction("call_pal", imm=PAL_FUNCTIONS["gentrap"]))
    emitter.place(skip)


# -- hostile chunk emitters ---------------------------------------------------
#
# Everything below fires behind the same guard idiom as
# ``_emit_guarded_trap`` (``cmpeq`` the outer counter against a small
# value) so the hostile act lands on a *late* iteration — after the hot
# loop has been captured and translated — which is exactly where SMC
# invalidation, protect-driven invalidation and the retranslate deopt
# path live.

#: donor-word ALU mnemonics: any operand values are safe, so a patched
#: slot can swap between them freely without risking a trap.
_DONOR_OPS = ("addq", "subq", "xor", "bis", "and")
#: protect scratch: the PAL argument registers (a0..a2 = R16..R18).
#: R16 doubles as the console operand, but every putc re-materialises it.
_PAL_ARGS = (16, 17, 18)


def _emit_smc(rng, emitter, donors):
    """A guarded self-modifying store over a labelled slot in own text.

    The generator encodes a donor ALU instruction and appends its word
    to the data image *past* the sandboxed buffer (random memory chunks
    never reach it).  On one late iteration the program loads the donor
    word back (``ldl``), materialises the patch target's own address
    (``ldah`` text base + ``lda`` of the slot's resolved byte offset)
    and ``stl``s it over the slot — which sits on the fall-through path
    and executes again on every remaining iteration.  Both the original
    and donor instructions are harmless ALU ops writing a body register,
    so the program survives its own patch; what changes is which values
    flow — and, underneath, that every engine must detect the write,
    invalidate precisely, and retranslate the rewritten code.
    """
    slot = emitter.label()
    skip = emitter.label()
    emitter.instr(Instruction("cmpeq", ra=_COUNTER, rc=_GUARD,
                              imm=1 + rng.next_range(4), islit=True))
    emitter.branch("beq", _GUARD, skip)
    donor = Instruction(_pick(rng, _DONOR_OPS),
                        ra=_pick(rng, _READ_REGS),
                        rc=_pick(rng, _BODY_REGS),
                        imm=_literal(rng), islit=True)
    offset = BUF_SIZE + 4 * len(donors)
    donors.append(encode(donor))
    emitter.instr(Instruction("ldl", ra=_SCRATCH, rb=_BUF, imm=offset))
    emitter.instr(Instruction("ldah", ra=17, rb=ZERO_REG,
                              imm=TEXT_BASE >> 16))
    emitter.lda_slot(17, slot)
    emitter.instr(Instruction("stl", ra=_SCRATCH, rb=17, imm=0))
    emitter.place(skip)
    emitter.place(slot)
    emitter.instr(Instruction(_pick(rng, _DONOR_OPS),
                              ra=_pick(rng, _READ_REGS),
                              rc=_pick(rng, _BODY_REGS),
                              imm=_literal(rng), islit=True))


def _emit_protect(rng, emitter, allow_traps):
    """A guarded ``protect`` PAL call flipping page protections.

    Three variants: revoke execute on the program's own first text page
    (the next fetch from it protection-faults — gated by
    ``allow_traps``), a deliberately failing call against an unmapped
    range (R0 reads back ``EOF_VALUE``), and a benign flip of the data
    page between writable protection combinations.
    """
    skip = emitter.label()
    emitter.instr(Instruction("cmpeq", ra=_COUNTER, rc=_GUARD,
                              imm=1 + rng.next_range(3), islit=True))
    emitter.branch("beq", _GUARD, skip)
    choice = rng.next_range(6)
    if allow_traps and choice == 0:
        base_high, prot = TEXT_BASE >> 16, PROT_READ | PROT_WRITE
    elif choice == 1:
        base_high, prot = 0x30, PROT_ALL        # unmapped: fails clean
    else:
        base_high = DATA_BASE >> 16
        prot = _pick(rng, (PROT_READ | PROT_WRITE, PROT_ALL))
    emitter.instr(Instruction("ldah", ra=16, rb=ZERO_REG, imm=base_high))
    emitter.instr(Instruction("lda", ra=17, rb=ZERO_REG, imm=PAGE_SIZE))
    emitter.instr(Instruction("lda", ra=18, rb=ZERO_REG, imm=prot))
    emitter.instr(Instruction("call_pal", imm=PAL_FUNCTIONS["protect"]))
    emitter.place(skip)


def _emit_getc(rng, emitter):
    """Read one scripted input byte and fold it into a body register."""
    emitter.instr(Instruction("call_pal", imm=PAL_FUNCTIONS["getc"]))
    emitter.instr(Instruction("addq", ra=0, rb=_pick(rng, _READ_REGS),
                              rc=_pick(rng, _BODY_REGS)))


def _emit_brk(rng, emitter):
    """Grow the heap with ``brk``, then store/load through the new page."""
    request = 8 + 8 * rng.next_range(64)
    emitter.instr(Instruction("ldah", ra=16, rb=ZERO_REG,
                              imm=HEAP_BASE >> 16))
    emitter.instr(Instruction("lda", ra=16, rb=16, imm=request))
    emitter.instr(Instruction("call_pal", imm=PAL_FUNCTIONS["brk"]))
    # the first heap page is mapped now (request >= HEAP_BASE + 8);
    # fresh pages read back deterministic zeros
    emitter.instr(Instruction("ldah", ra=_SCRATCH, rb=ZERO_REG,
                              imm=HEAP_BASE >> 16))
    emitter.instr(Instruction("stq", ra=_pick(rng, _READ_REGS),
                              rb=_SCRATCH, imm=8 * rng.next_range(16)))
    emitter.instr(Instruction("ldq", ra=_pick(rng, _BODY_REGS),
                              rb=_SCRATCH, imm=8 * rng.next_range(16)))


def _emit_yield(rng, emitter):
    """Cooperative yield: a superblock-ending architectural no-op."""
    emitter.instr(Instruction("call_pal", imm=PAL_FUNCTIONS["yield"]))


#: body chunk emitters with selection weights.
_CHUNKS = (
    (_emit_alu, 6),
    (_emit_byteop, 2),
    (_emit_cmov, 2),
    (_emit_mem, 4),
    (_emit_fwd_branch, 3),
    (_emit_inner_loop, 2),
    (_emit_putc, 1),
    (_emit_pal_noop, 1),
)
_CHUNK_TABLE = tuple(emit for emit, weight in _CHUNKS
                     for _ in range(weight))
_CHUNK_NAMES = {
    _emit_alu: "alu", _emit_byteop: "byteop", _emit_cmov: "cmov",
    _emit_mem: "mem", _emit_fwd_branch: "branch",
    _emit_inner_loop: "loop", _emit_putc: "putc",
    _emit_pal_noop: "palnop", _emit_guarded_trap: "guarded_trap",
}


def _emit_prologue(rng, emitter, iterations):
    emitter.instr(Instruction("ldah", ra=_BUF, rb=ZERO_REG,
                              imm=DATA_BASE >> 16))
    for reg in _BODY_REGS:
        init = _pick(rng, (-32768, -1, 0, 1, 32767,
                           rng.next_range(1 << 16) - (1 << 15)))
        emitter.instr(Instruction("lda", ra=reg, rb=ZERO_REG, imm=init))
        if rng.next_range(3) == 0:
            # spread seeds into the high bits so 64-bit paths matter
            emitter.instr(Instruction("sll", ra=reg, rc=reg,
                                      imm=rng.next_range(48), islit=True))
    emitter.instr(Instruction("lda", ra=_GUARD, rb=ZERO_REG, imm=0))
    emitter.instr(Instruction("lda", ra=_CONSOLE, rb=ZERO_REG, imm=0))
    emitter.instr(Instruction("lda", ra=_COUNTER, rb=ZERO_REG,
                              imm=iterations))


def _emit_epilogue_trap(rng, emitter, shapes):
    """One post-loop trap shape: runs once, after the hot loop."""
    choice = rng.next_range(3)
    if choice == 0:
        shapes["trap_unaligned"] = shapes.get("trap_unaligned", 0) + 1
        emitter.instr(Instruction("lda", ra=_SCRATCH, rb=_BUF, imm=1))
        emitter.instr(Instruction("ldq", ra=_pick(rng, _BODY_REGS),
                                  rb=_SCRATCH, imm=0))
    elif choice == 1:
        shapes["trap_unmapped"] = shapes.get("trap_unmapped", 0) + 1
        emitter.instr(Instruction("ldah", ra=_SCRATCH, rb=ZERO_REG,
                                  imm=0x40))
        emitter.instr(Instruction("ldq", ra=_pick(rng, _BODY_REGS),
                                  rb=_SCRATCH, imm=0))
    else:
        shapes["trap_gentrap"] = shapes.get("trap_gentrap", 0) + 1
        emitter.instr(Instruction("call_pal",
                                  imm=PAL_FUNCTIONS["gentrap"]))


def generate(seed, index=0, max_insns=60, allow_traps=True,
             hostile=False):
    """Generate one program; deterministic in all arguments.

    ``max_insns`` bounds the emitted *body* size (the loop body between
    prologue and epilogue); whole programs run a few thousand dynamic
    instructions at most.  ``hostile=True`` mixes the hostile-guest
    chunks (SMC self-patching, protect flips, getc/brk/yield syscalls)
    into the selection table and attaches a scripted input.
    """
    if max_insns < 4:
        raise ValueError("max_insns must be >= 4")
    rng = Xorshift64(_mix(seed, index))
    emitter = _Emitter()
    shapes = {}
    donors = []
    chunk_table, chunk_names = _CHUNK_TABLE, _CHUNK_NAMES
    if hostile:
        def smc(chunk_rng, chunk_emitter):
            _emit_smc(chunk_rng, chunk_emitter, donors)

        def protect(chunk_rng, chunk_emitter):
            _emit_protect(chunk_rng, chunk_emitter, allow_traps)

        hostile_chunks = ((smc, 2), (protect, 2), (_emit_getc, 2),
                          (_emit_brk, 1), (_emit_yield, 1))
        chunk_table = _CHUNK_TABLE + tuple(
            emit for emit, weight in hostile_chunks
            for _ in range(weight))
        chunk_names = dict(_CHUNK_NAMES)
        chunk_names.update({smc: "smc", protect: "protect",
                            _emit_getc: "getc", _emit_brk: "brk",
                            _emit_yield: "yield"})
    iterations = 12 + rng.next_range(29)

    _emit_prologue(rng, emitter, iterations)

    # decide leaf functions up front so body chunks can call them
    leaves = [emitter.label() for _ in range(rng.next_range(3))]
    if leaves:
        shapes["call"] = 0

    loop_top = emitter.label()
    emitter.place(loop_top)
    body_start = emitter.instr_count()
    if allow_traps and rng.next_range(12) == 0:
        _emit_guarded_trap(rng, emitter)
        shapes["guarded_trap"] = 1
    while emitter.instr_count() - body_start < max_insns:
        if leaves and rng.next_range(10) == 0:
            emitter.instr(Instruction("bsr", ra=RA_REG, imm=0))
            # rewrite as a label branch: bsr is branch-format
            emitter.items[-1] = ("branch", "bsr", RA_REG,
                                 _pick(rng, leaves))
            shapes["call"] += 1
            continue
        chunk = _pick(rng, chunk_table)
        chunk(rng, emitter)
        name = chunk_names[chunk]
        shapes[name] = shapes.get(name, 0) + 1
    emitter.instr(Instruction("subq", ra=_COUNTER, rc=_COUNTER, imm=1,
                              islit=True))
    emitter.branch("bne", _COUNTER, loop_top)

    # epilogue: fold state into a console byte, maybe trap, halt
    emitter.instr(Instruction("xor", ra=3, rb=5, rc=_CONSOLE))
    emitter.instr(Instruction("xor", ra=_CONSOLE, rb=8, rc=_CONSOLE))
    emitter.instr(Instruction("and", ra=_CONSOLE, rc=_CONSOLE, imm=0x7F,
                              islit=True))
    emitter.instr(Instruction("call_pal", imm=PAL_FUNCTIONS["putc"]))
    if allow_traps and rng.next_range(8) == 0:
        _emit_epilogue_trap(rng, emitter, shapes)
    emitter.instr(Instruction("call_pal", imm=PAL_FUNCTIONS["halt"]))

    # leaf functions live after the halt; reachable only via BSR
    for leaf in leaves:
        emitter.place(leaf)
        for _ in range(2 + rng.next_range(3)):
            emitter.instr(Instruction(_pick(rng, _ALU_REG_OPS),
                                      ra=_pick(rng, (13, 14, 15)),
                                      rb=_pick(rng, _READ_REGS),
                                      rc=_pick(rng, (13, 14, 15))))
        emitter.instr(Instruction("ret", ra=ZERO_REG, rb=RA_REG, imm=1))

    words = [encode(instr) for instr in emitter.resolve()]
    data = rng.next_bytes(BUF_SIZE)
    if donors:
        # donor words live past the sandboxed buffer, out of reach of
        # random stores — a corrupted donor could patch in garbage
        data += b"".join(word.to_bytes(4, "little") for word in donors)
    input_script = rng.next_bytes(4 + rng.next_range(28)) if hostile \
        else b""
    return FuzzProgram(seed, index, GENERATOR_VERSION, max_insns, words,
                       data, shapes=shapes, input=input_script,
                       hostile=hostile)
