"""The Alpha V-ISA interpreter.

The interpreter is the VM's fallback execution engine and the reference
implementation for co-simulation: the translated I-ISA code must produce
exactly the architected state transitions this interpreter produces.

``step()`` executes one instruction and returns the tuple
``(pc, instr, next_pc, taken, mem_addr)``: where it ran, the decoded
instruction, where control goes next, whether a branch was taken and the
effective address of a load or store (``None`` otherwise).  The VM uses
it for profiling and superblock capture, and
:func:`repro.uarch.trace_utils.interpreter_trace` for trace rows.

There is one step for every ``VMConfig.exec_engine``: the engines differ
only in how translated fragments run.  The step is the readable
reference dispatch, kept fast by inlining its fetch, writing registers
directly and binding its ``Kind`` constants at module level.
"""

from repro.isa.encoding import decode
from repro.interp.pal import PalContext
from repro.isa.opcodes import Kind, PAL_FUNCTIONS, PAL_SYSCALLS
from repro.isa.registers import SP_REG, ZERO_REG
from repro.isa.semantics import (
    ALU_OPS,
    BRANCH_CONDITIONS,
    CMOV_CONDITIONS,
    Trap,
    TrapKind,
)
from repro.utils.bitops import MASK64, sext

_PAL_HALT = PAL_FUNCTIONS["halt"]
_PAL_PUTC = PAL_FUNCTIONS["putc"]
_PAL_GENTRAP = PAL_FUNCTIONS["gentrap"]

# the step compares against these by identity; a module global is one
# lookup, ``Kind.ALU`` is two
_ALU = Kind.ALU
_LDA = Kind.LDA
_LOAD = Kind.LOAD
_STORE = Kind.STORE
_COND_BRANCH = Kind.COND_BRANCH
_UNCOND_BRANCH = Kind.UNCOND_BRANCH
_JUMP = Kind.JUMP

#: ALU function lookup.  ``None`` means a conditional move: the two
#: tables share no mnemonic.
_ALU_GET = ALU_OPS.get

#: store mnemonic -> access size in bytes.
STORE_SIZES = {"stb": 1, "stw": 2, "stl": 4, "stq": 8}

#: load mnemonic -> (access size in bytes, sign-extend flag).
LOAD_SIZES = {"ldq": (8, False), "ldl": (4, True), "ldwu": (2, False),
              "ldbu": (1, False)}

#: Decoded instructions keyed by the 32-bit instruction *word*, shared by
#: every interpreter in the process.  ``decode()`` is a pure function of
#: the word, so keying by content (rather than by PC) lets interpreters
#: re-running the same program — cached or parallel harness workers, the
#: co-simulation reference runs — reuse each other's decode work, and
#: makes it impossible for a stale entry to survive a code rewrite: a
#: changed word is simply a different key.
DECODE_CACHE = {}


class Halted(Exception):
    """The program executed ``call_pal halt``."""


class Interpreter:
    """Executes a loaded V-ISA program instruction by instruction."""

    def __init__(self, program):
        self.program = program
        self.memory = program.memory
        self.state = _initial_state(program)
        self.console = []
        #: syscall state (scripted input, heap break) — shared with the
        #: VM's fragment executor so translated SYSCALL ops and
        #: interpreted CALL_PALs see one cursor and one break
        self.pal = PalContext(program)
        #: process-local telemetry: words decoded because they were absent
        #: from the (process-global) :data:`DECODE_CACHE`.  Nondeterministic
        #: across processes — a warm cache makes every fetch a hit — so the
        #: harness reports it in the host (non-reproducible) block only.
        self.decode_misses = 0

    def fetch(self, pc):
        """Decode (with caching) the instruction at ``pc``.

        The word is always re-read from memory, so self-modifying code is
        decoded correctly; only the word -> instruction mapping is
        cached.  The read is the exec-checked fetch path: a page without
        ``PROT_EXEC`` raises a precise PROTECTION_VIOLATION.  ``step``
        does the same fetch inline.
        """
        word = self.memory.fetch(pc, vpc=pc)
        instr = DECODE_CACHE.get(word)
        if instr is None:
            self.decode_misses += 1
            instr = DECODE_CACHE[word] = decode(word)
        return instr

    def step(self):
        """Execute one instruction and return
        ``(pc, instr, next_pc, taken, mem_addr)``.

        Raises :class:`Halted` or :class:`Trap` before the PC advances.
        """
        state = self.state
        pc = state.pc
        memory = self.memory
        word = memory.fetch(pc, vpc=pc)
        instr = DECODE_CACHE.get(word)
        if instr is None:
            self.decode_misses += 1
            instr = DECODE_CACHE[word] = decode(word)
        regs = state.regs
        next_pc = pc + 4
        taken = False
        mem_addr = None
        kind = instr.kind

        if kind is _ALU:
            mnemonic = instr.mnemonic
            b_value = instr.imm if instr.islit else regs[instr.rb]
            rc = instr.rc
            op = _ALU_GET(mnemonic)
            if op is not None:
                value = op(regs[instr.ra], b_value)
                if rc != ZERO_REG:
                    regs[rc] = value
            elif CMOV_CONDITIONS[mnemonic](regs[instr.ra]) and \
                    rc != ZERO_REG:
                regs[rc] = b_value
        elif kind is _LDA:
            displacement = instr.imm * 65536 if instr.mnemonic == "ldah" \
                else instr.imm
            if instr.ra != ZERO_REG:
                regs[instr.ra] = (regs[instr.rb] + displacement) & MASK64
        elif kind is _LOAD:
            mem_addr = (regs[instr.rb] + instr.imm) & MASK64
            size, signed = LOAD_SIZES[instr.mnemonic]
            # a load into R31 still performs the access, so it can fault
            value = memory.load(mem_addr, size, vpc=pc)
            if instr.ra != ZERO_REG:
                regs[instr.ra] = sext(value, 8 * size) if signed else value
        elif kind is _STORE:
            mem_addr = (regs[instr.rb] + instr.imm) & MASK64
            memory.store(mem_addr, regs[instr.ra],
                         STORE_SIZES[instr.mnemonic], vpc=pc)
        elif kind is _COND_BRANCH:
            if BRANCH_CONDITIONS[instr.mnemonic](regs[instr.ra]):
                next_pc = pc + 4 + 4 * instr.imm
                taken = True
        elif kind is _UNCOND_BRANCH:
            if instr.ra != ZERO_REG:
                regs[instr.ra] = pc + 4
            next_pc = pc + 4 + 4 * instr.imm
            taken = True
        elif kind is _JUMP:
            # the target is read before the link write, as JSR R, (R)
            # demands
            next_pc = regs[instr.rb] & ~3 & MASK64
            if instr.ra != ZERO_REG:
                regs[instr.ra] = pc + 4
            taken = True
        else:
            self._do_pal(instr, pc)

        state.pc = next_pc
        return pc, instr, next_pc, taken, mem_addr

    def run(self, max_instructions=10_000_000):
        """Run until halt or trap; returns the executed instruction count."""
        executed = 0
        step = self.step
        try:
            while executed < max_instructions:
                step()
                executed += 1
        except Halted:
            pass
        return executed

    def _do_pal(self, instr, pc):
        function = instr.imm
        if function == _PAL_HALT:
            raise Halted()
        if function == _PAL_PUTC:
            self.console.append(self.state.regs[16] & 0xFF)
        elif function == _PAL_GENTRAP:
            raise Trap(TrapKind.GENTRAP, vpc=pc)
        elif function in PAL_SYSCALLS:
            self.pal.call(self.state.regs, function, pc)
        # unknown PAL functions are architectural no-ops in this machine

    def console_text(self):
        """The console output decoded as latin-1 text."""
        return bytes(self.console).decode("latin-1")


def _initial_state(program):
    from repro.interp.state import ArchState

    state = ArchState(program.entry)
    stack_top = program.symbols.get("__stack_top")
    if stack_top is not None:
        state.write(SP_REG, stack_top - 64)
    return state
