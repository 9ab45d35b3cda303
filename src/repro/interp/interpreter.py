"""The Alpha V-ISA interpreter.

The interpreter is the VM's fallback execution engine and the reference
implementation for co-simulation: the translated I-ISA code must produce
exactly the architected state transitions this interpreter produces.

``step()`` executes one instruction and returns an :class:`ExecEvent`
describing what happened, which the VM uses for profiling, superblock
capture and trace generation.

Two engines execute steps (selected per interpreter, default
``"specialized"``):

* **specialized** — each decoded instruction carries a pre-bound step
  closure (see :mod:`repro.interp.specialize`) built once at decode time:
  no per-step ``Kind`` dispatch, no table lookups, no dict construction.
* **naive** — the readable reference dispatch below, kept for
  differential testing and as the semantics of record.
  ``Interpreter(..., exec_engine="naive")`` builds a
  :class:`NaiveInterpreter`, whose class binds ``step`` to it.
"""

from repro.interp.specialize import STORE_SIZES, build_step
from repro.isa.encoding import decode
from repro.interp.pal import PalContext
from repro.isa.opcodes import Kind, PAL_FUNCTIONS, PAL_SYSCALLS
from repro.isa.registers import SP_REG
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

#: Conditional-move predicate lookup, hoisted out of the step loop.
_CMOV_GET = CMOV_CONDITIONS.get

#: Decoded instructions keyed by the 32-bit instruction *word*, shared by
#: every interpreter in the process.  Each entry is an
#: ``(instruction, step_closure)`` pair: ``decode()`` and the closure
#: specialization are pure functions of the word, so keying by content
#: (rather than by PC) lets interpreters re-running the same program —
#: cached or parallel harness workers, the co-simulation reference runs —
#: reuse each other's decode *and* specialization work, and makes it
#: impossible for a stale entry to survive a code rewrite: a changed word
#: is simply a different key.
DECODE_CACHE = {}


def _decode_entry(word):
    """Decode ``word`` and specialize its step closure; cache both."""
    instr = decode(word)
    entry = (instr, build_step(instr))
    DECODE_CACHE[word] = entry
    return entry


class Halted(Exception):
    """The program executed ``call_pal halt``."""


class ExecEvent:
    """What one interpreted instruction did."""

    __slots__ = ("pc", "instr", "next_pc", "taken", "mem_addr")

    def __init__(self, pc, instr, next_pc, taken=False, mem_addr=None):
        self.pc = pc
        self.instr = instr
        self.next_pc = next_pc
        self.taken = taken
        self.mem_addr = mem_addr

    def __repr__(self):
        return (f"ExecEvent(pc={self.pc:#x}, {self.instr.mnemonic}, "
                f"next={self.next_pc:#x}, taken={self.taken})")


class Interpreter:
    """Executes a loaded V-ISA program instruction by instruction."""

    def __new__(cls, program=None, console=None, exec_engine="specialized"):
        # the engine picks the class and the class binds ``step``, so the
        # hot loop pays no per-step engine check and an instance holds no
        # bound method of itself: a dropped interpreter, with its
        # program's guest memory, is freed by reference counting
        if cls is Interpreter and exec_engine == "naive":
            cls = NaiveInterpreter
        return super().__new__(cls)

    def __init__(self, program, console=None, exec_engine="specialized"):
        if exec_engine not in ("jit", "specialized", "naive"):
            raise ValueError(f"unknown exec engine {exec_engine!r}")
        self.program = program
        self.memory = program.memory
        self.state = _initial_state(program)
        self.console = console if console is not None else []
        #: syscall state (scripted input, heap break) — shared with the
        #: VM's fragment executor so translated SYSCALL ops and
        #: interpreted CALL_PALs see one cursor and one break
        self.pal = PalContext(program)
        self.instruction_count = 0
        self.exec_engine = exec_engine
        self._decode_cache = DECODE_CACHE
        #: process-local telemetry: words decoded because they were absent
        #: from the (process-global) :data:`DECODE_CACHE`.  Nondeterministic
        #: across processes — a warm cache makes every fetch a hit — so the
        #: harness reports it in the host (non-reproducible) block only.
        self.decode_misses = 0

    def fetch(self, pc):
        """Decode (with caching) the instruction at ``pc``.

        The word is always re-read from memory, so self-modifying code is
        decoded correctly; only the word -> (instruction, closure) mapping
        is cached.  The read is the exec-checked fetch path: a page
        without ``PROT_EXEC`` raises a precise PROTECTION_VIOLATION.
        """
        word = self.memory.fetch(pc, vpc=pc)
        entry = self._decode_cache.get(word)
        if entry is None:
            self.decode_misses += 1
            entry = _decode_entry(word)
        return entry[0]

    # -- specialized engine ---------------------------------------------------

    def _step_specialized(self):
        """Execute one instruction via its pre-bound step closure."""
        state = self.state
        pc = state.pc
        word = self.memory.fetch(pc, vpc=pc)
        entry = self._decode_cache.get(word)
        if entry is None:
            self.decode_misses += 1
            entry = _decode_entry(word)
        event = entry[1](self, state, state.regs, pc)
        self.instruction_count += 1
        return event

    #: Execute one instruction and return its :class:`ExecEvent`.  The jit
    #: engine only compiles *fragments* — single-step interpretation has
    #: no hot bodies to compile, so it shares the specialized step.
    step = _step_specialized

    # -- naive engine (the reference semantics) -------------------------------

    def _step_naive(self):
        """Execute one instruction; raises :class:`Halted` or :class:`Trap`."""
        state = self.state
        pc = state.pc
        instr = self.fetch(pc)
        regs = state.regs
        next_pc = pc + 4
        taken = False
        mem_addr = None
        kind = instr.kind
        mnemonic = instr.mnemonic

        if kind is Kind.ALU:
            cond = _CMOV_GET(mnemonic)
            b_value = instr.imm if instr.islit else regs[instr.rb]
            if cond is not None:
                if cond(regs[instr.ra]):
                    state.write(instr.rc, b_value)
            else:
                state.write(instr.rc,
                            ALU_OPS[mnemonic](regs[instr.ra], b_value))
        elif kind is Kind.LDA:
            displacement = instr.imm * 65536 if mnemonic == "ldah" else \
                instr.imm
            state.write(instr.ra, (regs[instr.rb] + displacement) & MASK64)
        elif kind is Kind.LOAD:
            mem_addr = (regs[instr.rb] + instr.imm) & MASK64
            value = self._load_value(mnemonic, mem_addr, pc)
            state.write(instr.ra, value)
        elif kind is Kind.STORE:
            mem_addr = (regs[instr.rb] + instr.imm) & MASK64
            size = STORE_SIZES[mnemonic]
            self.memory.store(mem_addr, regs[instr.ra], size, vpc=pc)
        elif kind is Kind.COND_BRANCH:
            if BRANCH_CONDITIONS[mnemonic](regs[instr.ra]):
                next_pc = pc + 4 + 4 * instr.imm
                taken = True
        elif kind is Kind.UNCOND_BRANCH:
            state.write(instr.ra, pc + 4)
            next_pc = pc + 4 + 4 * instr.imm
            taken = True
        elif kind is Kind.JUMP:
            target = regs[instr.rb] & ~3 & MASK64
            state.write(instr.ra, pc + 4)
            next_pc = target
            taken = True
        elif kind is Kind.PAL:
            self._do_pal(instr, pc)
        else:  # pragma: no cover - all kinds are handled above
            raise Trap(TrapKind.ILLEGAL, vpc=pc)

        state.pc = next_pc
        self.instruction_count += 1
        return ExecEvent(pc, instr, next_pc, taken, mem_addr)

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

    def _load_value(self, mnemonic, address, pc):
        if mnemonic == "ldq":
            return self.memory.load(address, 8, vpc=pc)
        if mnemonic == "ldl":
            return sext(self.memory.load(address, 4, vpc=pc), 32)
        if mnemonic == "ldwu":
            return self.memory.load(address, 2, vpc=pc)
        if mnemonic == "ldbu":
            return self.memory.load(address, 1, vpc=pc)
        raise KeyError(mnemonic)

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


class NaiveInterpreter(Interpreter):
    """An :class:`Interpreter` on the naive engine: every step goes
    through the reference dispatch (``_step_naive``)."""

    step = Interpreter._step_naive


def _initial_state(program):
    from repro.interp.state import ArchState

    state = ArchState(program.entry)
    stack_top = program.symbols.get("__stack_top")
    if stack_top is not None:
        state.write(SP_REG, stack_top - 64)
    return state
