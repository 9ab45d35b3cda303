"""The PAL syscall layer shared by the interpreter and the VM engines.

``CALL_PAL`` grew beyond halt/putc/gentrap into a small syscall dispatch
(:data:`repro.isa.opcodes.PAL_SYSCALLS`), implemented once here so the
interpreter, the executor's reference body walk and the jit's generated
code are observationally identical by construction:

``getc``
    read the next byte of the program's scripted input into R0
    (:data:`EOF_VALUE` once the script is exhausted);
``brk``
    grow the guest heap through the MMU: R16 carries the requested break
    (0 queries), pages are mapped lazily in whole-page segments, and R0
    returns the resulting break (unchanged on failure — an out-of-range
    request or a collision with a program segment degrades, never traps);
``protect``
    apply R18's R/W/X bits to ``[R16, R16 + R17)`` via
    :meth:`repro.memory.image.Memory.protect`; R0 is 0 on success and
    :data:`EOF_VALUE` when the range is unmapped or the bits invalid.
    When the VM wires ``on_protect``, dropping exec permission also
    invalidates the fragments translated from those pages, and — from
    inside translated code — raises the internal ``RETRANSLATE`` trap so
    the VM deopts to the interpreter after the call;
``yield``
    architecturally a no-op; the call still ends its superblock, so
    translated execution returns to a fragment boundary (where the VM's
    fuel budget is checked) — the nanosleep-shaped cooperative yield.

All register effects are written directly into the shared GPR file;
every syscall ends its superblock (``Kind.PAL`` terminates capture), so
the architected file is complete at the call and no staleness or
accumulator recovery can be pending.
"""

from repro.isa.opcodes import PAL_FUNCTIONS
from repro.isa.semantics import Trap, TrapKind
from repro.memory.image import PAGE_MASK, PAGE_SIZE, PROT_ALL
from repro.utils.bitops import MASK64

#: R0 value for getc-on-exhausted-input and failed protect calls.
EOF_VALUE = MASK64

#: Guest heap placement: far above the fuzz generator's text/data bases,
#: below nothing the workloads map.  ``brk`` never grows past the limit.
HEAP_BASE = 0x40_0000
HEAP_LIMIT = 0x10_0000

_GETC = PAL_FUNCTIONS["getc"]
_BRK = PAL_FUNCTIONS["brk"]
_PROTECT = PAL_FUNCTIONS["protect"]
_YIELD = PAL_FUNCTIONS["yield"]


class PalContext:
    """Per-run syscall state: input cursor, heap break, call counters."""

    def __init__(self, program):
        self.memory = program.memory
        self.input_script = program.input_script
        self._cursor = 0
        #: architectural break and the page-aligned end of mapped heap
        self.heap_break = HEAP_BASE
        self._heap_mapped = HEAP_BASE
        self._heap_segments = 0
        #: function name -> call count (telemetry / corpus classification)
        self.calls = {"getc": 0, "brk": 0, "protect": 0, "yield": 0}
        #: VM-wired hook: ``on_protect(base, size, prot, vpc)`` returns
        #: the number of fragments the protection change invalidated
        #: (None outside a co-designed VM — a bare interpreter has no
        #: translations to invalidate).
        self.on_protect = None

    def call(self, regs, function, vpc, translated=False):
        """Dispatch one syscall against the shared GPR file.

        ``translated`` marks calls issued from translated code: a protect
        that invalidates fragments must then abandon the translated stint
        via the internal ``RETRANSLATE`` trap (the interpreter path just
        continues — it re-fetches every instruction).
        """
        if function == _GETC:
            self.calls["getc"] += 1
            if self._cursor < len(self.input_script):
                regs[0] = self.input_script[self._cursor]
                self._cursor += 1
            else:
                regs[0] = EOF_VALUE
        elif function == _BRK:
            self.calls["brk"] += 1
            regs[0] = self._brk(regs[16])
        elif function == _PROTECT:
            self.calls["protect"] += 1
            invalidated = self._protect(regs, vpc)
            if invalidated and translated:
                raise Trap(TrapKind.RETRANSLATE, vpc=vpc, access="pal")
        elif function == _YIELD:
            self.calls["yield"] += 1
        # anything else stays an architectural no-op

    # -- brk ---------------------------------------------------------------

    def _brk(self, request):
        if request == 0 or request == self.heap_break:
            return self.heap_break
        if request < HEAP_BASE or request > HEAP_BASE + HEAP_LIMIT:
            return self.heap_break          # out of range: refuse
        if request <= self.heap_break:
            self.heap_break = request       # shrink: move the break only
            return self.heap_break
        needed_end = (request + PAGE_MASK) & ~PAGE_MASK
        if needed_end > self._heap_mapped:
            try:
                self.memory.map_segment(
                    f"heap{self._heap_segments}", self._heap_mapped,
                    needed_end - self._heap_mapped, prot=PROT_ALL)
            except ValueError:
                return self.heap_break      # collision: refuse, keep break
            self._heap_segments += 1
            self._heap_mapped = needed_end
        self.heap_break = request
        return self.heap_break

    # -- protect -----------------------------------------------------------

    def _protect(self, regs, vpc):
        base = regs[16]
        size = regs[17]
        prot = regs[18] & PROT_ALL
        try:
            self.memory.protect(base, size, prot)
        except ValueError:
            regs[0] = EOF_VALUE
            return 0
        regs[0] = 0
        if self.on_protect is None:
            return 0
        return self.on_protect(base, size, prot, vpc)


def heap_pages(context):
    """Mapped heap pages of a context (diagnostics)."""
    return (context._heap_mapped - HEAP_BASE) // PAGE_SIZE
