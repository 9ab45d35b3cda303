"""The Alpha instruction object used throughout the VM.

Instances are created either by the assembler or by the binary decoder and
are immutable after construction.  ``__slots__`` keeps them small: the
interpreter touches millions of these in its hot loop.
"""

from repro.isa.opcodes import (
    Format,
    Kind,
    MEMORY_OPS,
    OPERATE_OPS,
    BRANCH_OPS,
    JUMP_OPS,
    RB_ONLY_OPS,
    CMOV_OPS,
    kind_of,
)
from repro.isa.registers import ZERO_REG


class Instruction:
    """One decoded Alpha instruction.

    Register fields not used by the instruction's format hold ``ZERO_REG``.
    ``imm`` holds the operate literal, memory displacement, branch
    displacement (in instructions, already sign-interpreted) or PAL function
    depending on the format.  For operate instructions ``islit`` says whether
    Rb is replaced by an 8-bit literal.
    """

    __slots__ = ("mnemonic", "fmt", "kind", "ra", "rb", "rc", "imm", "islit",
                 "elided")

    def __init__(self, mnemonic, ra=ZERO_REG, rb=ZERO_REG, rc=ZERO_REG,
                 imm=0, islit=False):
        self.mnemonic = mnemonic
        self.kind = kind_of(mnemonic)
        self.fmt = _format_of(mnemonic)
        self.ra = ra
        self.rb = rb
        self.rc = rc
        self.imm = imm
        self.islit = islit
        #: Whether translation emits no code for it: an architectural
        #: no-op (an operate or LDA writing R31) or a plain BR, which
        #: code straightening removes.  The VM counts these while
        #: interpreting (``VMStats.interpreted_elided``), so it is
        #: decided once here rather than per interpreted step.
        if self.fmt is Format.OPERATE:
            self.elided = rc == ZERO_REG
        else:
            self.elided = ra == ZERO_REG and \
                self.kind in (Kind.LDA, Kind.UNCOND_BRANCH)

    # -- register roles ----------------------------------------------------

    def dest(self):
        """Destination register index, or ``None`` when none is written.

        Writes to R31 are architectural no-ops and reported as ``None``.
        """
        if self.fmt is Format.OPERATE:
            dst = self.rc
        elif self.kind in (Kind.LOAD, Kind.LDA):
            dst = self.ra
        elif self.kind in (Kind.UNCOND_BRANCH, Kind.JUMP):
            dst = self.ra  # return-address link
        else:
            return None
        return None if dst == ZERO_REG else dst

    def sources(self):
        """Tuple of source register indices, with R31 filtered out."""
        srcs = ()
        if self.fmt is Format.OPERATE:
            if self.mnemonic in RB_ONLY_OPS:
                srcs = (self.rb,)
            elif self.islit:
                srcs = (self.ra,)
            else:
                srcs = (self.ra, self.rb)
            if self.mnemonic in CMOV_OPS:
                srcs = srcs + (self.rc,)  # old destination value
        elif self.kind in (Kind.LOAD, Kind.LDA):
            srcs = (self.rb,)
        elif self.kind is Kind.STORE:
            srcs = (self.ra, self.rb)
        elif self.kind is Kind.COND_BRANCH:
            srcs = (self.ra,)
        elif self.kind is Kind.JUMP:
            srcs = (self.rb,)
        return tuple(r for r in srcs if r != ZERO_REG)

    # -- predicates --------------------------------------------------------

    def is_control(self):
        """True for any control-transfer instruction."""
        return self.kind in (Kind.COND_BRANCH, Kind.UNCOND_BRANCH, Kind.JUMP,
                             Kind.PAL)

    def is_pei(self):
        """True for potentially-excepting instructions (memory accesses)."""
        return self.kind in (Kind.LOAD, Kind.STORE)

    def __eq__(self, other):
        if not isinstance(other, Instruction):
            return NotImplemented
        return (
            self.mnemonic == other.mnemonic
            and self.ra == other.ra
            and self.rb == other.rb
            and self.rc == other.rc
            and self.imm == other.imm
            and self.islit == other.islit
        )

    def __hash__(self):
        return hash((self.mnemonic, self.ra, self.rb, self.rc, self.imm,
                     self.islit))

    def __repr__(self):
        return (
            f"Instruction({self.mnemonic!r}, ra={self.ra}, rb={self.rb}, "
            f"rc={self.rc}, imm={self.imm}, islit={self.islit})"
        )


def _format_of(mnemonic):
    if mnemonic in MEMORY_OPS:
        return Format.MEMORY
    if mnemonic in OPERATE_OPS:
        return Format.OPERATE
    if mnemonic in BRANCH_OPS:
        return Format.BRANCH
    if mnemonic in JUMP_OPS:
        return Format.JUMP
    if mnemonic == "call_pal":
        return Format.PAL
    raise KeyError(f"unknown mnemonic: {mnemonic}")
