"""Superblock capture records (paper Section 3.1).

A superblock is a single-entry multiple-exit code sequence collected by
following the interpreted path once a trace-start candidate becomes hot
(Dynamo's Most Recently Executed Tail heuristic, slightly modified).
"""

import enum

from repro.isa.opcodes import Kind


class EndReason(enum.Enum):
    """Why superblock collection stopped (the fragment ending conditions)."""

    INDIRECT_JUMP = "indirect_jump"       # JMP/JSR/RET
    TRAP_INSTRUCTION = "trap_instruction"  # CALL_PAL
    BACKWARD_TAKEN_BRANCH = "backward_taken_branch"
    CYCLE = "cycle"                        # instruction collected twice
    MAX_SIZE = "max_size"
    EXISTING_FRAGMENT = "existing_fragment"  # path reached translated code


class SuperblockEntry:
    """One Alpha instruction on the captured path."""

    __slots__ = ("vpc", "instr", "taken", "next_vpc", "word")

    def __init__(self, vpc, instr, taken, next_vpc, word=None):
        self.vpc = vpc
        self.instr = instr
        #: For control transfers: whether the captured execution took it.
        self.taken = taken
        #: The V-PC the captured execution went to next.
        self.next_vpc = next_vpc
        #: The raw 32-bit instruction word at capture time.  Install-time
        #: validation compares it against current guest memory so a
        #: self-modifying store *during* capture (the page is only
        #: watched once a fragment is installed) cannot install a stale
        #: translation.
        self.word = word

    def __repr__(self):
        return (f"SuperblockEntry({self.vpc:#x}, {self.instr.mnemonic}, "
                f"taken={self.taken})")


class Superblock:
    """A captured hot path, ready for translation."""

    def __init__(self, entry_vpc, entries, end_reason, continuation_vpc):
        if not entries:
            raise ValueError("superblock must contain at least one entry")
        self.entry_vpc = entry_vpc
        self.entries = entries
        self.end_reason = end_reason
        #: Where execution continues after the block's final instruction
        #: (None when the block ends at an indirect jump or halt).
        self.continuation_vpc = continuation_vpc

    def __len__(self):
        return len(self.entries)

    def side_exit_vpcs(self):
        """Targets of the not-followed directions of conditional branches."""
        exits = []
        for entry in self.entries[:-1]:
            if entry.instr.kind is Kind.COND_BRANCH:
                taken_target = entry.vpc + 4 + 4 * entry.instr.imm
                if entry.taken:
                    exits.append(entry.vpc + 4)       # fall-through not taken
                else:
                    exits.append(taken_target)
        return exits

    def alpha_instruction_count(self):
        """Number of V-ISA instructions on the path, NOPs excluded.

        The paper removes NOP instructions during translation and does not
        count them in V-ISA program characteristics (Section 4.4).
        """
        count = 0
        for entry in self.entries:
            if not _is_nop(entry.instr):
                count += 1
        return count

    def __repr__(self):
        return (f"Superblock(entry={self.entry_vpc:#x}, "
                f"n={len(self.entries)}, end={self.end_reason.value})")


def _is_nop(instr):
    """Architectural no-ops: operates writing R31 and BR-to-next quirks."""
    from repro.isa.opcodes import Format

    if instr.fmt is Format.OPERATE and instr.rc == 31:
        return True
    if instr.kind is Kind.LDA and instr.ra == 31:
        return True
    return False


def elided_by_translation(instr):
    """True for instructions that produce no translated code at all:
    architectural NOPs and plain BR (removed by code straightening)."""
    return _is_nop(instr) or \
        (instr.kind is Kind.UNCOND_BRANCH and instr.ra == 31)
