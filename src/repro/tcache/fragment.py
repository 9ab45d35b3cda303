"""Fragment records: translated superblocks living in the translation cache."""

import enum
import zlib

from repro.memory.image import PAGE_SHIFT

#: IInstruction fields with semantic meaning — the checksum input.  Layout
#: fields (address, size) and compilation caches are deliberately excluded
#: so relocation never invalidates a checksum.
_CHECKSUM_FIELDS = (
    "iop", "op", "acc", "gpr", "gpr2", "imm", "islit", "src_a", "src_b",
    "addr_src", "data_src", "cond_src", "dest_gpr", "operational",
    "mem_size", "mem_signed", "target", "vtarget", "vpc")


class ExitKind(enum.Enum):
    """How control can leave a fragment."""

    COND = "cond"            # side exit from a conditional branch
    UNCOND = "uncond"        # fall-off continuation or block-ending branch
    INDIRECT = "indirect"    # register-indirect jump (JMP/JSR)
    RETURN = "return"        # RET
    HALT = "halt"


class FragmentExit:
    """One exit point, with the bookkeeping needed for later patching."""

    __slots__ = ("kind", "vtarget", "instr_index", "patched")

    def __init__(self, kind, vtarget, instr_index, patched=False):
        self.kind = kind
        self.vtarget = vtarget        # None for indirect/return exits
        self.instr_index = instr_index
        self.patched = patched

    def __repr__(self):
        vtext = f"{self.vtarget:#x}" if self.vtarget is not None else "-"
        return (f"FragmentExit({self.kind.value}, V:{vtext}, "
                f"i={self.instr_index}, patched={self.patched})")


class Fragment:
    """A translated superblock placed in the translation cache."""

    def __init__(self, entry_vpc, fmt, body, exits, pei_table,
                 source_instr_count, n_accumulators,
                 premature_terminations=0, superblock=None):
        self.fid = None                  # assigned by the cache
        self.entry_vpc = entry_vpc
        self.fmt = fmt
        self.body = body                 # list of IInstruction
        self.exits = exits               # list of FragmentExit
        #: [(body_index, vpc, recovery_map)] in program order; the recovery
        #: map is {arch_reg: ("gpr",) | ("acc", acc_index)} (basic format)
        #: or None (modified/ALPHA formats, trivially recoverable).
        self.pei_table = pei_table
        #: Alpha instructions the fragment translates (NOPs excluded).
        self.source_instr_count = source_instr_count
        self.n_accumulators = n_accumulators
        self.premature_terminations = premature_terminations
        self.superblock = superblock     # kept for diagnostics/tests
        #: guest code addresses this fragment translates — the SMC
        #: overlap set.  V-ISA instructions are 4-byte words, so a store
        #: overlaps the fragment iff one of its touched word addresses
        #: is in here.  Chaining patches rewrite iops/targets but never
        #: vpcs, so both sets are stable for the fragment's lifetime.
        self.source_vpcs = frozenset(
            instr.vpc for instr in body if instr.vpc is not None)
        #: guest page indexes covered — the cache's ``_by_page`` keys.
        self.source_pages = frozenset(
            vpc >> PAGE_SHIFT for vpc in self.source_vpcs)
        self.base_address = None         # assigned at layout time
        self.byte_size = None
        self.execution_count = 0
        #: body_index -> pei_table row, built once at install time so trap
        #: recovery is a dict probe instead of a linear table scan.
        self.pei_index = {row[0]: row for row in pei_table}
        #: CRC32 of the semantic body fields, stamped by the cache at
        #: install time (None while unstamped / verification is off).
        self.checksum = None
        #: Entry verification is amortised: checked once, then trusted
        #: until an in-place patch resets this flag.
        self.verified = False
        #: jit code — generated by :mod:`repro.vm.jit`, or a traced
        #: run's steps (:mod:`repro.vm.steps`) — managed by
        #: ``FragmentExecutor._jit_for``: the key identifies the executor
        #: the code was built for; ``_jit_failed`` pins fragments whose
        #: build raised so a hot loop doesn't retry every visit.
        self._jit_key = None
        self._jit_code = None
        self._jit_failed = False
        #: per body index, the :class:`~repro.vm.events.Template` a traced
        #: visit built for that instruction (None until the first traced
        #: visit; managed by ``FragmentExecutor.run``)
        self._trace_templates = None

    def invalidate_compiled(self):
        """Drop generated code and trace templates after an in-place
        body patch.

        Chaining patches and corruption recovery rewrite body
        instructions; the generated function (or traced steps) and the
        templates bake the old instructions in, so they must go.  The next visit recompiles
        and the next traced visit rebuilds against the patched body.
        """
        self._jit_code = None
        self._jit_failed = False
        self._trace_templates = None

    def compute_checksum(self):
        """CRC32 over the body's semantic instruction fields.

        Covers every field that changes what the fragment computes —
        including the branch targets that chaining patches rewrite — but
        not layout addresses, so relocation is checksum-neutral.
        """
        crc = 0
        for instr in self.body:
            for field in _CHECKSUM_FIELDS:
                value = getattr(instr, field)
                crc = zlib.crc32(repr(value).encode("ascii", "replace"),
                                 crc)
            crc = zlib.crc32(b"|", crc)
        return crc

    def entry_address(self):
        """Translation-cache address of the fragment's first instruction."""
        if self.base_address is None:
            raise RuntimeError("fragment has not been laid out")
        return self.base_address

    def instruction_count(self):
        return len(self.body)

    def copy_instruction_count(self):
        """Copies as counted by Table 2 (copy-to-GPR + copy-from-GPR)."""
        return sum(1 for instr in self.body if instr.is_copy())

    def __repr__(self):
        return (f"Fragment(f{self.fid}, V:{self.entry_vpc:#x}, "
                f"{self.fmt.value}, {len(self.body)} instrs)")
