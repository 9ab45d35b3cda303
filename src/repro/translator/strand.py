"""Strand formation and accumulator assignment (paper Section 3.3).

This pass walks the RTL nodes in program order — crucially, it never
reorders them ("our DBT system ... does not re-schedule code") — and decides
for every node:

* which strand (and therefore accumulator) it belongs to,
* where each of its operands comes from: the strand accumulator, a GPR, or
  an immediate,
* whether a ``copy-from-GPR`` must precede it (strand start with two global
  inputs, or resumption after a premature strand termination).

The paper's rules, implemented here:

* **zero local inputs** — start a new strand; with two distinct global
  register inputs, a ``copy-from-GPR`` initiates the strand and the
  instruction consumes the copy as its local input;
* **one local input** — join the producing strand;
* **two local inputs** — join the temp producer's strand if one input is a
  temp, otherwise the longer strand; the other input is converted to a
  *spill global*;
* stores and conditional branches may *tap* one accumulator (they produce
  nothing); indirect jumps and PAL operations read GPRs;
* when the accumulator file is exhausted, a live strand is terminated: its
  value is spilled and any continuation resumes through a copy-from-GPR.
"""

import math

from repro.translator.allocate import AccumulatorFile, Strand
from repro.translator.decompose import NodeKind


class TranslationError(RuntimeError):
    """The translator cannot produce a fragment for a superblock.

    Strand formation, the copy rules and code generation raise it, and so
    does the injected ``translate`` fault, all before the translation
    cache is touched.  The VM degrades gracefully: the superblock's entry
    PC falls back to interpretation, with retry/backoff and eventual
    blacklisting (``docs/robustness.md``).
    """


class StrandResult:
    """Output of strand formation for one superblock."""

    def __init__(self, nodes, n_accumulators):
        self.nodes = nodes
        self.n_accumulators = n_accumulators
        self.strands = []
        #: per node: strand id (producing nodes and taps) or None
        self.node_strand = [None] * len(nodes)
        #: per node: {slot: ("acc",) | ("gpr", reg) | ("imm", value)}
        self.resolutions = [dict() for _ in nodes]
        #: per node: GPR to copy into the accumulator first, or None
        self.copy_from_before = [None] * len(nodes)
        #: vid -> accumulator the value was produced into
        self.value_acc = {}
        #: vid -> first node index at which the value is no longer
        #: guaranteed to be in its accumulator (math.inf = to block end)
        self.acc_valid_until = {}
        self.premature_terminations = 0

    def strand(self, sid):
        return self.strands[sid]

    def node_acc(self, node_index):
        """Accumulator used by the node, or None."""
        sid = self.node_strand[node_index]
        return None if sid is None else self.strands[sid].acc


def form_strands(nodes, usage, n_accumulators=4):
    """Run the combined strand-formation / accumulator-assignment pass."""
    result = StrandResult(nodes, n_accumulators)
    accfile = AccumulatorFile(n_accumulators)
    values = usage.values
    strand_of_value = {}

    def on_release(strand, node_index, premature):
        holder_vid = strand.holder_vid
        if holder_vid is None:
            return
        holder = values[holder_vid]
        result.acc_valid_until[holder_vid] = node_index
        if premature:
            if holder.reg is None:  # pragma: no cover - victims are screened
                raise TranslationError("cannot spill a temp value")
            holder.spilled = True

    def new_strand(node, copy_from_reg=None):
        acc = accfile.acquire(node.index, values, on_release)
        strand = Strand(len(result.strands), acc, node.index,
                        copy_from_reg=copy_from_reg)
        result.strands.append(strand)
        accfile.install(strand)
        return strand

    for node in nodes:
        taps_acc = node.kind in (NodeKind.STORE, NodeKind.BRANCH)
        resolutions = result.resolutions[node.index]
        linkable = []
        for slot, resolution in usage.node_inputs[node.index].items():
            if resolution[0] == "livein":
                resolutions[slot] = ("gpr", resolution[1])
                continue
            value = values[resolution[1]]
            strand = strand_of_value.get(value.vid)
            can_link = (
                (node.produces_value() or taps_acc)
                and strand is not None
                and strand.active
                and strand.holder_vid == value.vid
                and len(value.uses) == 1
                and not value.spilled
                and not value.via_link
            )
            if can_link:
                linkable.append((slot, value, strand))
            else:
                _resolve_via_gpr(value, resolutions, slot)

        if node.produces_value():
            strand = _attach_producer(node, linkable, resolutions,
                                      new_strand, result, values)
            vid = usage.producer_of[node.index].vid
            strand.holder_vid = vid
            strand.last_access = node.index
            if node.index not in strand.nodes:
                strand.nodes.append(node.index)
            strand_of_value[vid] = strand
            result.value_acc[vid] = strand.acc
            result.node_strand[node.index] = strand.sid
        elif linkable:
            _attach_tap(node, linkable, resolutions, result, values)
        elif node.kind is NodeKind.STORE:
            _fix_two_gpr_store(node, resolutions, new_strand, result)

    # values never displaced from their accumulator stay to block end
    for vid in result.value_acc:
        result.acc_valid_until.setdefault(vid, math.inf)
    result.premature_terminations = accfile.premature_terminations
    return result


def _resolve_via_gpr(value, resolutions, slot):
    """Read an in-block value from a GPR, spilling it there if needed."""
    if value.reg is None:
        raise TranslationError("temp value cannot be read through a GPR")
    if not value.needs_gpr() and not value.via_link:
        value.spilled = True  # spill-global conversion (Section 3.3)
    value.gpr_read = True
    resolutions[slot] = ("gpr", value.reg)


def _attach_producer(node, linkable, resolutions, new_strand, result,
                     values):
    """Assign a producing node to a strand per the paper's three rules."""
    if not linkable:
        copy_reg = _two_global_copy(node, resolutions)
        strand = new_strand(node, copy_from_reg=copy_reg)
        result.copy_from_before[node.index] = copy_reg
        return strand

    if len(linkable) == 1:
        slot, value, strand = linkable[0]
    else:
        slot, value, strand = _choose_join(linkable, values)
        for other_slot, other_value, _other in linkable:
            if other_slot != slot:
                _resolve_via_gpr(other_value, resolutions, other_slot)
    resolutions[slot] = ("acc",)
    # the join overwrites the accumulator: the old value is visible up to
    # and including this node (a trap here happens before write-back)
    result.acc_valid_until[value.vid] = node.index + 1
    return strand


def _choose_join(linkable, values):
    """Two local inputs: pick which strand the instruction joins.

    Temp producers win (the paper's rule).  Otherwise, prefer joining a
    value that does NOT already need a GPR copy: the other input is then
    read through the GPR it is being copied to anyway, so no extra spill is
    emitted (this is what Fig. 2c does for ``xor r3, r1, r1``).  Among pure
    locals, the longer strand wins (the paper's tie-break).
    """
    for entry in linkable:
        if entry[1].is_temp:
            return entry
    pure_local = [entry for entry in linkable if not entry[1].needs_gpr()]
    candidates = pure_local if pure_local else linkable
    return max(candidates, key=lambda entry: len(entry[2].nodes))


def _two_global_copy(node, resolutions):
    """ALU node with two distinct global register inputs: one is read
    through a copy-from-GPR that initiates the strand (Section 3.3)."""
    if node.kind is not NodeKind.ALU:
        return None
    res_a = resolutions.get("src_a")
    res_b = resolutions.get("src_b")
    if res_a is None or res_b is None:
        return None
    if res_a[0] == "gpr" and res_b[0] == "gpr" and res_a[1] != res_b[1]:
        resolutions["src_a"] = ("acc",)
        return res_a[1]
    return None


def _fix_two_gpr_store(node, resolutions, new_strand, result):
    """A store whose address and data are two distinct global registers
    cannot be encoded (one GPR per instruction): split it by copying the
    data value into an accumulator first."""
    res_addr = resolutions.get("addr")
    res_data = resolutions.get("data")
    if res_addr is None or res_data is None:
        return
    if res_addr[0] != "gpr" or res_data[0] != "gpr":
        return
    if res_addr[1] == res_data[1]:
        return
    strand = new_strand(node, copy_from_reg=res_data[1])
    result.copy_from_before[node.index] = res_data[1]
    resolutions["data"] = ("acc",)
    result.node_strand[node.index] = strand.sid


def _attach_tap(node, linkable, resolutions, result, values):
    """Stores and branches may read one accumulator without producing."""
    chosen = linkable[0]
    if len(linkable) > 1:
        # prefer tapping the address temp (store with both operands local),
        # else tap the value that would otherwise need a fresh spill
        for entry in linkable:
            if entry[1].is_temp:
                chosen = entry
                break
        else:
            for entry in linkable:
                if not entry[1].needs_gpr():
                    chosen = entry
                    break
        for other_slot, other_value, _other in linkable:
            if other_slot != chosen[0]:
                _resolve_via_gpr(other_value, resolutions, other_slot)
    slot, _value, strand = chosen
    resolutions[slot] = ("acc",)
    strand.last_access = node.index
    result.node_strand[node.index] = strand.sid
