"""The finite accumulator file used during strand assignment.

The translator forms strands with unlimited strand numbers and maps them
onto the machine's accumulators with a simple linear-scan discipline
(Section 3.3, "Accumulator assignment").  When no accumulator is free, a
live strand is terminated: its current value is spilled to a GPR and any
continuation is resumed later through a copy-from-GPR.
"""


class Strand:
    """A chain of dependent instructions sharing one accumulator."""

    __slots__ = ("sid", "acc", "start", "nodes", "holder_vid", "last_access",
                 "active", "copy_from_reg", "terminated_at", "premature")

    def __init__(self, sid, acc, start, copy_from_reg=None):
        self.sid = sid
        self.acc = acc
        self.start = start
        self.nodes = [start]
        self.holder_vid = None
        self.last_access = start
        self.active = True
        #: GPR copied into the accumulator to begin the strand (two-global
        #: -input decomposition or a spill-resumption point), or None.
        self.copy_from_reg = copy_from_reg
        self.terminated_at = None
        #: True when the allocator had to terminate this strand to free its
        #: accumulator (the paper notes this is rare with 4 accumulators).
        self.premature = False

    def __repr__(self):
        return (f"Strand(s{self.sid}, A{self.acc}, "
                f"nodes={self.nodes}, active={self.active})")


class AccumulatorFile:
    """Free-list management with dead-strand reclamation and LRU spill."""

    def __init__(self, count):
        if count < 1:
            raise ValueError("need at least one accumulator")
        self.count = count
        self._free = list(range(count))
        self._active = {}  # acc -> Strand
        self.premature_terminations = 0

    def acquire(self, node_index, values, on_release):
        """Return a free accumulator index for a strand starting at
        ``node_index``.

        ``values`` is the ValueInfo list (to judge strand liveness);
        ``on_release`` is called with (strand, node_index, premature) for
        every strand whose accumulator is taken away.
        """
        if self._free:
            return self._free.pop()

        # Reclaim strands whose held value can never be linked again.
        for acc, strand in list(self._active.items()):
            if not _strand_live(strand, node_index, values):
                strand.active = False
                strand.terminated_at = node_index
                on_release(strand, node_index, False)
                del self._active[acc]
                self._free.append(acc)
        if self._free:
            return self._free.pop()

        victim = self._choose_victim(values)
        victim.active = False
        victim.terminated_at = node_index
        victim.premature = True
        self.premature_terminations += 1
        on_release(victim, node_index, True)
        del self._active[victim.acc]
        return victim.acc

    def _choose_victim(self, values):
        # LRU among strands whose held value can be spilled to a GPR
        # (temps have no architected home and must stay put).
        candidates = []
        for strand in self._active.values():
            holder = values[strand.holder_vid] if strand.holder_vid is not \
                None else None
            if holder is None or holder.reg is not None:
                candidates.append(strand)
        if not candidates:  # pragma: no cover - temps are consumed instantly
            raise RuntimeError("all accumulators pinned by temps")
        return min(candidates, key=lambda s: s.last_access)

    def install(self, strand):
        """Record ``strand`` as the owner of its accumulator."""
        self._active[strand.acc] = strand


def _strand_live(strand, node_index, values):
    """A strand is live while its held value has a pending accumulator use."""
    if strand.holder_vid is None:
        return False
    holder = values[strand.holder_vid]
    if holder.spilled or holder.via_link:
        return False
    return len(holder.uses) == 1 and holder.uses[0] >= node_index
