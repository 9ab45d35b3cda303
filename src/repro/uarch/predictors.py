"""Branch prediction models (Table 1).

* 16K-entry g-share with 12-bit global history, 2-bit counters;
* 512-entry 4-way set-associative BTB for taken/indirect targets;
* 8-entry conventional return address stack — usable only by code whose
  return instructions are architecturally visible (the original Alpha
  binary), which is exactly the paper's point about trace-based DBT;
* the dual-address RAS of Section 3.2, whose per-return outcome the
  functional executor already recorded in the trace (``ras_hit``).

``BranchUnit.process(pc, btype, taken, target, ras_hit)`` returns
whether one control transfer — a trace row's fetch address, branch type
and dynamic outcome — mispredicted, and is shared by the Fig. 4 counting
experiment and all four timing models.
"""

from repro.uarch.config import (
    BTB_ASSOC,
    BTB_ENTRIES,
    GSHARE_ENTRIES,
    GSHARE_HISTORY,
    RAS_DEPTH,
)


class GShare:
    """G-share direction predictor with 2-bit saturating counters."""

    def __init__(self, entries=GSHARE_ENTRIES, history_bits=GSHARE_HISTORY):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self._mask = entries - 1
        self._history_mask = (1 << history_bits) - 1
        self._table = [2] * entries  # weakly taken
        self._history = 0

    def _index(self, pc):
        return ((pc >> 2) ^ self._history) & self._mask

    def predict(self, pc):
        return self._table[self._index(pc)] >= 2

    def update(self, pc, taken):
        index = self._index(pc)
        counter = self._table[index]
        if taken:
            self._table[index] = min(counter + 1, 3)
        else:
            self._table[index] = max(counter - 1, 0)
        self._history = ((self._history << 1) | (1 if taken else 0)) \
            & self._history_mask


class BranchTargetBuffer:
    """Set-associative BTB with LRU replacement."""

    def __init__(self, entries=BTB_ENTRIES, assoc=BTB_ASSOC):
        self._sets = entries // assoc
        self.assoc = assoc
        self._ways = [dict() for _ in range(self._sets)]

    def _set_for(self, pc):
        return self._ways[(pc >> 2) % self._sets]

    def lookup(self, pc):
        ways = self._set_for(pc)
        target = ways.get(pc)
        if target is not None:
            # refresh LRU position
            del ways[pc]
            ways[pc] = target
        return target

    def update(self, pc, target):
        ways = self._set_for(pc)
        if pc in ways:
            del ways[pc]
        elif len(ways) >= self.assoc:
            oldest = next(iter(ways))
            del ways[oldest]
        ways[pc] = target


class ReturnAddressStack:
    """Conventional 8-entry hardware RAS."""

    def __init__(self, depth=RAS_DEPTH):
        self.depth = depth
        self._stack = []

    def push(self, address):
        self._stack.append(address)
        if len(self._stack) > self.depth:
            self._stack.pop(0)

    def pop(self):
        if self._stack:
            return self._stack.pop()
        return None


class BranchStats:
    """Misprediction accounting for Fig. 4."""

    def __init__(self):
        self.instructions = 0
        self.cond_mispredictions = 0
        self.target_mispredictions = 0
        self.ras_mispredictions = 0
        self.btb_misfetches = 0

    @property
    def mispredictions(self):
        return (self.cond_mispredictions + self.target_mispredictions
                + self.ras_mispredictions)

    def per_kilo_instructions(self):
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.mispredictions / self.instructions


class BranchUnit:
    """The front-end prediction stack, driven by trace rows."""

    def __init__(self, use_conventional_ras=True):
        self.gshare = GShare(GSHARE_ENTRIES, GSHARE_HISTORY)
        self.btb = BranchTargetBuffer(BTB_ENTRIES, BTB_ASSOC)
        self.ras = ReturnAddressStack(RAS_DEPTH)
        self.use_ras = use_conventional_ras
        self.stats = BranchStats()

    def note_instruction(self, count=1):
        """Count executed instructions for the per-1,000 normalisation."""
        self.stats.instructions += count

    def process(self, pc, btype, taken, target, ras_hit):
        """Predict one control transfer; returns True on misprediction.

        ``pc`` is the transfer's fetch address and ``btype`` its branch
        type (None for a non-control row, which never mispredicts);
        ``taken``, ``target`` and ``ras_hit`` are the trace row's
        dynamic fields.  BTB misses on taken direct branches are
        misfetches, not mispredictions: they are only counted, in
        ``stats.btb_misfetches``, so no timing model charges Table 1's
        3-cycle misfetch redirect.
        """
        if btype is None:
            return False
        stats = self.stats

        if btype == "cond":
            predicted = self.gshare.predict(pc)
            self.gshare.update(pc, taken)
            if taken:
                if self.btb.lookup(pc) is None:
                    stats.btb_misfetches += 1
                self.btb.update(pc, target)
            if predicted != taken:
                stats.cond_mispredictions += 1
                return True
            return False

        if btype == "uncond":
            if self.btb.lookup(pc) is None:
                stats.btb_misfetches += 1
            self.btb.update(pc, target)
            return False

        if btype == "call":
            # direct call: push the conventional RAS, target is static
            self.ras.push(pc + 4)
            if self.btb.lookup(pc) is None:
                stats.btb_misfetches += 1
            self.btb.update(pc, target)
            return False

        if btype == "call_ind":
            self.ras.push(pc + 4)
            predicted = self.btb.lookup(pc)
            self.btb.update(pc, target)
            if predicted != target:
                stats.target_mispredictions += 1
                return True
            return False

        if btype == "ret":
            if ras_hit is not None:
                # dual-address RAS outcome decided by the executor
                if not ras_hit:
                    stats.ras_mispredictions += 1
                    return True
                return False
            if not self.use_ras:
                # no RAS: returns fall back to the BTB like any indirect
                predicted = self.btb.lookup(pc)
                self.btb.update(pc, target)
                if predicted != target:
                    stats.ras_mispredictions += 1
                    return True
                return False
            predicted = self.ras.pop()
            if predicted != target:
                stats.ras_mispredictions += 1
                return True
            return False

        if btype == "indirect":
            predicted = self.btb.lookup(pc)
            self.btb.update(pc, target)
            if predicted != target:
                stats.target_mispredictions += 1
                return True
            return False

        raise ValueError(f"unknown branch type {btype!r}")
