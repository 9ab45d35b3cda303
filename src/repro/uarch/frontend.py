"""The shared fetch/decode front end of both fast timing models.

Models 4-wide fetch with I-cache line behaviour, fetch-group breaks on
taken control transfers, and the 3-cycle redirect after a misprediction
(Table 1).  Table 1 also charges that redirect for a misfetch, a taken
branch missing in the BTB; this front end does not.  Misfetches are
counted (``BranchStats.btb_misfetches``) but cost no cycles, in all four
timing models.
"""

from repro.uarch.config import ICACHE, REDIRECT_LATENCY, WIDTH


class FrontEnd:
    """Tracks the cycle at which each instruction leaves fetch."""

    def __init__(self, config, hierarchy, branch_unit):
        self.config = config
        self.hierarchy = hierarchy
        self.branch_unit = branch_unit
        self.cycle = 0
        self._group_used = 0
        self._last_line = None

    def fetch(self, address):
        """Advance the front end past the instruction at ``address``;
        returns its fetch cycle."""
        if self._group_used >= WIDTH:
            self.cycle += 1
            self._group_used = 0
        line = address // ICACHE.line
        if line != self._last_line:
            self._last_line = line
            extra = self.hierarchy.ifetch(address)
            if extra:
                self.cycle += extra
                self._group_used = 0
        self._group_used += 1
        return self.cycle

    def resolve_control(self, address, btype, taken, target, ras_hit,
                        complete_cycle):
        """Apply one control transfer's effect on the fetch stream.

        The transfer is a trace row's fetch address, branch type and
        dynamic fields (see :meth:`BranchUnit.process`).  Returns True
        when it mispredicted (the caller charges the execution-side
        resolution; fetch resumes :data:`REDIRECT_LATENCY` cycles after
        ``complete_cycle``).
        """
        mispredicted = self.branch_unit.process(address, btype, taken,
                                                target, ras_hit)
        if self.config.perfect_prediction:
            # oracle front end: predictors still train (for statistics),
            # but no penalty is ever charged
            if taken:
                self.cycle += 1
                self._group_used = 0
            return False
        if mispredicted:
            self.cycle = max(self.cycle, complete_cycle + REDIRECT_LATENCY)
            self._group_used = 0
            self._last_line = None
            return True
        if taken:
            # correctly predicted taken transfer still ends the fetch group
            self.cycle += 1
            self._group_used = 0
        return False
