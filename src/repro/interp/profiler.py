"""MRET hotness profiling (Section 3.1 of the paper).

During interpretation, counters are kept for *trace start candidates*:

* targets of register-indirect jumps (JMP/JSR/RET),
* targets of backward taken conditional branches,
* exit targets of existing fragments.

When a candidate's counter reaches the threshold, the interpreted path that
follows is collected as a superblock ("most recently executed tail").

This profiler decides *translation*.  Compilation to generated code
needs no policy of its own: the jit engine compiles a fragment the first
time it is entered (``FragmentExecutor.run``).
"""

import enum


class CandidateKind(enum.Enum):
    """Why a V-PC became a trace start candidate."""

    INDIRECT_TARGET = "indirect_target"
    BACKWARD_BRANCH_TARGET = "backward_branch_target"
    FRAGMENT_EXIT = "fragment_exit"


class HotnessProfiler:
    """Counts executions of trace-start candidate instructions."""

    def __init__(self, threshold=50):
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        self.threshold = threshold
        self._counters = {}
        self._kinds = {}
        #: per-V-PC threshold overrides, doubled on each translation
        #: failure (visit-count backoff — a failing PC must get twice as
        #: hot before the translator is retried)
        self._thresholds = {}
        #: V-PCs whose translation failed too often: interpreted forever.
        self._blacklist = set()

    def note_candidate(self, vpc, kind):
        """Register ``vpc`` as a candidate (idempotent; keeps first kind).

        Blacklisted V-PCs are never re-registered — they stay on the
        interpreted path for the rest of the run.
        """
        if vpc not in self._kinds and vpc not in self._blacklist:
            self._kinds[vpc] = kind
            self._counters[vpc] = 0

    def is_candidate(self, vpc):
        return vpc in self._counters

    def candidate_kind(self, vpc):
        return self._kinds.get(vpc)

    def record_execution(self, vpc):
        """Bump the counter for ``vpc``; returns True when it becomes hot."""
        count = self._counters.get(vpc)
        if count is None:
            return False
        count += 1
        self._counters[vpc] = count
        return count == self._thresholds.get(vpc, self.threshold)

    def is_hot(self, vpc):
        """True when the counter has reached the threshold."""
        return self._counters.get(vpc, 0) >= \
            self._thresholds.get(vpc, self.threshold)

    def reset(self, vpc):
        """Reset a counter (used after the candidate has been translated)."""
        self._counters[vpc] = 0

    def backoff(self, vpc):
        """Visit-count backoff after a failed translation of ``vpc``.

        Resets the counter and doubles the effective threshold, so each
        retry requires twice the interpreted visits before the
        translator is consulted again.  Returns the new threshold.
        """
        doubled = self._thresholds.get(vpc, self.threshold) * 2
        self._thresholds[vpc] = doubled
        self._counters[vpc] = 0
        return doubled

    def blacklist(self, vpc):
        """Permanently bar ``vpc`` from translation (interpret forever)."""
        self._blacklist.add(vpc)
        self._counters.pop(vpc, None)
        self._kinds.pop(vpc, None)
        self._thresholds.pop(vpc, None)

    def blacklisted_count(self):
        """How many V-PCs have been blacklisted this run."""
        return len(self._blacklist)

    def candidate_count(self):
        """Number of candidate counters in use (paper §4.1 discusses this)."""
        return len(self._counters)
