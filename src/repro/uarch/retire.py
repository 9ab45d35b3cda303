"""In-order retirement with bounded bandwidth and ROB occupancy.

Shared by both timing models: a 128-entry reorder buffer committing up to
4 instructions per cycle in program order (Table 1).
"""

from collections import deque

from repro.uarch.config import ROB_SIZE, WIDTH


class RetireUnit:
    """Models the ROB tail."""

    def __init__(self, rob_size=ROB_SIZE, bandwidth=WIDTH):
        self.rob_size = rob_size
        self.bandwidth = bandwidth
        self._rob = deque()          # retire cycles of in-flight entries
        self._retire_cycle = 0
        self._retired_this_cycle = 0
        self.last_retire = 0

    def admit(self, dispatch_cycle):
        """Reserve a ROB slot; returns the (possibly delayed) dispatch cycle
        once space exists."""
        rob = self._rob
        while rob and rob[0] <= dispatch_cycle:
            rob.popleft()
        if len(rob) >= self.rob_size:
            dispatch_cycle = rob[0]
            while rob and rob[0] <= dispatch_cycle:
                rob.popleft()
        return dispatch_cycle

    def retire(self, complete_cycle):
        """Retire in order after completion; returns the retire cycle."""
        cycle = max(complete_cycle + 1, self._retire_cycle)
        if cycle == self._retire_cycle:
            if self._retired_this_cycle >= self.bandwidth:
                cycle += 1
                self._retired_this_cycle = 0
        else:
            self._retired_this_cycle = 0
        self._retire_cycle = cycle
        self._retired_this_cycle += 1
        self._rob.append(cycle)
        self.last_retire = max(self.last_retire, cycle)
        return cycle
