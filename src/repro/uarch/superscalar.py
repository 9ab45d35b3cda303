"""Trace-driven timing model of the reference out-of-order superscalar.

Table 1, left column: 4-wide fetch/decode/retire, a 128-entry reorder
buffer doubling as the issue window, four fully symmetric functional
units, oldest-first issue, no communication latency.  The paper calls this
model "rather idealistic" (Section 4.5) — it is intentionally generous,
exactly like the SimpleScalar configuration it stands in for.
"""

import heapq

from repro.uarch.cache import MemoryHierarchy
from repro.uarch.config import (
    N_FUNCTIONAL_UNITS,
    PIPELINE_DEPTH,
    ROB_SIZE,
    WIDTH,
)
from repro.uarch.frontend import FrontEnd
from repro.uarch.predictors import BranchUnit
from repro.uarch.retire import RetireUnit


class TimingResult:
    """Cycles plus the derived IPC numbers for one trace run."""

    def __init__(self, cycles, instructions, v_instructions, branch_stats,
                 machine_name):
        self.cycles = max(cycles, 1)
        self.instructions = instructions
        self.v_instructions = v_instructions
        self.branch_stats = branch_stats
        self.machine_name = machine_name

    @property
    def ipc(self):
        """V-ISA instructions per cycle (the paper's headline metric)."""
        return self.v_instructions / self.cycles

    @property
    def native_ipc(self):
        """Machine instructions per cycle (Fig. 8's last bar)."""
        return self.instructions / self.cycles

    def __repr__(self):
        return (f"TimingResult({self.machine_name}, {self.cycles} cycles, "
                f"IPC={self.ipc:.3f})")


class SuperscalarModel:
    """One-pass trace-driven OoO timing model."""

    def __init__(self, config):
        self.config = config
        self.hierarchy = MemoryHierarchy(config)
        self.branch_unit = BranchUnit(config.use_conventional_ras)
        self.frontend = FrontEnd(config, self.hierarchy, self.branch_unit)
        self.retire_unit = RetireUnit(ROB_SIZE, WIDTH)
        self._reg_ready = {}
        self._fu_free = [0] * N_FUNCTIONAL_UNITS
        heapq.heapify(self._fu_free)
        #: 8-byte block -> completion cycle of the last store to it
        #: (store-to-load dependences forward at the store's completion)
        self._mem_ready = {}
        self._instructions = 0
        self._v_instructions = 0

    def run(self, trace):
        """Consume a :class:`~repro.vm.events.Trace`; returns the
        :class:`TimingResult`."""
        step = self.step
        for template, taken, target, mem_addr, ras_hit in trace:
            step(template, taken, target, mem_addr, ras_hit)
        return self.result()

    def step(self, template, taken, target, mem_addr, ras_hit):
        """Time one trace row: its template plus its dynamic fields."""
        (address, _size, op_class, srcs, dst, _acc, _acc_read, _acc_write,
         _strand_start, btype, v_weight, _dispatch) = template
        frontend = self.frontend
        self._instructions += 1
        self._v_instructions += v_weight
        self.branch_unit.note_instruction(v_weight)

        fetch = frontend.fetch(address)
        dispatch = fetch + PIPELINE_DEPTH
        dispatch = self.retire_unit.admit(dispatch)

        ready = dispatch
        for src in srcs:
            when = self._reg_ready.get(src)
            if when is not None and when > ready:
                ready = when
        block = None
        if mem_addr is not None:
            block = mem_addr >> 3
            if op_class == "load":
                when = self._mem_ready.get(block)
                if when is not None and when > ready:
                    ready = when  # wait for the conflicting store

        fu_free = heapq.heappop(self._fu_free)
        start = max(ready, fu_free)
        heapq.heappush(self._fu_free, start + 1)  # fully pipelined

        complete = start + self.hierarchy.latency(op_class, mem_addr,
                                                  address)
        if dst is not None:
            self._reg_ready[dst] = complete
        if block is not None and op_class == "store":
            self._mem_ready[block] = complete
        self.retire_unit.retire(complete)

        if btype is not None:
            frontend.resolve_control(address, btype, taken, target, ras_hit,
                                     complete)

    def result(self):
        return TimingResult(self.retire_unit.last_retire,
                            self._instructions, self._v_instructions,
                            self.branch_unit.stats, self.config.name)
