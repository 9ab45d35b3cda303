"""Trace-driven timing model of the reference out-of-order superscalar.

Table 1, left column: 4-wide fetch/decode/retire, a 128-entry reorder
buffer doubling as the issue window, four fully symmetric functional
units, oldest-first issue, no communication latency.  The paper calls this
model "rather idealistic" (Section 4.5) — it is intentionally generous,
exactly like the SimpleScalar configuration it stands in for.

:meth:`SuperscalarModel.run` is one loop over the trace, with the machine
in local variables.  It calls out only to the I-cache on a fetch-line
change, to :meth:`MemoryHierarchy.latency` (the latency rule all four
timing models share) on every row and to :meth:`BranchUnit.process` on
control rows.  As in all four models, misfetches are counted, not charged.
"""

import heapq
from collections import deque

from repro.uarch.cache import MemoryHierarchy
from repro.uarch.config import (
    ICACHE,
    N_FUNCTIONAL_UNITS,
    PIPELINE_DEPTH,
    REDIRECT_LATENCY,
    ROB_SIZE,
    WIDTH,
)
from repro.uarch.predictors import BranchUnit


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

    def run(self, trace):
        """Consume a :class:`~repro.vm.events.Trace`; returns the
        :class:`TimingResult`."""
        ifetch = self.hierarchy.ifetch
        latency = self.hierarchy.latency
        process = self.branch_unit.process
        perfect_prediction = self.config.perfect_prediction
        line_bytes = ICACHE.line
        heapreplace = heapq.heapreplace

        fetch_cycle = 0          # when the next row leaves fetch
        group_used = 0           # rows in the current fetch group
        last_line = None         # I-cache line of the last fetch
        rob = deque()            # retire cycles of in-flight rows
        rob_popleft = rob.popleft
        rob_append = rob.append
        retire_cycle = 0         # the last row's retire cycle
        retired = 0              # rows retiring in ``retire_cycle``
        reg_ready = {}           # GPR -> completion of its last producer
        mem_ready = {}           # 8-byte block -> completion of last store
        fu_free = [0] * N_FUNCTIONAL_UNITS   # a heap of free cycles
        v_instructions = 0

        for block in trace.blocks:
            for template, taken, target, mem_addr, ras_hit in zip(*block):
                (address, _size, op_class, srcs, dst, _acc, _acc_read,
                 _acc_write, _strand_start, btype, v_weight,
                 _dispatch) = template
                v_instructions += v_weight

                # fetch
                if group_used >= WIDTH:
                    fetch_cycle += 1
                    group_used = 0
                line = address // line_bytes
                if line != last_line:
                    last_line = line
                    extra = ifetch(address)
                    if extra:
                        fetch_cycle += extra
                        group_used = 0
                group_used += 1

                # dispatch once a ROB slot is free
                dispatch = fetch_cycle + PIPELINE_DEPTH
                while rob and rob[0] <= dispatch:
                    rob_popleft()
                if len(rob) >= ROB_SIZE:
                    dispatch = rob[0]
                    while rob and rob[0] <= dispatch:
                        rob_popleft()

                # issue when the operands and a functional unit are ready
                ready = dispatch
                for src in srcs:
                    when = reg_ready.get(src)
                    if when is not None and when > ready:
                        ready = when
                if op_class == "load" and mem_addr is not None:
                    when = mem_ready.get(mem_addr >> 3)
                    if when is not None and when > ready:
                        ready = when  # wait for the conflicting store
                start = fu_free[0]      # the first free unit
                if ready > start:
                    start = ready
                heapreplace(fu_free, start + 1)  # fully pipelined

                complete = start + latency(op_class, mem_addr, address)
                if dst is not None:
                    reg_ready[dst] = complete
                if op_class == "store" and mem_addr is not None:
                    mem_ready[mem_addr >> 3] = complete

                # retire in order, WIDTH per cycle
                if complete + 1 > retire_cycle:
                    retire_cycle = complete + 1
                    retired = 0
                elif retired >= WIDTH:
                    retire_cycle += 1
                    retired = 0
                retired += 1
                rob_append(retire_cycle)

                if btype is not None:
                    # the predictors train even under perfect_prediction
                    if process(address, btype, taken, target, ras_hit) \
                            and not perfect_prediction:
                        fetch_cycle = max(fetch_cycle,
                                          complete + REDIRECT_LATENCY)
                        group_used = 0
                        last_line = None
                    elif taken:
                        # a taken transfer ends the fetch group
                        fetch_cycle += 1
                        group_used = 0

        self.branch_unit.note_instruction(v_instructions)
        return TimingResult(retire_cycle, len(trace), v_instructions,
                            self.branch_unit.stats, self.config.name)
