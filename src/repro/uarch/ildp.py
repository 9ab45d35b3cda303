"""Trace-driven timing model of the ILDP distributed microarchitecture.

Table 1, right column, and Section 1.1 of the paper: a pipelined 4-wide
front end steers instructions by accumulator number into 4/6/8 parallel
in-order issue FIFOs (one per processing element).  Each PE issues one
instruction per cycle from its FIFO head when operands are ready:

* the accumulator operand comes from the previous instruction of the same
  strand, which lives in the same PE (zero-latency forwarding);
* GPR operands produced in *another* PE incur the global communication
  latency (0 or 2 cycles in the paper's experiments);
* L1 data caches are replicated across PEs (same latency, fewer ports —
  the model charges the same 2-cycle hit latency to both machines, as the
  paper does).

A shared 128-entry reorder buffer retires 4 instructions per cycle.

:meth:`ILDPModel.run` is one loop over the trace; its fetch, reorder
buffer and calls out are those of :mod:`repro.uarch.superscalar`.
"""

from collections import deque

from repro.uarch.cache import MemoryHierarchy
from repro.uarch.config import (
    FIFO_DEPTH,
    ICACHE,
    PIPELINE_DEPTH,
    REDIRECT_LATENCY,
    ROB_SIZE,
    WIDTH,
)
from repro.uarch.predictors import BranchUnit
from repro.uarch.superscalar import TimingResult


class ILDPModel:
    """One-pass trace-driven model of the PE-FIFO machine."""

    def __init__(self, config):
        if config.pe_count is None:
            raise ValueError("ILDPModel needs a config with pe_count set")
        self.config = config
        self.hierarchy = MemoryHierarchy(config)
        self.branch_unit = BranchUnit(config.use_conventional_ras)

    def run(self, trace):
        """Consume a :class:`~repro.vm.events.Trace`; returns the
        :class:`TimingResult`.

        Steering follows the ISCA 2002 microarchitecture: a strand start
        picks a PE and renames its accumulator to it until the strand
        ends, and the strand's later instructions follow the accumulator.
        Under ``dependence`` steering a strand start prefers the PE that
        produced its latest-arriving GPR input (no communication latency)
        unless that FIFO is congested; otherwise, and for GPR-only
        instructions, it takes the least-loaded PE.  ``modulo`` steering
        places accumulator ``a`` in PE ``a % pe_count``, without renaming.
        """
        config = self.config
        ifetch = self.hierarchy.ifetch
        latency = self.hierarchy.latency
        process = self.branch_unit.process
        perfect_prediction = config.perfect_prediction
        comm_latency = config.comm_latency
        pe_count = config.pe_count
        modulo = config.steering == "modulo"
        dependence = config.steering == "dependence"
        line_bytes = ICACHE.line

        fetch_cycle = 0          # when the next row leaves fetch
        group_used = 0           # rows in the current fetch group
        last_line = None         # I-cache line of the last fetch
        rob = deque()            # retire cycles of in-flight rows
        rob_popleft = rob.popleft
        rob_append = rob.append
        retire_cycle = 0         # the last row's retire cycle
        retired = 0              # rows retiring in ``retire_cycle``
        fifos = [deque() for _ in range(pe_count)]   # issue cycles
        # Each PE's load, ``(len(fifo), last issue cycle, pe)``.  Only the
        # PE a row issues in changes its FIFO or its last issue, so a row
        # refreshes just that key, and ``min(loads)[2]`` is the
        # least-loaded PE, the lowest index among equals.
        loads = [(0, 0, pe) for pe in range(pe_count)]
        reg_ready = {}           # GPR -> (ready cycle, producing PE)
        acc_ready = {}           # accumulator -> ready cycle
        acc_pe = {}              # accumulator -> PE of its strand
        mem_ready = {}           # 8-byte block -> completion of last store
        v_instructions = 0

        for block in trace.blocks:
            for template, taken, target, mem_addr, ras_hit in zip(*block):
                (address, _size, op_class, srcs, dst, acc, acc_read,
                 acc_write, strand_start, btype, v_weight,
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

                # steer
                pe = None
                if modulo:
                    if acc is not None:
                        pe = acc % pe_count
                elif acc is not None and not strand_start:
                    pe = acc_pe.get(acc)
                if pe is None:
                    # a strand start or a GPR-only instruction
                    if dependence:
                        best = None
                        for src in srcs:
                            entry = reg_ready.get(src)
                            if entry is not None and (
                                    best is None or entry[0] > best[0]):
                                best = entry
                        if best is not None and \
                                len(fifos[best[1]]) < FIFO_DEPTH - 1:
                            pe = best[1]
                    if pe is None:
                        pe = min(loads)[2]
                    if acc is not None:
                        acc_pe[acc] = pe
                fifo = fifos[pe]
                while fifo and fifo[0] <= dispatch:
                    fifo.popleft()
                if len(fifo) >= FIFO_DEPTH:
                    # steering stalls until the FIFO head issues
                    dispatch = fifo[0]
                    while fifo and fifo[0] <= dispatch:
                        fifo.popleft()

                # issue in order, one per PE per cycle, once ready
                ready = dispatch
                if acc_read and acc is not None:
                    when = acc_ready.get(acc)
                    if when is not None and when > ready:
                        ready = when
                for src in srcs:
                    entry = reg_ready.get(src)
                    if entry is not None:
                        when, producer = entry
                        if producer != pe:
                            when += comm_latency
                        if when > ready:
                            ready = when
                if op_class == "load" and mem_addr is not None:
                    when = mem_ready.get(mem_addr >> 3)
                    if when is not None and when > ready:
                        ready = when  # store-to-load dependence
                start = loads[pe][1] + 1
                if ready > start:
                    start = ready
                fifo.append(start)
                loads[pe] = (len(fifo), start, pe)

                complete = start + latency(op_class, mem_addr, address)
                if acc_write and acc is not None:
                    acc_ready[acc] = complete
                if dst is not None:
                    reg_ready[dst] = (complete, pe)
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
                            self.branch_unit.stats, config.name)
