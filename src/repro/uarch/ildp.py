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
"""

from collections import deque

from repro.uarch.cache import MemoryHierarchy
from repro.uarch.config import FIFO_DEPTH, PIPELINE_DEPTH, ROB_SIZE, WIDTH
from repro.uarch.frontend import FrontEnd
from repro.uarch.predictors import BranchUnit
from repro.uarch.retire import RetireUnit
from repro.uarch.superscalar import TimingResult


class ILDPModel:
    """One-pass trace-driven model of the PE-FIFO machine."""

    def __init__(self, config):
        if config.pe_count is None:
            raise ValueError("ILDPModel needs a config with pe_count set")
        self.config = config
        self.hierarchy = MemoryHierarchy(config)
        self.branch_unit = BranchUnit(config.use_conventional_ras)
        self.frontend = FrontEnd(config, self.hierarchy, self.branch_unit)
        self.retire_unit = RetireUnit(ROB_SIZE, WIDTH)
        pe_count = config.pe_count
        self._pe_last_issue = [0] * pe_count
        self._pe_fifo = [deque() for _ in range(pe_count)]
        #: GPR index -> (ready cycle, producing PE)
        self._reg_ready = {}
        #: accumulator -> ready cycle (accumulators live inside one PE)
        self._acc_ready = {}
        #: accumulator renaming: strand id -> PE assigned at strand start
        self._acc_pe = {}
        #: 8-byte block -> completion cycle of the last store to it
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
        (address, _size, op_class, srcs, dst, acc, acc_read, acc_write,
         strand_start, btype, v_weight, _dispatch) = template
        config = self.config
        self._instructions += 1
        self._v_instructions += v_weight
        self.branch_unit.note_instruction(v_weight)

        fetch = self.frontend.fetch(address)
        dispatch = fetch + PIPELINE_DEPTH
        dispatch = self.retire_unit.admit(dispatch)

        pe = self._steer(acc, strand_start, srcs)
        fifo = self._pe_fifo[pe]
        while fifo and fifo[0] <= dispatch:
            fifo.popleft()
        if len(fifo) >= FIFO_DEPTH:
            # steering stalls until the FIFO head issues
            dispatch = fifo[0]
            while fifo and fifo[0] <= dispatch:
                fifo.popleft()

        ready = dispatch
        if acc_read and acc is not None:
            when = self._acc_ready.get(acc)
            if when is not None and when > ready:
                ready = when
        for src in srcs:
            entry = self._reg_ready.get(src)
            if entry is not None:
                when, producer_pe = entry
                if producer_pe != pe:
                    when += config.comm_latency
                if when > ready:
                    ready = when
        block = None
        if mem_addr is not None:
            block = mem_addr >> 3
            if op_class == "load":
                when = self._mem_ready.get(block)
                if when is not None and when > ready:
                    ready = when  # store-to-load dependence

        # in-order single issue per PE
        start = max(ready, self._pe_last_issue[pe] + 1)
        self._pe_last_issue[pe] = start
        fifo.append(start)

        complete = start + self.hierarchy.latency(op_class, mem_addr,
                                                  address)
        if acc_write and acc is not None:
            self._acc_ready[acc] = complete
        if dst is not None:
            self._reg_ready[dst] = (complete, pe)
        if block is not None and op_class == "store":
            self._mem_ready[block] = complete
        self.retire_unit.retire(complete)

        if btype is not None:
            self.frontend.resolve_control(address, btype, taken, target,
                                          ras_hit, complete)

    def _steer(self, acc, strand_start, srcs):
        """Dependence-based steering with accumulator renaming.

        Following the ISCA 2002 microarchitecture: a strand-*start*
        instruction picks a PE — preferring the PE that produced its
        critical GPR input (so the communication latency is not paid),
        falling back to the least-loaded FIFO — and the accumulator is
        renamed to that PE until the strand ends.  Later instructions of
        the strand simply follow their accumulator.  GPR-only instructions
        (stores, branches with global inputs) take the least-loaded PE.
        """
        if self.config.steering == "modulo":
            if acc is not None:
                return acc % self.config.pe_count
            return self._least_loaded_pe()
        if acc is not None and not strand_start:
            pe = self._acc_pe.get(acc)
            if pe is not None:
                return pe
        pe = self._choose_start_pe(srcs)
        if acc is not None:
            self._acc_pe[acc] = pe
        return pe

    def _choose_start_pe(self, srcs):
        if self.config.steering == "dependence":
            # prefer the producer PE of the latest-arriving GPR input,
            # unless its FIFO is congested
            best_input = None
            for src in srcs:
                entry = self._reg_ready.get(src)
                if entry is not None and (best_input is None
                                          or entry[0] > best_input[0]):
                    best_input = entry
            if best_input is not None:
                pe = best_input[1]
                if len(self._pe_fifo[pe]) < FIFO_DEPTH - 1:
                    return pe
        return self._least_loaded_pe()

    def _least_loaded_pe(self):
        best = 0
        best_load = None
        for pe, last in enumerate(self._pe_last_issue):
            load = (len(self._pe_fifo[pe]), last)
            if best_load is None or load < best_load:
                best = pe
                best_load = load
        return best

    def result(self):
        return TimingResult(self.retire_unit.last_retire,
                            self._instructions, self._v_instructions,
                            self.branch_unit.stats, self.config.name)
