"""Cycle-stepped simulation of the ILDP microarchitecture.

Where :class:`~repro.uarch.ildp.ILDPModel` computes per-instruction ready
times in a single pass (fast, SimpleScalar-style), this model advances a
clock and moves instructions through explicit pipeline structures every
cycle:

* a fetch stage feeding a decode/steer queue (width-limited, stalled by
  I-cache misses and branch redirects);
* a steer stage that binds each instruction's operands to their producing
  in-flight instructions *in program order* (register renaming semantics)
  and places it into a bounded per-PE issue FIFO (strand renaming +
  dependence-based steering, like the fast model);
* per-PE in-order single-issue from the FIFO heads — an instruction issues
  once every bound producer has completed, charging the global
  communication latency for GPR values produced in another PE;
* a reorder buffer committing up to ``width`` instructions in order.

It is slower than the one-pass model (the repro band for this paper flags
cycle-level simulation as the bottleneck, which is why the experiment
harness defaults to the fast model), but it serves as the reference
implementation: the test suite cross-validates the two models against each
other.
"""

from collections import deque

from repro.uarch.cache import MemoryHierarchy
from repro.uarch.predictors import BranchUnit
from repro.uarch.superscalar import TimingResult


class _Entry:
    """One in-flight instruction: its trace template and address."""

    __slots__ = ("template", "mem_addr", "seq", "pe", "deps",
                 "complete_cycle")

    def __init__(self, template, mem_addr, seq):
        self.template = template
        self.mem_addr = mem_addr
        self.seq = seq
        self.pe = None
        #: [(producer entry, is_gpr_dep)] bound at steer time
        self.deps = []
        self.complete_cycle = None  # set at issue (known latency)


class CycleILDPModel:
    """Cycle-stepped reference model of the PE-FIFO machine."""

    def __init__(self, config):
        if config.pe_count is None:
            raise ValueError("CycleILDPModel needs a config with pe_count")
        self.config = config
        self.hierarchy = MemoryHierarchy(config)
        self.branch_unit = BranchUnit(config)

    def run(self, trace):
        config = self.config
        pe_count = config.pe_count
        width = config.width
        comm = config.comm_latency

        # the fetch stage reads rows by index: one list per column
        templates, takens, targets, mem_addrs, ras_hits = (
            list(trace.column(name)) for name in trace.COLUMNS)
        instructions = len(templates)
        v_instructions = sum(template.v_weight for template in templates)

        fetch_index = 0
        fetch_stall_until = 0
        last_fetch_line = None
        steer_queue = deque()
        fifos = [deque() for _ in range(pe_count)]
        rob = deque()
        reg_writer = {}            # gpr -> producing entry (program order)
        acc_writer = {}            # acc -> producing entry
        acc_pe = {}
        cycle = 0
        seq = 0
        blocking_branch = None     # mispredicted branch entry in flight

        max_cycles = 300 * max(instructions, 1) + 10_000

        while (fetch_index < instructions or steer_queue or rob) and \
                cycle < max_cycles:
            # ---- resolve a blocking mispredicted branch ----
            if blocking_branch is not None and \
                    blocking_branch.complete_cycle is not None and \
                    blocking_branch.complete_cycle <= cycle:
                fetch_stall_until = max(
                    fetch_stall_until,
                    blocking_branch.complete_cycle
                    + config.redirect_latency)
                blocking_branch = None

            # ---- commit: in-order, bounded bandwidth ----
            committed = 0
            while rob and committed < width:
                head = rob[0]
                if head.complete_cycle is None or \
                        head.complete_cycle > cycle:
                    break
                rob.popleft()
                committed += 1

            # ---- issue: each PE's FIFO head, when its producers forwarded ----
            for pe in range(pe_count):
                fifo = fifos[pe]
                if not fifo:
                    continue
                entry = fifo[0]
                if self._ready(entry, cycle, comm):
                    fifo.popleft()
                    entry.complete_cycle = cycle + self._latency(entry)

            # ---- steer: program order, bounded by width / FIFO / ROB ----
            steered = 0
            while steer_queue and steered < width and \
                    len(rob) < config.rob_size:
                entry = steer_queue[0]
                template = entry.template
                pe = self._steer(template, acc_pe, fifos, reg_writer)
                if len(fifos[pe]) >= config.fifo_depth:
                    break
                steer_queue.popleft()
                entry.pe = pe
                acc = template.acc
                if acc is not None:
                    if template.strand_start or acc not in acc_pe:
                        acc_pe[acc] = pe
                    else:
                        entry.pe = pe = acc_pe[acc]
                self._bind_dependences(entry, reg_writer, acc_writer)
                fifos[pe].append(entry)
                rob.append(entry)
                steered += 1

            # ---- fetch ----
            if blocking_branch is None and cycle >= fetch_stall_until:
                fetched = 0
                while fetch_index < instructions and fetched < width:
                    index = fetch_index
                    template = templates[index]
                    address = template.address
                    line = address // config.icache.line
                    if line != last_fetch_line:
                        last_fetch_line = line
                        extra = self.hierarchy.ifetch(address)
                        if extra:
                            fetch_stall_until = cycle + extra
                            break
                    entry = _Entry(template, mem_addrs[index], seq)
                    seq += 1
                    fetch_index += 1
                    fetched += 1
                    steer_queue.append(entry)
                    self.branch_unit.note_instruction(template.v_weight)
                    btype = template.btype
                    if btype is not None:
                        taken = takens[index]
                        mispredicted = self.branch_unit.process(
                            address, btype, taken, targets[index],
                            ras_hits[index])
                        if mispredicted and not \
                                config.perfect_prediction:
                            blocking_branch = entry
                            break
                        if taken:
                            break  # predicted-taken transfer ends group

            cycle += 1

        return TimingResult(cycle, instructions, v_instructions,
                            self.branch_unit.stats,
                            f"{self.config.name}-cycle")

    # -- helpers ---------------------------------------------------------------

    def _bind_dependences(self, entry, reg_writer, acc_writer):
        """Program-order operand binding — the renaming step."""
        template = entry.template
        for src in template.srcs:
            producer = reg_writer.get(src)
            if producer is not None:
                entry.deps.append((producer, True))
        acc = template.acc
        if template.acc_read and acc is not None:
            producer = acc_writer.get(acc)
            if producer is not None:
                entry.deps.append((producer, False))
        if template.dst is not None:
            reg_writer[template.dst] = entry
        if template.acc_write and acc is not None:
            acc_writer[acc] = entry

    def _ready(self, entry, cycle, comm):
        for producer, is_gpr in entry.deps:
            when = producer.complete_cycle
            if when is None:
                return False
            if is_gpr and producer.pe != entry.pe:
                when += comm
            if when > cycle:
                return False
        return True

    def _steer(self, template, acc_pe, fifos, reg_writer):
        config = self.config
        acc = template.acc
        if config.steering == "modulo":
            if acc is not None:
                return acc % config.pe_count
            return self._least_loaded(fifos)
        if acc is not None and not template.strand_start and acc in acc_pe:
            return acc_pe[acc]
        if config.steering == "dependence":
            # steer toward the producer of the youngest unfinished input
            best = None
            for src in template.srcs:
                producer = reg_writer.get(src)
                if producer is not None and producer.pe is not None and \
                        (best is None or producer.seq > best.seq):
                    best = producer
            if best is not None and \
                    len(fifos[best.pe]) < config.fifo_depth - 1:
                return best.pe
        return self._least_loaded(fifos)

    def _least_loaded(self, fifos):
        lengths = [len(fifo) for fifo in fifos]
        return lengths.index(min(lengths))

    def _latency(self, entry):
        op_class = entry.template.op_class
        mem_addr = entry.mem_addr
        if op_class == "load":
            if self.config.perfect_dcache:
                return self.config.dcache.latency
            return self.hierarchy.daccess(
                mem_addr if mem_addr is not None
                else entry.template.address)
        if op_class == "mul":
            return self.config.mul_latency
        if op_class == "store" and mem_addr is not None:
            self.hierarchy.daccess(mem_addr)
            return self.config.int_latency
        return max(self.config.int_latency, 1)
