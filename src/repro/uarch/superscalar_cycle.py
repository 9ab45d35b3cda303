"""Cycle-stepped simulation of the reference out-of-order superscalar.

The companion to :mod:`repro.uarch.ildp_cycle`: instead of the one-pass
ready-time computation of :class:`~repro.uarch.superscalar.SuperscalarModel`,
this model advances a clock with explicit structures — a fetch stage, a
dispatch stage binding operands to in-flight producers in program order
(register renaming semantics), a unified issue window scanned oldest-first
each cycle (Table 1: "oldest-first issue") bounded by the symmetric
functional units, and an in-order reorder buffer.

Used to validate the fast model; the experiment harness keeps using the
fast one.
"""

from collections import deque

from repro.uarch.cache import MemoryHierarchy
from repro.uarch.predictors import BranchUnit
from repro.uarch.superscalar import TimingResult


class _Entry:
    """One in-flight instruction: its trace template and address."""

    __slots__ = ("template", "mem_addr", "seq", "deps", "complete_cycle",
                 "issued")

    def __init__(self, template, mem_addr, seq):
        self.template = template
        self.mem_addr = mem_addr
        self.seq = seq
        self.deps = []
        self.complete_cycle = None
        self.issued = False


class CycleSuperscalarModel:
    """Cycle-stepped reference model of the out-of-order machine."""

    def __init__(self, config):
        self.config = config
        self.hierarchy = MemoryHierarchy(config)
        self.branch_unit = BranchUnit(config)

    def run(self, trace):
        config = self.config
        width = config.width

        # the fetch stage reads rows by index: one list per column
        templates, takens, targets, mem_addrs, ras_hits = (
            list(trace.column(name)) for name in trace.COLUMNS)
        instructions = len(templates)
        v_instructions = sum(template.v_weight for template in templates)

        fetch_index = 0
        fetch_stall_until = 0
        last_fetch_line = None
        dispatch_queue = deque()
        rob = deque()                      # in-flight, program order
        reg_writer = {}
        mem_writer = {}                    # 8-byte block -> producing entry
        cycle = 0
        seq = 0
        blocking_branch = None

        max_cycles = 300 * max(instructions, 1) + 10_000

        while (fetch_index < instructions or dispatch_queue or rob) and \
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

            # ---- commit ----
            committed = 0
            while rob and committed < width:
                head = rob[0]
                if head.complete_cycle is None or \
                        head.complete_cycle > cycle:
                    break
                rob.popleft()
                committed += 1

            # ---- issue: oldest-first over the window, FU-bounded ----
            issued = 0
            for entry in rob:
                if issued >= config.n_functional_units:
                    break
                if entry.issued:
                    continue
                if self._ready(entry, cycle):
                    entry.issued = True
                    entry.complete_cycle = cycle + self._latency(entry)
                    issued += 1

            # ---- dispatch into the window / ROB ----
            dispatched = 0
            while dispatch_queue and dispatched < width and \
                    len(rob) < config.rob_size:
                entry = dispatch_queue.popleft()
                self._bind(entry, reg_writer, mem_writer)
                rob.append(entry)
                dispatched += 1

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
                    dispatch_queue.append(entry)
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
                            break

            cycle += 1

        return TimingResult(cycle, instructions, v_instructions,
                            self.branch_unit.stats,
                            f"{config.name}-cycle")

    # -- helpers -----------------------------------------------------------------

    def _bind(self, entry, reg_writer, mem_writer):
        """Program-order operand binding (renaming semantics)."""
        template = entry.template
        for src in template.srcs:
            producer = reg_writer.get(src)
            if producer is not None:
                entry.deps.append(producer)
        if entry.mem_addr is not None:
            block = entry.mem_addr >> 3
            if template.op_class == "load":
                producer = mem_writer.get(block)
                if producer is not None:
                    entry.deps.append(producer)
            elif template.op_class == "store":
                mem_writer[block] = entry
        if template.dst is not None:
            reg_writer[template.dst] = entry

    def _ready(self, entry, cycle):
        for producer in entry.deps:
            when = producer.complete_cycle
            if when is None or when > cycle:
                return False
        return True

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
            if not self.config.perfect_dcache:
                self.hierarchy.daccess(mem_addr)
            return self.config.int_latency
        return max(self.config.int_latency, 1)
