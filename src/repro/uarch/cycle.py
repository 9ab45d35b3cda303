"""The clock loop both cycle-stepped reference models share.

Every cycle, :class:`~repro.uarch.ildp_cycle.CycleILDPModel` and
:class:`~repro.uarch.superscalar_cycle.CycleSuperscalarModel` release
fetch after a resolved misprediction, commit in order, issue (each
model's own), dispatch in program order (each model places an
instruction its own way) and fetch, in that order.

Fetch and commit here are deliberately not the fast models'
:class:`~repro.uarch.frontend.FrontEnd` and
:class:`~repro.uarch.retire.RetireUnit`: the cycle models are the
independent oracle the test suite checks the fast models against.
"""

from collections import deque

from repro.uarch.cache import MemoryHierarchy
from repro.uarch.config import ICACHE, REDIRECT_LATENCY, ROB_SIZE, WIDTH
from repro.uarch.predictors import BranchUnit
from repro.uarch.superscalar import TimingResult


class Entry:
    """One in-flight instruction: its trace template and address."""

    __slots__ = ("template", "mem_addr", "seq", "pe", "deps",
                 "complete_cycle")

    def __init__(self, template, mem_addr, seq):
        self.template = template
        self.mem_addr = mem_addr
        #: position in the trace (program order)
        self.seq = seq
        #: ILDP only: the processing element it was steered to
        self.pe = None
        #: what its issue waits for, bound at dispatch by the model
        self.deps = []
        #: set at issue (the latency is known then)
        self.complete_cycle = None


class CycleModel:
    """A cycle-stepped timing model: the shared clock loop, with issue and
    dispatch supplied by each machine."""

    def __init__(self, config):
        self.config = config
        self.hierarchy = MemoryHierarchy(config)
        self.branch_unit = BranchUnit(config.use_conventional_ras)

    def run(self, trace):
        """Consume a :class:`~repro.vm.events.Trace`; returns the
        :class:`~repro.uarch.superscalar.TimingResult`."""
        hierarchy = self.hierarchy
        branch_unit = self.branch_unit
        perfect_prediction = self.config.perfect_prediction

        # the fetch stage reads rows by index: one list per column
        templates, takens, targets, mem_addrs, ras_hits = (
            list(trace.column(name)) for name in trace.COLUMNS)
        instructions = len(templates)
        v_instructions = sum(template.v_weight for template in templates)

        self._start()
        fetch_index = 0
        fetch_stall_until = 0
        last_fetch_line = None
        queue = deque()            # fetched, not yet dispatched
        rob = deque()              # dispatched, program order
        cycle = 0
        blocking_branch = None     # mispredicted branch entry in flight

        max_cycles = 300 * max(instructions, 1) + 10_000

        while (fetch_index < instructions or queue or rob) and \
                cycle < max_cycles:
            # ---- resolve a blocking mispredicted branch ----
            if blocking_branch is not None and \
                    blocking_branch.complete_cycle is not None and \
                    blocking_branch.complete_cycle <= cycle:
                fetch_stall_until = max(
                    fetch_stall_until,
                    blocking_branch.complete_cycle + REDIRECT_LATENCY)
                blocking_branch = None

            # ---- commit: in-order, bounded bandwidth ----
            committed = 0
            while rob and committed < WIDTH:
                head = rob[0]
                if head.complete_cycle is None or \
                        head.complete_cycle > cycle:
                    break
                rob.popleft()
                committed += 1

            self._issue(rob, cycle)

            # ---- dispatch: program order, bounded by width and ROB ----
            dispatched = 0
            while queue and dispatched < WIDTH and len(rob) < ROB_SIZE:
                if not self._dispatch(queue[0]):
                    break
                rob.append(queue.popleft())
                dispatched += 1

            # ---- fetch ----
            if blocking_branch is None and cycle >= fetch_stall_until:
                fetched = 0
                while fetch_index < instructions and fetched < WIDTH:
                    index = fetch_index
                    template = templates[index]
                    address = template.address
                    line = address // ICACHE.line
                    if line != last_fetch_line:
                        last_fetch_line = line
                        extra = hierarchy.ifetch(address)
                        if extra:
                            fetch_stall_until = cycle + extra
                            break
                    entry = Entry(template, mem_addrs[index], index)
                    fetch_index += 1
                    fetched += 1
                    queue.append(entry)
                    branch_unit.note_instruction(template.v_weight)
                    btype = template.btype
                    if btype is not None:
                        taken = takens[index]
                        mispredicted = branch_unit.process(
                            address, btype, taken, targets[index],
                            ras_hits[index])
                        if mispredicted and not perfect_prediction:
                            blocking_branch = entry
                            break
                        if taken:
                            break  # predicted-taken transfer ends group

            cycle += 1

        return TimingResult(cycle, instructions, v_instructions,
                            branch_unit.stats, f"{self.config.name}-cycle")

    def _complete_at(self, entry, cycle):
        """Issue ``entry`` at ``cycle``: its completion cycle follows from
        the latency rule every timing model shares."""
        template = entry.template
        entry.complete_cycle = cycle + self.hierarchy.latency(
            template.op_class, entry.mem_addr, template.address)

    def _start(self):
        """Reset the model's own per-run structures."""
        raise NotImplementedError

    def _issue(self, rob, cycle):
        """Issue this cycle's ready instructions (via :meth:`_complete_at`)."""
        raise NotImplementedError

    def _dispatch(self, entry):
        """Bind ``entry``, the oldest fetched instruction, into the
        machine; returns False when it must wait (it then stays queued)."""
        raise NotImplementedError
