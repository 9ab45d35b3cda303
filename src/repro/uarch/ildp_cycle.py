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

Fetch, commit and the clock itself are the loop in
:mod:`repro.uarch.cycle`, shared with the superscalar reference model;
steering and issue are this module's.

It is slower than the one-pass model (the repro band for this paper flags
cycle-level simulation as the bottleneck, which is why the experiment
harness defaults to the fast model), but it serves as the reference
implementation: the test suite cross-validates the two models against each
other.
"""

from collections import deque

from repro.uarch.config import FIFO_DEPTH
from repro.uarch.cycle import CycleModel


class CycleILDPModel(CycleModel):
    """Cycle-stepped reference model of the PE-FIFO machine."""

    def __init__(self, config):
        if config.pe_count is None:
            raise ValueError("CycleILDPModel needs a config with pe_count")
        super().__init__(config)

    def _start(self):
        self._fifos = [deque() for _ in range(self.config.pe_count)]
        self._reg_writer = {}      # gpr -> producing entry (program order)
        self._acc_writer = {}      # acc -> producing entry
        self._acc_pe = {}          # acc -> PE of its current strand

    def _issue(self, rob, cycle):
        """Each PE's FIFO head issues once its producers have forwarded."""
        comm = self.config.comm_latency
        for fifo in self._fifos:
            if fifo and self._ready(fifo[0], cycle, comm):
                self._complete_at(fifo.popleft(), cycle)

    def _dispatch(self, entry):
        """Steer into a PE FIFO (strand renaming + dependence-based
        steering); waits while that FIFO is full."""
        template = entry.template
        acc_pe = self._acc_pe
        pe = self._steer(template)
        if len(self._fifos[pe]) >= FIFO_DEPTH:
            return False
        entry.pe = pe
        acc = template.acc
        if acc is not None:
            if template.strand_start or acc not in acc_pe:
                acc_pe[acc] = pe
            else:
                entry.pe = pe = acc_pe[acc]
        self._bind_dependences(entry)
        self._fifos[pe].append(entry)
        return True

    # -- helpers ---------------------------------------------------------------

    def _bind_dependences(self, entry):
        """Program-order operand binding — the renaming step."""
        reg_writer = self._reg_writer
        acc_writer = self._acc_writer
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

    def _steer(self, template):
        config = self.config
        fifos = self._fifos
        acc = template.acc
        if config.steering == "modulo":
            if acc is not None:
                return acc % config.pe_count
            return self._least_loaded(fifos)
        if acc is not None and not template.strand_start and \
                acc in self._acc_pe:
            return self._acc_pe[acc]
        if config.steering == "dependence":
            # steer toward the producer of the youngest unfinished input
            best = None
            for src in template.srcs:
                producer = self._reg_writer.get(src)
                if producer is not None and producer.pe is not None and \
                        (best is None or producer.seq > best.seq):
                    best = producer
            if best is not None and \
                    len(fifos[best.pe]) < FIFO_DEPTH - 1:
                return best.pe
        return self._least_loaded(fifos)

    def _least_loaded(self, fifos):
        lengths = [len(fifo) for fifo in fifos]
        return lengths.index(min(lengths))
