"""Cycle-stepped simulation of the reference out-of-order superscalar.

The companion to :mod:`repro.uarch.ildp_cycle`: instead of the one-pass
ready-time computation of :class:`~repro.uarch.superscalar.SuperscalarModel`,
this model advances a clock with explicit structures — a fetch stage, a
dispatch stage binding operands to in-flight producers in program order
(register renaming semantics), a unified issue window scanned oldest-first
each cycle (Table 1: "oldest-first issue") bounded by the symmetric
functional units, and an in-order reorder buffer.

Fetch, commit and the clock are the loop in :mod:`repro.uarch.cycle`,
shared with the ILDP reference model; dispatch and issue are this
module's.  Used to validate the fast model; the experiment harness keeps
using the fast one.
"""

from repro.uarch.config import N_FUNCTIONAL_UNITS
from repro.uarch.cycle import CycleModel


class CycleSuperscalarModel(CycleModel):
    """Cycle-stepped reference model of the out-of-order machine."""

    def _start(self):
        self._reg_writer = {}      # gpr -> producing entry (program order)
        self._mem_writer = {}      # 8-byte block -> producing store entry

    def _issue(self, rob, cycle):
        """Oldest-first over the window, bounded by the functional units."""
        issued = 0
        for entry in rob:
            if issued >= N_FUNCTIONAL_UNITS:
                break
            if entry.complete_cycle is None and self._ready(entry, cycle):
                self._complete_at(entry, cycle)
                issued += 1

    def _dispatch(self, entry):
        """Program-order operand binding (renaming semantics); the window
        takes every instruction the reorder buffer has room for."""
        template = entry.template
        for src in template.srcs:
            producer = self._reg_writer.get(src)
            if producer is not None:
                entry.deps.append(producer)
        if entry.mem_addr is not None:
            block = entry.mem_addr >> 3
            if template.op_class == "load":
                producer = self._mem_writer.get(block)
                if producer is not None:
                    entry.deps.append(producer)
            elif template.op_class == "store":
                self._mem_writer[block] = entry
        if template.dst is not None:
            self._reg_writer[template.dst] = entry
        return True

    def _ready(self, entry, cycle):
        for producer in entry.deps:
            when = producer.complete_cycle
            if when is None or when > cycle:
                return False
        return True
