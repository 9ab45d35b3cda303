"""Execution statistics the evaluation section reports.

Everything Table 2 and Figures 5/7 need comes from here: dynamic
I-instruction counts relative to V-ISA instructions, copy-instruction
percentages, static code-byte expansion, output-register usage histograms
(weighted by fragment execution counts), dispatch and RAS behaviour.
"""

from collections import Counter

from repro.translator.usage import ValueClass

#: Instructions a threaded interpreter spends per interpreted instruction
#: (paper Section 4.1: "each interpretation takes about 20 instructions").
INTERPRETATION_COST = 20


class VMStats:
    """Counters accumulated across one VM run."""

    def __init__(self):
        self.interpreted_instructions = 0
        #: interpreted instructions the translator would have elided
        #: (architectural NOPs and straightened-away plain BRs)
        self.interpreted_elided = 0
        #: executed translated instructions, ALPHA-format weighting applied
        self.iinstructions_executed = 0
        self.copies_executed = 0
        #: V-ISA instructions executed inside translated code
        self.source_instructions_executed = 0
        self.iop_counts = Counter()
        self.dispatch_runs = 0
        self.dispatch_instructions = 0
        self.ras_hits = 0
        self.ras_misses = 0
        self.fragments_created = 0
        self.superblocks_captured = 0
        self.translated_source_instructions = 0
        #: fid -> static usage-class histogram of the fragment's superblock
        self.fragment_usage = {}
        self.premature_terminations = 0
        self.traps_delivered = 0
        self.tcache_flushes = 0
        # -- graceful degradation (docs/robustness.md); all stay zero on
        # -- the fault-free path, so summary() is deliberately unchanged
        self.translation_failures = 0
        self.translation_pcs_blacklisted = 0
        self.tcache_capacity_flushes = 0
        self.flush_storms_suppressed = 0
        self.corrupt_fragments_detected = 0
        # -- hostile-guest survival (MMU / SMC / syscalls); zero unless
        # -- the guest self-modifies or revokes protections
        self.smc_detected = 0
        self.smc_invalidations = 0
        self.protect_invalidations = 0
        self.retranslate_deopts = 0
        self.stale_captures_discarded = 0

    # -- hooks ---------------------------------------------------------------

    def count_dispatch(self):
        self.dispatch_runs += 1

    def count_dispatch_instructions(self, count):
        self.dispatch_instructions += count

    def count_ras(self, hit):
        if hit:
            self.ras_hits += 1
        else:
            self.ras_misses += 1

    def note_translation(self, result):
        """Record a finished translation (fragment + analyses)."""
        self.fragments_created += 1
        self.superblocks_captured += 1
        fragment = result.fragment
        self.translated_source_instructions += fragment.source_instr_count
        self.premature_terminations += fragment.premature_terminations
        if result.usage is not None:
            self.fragment_usage[fragment.fid] = result.usage.class_counts()

    # -- derived metrics ----------------------------------------------------------

    def total_v_instructions(self):
        """All V-ISA instructions executed (interpreted + translated)."""
        return (self.interpreted_instructions
                + self.source_instructions_executed)

    def committed_v_instructions(self):
        """Committed V-ISA instructions, counting only those that survive
        translation (no NOPs, no straightened-away plain BRs).

        Translated execution never counts elided instructions (they emit no
        I-ISA code, hence carry no ``v_weight``); subtracting the elided
        ones seen while interpreting yields a count directly comparable
        with a pure-interpreter reference run (the co-simulation invariant
        the differential tests check).
        """
        return self.total_v_instructions() - self.interpreted_elided

    def dynamic_expansion(self):
        """Executed translated instructions (dispatch included) per V-ISA
        instruction — Table 2 columns 2-3 / Fig. 5."""
        if self.source_instructions_executed == 0:
            return 0.0
        return ((self.iinstructions_executed + self.dispatch_instructions)
                / self.source_instructions_executed)

    def copy_percentage(self):
        """Copies as a share of executed translated instructions (Table 2)."""
        total = self.iinstructions_executed + self.dispatch_instructions
        if total == 0:
            return 0.0
        return 100.0 * self.copies_executed / total

    def static_expansion(self, tcache):
        """Translated static bytes per original static bytes (Table 2)."""
        source_bytes = 4 * sum(f.source_instr_count
                               for f in tcache.fragments)
        if source_bytes == 0:
            return 0.0
        return tcache.total_code_bytes() / source_bytes

    def dynamic_usage_histogram(self, tcache):
        """Fig. 7: output-register usage classes, weighted by how often
        each fragment executed."""
        totals = {vclass: 0 for vclass in ValueClass}
        for fragment in tcache.fragments:
            histogram = self.fragment_usage.get(fragment.fid)
            if histogram is None:
                continue
            weight = max(fragment.execution_count, 0)
            for vclass, count in histogram.items():
                totals[vclass] += count * weight
        return totals

    def ras_hit_rate(self):
        total = self.ras_hits + self.ras_misses
        return self.ras_hits / total if total else 0.0

    def interpretation_overhead(self):
        """Modelled interpreter instructions per translated source
        instruction (paper Section 4.1's "about 1,000": threshold x ~20
        instructions per interpretation)."""
        if self.translated_source_instructions == 0:
            return 0.0
        return (INTERPRETATION_COST * self.interpreted_instructions
                / self.translated_source_instructions)

    def summary(self):
        """A compact dict for reports and tests."""
        return {
            "interpreted": self.interpreted_instructions,
            "translated_v": self.source_instructions_executed,
            "iinstructions": self.iinstructions_executed,
            "dispatch_instructions": self.dispatch_instructions,
            "dynamic_expansion": round(self.dynamic_expansion(), 3),
            "copy_pct": round(self.copy_percentage(), 2),
            "fragments": self.fragments_created,
            "ras_hit_rate": round(self.ras_hit_rate(), 3),
            "premature_terminations": self.premature_terminations,
        }

    def resilience(self):
        """Degradation counters as a dict (all zero on fault-free runs).

        Kept separate from :meth:`summary` so existing cached summaries
        and the telemetry gauge set stay bit-identical when no fault
        machinery fires.
        """
        return {
            "translation_failures": self.translation_failures,
            "pcs_blacklisted": self.translation_pcs_blacklisted,
            "capacity_flushes": self.tcache_capacity_flushes,
            "flush_storms_suppressed": self.flush_storms_suppressed,
            "corrupt_fragments_detected": self.corrupt_fragments_detected,
            "smc_detected": self.smc_detected,
            "smc_invalidations": self.smc_invalidations,
            "protect_invalidations": self.protect_invalidations,
            "retranslate_deopts": self.retranslate_deopts,
            "stale_captures_discarded": self.stale_captures_discarded,
        }

    def render_lines(self):
        """The :meth:`summary` dict as aligned ``name = value`` report
        lines (used by the CLI ``run`` and ``profile`` reports).

        Degradation counters are appended only when any fired, keeping
        fault-free reports byte-identical to earlier versions."""
        summary = self.summary()
        resilience = self.resilience()
        if any(resilience.values()):
            summary.update(resilience)
        width = max(len(name) for name in summary)
        return [f"{name:<{width}} = {value}"
                for name, value in summary.items()]
