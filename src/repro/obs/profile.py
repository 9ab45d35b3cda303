"""Hot-fragment profiling and the profile report renderers.

The :class:`FragmentProfiler` rides along with the fragment executor:
every time control enters a fragment (from the VM or by an intra-cache
transfer) it opens an attribution window, and when control moves on it
charges the executed I-instructions and V-ISA instructions of that window
to the fragment, from the deltas of the ``VMStats`` counters the engines
already maintain — so profiling adds no per-instruction work, only
per-fragment-visit work.

The renderers turn the collected data into the ``repro profile`` report:
a top-N hottest-fragments table with disassembly anchors and a phase-time
breakdown read from the registry's ``phase.``-prefixed timers.
"""

from repro.ildp_isa.disasm import disassemble_iinstr


class FragmentRecord:
    """Accumulated execution profile of one fragment (by fid)."""

    __slots__ = ("fid", "entry_vpc", "entries", "i_instructions",
                 "v_instructions", "exit_reasons")

    def __init__(self, fid, entry_vpc):
        self.fid = fid
        self.entry_vpc = entry_vpc
        #: times control entered this fragment (VM entries + transfers)
        self.entries = 0
        self.i_instructions = 0
        self.v_instructions = 0
        #: executor exit-reason name -> count (transfers excluded)
        self.exit_reasons = {}

    def to_json(self):
        """The record as a JSON-able dict."""
        return {"fid": self.fid, "entry_vpc": self.entry_vpc,
                "entries": self.entries,
                "i_instructions": self.i_instructions,
                "v_instructions": self.v_instructions,
                "exit_reasons": dict(sorted(self.exit_reasons.items()))}

    def __repr__(self):
        return (f"FragmentRecord(f{self.fid}, entries={self.entries}, "
                f"i={self.i_instructions})")


class FragmentProfiler:
    """Attributes executed instructions to fragments at visit boundaries."""

    def __init__(self):
        self.records = {}
        self._open = None      # (record, start_iinstr, start_v)

    def _record(self, fragment):
        record = self.records.get(fragment.fid)
        if record is None:
            record = FragmentRecord(fragment.fid, fragment.entry_vpc)
            self.records[fragment.fid] = record
        return record

    def _close(self, stats):
        record, start_i, start_v = self._open
        record.i_instructions += stats.iinstructions_executed - start_i
        record.v_instructions += stats.source_instructions_executed - start_v
        return record

    def enter(self, fragment, stats):
        """Open an attribution window: control entered ``fragment``."""
        record = self._record(fragment)
        record.entries += 1
        self._open = (record, stats.iinstructions_executed,
                      stats.source_instructions_executed)

    def switch(self, fragment, stats):
        """Close the current window and open one for ``fragment``
        (an intra-cache transfer)."""
        self._close(stats)
        self.enter(fragment, stats)

    def leave(self, reason, stats):
        """Close the current window: the executor returned to the VM."""
        record = self._close(stats)
        record.exit_reasons[reason] = record.exit_reasons.get(reason, 0) + 1
        self._open = None

    def top(self, n=10):
        """The ``n`` hottest records, by entries then I-instructions."""
        ranked = sorted(self.records.values(),
                        key=lambda r: (r.entries, r.i_instructions),
                        reverse=True)
        return ranked[:n]

    def __len__(self):
        return len(self.records)

    def __repr__(self):
        return f"FragmentProfiler({len(self.records)} fragments)"


class NullFragmentProfiler:
    """The no-op profiler wired up when telemetry is disabled."""

    records = {}

    def enter(self, fragment, stats):
        """No-op."""

    def switch(self, fragment, stats):
        """No-op."""

    def leave(self, reason, stats):
        """No-op."""

    def top(self, n=10):
        """Always empty."""
        return []

    def __len__(self):
        return 0


NULL_PROFILER = NullFragmentProfiler()


# -- report rendering ---------------------------------------------------------

def _exit_text(record):
    parts = [f"{name}:{count}"
             for name, count in sorted(record.exit_reasons.items())]
    return " ".join(parts) if parts else "-"


def hot_fragment_table(profiler, tcache, top=10):
    """Render the top-N hottest fragments as text lines.

    Each row carries a disassembly anchor: the translation-cache address
    and disassembled first instruction of the fragment body, so a row can
    be cross-referenced with ``repro translate`` / ``repro map`` output.
    Fragments evicted by a cache flush since they ran are marked
    ``(flushed)``.
    """
    records = profiler.top(top)
    lines = [f"hot fragments (top {len(records)} of {len(profiler)} "
             f"profiled, by entries):",
             f"{'fid':>4s} {'V-entry':>10s} {'entries':>8s} "
             f"{'V-insts':>9s} {'I-insts':>9s} {'exits':>22s}  anchor"]
    live = {fragment.fid: fragment for fragment in tcache.fragments}
    for record in records:
        fragment = live.get(record.fid)
        if fragment is not None:
            anchor = (f"{fragment.entry_address():#x}: "
                      f"{disassemble_iinstr(fragment.body[0], fragment.fmt)}")
        else:
            anchor = "(flushed)"
        lines.append(
            f"{record.fid:4d} {record.entry_vpc:#10x} {record.entries:8d} "
            f"{record.v_instructions:9d} {record.i_instructions:9d} "
            f"{_exit_text(record):>22s}  {anchor}")
    return lines


def histogram_quantile_lines(registry, qs=(0.5, 0.9, 0.99)):
    """Render each registry histogram's quantiles as text lines.

    The quantiles come from :meth:`~repro.obs.registry.Histogram.quantile`
    (Prometheus-style linear interpolation within fixed buckets).
    """
    lines = ["histogram quantiles "
             f"({'/'.join(f'p{int(q * 100)}' for q in qs)}):"]
    if not registry.histograms:
        lines.append("  (no histograms recorded — was telemetry on?)")
        return lines
    for name, histogram in sorted(registry.histograms.items()):
        if not histogram.total:
            continue
        cells = "  ".join(f"{histogram.quantile(q):10.1f}" for q in qs)
        lines.append(f"  {name:28s} {cells}  (n={histogram.total})")
    return lines


def phase_breakdown_lines(registry, prefix="phase."):
    """Render the registry's ``phase.``-prefixed timers as a breakdown.

    Seconds, share of the summed phase time, and span counts — the
    translator-pipeline and VM-loop timers the instrumented run recorded.
    """
    timers = [timer for name, timer in sorted(registry.timers.items())
              if name.startswith(prefix)]
    total = sum(timer.seconds for timer in timers)
    lines = [f"phase times ({total:.3f}s total):"]
    if not timers:
        lines.append("  (no phases recorded — was telemetry on?)")
        return lines
    for timer in timers:
        share = 100.0 * timer.seconds / total if total else 0.0
        lines.append(f"  {timer.name[len(prefix):]:22s} "
                     f"{timer.seconds:9.4f}s {share:5.1f}%  "
                     f"x{timer.count}")
    return lines
