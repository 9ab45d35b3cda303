"""The ``repro profile`` report renderers.

A top-N hottest-fragments table, read from the execution counts both
engines keep on every fragment visit, with static sizes and disassembly
anchors; histogram quantiles; and a phase-time breakdown read from the
registry's ``phase.``-prefixed timers.
"""

from repro.ildp_isa.disasm import disassemble_iinstr


def hot_fragment_table(tcache, top=10):
    """Render the top-N live fragments by ``execution_count`` as text.

    Each row shows the fragment's static sizes (V-ISA source
    instructions, I-ISA instructions, bytes) and a disassembly anchor:
    the translation-cache address and disassembled first instruction of
    the body, so a row can be cross-referenced with ``repro translate``
    / ``repro map`` output.  Ties rank by fragment id.
    """
    live = tcache.fragments
    ranked = sorted(live, key=lambda f: (-f.execution_count, f.fid))[:top]
    lines = [f"hot fragments (top {len(ranked)} of {len(live)} live, "
             f"by executions):",
             f"{'fid':>4s} {'V-entry':>10s} {'execs':>8s} "
             f"{'V-insts':>7s} {'I-insts':>7s} {'bytes':>6s}  anchor"]
    for fragment in ranked:
        anchor = (f"{fragment.entry_address():#x}: "
                  f"{disassemble_iinstr(fragment.body[0], fragment.fmt)}")
        lines.append(
            f"{fragment.fid:4d} {fragment.entry_vpc:#10x} "
            f"{fragment.execution_count:8d} "
            f"{fragment.source_instr_count:7d} {len(fragment.body):7d} "
            f"{fragment.byte_size:6d}  {anchor}")
    return lines


def histogram_quantile_lines(registry, qs=(0.5, 0.9, 0.99)):
    """Render each registry histogram's quantiles as text lines.

    The quantiles come from :meth:`~repro.obs.registry.Histogram.quantile`
    (Prometheus-style linear interpolation within fixed buckets).
    """
    lines = ["histogram quantiles "
             f"({'/'.join(f'p{int(q * 100)}' for q in qs)}):"]
    if not registry.histograms:
        lines.append("  (no histograms recorded)")
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
    translator-pipeline and VM-loop timers the run recorded.
    """
    timers = [timer for name, timer in sorted(registry.timers.items())
              if name.startswith(prefix)]
    total = sum(timer.seconds for timer in timers)
    lines = [f"phase times ({total:.3f}s total):"]
    if not timers:
        lines.append("  (no phases recorded)")
        return lines
    for timer in timers:
        share = 100.0 * timer.seconds / total if total else 0.0
        lines.append(f"  {timer.name[len(prefix):]:22s} "
                     f"{timer.seconds:9.4f}s {share:5.1f}%  "
                     f"x{timer.count}")
    return lines
