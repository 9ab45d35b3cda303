"""Run the whole evaluation and emit a single markdown report.

``python -m repro report -o results.md`` regenerates every table and
figure of the paper (plus the ablations) in one pass and writes them as a
markdown document — the "reproduce everything" button.
"""

from repro.harness import experiments
from repro.harness.parallel import PointRunner
from repro.workloads import WORKLOAD_NAMES

#: (experiment module name, paper anchor) in presentation order.
REPORT_SECTIONS = (
    ("characterization", "Workload characterization"),
    ("overhead", "Section 4.2 — translation overhead"),
    ("fig4", "Fig. 4 — chaining and misprediction"),
    ("fig5", "Fig. 5 — straightened instruction count"),
    ("fig6", "Fig. 6 — code straightening and hardware RAS"),
    ("table2", "Table 2 — translated instruction statistics"),
    ("fig7", "Fig. 7 — output register usage"),
    ("fig8", "Fig. 8 — IPC comparison"),
    ("fig9", "Fig. 9 — machine-parameter sensitivity"),
    ("ablation_fusion", "Ablation — memory splitting vs fusion"),
    ("ablation_steering", "Ablation — strand steering"),
    ("ablation_accumulators", "Ablation — accumulator count"),
    ("ablation_idealism", "Ablation — idealisation knobs"),
)


def _markdown_table(result):
    lines = ["| " + " | ".join(str(h) for h in result.headers) + " |",
             "|" + "|".join("---" for _ in result.headers) + "|"]
    for row in result.rows():
        cells = [f"{value:.3f}" if isinstance(value, float) else str(value)
                 for value in row]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def generate_report(workloads=None, budget=60_000, sections=None,
                    runner=None):
    """Run every experiment; returns the markdown text.

    The report is planned before anything runs: every section's points
    go to ``runner`` as one batch, and each section's table is built
    from its slice of the summaries.  A point requested by several
    sections therefore executes once, and points that differ only in
    their evaluators share one simulator run (see
    :class:`~repro.harness.parallel.PointRunner`); with a cache attached,
    a point executes at most once ever.
    """
    runner = runner if runner is not None else PointRunner()
    chosen = sections if sections is not None else \
        [name for name, _title in REPORT_SECTIONS]
    titles = dict(REPORT_SECTIONS)
    names = workloads if workloads is not None else WORKLOAD_NAMES
    modules = [getattr(experiments, name) for name in chosen]
    plans = [module.points(names, None, budget) for module in modules]
    summaries = iter(runner.run(
        [point for planned in plans for point in planned]))
    parts = [
        "# Reproduction report — Kim & Smith, CGO 2003",
        "",
        f"Workloads: {'full suite' if workloads is None else ', '.join(workloads)}; "
        f"budget {budget:,} V-ISA instructions per configuration.",
        "",
    ]
    for name, module, planned in zip(chosen, modules, plans):
        result = module.table(names, [next(summaries) for _ in planned])
        parts.append(f"## {titles.get(name, name)}")
        parts.append("")
        parts.append(_markdown_table(result))
        if result.notes:
            parts.append("")
            for note in result.notes:
                parts.append(f"*{note}*")
        parts.append("")
    return "\n".join(parts)
