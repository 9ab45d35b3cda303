"""Section 4.2: translation overhead.

The work-unit cost model's per-benchmark cost in modelled Alpha
instructions per translated source instruction, with the phase breakdown
(the paper highlights that ~20% of translator time went to copying
translated instructions field-by-field into the translation cache).
"""

from repro.harness.reporting import (
    ExperimentResult,
    average_row,
    run_experiment,
)
from repro.harness.runner import DEFAULT_BUDGET
from repro.harness.runpoints import RunPoint
from repro.ildp_isa.opcodes import IFormat
from repro.vm.config import VMConfig

HEADERS = ("workload", "insts/translated inst", "tcache-copy share",
           "codegen share", "interp insts/src inst", "counters",
           "fragments")


def run(workloads=None, budget=DEFAULT_BUDGET, runner=None):
    """Run the experiment; returns an ExperimentResult (see module doc)."""
    return run_experiment(points, table, workloads, budget, runner)


def points(workloads, budget):
    """The run points :func:`table` reads, in its order."""
    return [RunPoint.vm(name, VMConfig(fmt=IFormat.MODIFIED),
                        budget=budget)
            for name in workloads]


def table(workloads, summaries):
    """The experiment's table from the summaries of :func:`points`."""
    rows = []
    for name, summary in zip(workloads, summaries):
        cost = summary["cost"]
        rows.append([
            name,
            cost["per_translated_instruction"],
            cost["phase_fractions"]["tcache_copy"],
            cost["phase_fractions"]["codegen"],
            summary["stats"]["interpretation_overhead"],
            summary["profiler_candidates"],
            cost["fragments"],
        ])
    # counters and fragments are totals, not means
    rows.append(average_row(rows, summed=(5, 6)))
    return ExperimentResult(
        "Section 4.2 — translation overhead (modelled)", HEADERS, rows,
        notes=["paper: ~1,125 Alpha instructions per translated "
               "instruction, ~20% in tcache copying",
               "paper Section 4.1: interpretation ~1,000 instructions "
               "per source instruction; counter population is small"])
