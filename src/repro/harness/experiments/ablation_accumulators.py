"""Ablation: logical accumulator count (paper Section 4.1/4.5).

The paper settled on four logical accumulators, observing that "few
strands must be prematurely terminated".  This ablation sweeps 1/2/4/8
accumulators and reports premature terminations, copy percentage and
dynamic expansion for the basic format (where spills are visible as extra
copy instructions).
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

COUNTS = (1, 2, 4, 8)
HEADERS = ("workload",) + tuple(
    f"{label} a{count}"
    for count in COUNTS
    for label in ("spills", "copy%"))


def run(workloads=None, budget=DEFAULT_BUDGET, runner=None):
    """Run the experiment; returns an ExperimentResult (see module doc)."""
    return run_experiment(points, table, workloads, budget, runner)


def points(workloads, budget):
    """The run points :func:`table` reads, in its order."""
    return [RunPoint.vm(name, VMConfig(fmt=IFormat.BASIC,
                                       n_accumulators=count),
                        budget=budget)
            for name in workloads
            for count in COUNTS]


def table(workloads, summaries):
    """The experiment's table from the summaries of :func:`points`."""
    summaries = iter(summaries)
    rows = []
    for name in workloads:
        row = [name]
        for _count in COUNTS:
            summary = next(summaries)
            row.append(summary["stats"]["premature_terminations"])
            row.append(summary["stats"]["copy_pct"])
        rows.append(row)
    rows.append(average_row(rows))
    return ExperimentResult(
        "Ablation — logical accumulator count (basic I-ISA)", HEADERS,
        rows,
        notes=["spills = premature strand terminations at translation "
               "time; the paper found 4 accumulators sufficient"])
