"""Workload characterization: the instruction-mix table papers print.

For each synthetic SPEC stand-in: dynamic instruction count, memory /
conditional-branch / call-return / indirect-jump shares, and the average
captured superblock size — the properties that drive everything else in
the evaluation.
"""

from repro.harness.reporting import (
    ExperimentResult,
    average_row,
    run_experiment,
)
from repro.harness.runner import DEFAULT_BUDGET
from repro.harness.runpoints import RunPoint, instruction_mix
from repro.ildp_isa.opcodes import IFormat
from repro.vm.config import VMConfig

HEADERS = ("workload", "dyn insts", "load%", "store%", "cond%",
           "call+ret%", "indirect%", "avg superblock")


def run(workloads=None, scale=None, budget=DEFAULT_BUDGET, runner=None):
    """Run the experiment; returns an ExperimentResult (see module doc)."""
    return run_experiment(points, table, workloads, scale, budget, runner)


def points(workloads, scale, budget):
    """The run points :func:`table` reads, in its order."""
    planned = []
    for name in workloads:
        planned.append(RunPoint.original(name, scale=scale, budget=budget,
                                         evals=(instruction_mix(),)))
        planned.append(RunPoint.vm(name, VMConfig(fmt=IFormat.MODIFIED),
                                   scale=scale, budget=budget))
    return planned


def table(workloads, summaries):
    """The experiment's table from the summaries of :func:`points`."""
    summaries = iter(summaries)
    rows = []
    for name in workloads:
        counts = next(summaries)["evals"]["instruction_mix"]
        vm_summary = next(summaries)
        total = counts["total"]
        rows.append([
            name, total,
            100.0 * counts["load"] / total,
            100.0 * counts["store"] / total,
            100.0 * counts["cond"] / total,
            100.0 * counts["callret"] / total,
            100.0 * counts["indirect"] / total,
            vm_summary["tcache"]["avg_superblock"],
        ])
    rows.append(average_row(rows))
    return ExperimentResult(
        "Workload characterization (dynamic instruction mix)", HEADERS,
        rows)
