"""Table 2: translated instruction statistics.

Per benchmark, for the basic (B) and modified (M) formats:

* relative number of dynamic instructions (paper averages: B 1.60, M 1.36);
* % of copy instructions (B 17.7, M 3.1);
* relative static instruction bytes (B 1.17, M 1.07);
* modelled translation overhead (last column, ~1,125 on average).
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

HEADERS = ("workload", "dyn B", "dyn M", "copy% B", "copy% M",
           "bytes B", "bytes M", "insts/translated inst")


def run(workloads=None, scale=None, budget=DEFAULT_BUDGET, runner=None):
    """Run the experiment; returns an ExperimentResult (see module doc)."""
    return run_experiment(points, table, workloads, scale, budget, runner)


def points(workloads, scale, budget):
    """The run points :func:`table` reads, in its order."""
    planned = []
    for name in workloads:
        planned.append(RunPoint.vm(name, VMConfig(fmt=IFormat.BASIC),
                                   scale=scale, budget=budget))
        planned.append(RunPoint.vm(name, VMConfig(fmt=IFormat.MODIFIED),
                                   scale=scale, budget=budget))
    return planned


def table(workloads, summaries):
    """The experiment's table from the summaries of :func:`points`."""
    summaries = iter(summaries)
    rows = []
    for name in workloads:
        basic = next(summaries)
        modified = next(summaries)
        rows.append([
            name,
            basic["stats"]["dynamic_expansion"],
            modified["stats"]["dynamic_expansion"],
            basic["stats"]["copy_pct"],
            modified["stats"]["copy_pct"],
            basic["stats"]["static_expansion"],
            modified["stats"]["static_expansion"],
            modified["cost"]["per_translated_instruction"],
        ])
    rows.append(average_row(rows))
    return ExperimentResult(
        "Table 2 — translated instruction statistics", HEADERS, rows)
