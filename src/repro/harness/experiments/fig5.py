"""Fig. 5: relative dynamic instruction count of straightened code.

For the code-straightening-only target, the executed instruction count
(including compare-and-branch glue and dispatch code) is divided by the
V-ISA instructions those executions represent.  Benchmarks dominated by
register-indirect transfers (gap, perlbmk, eon) expand most; benchmarks
whose calls are direct BSRs barely expand (Section 4.3).
"""

from repro.harness.reporting import (
    ExperimentResult,
    average_row,
    run_experiment,
)
from repro.harness.runner import DEFAULT_BUDGET
from repro.harness.runpoints import RunPoint
from repro.ildp_isa.opcodes import IFormat
from repro.translator.chaining import ChainingPolicy
from repro.vm.config import VMConfig

HEADERS = ("workload", "relative instruction count")

POLICY = ChainingPolicy.SW_PRED_RAS


def run(workloads=None, budget=DEFAULT_BUDGET, runner=None):
    """Run the experiment; returns an ExperimentResult (see module doc)."""
    return run_experiment(points, table, workloads, budget, runner)


def points(workloads, budget):
    """The run points :func:`table` reads, in its order."""
    return [RunPoint.vm(name, VMConfig(fmt=IFormat.ALPHA, policy=POLICY),
                        budget=budget)
            for name in workloads]


def table(workloads, summaries):
    """The experiment's table from the summaries of :func:`points`."""
    rows = [[name, summary["stats"]["dynamic_expansion"]]
            for name, summary in zip(workloads, summaries)]
    rows.append(average_row(rows))
    return ExperimentResult(
        "Fig. 5 — relative instruction count (straightened / original)",
        HEADERS, rows,
        notes=[f"chaining policy: {POLICY.value}"])
