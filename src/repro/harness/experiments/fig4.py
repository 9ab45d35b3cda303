"""Fig. 4: branch/jump mispredictions per 1,000 instructions.

The code-straightening-only simulator (ALPHA target) is run with the three
chaining implementations — ``no_pred``, ``sw_pred.no_ras``, ``sw_pred.ras``
— and compared against the original binary.  Expected shape (Section 4.3):
``no_pred`` is worst by far (every indirect transfer funnels through the
shared dispatch jump), software prediction roughly halves it but stays well
above the original, and the dual-address RAS brings it down to nearly the
original's level.
"""

from repro.harness.reporting import (
    ExperimentResult,
    average_row,
    run_experiment,
)
from repro.harness.runner import DEFAULT_BUDGET
from repro.harness.runpoints import RunPoint, mispredictions
from repro.ildp_isa.opcodes import IFormat
from repro.translator.chaining import ChainingPolicy
from repro.vm.config import VMConfig

POLICIES = (ChainingPolicy.NO_PRED, ChainingPolicy.SW_PRED_NO_RAS,
            ChainingPolicy.SW_PRED_RAS)

HEADERS = ("workload", "original", "no_pred", "sw_pred.no_ras",
           "sw_pred.ras")


def run(workloads=None, scale=None, budget=DEFAULT_BUDGET, runner=None):
    """Run the experiment; returns an ExperimentResult (see module doc)."""
    return run_experiment(points, table, workloads, scale, budget, runner)


def points(workloads, scale, budget):
    """The run points :func:`table` reads, in its order."""
    measure = (mispredictions(),)
    planned = []
    for name in workloads:
        planned.append(RunPoint.original(name, scale=scale, budget=budget,
                                         evals=measure))
        for policy in POLICIES:
            config = VMConfig(fmt=IFormat.ALPHA, policy=policy)
            planned.append(RunPoint.vm(name, config, scale=scale,
                                       budget=budget, evals=measure))
    return planned


def table(workloads, summaries):
    """The experiment's table from the summaries of :func:`points`."""
    summaries = iter(summaries)
    rows = []
    for name in workloads:
        row = [name]
        for _series in range(1 + len(POLICIES)):
            row.append(next(summaries)["evals"]["mispredictions"])
        rows.append(row)
    rows.append(average_row(rows))
    return ExperimentResult(
        "Fig. 4 — mispredictions per 1,000 instructions", HEADERS, rows,
        notes=["code-straightening-only (ALPHA) target; Table 1 predictors"])
