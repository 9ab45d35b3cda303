"""Fig. 6: performance impact of code straightening and the hardware RAS.

Four IPC series on the out-of-order superscalar machine:

* the original binary, with and without a conventional RAS;
* the code-straightened translation, without RAS (``sw_pred.no_ras``
  chaining) and with the dual-address RAS (``sw_pred.ras``).

Expected shape (Section 4.3): straightened-without-RAS loses to
original-without-RAS (chaining overhead eats the straightening benefit);
straightened-with-dual-RAS is about level with original-with-RAS.
"""

from repro.harness.reporting import (
    ExperimentResult,
    average_row,
    run_experiment,
)
from repro.harness.runner import DEFAULT_BUDGET
from repro.harness.runpoints import RunPoint, superscalar_ipc
from repro.ildp_isa.opcodes import IFormat
from repro.translator.chaining import ChainingPolicy
from repro.vm.config import VMConfig

HEADERS = ("workload", "orig.no_ras", "orig.ras", "straight.no_ras",
           "straight.ras")

NO_RAS = superscalar_ipc(use_ras=False)
RAS = superscalar_ipc(use_ras=True)


def run(workloads=None, scale=None, budget=DEFAULT_BUDGET, runner=None):
    """Run the experiment; returns an ExperimentResult (see module doc)."""
    return run_experiment(points, table, workloads, scale, budget, runner)


def points(workloads, scale, budget):
    """The run points :func:`table` reads, in its order."""
    planned = []
    for name in workloads:
        planned.append(RunPoint.original(name, scale=scale, budget=budget,
                                         evals=(NO_RAS, RAS)))
        planned.append(RunPoint.vm(
            name, VMConfig(fmt=IFormat.ALPHA,
                           policy=ChainingPolicy.SW_PRED_NO_RAS),
            scale=scale, budget=budget, evals=(NO_RAS,)))
        planned.append(RunPoint.vm(
            name, VMConfig(fmt=IFormat.ALPHA,
                           policy=ChainingPolicy.SW_PRED_RAS),
            scale=scale, budget=budget, evals=(RAS,)))
    return planned


def table(workloads, summaries):
    """The experiment's table from the summaries of :func:`points`."""
    summaries = iter(summaries)
    rows = []
    for name in workloads:
        original = next(summaries)["evals"]
        straight_noras = next(summaries)["evals"]
        straight_ras = next(summaries)["evals"]
        rows.append([name,
                     original[NO_RAS.key()],
                     original[RAS.key()],
                     straight_noras[NO_RAS.key()],
                     straight_ras[RAS.key()]])
    rows.append(average_row(rows))
    return ExperimentResult(
        "Fig. 6 — IPC: code straightening and hardware RAS", HEADERS, rows,
        notes=["IPC counts V-ISA instructions per cycle"])
