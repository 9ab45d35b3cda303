"""Ablation: loss decomposition via idealisation knobs.

Where do the ILDP machine's cycles go?  This ablation re-times the
modified-I-ISA traces with an oracle branch predictor, a perfect L1 data
cache, and both — the standard simulator-paper decomposition of front-end
vs memory vs true dependence limits.
"""

from repro.harness.reporting import (
    ExperimentResult,
    average_row,
    run_experiment,
)
from repro.harness.runner import DEFAULT_BUDGET
from repro.harness.runpoints import RunPoint, ildp_ipc
from repro.ildp_isa.opcodes import IFormat
from repro.vm.config import VMConfig

HEADERS = ("workload", "realistic", "perfect bp", "perfect D$", "both")

_POINTS = ((False, False), (True, False), (False, True), (True, True))

SPECS = tuple(ildp_ipc(pes=8, comm=0, perfect_bp=perfect_bp,
                       perfect_dcache=perfect_dcache)
              for perfect_bp, perfect_dcache in _POINTS)


def run(workloads=None, scale=None, budget=DEFAULT_BUDGET, runner=None):
    """Run the experiment; returns an ExperimentResult (see module doc)."""
    return run_experiment(points, table, workloads, scale, budget, runner)


def points(workloads, scale, budget):
    """The run points :func:`table` reads, in its order."""
    return [RunPoint.vm(name, VMConfig(fmt=IFormat.MODIFIED),
                        scale=scale, budget=budget, evals=SPECS)
            for name in workloads]


def table(workloads, summaries):
    """The experiment's table from the summaries of :func:`points`."""
    rows = []
    for name, summary in zip(workloads, summaries):
        row = [name]
        for spec in SPECS:
            row.append(summary["evals"][spec.key()]["ipc"])
        rows.append(row)
    rows.append(average_row(rows))
    return ExperimentResult(
        "Ablation — idealisation (modified I-ISA, ILDP 8 PE)", HEADERS,
        rows,
        notes=["oracle branch prediction / always-hit L1-D isolate "
               "front-end and memory losses from true dependence limits"])
