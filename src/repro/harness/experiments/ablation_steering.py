"""Ablation: strand steering heuristics under communication latency.

The ISCA 2002 microarchitecture steers a strand's start to the PE that
produced its critical input.  This ablation quantifies how much that
dependence-based steering matters once global communication costs cycles,
against a naive least-loaded policy and a no-renaming modulo policy.
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

HEADERS = ("workload", "dependence c0", "dependence c2", "least_loaded c2",
           "modulo c2")

_POINTS = (("dependence", 0), ("dependence", 2), ("least_loaded", 2),
           ("modulo", 2))

SPECS = tuple(ildp_ipc(pes=8, comm=comm, steering=steering)
              for steering, comm in _POINTS)


def run(workloads=None, budget=DEFAULT_BUDGET, runner=None):
    """Run the experiment; returns an ExperimentResult (see module doc)."""
    return run_experiment(points, table, workloads, budget, runner)


def points(workloads, budget):
    """The run points :func:`table` reads, in its order."""
    return [RunPoint.vm(name, VMConfig(fmt=IFormat.MODIFIED),
                        budget=budget, evals=SPECS)
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
        "Ablation — strand steering heuristics (modified I-ISA, 8 PEs)",
        HEADERS, rows,
        notes=["c0/c2 = 0/2-cycle global communication latency"])
