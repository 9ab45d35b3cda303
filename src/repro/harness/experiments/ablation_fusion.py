"""Ablation: memory-instruction fusion (paper Section 4.5).

The paper notes that *not* splitting memory instructions into an
address-calculation plus access pair would reduce the instruction count
expansion at the cost of decode complexity.  This ablation runs the
modified I-ISA with both decompositions and compares dynamic expansion and
ILDP IPC.
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

HEADERS = ("workload", "expansion split", "expansion fused", "ipc split",
           "ipc fused")

MACHINE = ildp_ipc(pes=8, comm=0)


def run(workloads=None, budget=DEFAULT_BUDGET, runner=None):
    """Run the experiment; returns an ExperimentResult (see module doc)."""
    return run_experiment(points, table, workloads, budget, runner)


def points(workloads, budget):
    """The run points :func:`table` reads, in its order."""
    return [RunPoint.vm(name, VMConfig(fmt=IFormat.MODIFIED,
                                       fuse_memory=fused),
                        budget=budget, evals=(MACHINE,))
            for name in workloads
            for fused in (False, True)]


def table(workloads, summaries):
    """The experiment's table from the summaries of :func:`points`."""
    summaries = iter(summaries)
    rows = []
    for name in workloads:
        split = next(summaries)
        fused = next(summaries)
        rows.append([name,
                     split["stats"]["dynamic_expansion"],
                     fused["stats"]["dynamic_expansion"],
                     split["evals"][MACHINE.key()]["ipc"],
                     fused["evals"][MACHINE.key()]["ipc"]])
    rows.append(average_row(rows))
    return ExperimentResult(
        "Ablation — memory instruction splitting vs fusion "
        "(modified I-ISA)", HEADERS, rows,
        notes=["fusion trades decode complexity for fetch/ROB pressure "
               "(Section 4.5)"])
