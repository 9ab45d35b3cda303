"""Fig. 8: IPC comparison across the four configurations.

Bars, per the paper: (1) the original binary and (2) its code-straightened
translation on the out-of-order superscalar; (3) the basic and (4) the
modified accumulator ISA on the ILDP machine with 8 PEs, 32 KB L1-D and
0-cycle global communication ("to isolate the I-ISA effects from machine
resources"); plus (5) the modified ISA's *native* I-ISA IPC.

Expected shape (Section 4.5): modified beats basic; modified lands within
roughly 15% of straightened-Alpha IPC despite ~36% more instructions, with
a clearly higher native IPC.
"""

from repro.harness.reporting import (
    ExperimentResult,
    average_row,
    run_experiment,
)
from repro.harness.runner import DEFAULT_BUDGET
from repro.harness.runpoints import RunPoint, ildp_ipc, superscalar_ipc
from repro.ildp_isa.opcodes import IFormat
from repro.vm.config import VMConfig

HEADERS = ("workload", "original", "straightened", "basic", "modified",
           "native I-IPC")

MACHINE = ildp_ipc(pes=8, comm=0)


def run(workloads=None, scale=None, budget=DEFAULT_BUDGET, runner=None):
    """Run the experiment; returns an ExperimentResult (see module doc)."""
    return run_experiment(points, table, workloads, scale, budget, runner)


def points(workloads, scale, budget):
    """The run points :func:`table` reads, in its order."""
    planned = []
    for name in workloads:
        planned.append(RunPoint.original(name, scale=scale, budget=budget,
                                         evals=(superscalar_ipc(),)))
        planned.append(RunPoint.vm(name, VMConfig(fmt=IFormat.ALPHA),
                                   scale=scale, budget=budget,
                                   evals=(superscalar_ipc(),)))
        planned.append(RunPoint.vm(name, VMConfig(fmt=IFormat.BASIC),
                                   scale=scale, budget=budget,
                                   evals=(MACHINE,)))
        planned.append(RunPoint.vm(name, VMConfig(fmt=IFormat.MODIFIED),
                                   scale=scale, budget=budget,
                                   evals=(MACHINE,)))
    return planned


def table(workloads, summaries):
    """The experiment's table from the summaries of :func:`points`."""
    summaries = iter(summaries)
    rows = []
    for name in workloads:
        original = next(summaries)["evals"][superscalar_ipc().key()]
        straightened = next(summaries)["evals"][superscalar_ipc().key()]
        basic = next(summaries)["evals"][MACHINE.key()]["ipc"]
        modified = next(summaries)["evals"][MACHINE.key()]
        rows.append([name, original, straightened, basic,
                     modified["ipc"], modified["native_ipc"]])
    rows.append(average_row(rows))
    return ExperimentResult(
        "Fig. 8 — IPC comparison (V-ISA instructions per cycle)", HEADERS,
        rows,
        notes=["ILDP: 8 PEs, 32KB L1-D, 0-cycle communication latency"])
