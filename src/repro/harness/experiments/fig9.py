"""Fig. 9: IPC sensitivity of the ILDP machine (modified I-ISA).

Configurations, matching the paper's bars:

* 8 logical accumulators (8 PEs) — expected ~+11% over the baseline;
* baseline: 4 accumulators, 8 PEs, 32KB L1-D, 0-cycle communication;
* 8KB replicated L1-D — expected to change little;
* 2-cycle global communication latency — expected ~-3.4%;
* 6 PEs — expected ~-5%;  4 PEs — expected ~-18%.
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

HEADERS = ("workload", "8acc/8pe", "base 4acc/8pe", "8KB D$", "2-cy comm",
           "6pe", "4pe")

#: (label, n_accumulators, pe_count, comm_latency, small dcache)
CONFIGS = (
    ("8acc/8pe", 8, 8, 0, False),
    ("base", 4, 8, 0, False),
    ("8KB", 4, 8, 0, True),
    ("comm2", 4, 8, 2, False),
    ("6pe", 4, 6, 0, False),
    ("4pe", 4, 4, 0, False),
)

#: translations depend only on the accumulator count: one VM run per
#: accumulator count, carrying the machine evaluations that need it
EVALS_BY_ACCS = {
    n_accs: tuple(ildp_ipc(pes=pes, comm=comm, dcache_small=small)
                  for _label, accs, pes, comm, small in CONFIGS
                  if accs == n_accs)
    for n_accs in sorted({config[1] for config in CONFIGS})}


def run(workloads=None, budget=DEFAULT_BUDGET, runner=None):
    """Run the experiment; returns an ExperimentResult (see module doc)."""
    return run_experiment(points, table, workloads, budget, runner)


def points(workloads, budget):
    """The run points :func:`table` reads, in its order."""
    return [RunPoint.vm(name,
                        VMConfig(fmt=IFormat.MODIFIED,
                                 n_accumulators=n_accs),
                        budget=budget, evals=evals)
            for name in workloads
            for n_accs, evals in EVALS_BY_ACCS.items()]


def table(workloads, summaries):
    """The experiment's table from the summaries of :func:`points`."""
    summaries = iter(summaries)
    rows = []
    for name in workloads:
        evals_by_accs = {n_accs: next(summaries)["evals"]
                         for n_accs in EVALS_BY_ACCS}
        row = [name]
        for _label, n_accs, pes, comm, small in CONFIGS:
            spec = ildp_ipc(pes=pes, comm=comm, dcache_small=small)
            row.append(evals_by_accs[n_accs][spec.key()]["ipc"])
        rows.append(row)
    rows.append(average_row(rows))
    return ExperimentResult(
        "Fig. 9 — IPC variation over machine parameters (modified I-ISA)",
        HEADERS, rows)
