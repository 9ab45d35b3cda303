"""Fig. 7: output register value usage ("globalness").

The usage classifier's histogram over superblock values, weighted by how
often each fragment executed.  For the modified format, global outputs =
live-out + communication globals (the paper reports about 25%); the basic
format additionally pays for ``local->global`` and ``no-user->global``
conversions plus spills, pushing global outputs to about 40%.
"""

from repro.harness.reporting import (
    ExperimentResult,
    average_row,
    run_experiment,
)
from repro.harness.runner import DEFAULT_BUDGET
from repro.harness.runpoints import RunPoint
from repro.ildp_isa.opcodes import IFormat
from repro.translator.usage import ValueClass
from repro.vm.config import VMConfig

_ORDER = (
    ValueClass.NO_USER,
    ValueClass.LOCAL,
    ValueClass.TEMP,
    ValueClass.COMM_GLOBAL,
    ValueClass.LIVEOUT_GLOBAL,
    ValueClass.LOCAL_TO_GLOBAL,
    ValueClass.NOUSER_TO_GLOBAL,
    ValueClass.SPILL_GLOBAL,
)

HEADERS = ("workload",) + tuple(vclass.value for vclass in _ORDER) + (
    "modified_global%", "basic_global%")

#: Classes whose values must reach a GPR under the modified format.
_MODIFIED_GLOBAL = {ValueClass.COMM_GLOBAL, ValueClass.LIVEOUT_GLOBAL,
                    ValueClass.SPILL_GLOBAL}
#: ... and under the basic format (the ->global conversions join in).
_BASIC_GLOBAL = _MODIFIED_GLOBAL | {ValueClass.LOCAL_TO_GLOBAL,
                                    ValueClass.NOUSER_TO_GLOBAL}


def run(workloads=None, scale=None, budget=DEFAULT_BUDGET, runner=None):
    """Run the experiment; returns an ExperimentResult (see module doc)."""
    return run_experiment(points, table, workloads, scale, budget, runner)


def points(workloads, scale, budget):
    """The run points :func:`table` reads, in its order."""
    return [RunPoint.vm(name, VMConfig(fmt=IFormat.MODIFIED),
                        scale=scale, budget=budget)
            for name in workloads]


def table(workloads, summaries):
    """The experiment's table from the summaries of :func:`points`."""
    rows = []
    for name, summary in zip(workloads, summaries):
        histogram = summary["usage"]
        total = sum(histogram.values()) or 1
        shares = {vclass: 100.0 * histogram[vclass.value] / total
                  for vclass in ValueClass}
        row = [name] + [shares[vclass] for vclass in _ORDER]
        row.append(sum(shares[c] for c in _MODIFIED_GLOBAL))
        row.append(sum(shares[c] for c in _BASIC_GLOBAL))
        rows.append(row)
    rows.append(average_row(rows))
    return ExperimentResult(
        "Fig. 7 — output register usage (% of superblock values, "
        "dynamically weighted)", HEADERS, rows)
