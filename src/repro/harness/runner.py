"""Shared run plumbing for the experiment drivers.

``run_vm`` / ``run_original`` are the low-level primitives: they execute
one workload and hand back live simulator objects.  The experiment
drivers do not call them directly any more — they declare
:class:`~repro.harness.runpoints.RunPoint` batches and hand them to a
:class:`~repro.harness.parallel.PointRunner`, which executes each
simulator run through :func:`~repro.harness.runpoints.execute_run`
(itself built on the primitives below), optionally in parallel worker
processes and memoised by the persistent
:class:`~repro.harness.resultcache.ResultCache`.
"""

from repro.uarch.trace_utils import interpreter_trace
from repro.vm.config import VMConfig
from repro.vm.system import CoDesignedVM
from repro.workloads import get_workload

DEFAULT_BUDGET = 250_000


class RunResult:
    """One VM run: the VM (with stats/tcache) plus its committed trace.

    ``trace`` is the run's :class:`~repro.vm.events.Trace` (template
    references plus four dynamic columns), or None when the run
    collected none.
    """

    def __init__(self, workload_name, config, vm):
        self.workload_name = workload_name
        self.config = config
        self.vm = vm
        self.stats = vm.stats
        self.trace = vm.trace
        self.tcache = vm.tcache

    def __repr__(self):
        return f"RunResult({self.workload_name}, {self.config})"


def run_vm(workload_name, config=None, scale=None, budget=DEFAULT_BUDGET,
           collect_trace=True):
    """Run one workload under the co-designed VM."""
    workload = get_workload(workload_name)
    config = config if config is not None else VMConfig()
    config = config.copy(collect_trace=collect_trace)
    vm = CoDesignedVM(workload.program(scale), config)
    vm.run(max_v_instructions=budget)
    return RunResult(workload_name, config, vm)


def run_original(workload_name, scale=None, budget=DEFAULT_BUDGET):
    """Run one workload under pure interpretation (the "original" binary).

    Returns ``(trace, interpreter)``.
    """
    workload = get_workload(workload_name)
    return interpreter_trace(workload.program(scale),
                             max_instructions=budget)
