#!/usr/bin/env python
"""Smoke-test the fault-injection framework and graceful degradation.

Runs one workload three ways — under injected translator failures, under
injected fragment corruption (with checksum verification), and under a
genuinely bounded translation cache — and checks each run converges to
the fault-free pure interpreter: same halt, same architected state, same
console output, same committed-instruction accounting.  Also checks the
no-op parity contract (``faults=None`` gives an injector over the empty
plan that never fires, and changes no stats) and that the fuel watchdog
trips cleanly.  Exits non-zero on any failure.

Usage: PYTHONPATH=src python scripts/smoke_chaos.py [workload] [budget]
"""

import sys

from repro.harness.runner import run_original, run_vm
from repro.vm.config import VMConfig
from repro.vm.system import BudgetExceeded


def _check_converges(failures, label, result, interp, expected):
    vm = result.vm
    if not vm.halted:
        failures.append(f"{label}: VM did not halt")
        return
    if vm.state.pc != interp.state.pc or \
            vm.state.regs != interp.state.regs:
        failures.append(f"{label}: architected state diverged")
    if vm.console_text() != interp.console_text():
        failures.append(f"{label}: console output diverged")
    if result.stats.committed_v_instructions() != expected:
        failures.append(
            f"{label}: committed {result.stats.committed_v_instructions()}"
            f" != expected {expected}")


def main(argv):
    workload = argv[1] if len(argv) > 1 else "gzip"
    budget = int(argv[2]) if len(argv) > 2 else 200_000

    trace, interp = run_original(workload, budget=budget)
    expected = sum(template.v_weight
                   for template in trace.column("templates")
                   if template.btype != "uncond")
    failures = []

    # translator faults: backoff, then blacklist, interpret forever
    translate = run_vm(
        workload, VMConfig(faults="translate@every=2,times=4", fault_seed=7),
        budget=budget, collect_trace=False)
    _check_converges(failures, "translate faults", translate, interp,
                     expected)
    if translate.vm.injector.total_injected() == 0:
        failures.append("translate faults: nothing was injected")
    if translate.stats.translation_failures == 0:
        failures.append("translate faults: no failures recorded")

    # fragment corruption: checksum detection, invalidate, retranslate
    corrupt = run_vm(
        workload, VMConfig(faults="corrupt@every=2,times=3", fault_seed=11),
        budget=budget, collect_trace=False)
    _check_converges(failures, "corruption", corrupt, interp, expected)
    if corrupt.stats.corrupt_fragments_detected == 0:
        failures.append("corruption: no corrupt fragments detected")

    # a 100-byte cache: capacity flushes and retranslation
    bounded = run_vm(
        workload, VMConfig(tcache_capacity_bytes=100, flush_storm_window=0),
        budget=budget, collect_trace=False)
    _check_converges(failures, "bounded tcache", bounded, interp, expected)
    if bounded.stats.tcache_capacity_flushes == 0:
        failures.append("bounded tcache: no capacity flushes happened")

    # no-op parity: faults unset means an empty plan and zero deltas
    plain = run_vm(workload, VMConfig(), budget=budget, collect_trace=False)
    if plain.vm.injector.plan.specs or plain.vm.injector.total_injected():
        failures.append("no-op parity: faultless VM holds a live injector")
    if any(plain.stats.resilience().values()):
        failures.append("no-op parity: resilience counters nonzero")
    _check_converges(failures, "fault-free", plain, interp, expected)

    # the fuel watchdog trips with partial stats instead of hanging
    try:
        run_vm(workload, VMConfig(max_host_steps=50), budget=budget,
               collect_trace=False)
    except BudgetExceeded as exc:
        if exc.stats.total_v_instructions() == 0:
            failures.append("watchdog: no partial stats attached")
    else:
        failures.append("watchdog: BudgetExceeded was not raised")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1

    print(f"ok: chaos on {workload} — "
          f"{translate.stats.translation_failures} translation failures "
          f"({translate.stats.translation_pcs_blacklisted} blacklisted), "
          f"{corrupt.stats.corrupt_fragments_detected} corruptions caught, "
          f"{bounded.stats.tcache_capacity_flushes} capacity flushes; "
          f"all runs converged to the interpreter")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
