#!/usr/bin/env python
"""Smoke-test the jit execution engine against the naive reference.

Runs one workload to its natural halt under the jit engine and under
the naive engine, and checks the acceptance properties: every fragment
that ran was compiled to generated code, and the final register state,
program counter, console output, committed-instruction count and every
``VMStats`` counter are identical.  Exits non-zero on any divergence.

Usage: PYTHONPATH=src python scripts/smoke_jit.py [workload] [budget]
"""

import sys

from repro.harness.runner import run_vm
from repro.vm.config import VMConfig


def main(argv):
    workload = argv[1] if len(argv) > 1 else "gzip"
    budget = int(argv[2]) if len(argv) > 2 else 200_000

    jit = run_vm(workload, VMConfig(exec_engine="jit"),
                 budget=budget, collect_trace=False)
    reference = run_vm(workload, VMConfig(exec_engine="naive"),
                       budget=budget, collect_trace=False)

    entered = [f for f in jit.vm.tcache.fragments if f.execution_count]
    promoted = [f for f in entered if f._jit_code is not None]

    failures = []
    if not promoted or len(promoted) != len(entered):
        failures.append(f"{len(promoted)} of {len(entered)} entered "
                        "fragments were compiled")
    if jit.vm.state.regs != reference.vm.state.regs:
        failures.append("final register state differs")
    if jit.vm.state.pc != reference.vm.state.pc:
        failures.append("final PC differs")
    if jit.vm.console_text() != reference.vm.console_text():
        failures.append("console output differs")
    if jit.stats.committed_v_instructions() != \
            reference.stats.committed_v_instructions():
        failures.append("committed-instruction counts differ")
    stats_diff = [key for key in vars(reference.stats)
                  if vars(reference.stats)[key] != vars(jit.stats)[key]]
    if stats_diff:
        failures.append(f"stats counters differ: {', '.join(stats_diff)}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1

    committed = jit.stats.committed_v_instructions()
    print(f"ok: jit matches naive on {workload} "
          f"({committed} committed V-ISA instructions, "
          f"{len(promoted)} of {len(jit.vm.tcache.fragments)} fragments "
          f"compiled)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
