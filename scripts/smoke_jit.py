#!/usr/bin/env python
"""Smoke-test the jit execution engine against the naive reference.

Runs one workload to its natural halt under the jit engine and under
the naive engine, in each I-ISA format, and checks the acceptance
properties: every fragment that ran was compiled to generated code, and
the final register state, program counter, console output,
committed-instruction count and every ``VMStats`` counter are
identical.  Then runs both engines again collecting the
committed-instruction trace: the jit must still build its fragments (as
prebuilt steps), and its trace must equal the naive walk's row for row
in all five columns.  Exits non-zero on any divergence.

Usage: PYTHONPATH=src python scripts/smoke_jit.py [workload] [budget]
"""

import sys

from repro.harness.runner import run_vm
from repro.ildp_isa.opcodes import IFormat
from repro.vm.config import VMConfig
from repro.vm.events import first_difference


def check(workload, budget, fmt):
    """Compare the engines on ``workload`` in format ``fmt``; returns
    the failures and a summary line."""
    jit = run_vm(workload, VMConfig(fmt=fmt, exec_engine="jit"),
                 budget=budget, collect_trace=False)
    reference = run_vm(workload, VMConfig(fmt=fmt, exec_engine="naive"),
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

    traced = run_vm(workload, VMConfig(fmt=fmt, exec_engine="jit"),
                    budget=budget)
    traced_reference = run_vm(
        workload, VMConfig(fmt=fmt, exec_engine="naive"), budget=budget)
    traced_promotions = \
        traced.vm.telemetry.summary()["counters"]["jit.promotions"]
    if not traced_promotions:
        failures.append("the traced jit run built no fragment")
    difference = first_difference(traced.trace, traced_reference.trace)
    if difference is not None:
        failures.append(f"traced jit trace departs from naive: "
                        f"{difference}")
    if vars(traced.stats) != vars(traced_reference.stats):
        failures.append("traced stats counters differ")

    committed = jit.stats.committed_v_instructions()
    summary = (f"{fmt.value}: {committed} committed V-ISA instructions, "
               f"{len(promoted)} of {len(jit.vm.tcache.fragments)} "
               f"fragments compiled; traced: {len(traced.trace)} equal "
               f"rows, {traced_promotions} fragments built as steps")
    return [f"{fmt.value}: {failure}" for failure in failures], summary


def main(argv):
    workload = argv[1] if len(argv) > 1 else "gzip"
    budget = int(argv[2]) if len(argv) > 2 else 200_000

    failures, summaries = [], []
    for fmt in IFormat:
        fmt_failures, summary = check(workload, budget, fmt)
        failures += fmt_failures
        summaries.append(summary)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"ok: jit matches naive on {workload}")
    for summary in summaries:
        print(f"  {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
