#!/usr/bin/env python
"""Smoke-test precise self-modifying-code invalidation.

Runs a hand-written kernel that maps its code page, gets its loop hot
(translated), patches one instruction of that loop from guest code and
keeps running over the rewritten text.  Checks, under every execution
engine, that the VM (a) produces the pure interpreter's console, (b)
detects the store into translated code exactly once, (c) invalidates
only the overlapping fragment — never the whole cache — and (d) mirrors
the detection into the ``smc.detected`` telemetry gauge.  A second
kernel stores into its *own executing* fragment every iteration and must
survive through RETRANSLATE deopts instead of guest-visible traps.
Exits non-zero on any failure.

Usage: PYTHONPATH=src python scripts/smoke_smc.py
"""

import sys

from repro.asm import assemble
from repro.interp import Interpreter
from repro.isa.encoding import encode
from repro.isa.instruction import Instruction
from repro.vm import CoDesignedVM, VMConfig

ENGINES = ("naive", "jit")

#: Patch ``slot:`` exactly once (iteration r2==3) with a donor word kept
#: in the data segment, out of the loop's own way.
ONESHOT = """
        .text
_start: la   r5, donor
        ldl  r6, 0(r5)
        li   r2, 20
        clr  r3
loop:   cmpeq r2, 3, r4
        beq  r4, slot
        la   r7, slot
        stl  r6, 0(r7)
slot:   addq r3, 1, r3
        subq r2, 1, r2
        bne  r2, loop
        and  r3, 0x7f, r16
        call_pal putc
        call_pal halt
        .data
donor:  .space 4, 0
"""

#: Store the hot loop's own ``slot`` word back onto itself every
#: iteration: each translated stint writes into the fragment it is
#: executing and must deopt precisely.
HOTSTORE = """
        .text
_start: li   r2, 16
        clr  r3
loop:   la   r7, slot
        ldl  r6, 0(r7)
        stl  r6, 0(r7)
slot:   addq r3, 1, r3
        subq r2, 1, r2
        bne  r2, loop
        and  r3, 0x7f, r16
        call_pal putc
        call_pal halt
"""


def _oneshot_program():
    program = assemble(ONESHOT)
    donor = encode(Instruction("addq", ra=3, rc=3, imm=2, islit=True))
    program.memory.write_bytes(program.symbols["donor"],
                               donor.to_bytes(4, "little"))
    return program


def _reference(program_factory):
    interp = Interpreter(program_factory())
    interp.run(max_instructions=100_000)
    return interp


def main():
    failures = []

    oneshot_ref = _reference(_oneshot_program)
    for engine in ENGINES:
        vm = CoDesignedVM(_oneshot_program(),
                          VMConfig(threshold=4, exec_engine=engine))
        vm.run(max_v_instructions=100_000)
        label = f"oneshot/{engine}"
        if not vm.halted:
            failures.append(f"{label}: VM did not halt")
            continue
        if vm.interpreter.console != oneshot_ref.console:
            failures.append(f"{label}: console diverged from interpreter")
        if vm.stats.smc_detected != 1:
            failures.append(f"{label}: expected exactly one SMC "
                            f"detection, got {vm.stats.smc_detected}")
        if vm.stats.smc_invalidations != 1:
            failures.append(f"{label}: expected exactly one precise "
                            f"invalidation, got "
                            f"{vm.stats.smc_invalidations}")
        if vm.stats.tcache_flushes != 0:
            failures.append(f"{label}: SMC caused a whole-cache flush")
        gauges = vm.telemetry.summary()["gauges"]
        if gauges.get("smc.detected") != 1:
            failures.append(f"{label}: smc.detected gauge reads "
                            f"{gauges.get('smc.detected')}, expected 1")

    hot_ref = _reference(lambda: assemble(HOTSTORE))
    deopts = 0
    for engine in ENGINES:
        vm = CoDesignedVM(assemble(HOTSTORE),
                          VMConfig(threshold=4, exec_engine=engine))
        vm.run(max_v_instructions=100_000)
        label = f"hotstore/{engine}"
        if not vm.halted:
            failures.append(f"{label}: VM did not halt")
            continue
        if vm.interpreter.console != hot_ref.console:
            failures.append(f"{label}: console diverged from interpreter")
        if vm.stats.retranslate_deopts == 0:
            failures.append(f"{label}: store into the executing fragment "
                            "never deopted")
        if vm.stats.tcache_flushes != 0:
            failures.append(f"{label}: SMC caused a whole-cache flush")
        deopts = vm.stats.retranslate_deopts

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1

    print("ok: smc — one precise invalidation per patch under "
          f"{len(ENGINES)} engines, no cache flushes, "
          f"{deopts} RETRANSLATE deopts in the self-store loop")
    return 0


if __name__ == "__main__":
    sys.exit(main())
