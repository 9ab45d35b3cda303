#!/usr/bin/env python
"""Smoke-test precise self-modifying-code invalidation.

Runs a hand-written kernel that maps its code page, gets its loop hot
(translated), patches one instruction of that loop from guest code and
keeps running over the rewritten text.  Checks, under every execution
engine, that the VM (a) produces the pure interpreter's console, (b)
detects the store into translated code exactly once
(``VMStats.smc_detected``) and (c) invalidates only the overlapping
fragment — never the whole cache.  A second
kernel stores into its *own executing* fragment every iteration and must
survive through RETRANSLATE deopts instead of guest-visible traps.
Two more kernels invalidate from *interpreted* code and then run into
the invalidated entry: a cold store patches an already-translated loop
(which must retranslate the new word), and a cold ``protect`` drops
``PROT_EXEC`` on a translated page before calling into it again (which
must fault in the interpreter, as the pure interpreter does).  Each
must match the interpreter's console and registers, with equal
``VMStats`` under both engines.  Exits non-zero on any failure.

Usage: PYTHONPATH=src python scripts/smoke_smc.py
"""

import sys

from repro.asm import assemble
from repro.interp import Interpreter
from repro.isa.encoding import encode
from repro.isa.instruction import Instruction
from repro.isa.semantics import Trap
from repro.memory.image import PROT_READ, PROT_WRITE
from repro.vm import CoDesignedVM, VMConfig
from repro.vm.traps import VMTrap

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

#: Translate the inner loop on the first outer pass; after the second,
#: cold interpreted code patches its first word with the donor and the
#: third pass re-enters it (40 printed; a stale translation prints 30).
COLDSTORE = """
        .text
_start: la   r5, donor
        ldl  r6, 0(r5)
        la   r7, slot
        clr  r3
        li   r8, 3
outer:  li   r2, 10
slot:   addq r3, 1, r3
        subq r2, 1, r2
        bne  r2, slot
        cmpeq r8, 2, r4
        beq  r4, skip
        stl  r6, 0(r7)
skip:   subq r8, 1, r8
        bne  r8, outer
        and  r3, 0x7f, r16
        call_pal putc
        call_pal halt
        .data
donor:  .space 4, 0
"""

#: Translate ``hot`` on its own text page, then from cold interpreted
#: code drop its execute permission and call it again: the re-entry
#: must fault in the interpreter's fetch.
COLDPROTECT = """
        .text
_start: clr  r3
        li   r2, 10
        bsr  r26, hot
        and  r3, 0x7f, r16
        call_pal putc
        la   r16, hot
        li   r17, 8
        li   r18, {prot}
        call_pal protect
        li   r2, 10
        bsr  r26, hot
        call_pal halt
        .align 4096
hot:    addq r3, 1, r3
        subq r2, 1, r2
        bne  r2, hot
        ret  r31, (r26)
""".format(prot=PROT_READ | PROT_WRITE)


def _with_donor(source):
    program = assemble(source)
    donor = encode(Instruction("addq", ra=3, rc=3, imm=2, islit=True))
    program.memory.write_bytes(program.symbols["donor"],
                               donor.to_bytes(4, "little"))
    return program


def _reference(program_factory):
    interp = Interpreter(program_factory())
    interp.run(max_instructions=100_000)
    return interp


def _check_cold_invalidation(label, program_factory, expected, failures):
    """Run one cold-invalidation kernel under both engines against the
    pure interpreter; ``expected`` maps VMStats fields to values."""
    reference = Interpreter(program_factory())
    ref_trap = None
    try:
        reference.run(max_instructions=100_000)
    except Trap as trap:
        ref_trap = (trap.kind, trap.vpc, trap.address, trap.access)
    baseline = None
    for engine in ENGINES:
        vm = CoDesignedVM(program_factory(),
                          VMConfig(threshold=4, exec_engine=engine))
        trap = None
        regs = vm.state.regs
        try:
            vm.run(max_v_instructions=100_000)
        except VMTrap as exc:
            trap = (exc.trap.kind, exc.trap.vpc, exc.trap.address,
                    exc.trap.access)
            regs = exc.state.regs
        where = f"{label}/{engine}"
        if trap != ref_trap:
            failures.append(f"{where}: trap {trap} against the "
                            f"interpreter's {ref_trap}")
        elif ref_trap is None and not vm.halted:
            failures.append(f"{where}: VM did not halt")
        if vm.interpreter.console != reference.console:
            failures.append(f"{where}: console diverged from interpreter")
        if regs != reference.state.regs:
            failures.append(f"{where}: registers diverged from "
                            "interpreter")
        for field, value in expected.items():
            if getattr(vm.stats, field) != value:
                failures.append(f"{where}: expected {field} {value}, got "
                                f"{getattr(vm.stats, field)}")
        if baseline is None:
            baseline = vars(vm.stats)
        elif vars(vm.stats) != baseline:
            failures.append(f"{where}: VMStats differ between engines")


def main():
    failures = []

    oneshot_ref = _reference(lambda: _with_donor(ONESHOT))
    for engine in ENGINES:
        vm = CoDesignedVM(_with_donor(ONESHOT),
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

    _check_cold_invalidation(
        "coldstore", lambda: _with_donor(COLDSTORE),
        {"smc_detected": 1, "smc_invalidations": 1,
         "retranslate_deopts": 0, "tcache_flushes": 0}, failures)
    _check_cold_invalidation(
        "coldprotect", lambda: assemble(COLDPROTECT),
        {"protect_invalidations": 1, "retranslate_deopts": 0}, failures)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1

    print("ok: smc — one precise invalidation per patch under "
          f"{len(ENGINES)} engines, no cache flushes, "
          f"{deopts} RETRANSLATE deopts in the self-store loop, "
          "interpreted store and protect invalidations match the "
          "interpreter")
    return 0


if __name__ == "__main__":
    sys.exit(main())
