"""Shared fixtures and helpers for the test suite."""

import pytest

from repro.asm import assemble
from repro.ildp_isa.opcodes import IFormat
from repro.interp import Interpreter
from repro.translator.chaining import ChainingPolicy
from repro.vm import CoDesignedVM, VMConfig
from repro.vm.events import first_difference

#: The paper's Fig. 2 kernel (the 164.gzip inner loop), wrapped in enough
#: scaffolding to run: a CRC pass over a byte buffer through a table.
FIG2_KERNEL = """
        .text
_start: la   r16, buf
        la   r0, table
        li   r17, 200
        clr  r1
loop:   ldbu r3, 0(r16)
        subl r17, 1, r17
        lda  r16, 1(r16)
        xor  r1, r3, r3
        srl  r1, 8, r1
        and  r3, 0xff, r3
        s8addq r3, r0, r3
        ldq  r3, 0(r3)
        xor  r3, r1, r1
        bne  r17, loop
        and  r1, 0x7f, r16
        call_pal putc
        call_pal halt
        .data
buf:    .space 256, 7
        .align 8
table:  .space 2048, 3
"""

#: A call/return-heavy program exercising BSR/RET and the RAS.
CALL_KERNEL = """
        .text
_start: br   main
double: addq r16, r16, r0
        ret
incr:   addq r16, 1, r0
        ret
main:   li   r15, 120
        clr  r14
loop:   mov  r14, r16
        bsr  r26, double
        mov  r0, r16
        bsr  r26, incr
        mov  r0, r14
        subq r15, 1, r15
        bne  r15, loop
        and  r14, 0x7f, r16
        call_pal putc
        call_pal halt
"""

ALL_FORMATS = (IFormat.BASIC, IFormat.MODIFIED, IFormat.ALPHA)
ALL_POLICIES = (ChainingPolicy.NO_PRED, ChainingPolicy.SW_PRED_NO_RAS,
                ChainingPolicy.SW_PRED_RAS)


def run_reference(source, max_instructions=1_000_000):
    """Interpret a program to completion; returns the interpreter."""
    interp = Interpreter(assemble(source))
    interp.run(max_instructions=max_instructions)
    return interp


def run_cosim(source, config, max_v_instructions=1_000_000):
    """Run a program under the co-designed VM; returns the VM."""
    vm = CoDesignedVM(assemble(source), config)
    vm.run(max_v_instructions=max_v_instructions)
    return vm


def assert_traces_equal(ours, reference):
    """Two traces hold the same rows: all five columns equal, templates
    compared by value."""
    difference = first_difference(ours, reference)
    assert difference is None, difference


def assert_cosim_equivalent(source, config, max_instructions=1_000_000):
    """The VM must produce the reference's console and register state."""
    reference = run_reference(source, max_instructions)
    vm = run_cosim(source, config, max_instructions)
    assert vm.halted, "VM did not halt"
    assert vm.interpreter.console == reference.console
    assert vm.state.regs == reference.state.regs, \
        vm.state.diff(reference.state)
    return vm


@pytest.fixture
def fig2_program():
    return assemble(FIG2_KERNEL)


@pytest.fixture
def fig2_source():
    return FIG2_KERNEL


@pytest.fixture
def call_source():
    return CALL_KERNEL
