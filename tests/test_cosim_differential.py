"""Differential co-simulation over the full workload suite.

For every workload, the co-designed VM (profiling, translation, chaining,
trap recovery — the whole stack) must be observationally identical to the
pure V-ISA interpreter when both run the program to its natural halt:
same final architected register state, same console output, and the same
committed-instruction accounting.

The committed counts are compared on the set of instructions that survive
translation: the translator elides architectural NOPs and plain BRs (code
straightening), so the VM's raw total undercounts relative to a naive
interpreter step count.  ``Stats.committed_v_instructions`` and the
equivalent reduction over the interpreter trace count the same notion.
"""

import pytest

from repro.harness.runner import run_original, run_vm
from repro.ildp_isa.opcodes import IFormat
from repro.translator.chaining import ChainingPolicy
from repro.vm.config import VMConfig
from repro.workloads import WORKLOAD_NAMES

#: Enough for every workload to halt naturally (gzip, the longest, needs
#: ~64k interpreter steps).
HALT_BUDGET = 200_000


def _assert_equivalent(name, config):
    trace, interp = run_original(name, budget=HALT_BUDGET)
    result = run_vm(name, config, budget=HALT_BUDGET, collect_trace=False)
    vm = result.vm

    assert vm.halted, f"{name}: VM did not reach halt"
    # the interpreter stopped short of the budget only because it halted
    assert interp.instruction_count < HALT_BUDGET, \
        f"{name}: interpreter did not reach halt"
    assert vm.state.pc == interp.state.pc
    assert vm.state.regs == interp.state.regs, \
        vm.state.diff(interp.state)
    assert vm.console_text() == interp.console_text()
    # v_weight is already 0 for NOPs; btype "uncond" marks the plain BRs
    # that code straightening removes
    expected = sum(template.v_weight
                   for template in trace.column("templates")
                   if template.btype != "uncond")
    assert result.stats.committed_v_instructions() == expected


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_vm_matches_interpreter(name):
    _assert_equivalent(name, VMConfig(fmt=IFormat.MODIFIED))


@pytest.mark.parametrize("name", ("gzip", "perlbmk", "crafty"))
@pytest.mark.parametrize("fmt", (IFormat.BASIC, IFormat.ALPHA))
def test_other_formats_match_interpreter(name, fmt):
    _assert_equivalent(name, VMConfig(fmt=fmt))


@pytest.mark.parametrize("name", ("gap", "vortex"))
@pytest.mark.parametrize("policy", (ChainingPolicy.NO_PRED,
                                    ChainingPolicy.SW_PRED_NO_RAS))
def test_other_chaining_policies_match_interpreter(name, policy):
    _assert_equivalent(name, VMConfig(fmt=IFormat.MODIFIED, policy=policy))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_execution_engines_agree(name):
    """Both execution engines must be bit-identical: same architected
    state, console, committed counts, and every ``VMStats`` counter, on
    every workload."""
    results = {}
    for engine in ("naive", "jit"):
        config = VMConfig(fmt=IFormat.MODIFIED, exec_engine=engine)
        results[engine] = run_vm(name, config, budget=HALT_BUDGET,
                                 collect_trace=False)
    naive, jit = results["naive"], results["jit"]

    assert any(f._jit_code is not None for f in jit.vm.tcache.fragments), \
        "jit engine never compiled a fragment"
    assert jit.vm.halted and naive.vm.halted
    assert jit.vm.state.pc == naive.vm.state.pc
    assert jit.vm.state.regs == naive.vm.state.regs, \
        jit.vm.state.diff(naive.vm.state)
    assert jit.vm.console_text() == naive.vm.console_text()
    assert jit.stats.committed_v_instructions() == \
        naive.stats.committed_v_instructions()
    assert vars(jit.stats) == vars(naive.stats)
