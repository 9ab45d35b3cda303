"""Differential chaos suite: fault-injected VMs must still be correct.

Every workload runs under several seeded fault schedules — translator
aborts, injected cache-capacity misses, silent fragment corruption — and
must converge bit-identically to the fault-free pure interpreter: same
final architected state, same console output, same committed-instruction
accounting.  Faults may change *how* the run gets there (more
interpretation, flushes, retranslations), never *where* it ends up.

The suite also pins the no-op parity contract: with ``faults=None`` the
VM holds the shared ``NULL_INJECTOR`` and its stats are bit-identical to
a run that never heard of fault injection.
"""

import functools

import pytest

from repro.faults.inject import NULL_INJECTOR
from repro.harness.runner import run_original, run_vm
from repro.vm.config import VMConfig
from repro.vm.system import BudgetExceeded
from repro.workloads import WORKLOAD_NAMES

#: Enough for every workload to halt naturally (see
#: tests/test_cosim_differential.py).
HALT_BUDGET = 200_000

#: The seeded fault schedules every workload must survive: repeated
#: translator aborts (backoff + blacklist), silent fragment corruption
#: (checksum detection + invalidation), and a mixed probabilistic plan
#: with an injected capacity miss (flush + retranslate).
SCHEDULES = {
    "translate": ("translate@every=2,times=6", 7),
    "corrupt": ("corrupt@every=2,times=4", 11),
    "mixed": ("translate@p=0.5,times=3;tcache_full@count=2,times=1;"
              "corrupt@p=0.25,times=2", 13),
}


@functools.lru_cache(maxsize=None)
def _reference(name):
    """Fault-free interpreter reference, computed once per workload."""
    trace, interp = run_original(name, budget=HALT_BUDGET)
    expected_committed = sum(template.v_weight
                             for template in trace.column("templates")
                             if template.btype != "uncond")
    return interp, expected_committed


def _assert_converges(name, config):
    interp, expected_committed = _reference(name)
    result = run_vm(name, config, budget=HALT_BUDGET, collect_trace=False)
    vm = result.vm

    assert vm.halted, f"{name}: VM did not reach halt under faults"
    assert vm.state.pc == interp.state.pc
    assert vm.state.regs == interp.state.regs, \
        vm.state.diff(interp.state)
    assert vm.console_text() == interp.console_text()
    assert result.stats.committed_v_instructions() == expected_committed
    return result


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_faulted_vm_matches_interpreter(name, schedule):
    spec, seed = SCHEDULES[schedule]
    config = VMConfig(faults=spec, fault_seed=seed)
    result = _assert_converges(name, config)
    # the plan must actually have struck: a chaos suite that injects
    # nothing proves nothing
    assert result.vm.injector.total_injected() > 0


@pytest.mark.parametrize("name", ("gzip", "vortex", "gcc"))
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_jit_chaos_matches_specialized(name, schedule):
    """Under identical seeded fault schedules the jit engine must be
    ``VMStats``-bit-identical to the naive reference engine: injections
    strike the same sites in the same order, corruption detection and
    chaining patches discard generated code without observable skew."""
    spec, seed = SCHEDULES[schedule]
    results = {}
    for engine in ("naive", "jit"):
        config = VMConfig(faults=spec, fault_seed=seed, exec_engine=engine)
        results[engine] = run_vm(name, config, budget=HALT_BUDGET,
                                 collect_trace=False)
    jit, naive = results["jit"], results["naive"]
    assert jit.vm.halted and naive.vm.halted
    assert jit.vm.injector.total_injected() > 0
    assert jit.vm.state.pc == naive.vm.state.pc
    assert jit.vm.state.regs == naive.vm.state.regs, \
        jit.vm.state.diff(naive.vm.state)
    assert jit.vm.console_text() == naive.vm.console_text()
    assert vars(jit.stats) == vars(naive.stats)


@pytest.mark.parametrize("name", ("gzip", "crafty", "vortex"))
def test_capacity_bound_converges(name):
    """A genuinely bounded cache flushes and retranslates its way to the
    same answer (no injection involved — the real capacity path).

    100 bytes holds one or two fragments of any suite workload, so
    installs genuinely collide; vortex even carries one fragment larger
    than the whole cache, exercising the never-installable path."""
    config = VMConfig(tcache_capacity_bytes=100, flush_storm_window=0)
    result = _assert_converges(name, config)
    assert result.stats.tcache_capacity_flushes >= 1


def test_translate_faults_backoff_then_blacklist():
    """An always-failing entry PC is retried with backoff, then
    blacklisted to interpretation — and the run still converges."""
    config = VMConfig(faults="translate", translation_retry_limit=2)
    result = _assert_converges("gzip", config)
    stats = result.stats
    assert stats.translation_failures >= 2
    assert stats.translation_pcs_blacklisted >= 1
    assert result.vm.profiler.blacklisted_count() >= 1
    assert stats.fragments_created == 0    # nothing ever translated


def test_corrupt_fragments_detected_and_recovered():
    config = VMConfig(faults="corrupt@every=2,times=3", fault_seed=1)
    result = _assert_converges("gzip", config)
    assert result.stats.corrupt_fragments_detected >= 1
    # resilience() mirrors the counters render_lines/telemetry consume
    assert result.stats.resilience()["corrupt_fragments_detected"] == \
        result.stats.corrupt_fragments_detected


def test_flush_storm_suppressed():
    """With a huge storm window, back-to-back capacity flushes are
    vetoed and the colliding PCs degrade to interpretation instead."""
    config = VMConfig(tcache_capacity_bytes=100,
                      flush_storm_window=HALT_BUDGET)
    result = _assert_converges("crafty", config)
    assert result.stats.tcache_capacity_flushes == 1
    assert result.stats.flush_storms_suppressed >= 1


def test_budget_exceeded_carries_partial_stats():
    config = VMConfig(max_host_steps=100)
    with pytest.raises(BudgetExceeded) as excinfo:
        run_vm("gzip", config, budget=HALT_BUDGET, collect_trace=False)
    assert excinfo.value.host_steps == 100
    assert excinfo.value.stats.total_v_instructions() > 0


def test_watchdog_off_by_default():
    assert VMConfig().max_host_steps is None


class TestNoOpParity:
    def test_faultless_vm_holds_null_injector(self):
        result = run_vm("gzip", VMConfig(), budget=HALT_BUDGET,
                        collect_trace=False)
        assert result.vm.injector is NULL_INJECTOR

    def test_verification_alone_changes_no_stats(self):
        """Checksumming fragments on a fault-free run is pure overhead:
        every ``VMStats`` counter stays bit-identical to the baseline."""
        baseline = run_vm("gzip", VMConfig(), budget=HALT_BUDGET,
                          collect_trace=False)
        verified = run_vm("gzip", VMConfig(verify_fragments=True),
                          budget=HALT_BUDGET, collect_trace=False)
        assert vars(verified.stats) == vars(baseline.stats)
        assert verified.vm.state.regs == baseline.vm.state.regs

    def test_faultless_resilience_counters_all_zero(self):
        result = run_vm("gzip", VMConfig(), budget=HALT_BUDGET,
                        collect_trace=False)
        assert not any(result.stats.resilience().values())
