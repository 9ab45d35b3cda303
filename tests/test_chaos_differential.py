"""Differential chaos suite: fault-injected VMs must still be correct.

Every workload runs under several seeded fault schedules — translator
aborts, injected cache-capacity misses, silent fragment corruption — and
must converge bit-identically to the fault-free pure interpreter: same
final architected state, same console output, same committed-instruction
accounting.  Faults may change *how* the run gets there (more
interpretation, flushes, retranslations), never *where* it ends up.

The suite also pins the no-op parity contract: with ``faults=None`` the
VM's injector holds the empty plan, never fires, and the run's stats
are bit-identical to a run that never heard of fault injection.
"""

import functools

import pytest

from repro.harness.runner import run_original, run_vm
from repro.vm.config import VMConfig
from repro.vm.system import TRANSLATION_RETRY_LIMIT, BudgetExceeded
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
    config = VMConfig(faults="translate")
    result = _assert_converges("gzip", config)
    stats = result.stats
    assert stats.translation_failures >= TRANSLATION_RETRY_LIMIT
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


#: ``(workload, fmt, max_host_steps)`` -> ``(host_steps or None if the
#: run halted first, interpreted_instructions, interpreted_elided,
#: source_instructions_executed, iinstructions_executed,
#: fragments_created)``, recorded when the run loop took one pass per
#: interpreted instruction.  The fuel values straddle the first hot
#: candidate's capture and translated entry (gzip at host steps 355 and
#: 356, vortex at 306 and 307) and land inside interpreter stints.
FUEL_PINS = {
    ("gzip", "basic", 1): (1, 1, 0, 0, 0, 0),
    ("gzip", "basic", 2): (2, 2, 0, 0, 0, 0),
    ("gzip", "basic", 49): (49, 49, 0, 0, 0, 0),
    ("gzip", "basic", 50): (50, 50, 0, 0, 0, 0),
    ("gzip", "basic", 51): (51, 51, 0, 0, 0, 0),
    ("gzip", "basic", 305): (305, 305, 0, 0, 0, 0),
    ("gzip", "basic", 306): (306, 306, 0, 0, 0, 0),
    ("gzip", "basic", 307): (307, 307, 0, 0, 0, 0),
    ("gzip", "basic", 354): (354, 354, 0, 0, 0, 0),
    ("gzip", "basic", 355): (355, 361, 0, 0, 0, 1),
    ("gzip", "basic", 356): (356, 361, 0, 3227, 5533, 1),
    ("gzip", "basic", 357): (357, 362, 0, 3227, 5533, 1),
    ("gzip", "basic", 777): (777, 788, 0, 4867, 8199, 2),
    ("gzip", "basic", 5000): (None, 1829, 0, 62266, 107904, 4),
    ("gzip", "modified", 1): (1, 1, 0, 0, 0, 0),
    ("gzip", "modified", 2): (2, 2, 0, 0, 0, 0),
    ("gzip", "modified", 49): (49, 49, 0, 0, 0, 0),
    ("gzip", "modified", 50): (50, 50, 0, 0, 0, 0),
    ("gzip", "modified", 51): (51, 51, 0, 0, 0, 0),
    ("gzip", "modified", 305): (305, 305, 0, 0, 0, 0),
    ("gzip", "modified", 306): (306, 306, 0, 0, 0, 0),
    ("gzip", "modified", 307): (307, 307, 0, 0, 0, 0),
    ("gzip", "modified", 354): (354, 354, 0, 0, 0, 0),
    ("gzip", "modified", 355): (355, 361, 0, 0, 0, 1),
    ("gzip", "modified", 356): (356, 361, 0, 3227, 3689, 1),
    ("gzip", "modified", 357): (357, 362, 0, 3227, 3689, 1),
    ("gzip", "modified", 777): (777, 788, 0, 4867, 5535, 2),
    ("gzip", "modified", 5000): (None, 1829, 0, 62266, 72009, 4),
    ("vortex", "basic", 1): (1, 1, 1, 0, 0, 0),
    ("vortex", "basic", 2): (2, 2, 1, 0, 0, 0),
    ("vortex", "basic", 49): (49, 49, 1, 0, 0, 0),
    ("vortex", "basic", 50): (50, 50, 1, 0, 0, 0),
    ("vortex", "basic", 51): (51, 51, 1, 0, 0, 0),
    ("vortex", "basic", 305): (305, 305, 1, 0, 0, 0),
    ("vortex", "basic", 306): (306, 311, 1, 0, 0, 1),
    ("vortex", "basic", 307): (307, 311, 1, 1230, 2051, 1),
    ("vortex", "basic", 354): (354, 358, 1, 1230, 2051, 1),
    ("vortex", "basic", 355): (355, 359, 1, 1230, 2051, 1),
    ("vortex", "basic", 356): (356, 360, 1, 1230, 2051, 1),
    ("vortex", "basic", 357): (357, 361, 1, 1230, 2051, 1),
    ("vortex", "basic", 777): (777, 781, 1, 1230, 2051, 1),
    ("vortex", "basic", 5000): (None, 2347, 1, 27199, 55291, 5),
    ("vortex", "modified", 1): (1, 1, 1, 0, 0, 0),
    ("vortex", "modified", 2): (2, 2, 1, 0, 0, 0),
    ("vortex", "modified", 49): (49, 49, 1, 0, 0, 0),
    ("vortex", "modified", 50): (50, 50, 1, 0, 0, 0),
    ("vortex", "modified", 51): (51, 51, 1, 0, 0, 0),
    ("vortex", "modified", 305): (305, 305, 1, 0, 0, 0),
    ("vortex", "modified", 306): (306, 311, 1, 0, 0, 1),
    ("vortex", "modified", 307): (307, 311, 1, 1230, 1436, 1),
    ("vortex", "modified", 354): (354, 358, 1, 1230, 1436, 1),
    ("vortex", "modified", 355): (355, 359, 1, 1230, 1436, 1),
    ("vortex", "modified", 356): (356, 360, 1, 1230, 1436, 1),
    ("vortex", "modified", 357): (357, 361, 1, 1230, 1436, 1),
    ("vortex", "modified", 777): (777, 781, 1, 1230, 1436, 1),
    ("vortex", "modified", 5000): (None, 2347, 1, 27199, 40392, 5),
}


@pytest.mark.parametrize("name,fmt,fuel", sorted(FUEL_PINS))
def test_budget_exceeded_at_pinned_host_step(name, fmt, fuel):
    """The watchdog trips at the same host step, with the same partial
    stats, however the loop batches interpreted instructions."""
    steps, *counts = FUEL_PINS[name, fmt, fuel]
    config = VMConfig(fmt=fmt, max_host_steps=fuel)
    try:
        stats = run_vm(name, config, budget=HALT_BUDGET,
                       collect_trace=False).stats
        host_steps = None
    except BudgetExceeded as exc:
        stats, host_steps = exc.stats, exc.host_steps
    assert host_steps == steps
    assert [stats.interpreted_instructions, stats.interpreted_elided,
            stats.source_instructions_executed,
            stats.iinstructions_executed,
            stats.fragments_created] == counts


def test_watchdog_off_by_default():
    assert VMConfig().max_host_steps is None


class TestNoOpParity:
    def test_faultless_vm_holds_null_injector(self):
        result = run_vm("gzip", VMConfig(), budget=HALT_BUDGET,
                        collect_trace=False)
        injector = result.vm.injector
        assert injector.plan.specs == ()
        assert injector.total_injected() == 0
        assert sum(injector.occurrences.values()) > 0   # consulted
        assert not result.vm.executor.verify

    def test_verification_alone_changes_no_stats(self):
        """Checksumming fragments on a fault-free run is pure overhead:
        every ``VMStats`` counter stays bit-identical to the baseline."""
        baseline = run_vm("gzip", VMConfig(), budget=HALT_BUDGET,
                          collect_trace=False)
        # the plan names ``corrupt``, turning checksums on, but never
        # fires: V-PCs are word-aligned
        verified = run_vm("gzip", VMConfig(faults="corrupt@vpc=0x1"),
                          budget=HALT_BUDGET, collect_trace=False)
        assert verified.vm.executor.verify
        assert verified.vm.injector.total_injected() == 0
        assert vars(verified.stats) == vars(baseline.stats)
        assert verified.vm.state.regs == baseline.vm.state.regs

    def test_faultless_resilience_counters_all_zero(self):
        result = run_vm("gzip", VMConfig(), budget=HALT_BUDGET,
                        collect_trace=False)
        assert not any(result.stats.resilience().values())
