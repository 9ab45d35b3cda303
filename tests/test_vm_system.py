"""End-to-end VM tests across the full workload suite."""

import gc
import weakref

import pytest

from repro.harness.runner import run_original, run_vm
from repro.ildp_isa.opcodes import IFormat
from repro.interp import Interpreter
from repro.translator.chaining import ChainingPolicy
from repro.vm import CoDesignedVM, VMConfig
from repro.vm.config import DEFAULT_MAX_SUPERBLOCK
from repro.workloads import WORKLOAD_NAMES, get_workload

BUDGET = 150_000


def reference_for(name):
    workload = get_workload(name)
    interp = Interpreter(workload.program())
    interp.run(max_instructions=2_000_000)
    return interp


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("fmt", (IFormat.BASIC, IFormat.MODIFIED))
def test_workload_cosimulation(name, fmt):
    reference = reference_for(name)
    vm = CoDesignedVM(get_workload(name).program(), VMConfig(fmt=fmt))
    vm.run(max_v_instructions=2_000_000)
    assert vm.halted
    assert vm.interpreter.console == reference.console
    assert vm.state.regs == reference.state.regs


@pytest.mark.parametrize("name", ("eon", "perlbmk", "vortex"))
@pytest.mark.parametrize("policy", (ChainingPolicy.NO_PRED,
                                    ChainingPolicy.SW_PRED_NO_RAS))
def test_indirect_heavy_workloads_all_policies(name, policy):
    reference = reference_for(name)
    vm = CoDesignedVM(get_workload(name).program(),
                      VMConfig(fmt=IFormat.MODIFIED, policy=policy))
    vm.run(max_v_instructions=2_000_000)
    assert vm.halted
    assert vm.interpreter.console == reference.console


class TestStatsSanity:
    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for fmt in (IFormat.BASIC, IFormat.MODIFIED):
            vm = CoDesignedVM(get_workload("gzip").program(),
                              VMConfig(fmt=fmt))
            vm.run(max_v_instructions=BUDGET)
            out[fmt] = vm
        return out

    def test_modified_expands_less(self, runs):
        assert runs[IFormat.MODIFIED].stats.dynamic_expansion() < \
            runs[IFormat.BASIC].stats.dynamic_expansion()

    def test_modified_copies_fewer(self, runs):
        assert runs[IFormat.MODIFIED].stats.copy_percentage() < \
            runs[IFormat.BASIC].stats.copy_percentage()

    def test_expansion_above_one(self, runs):
        for vm in runs.values():
            assert vm.stats.dynamic_expansion() > 1.0

    def test_interpreted_covers_warmup(self, runs):
        # hot threshold 50: the loop body runs interpreted ~50 times first
        for vm in runs.values():
            assert vm.stats.interpreted_instructions > 400

    def test_fragment_execution_counts(self, runs):
        for vm in runs.values():
            assert any(f.execution_count > 10
                       for f in vm.tcache.fragments)

    def test_usage_histogram_nonempty(self, runs):
        vm = runs[IFormat.MODIFIED]
        histogram = vm.stats.dynamic_usage_histogram(vm.tcache)
        assert sum(histogram.values()) > 0

    def test_summary_keys(self, runs):
        summary = runs[IFormat.BASIC].stats.summary()
        for key in ("interpreted", "translated_v", "dynamic_expansion",
                    "copy_pct", "fragments"):
            assert key in summary


class TestProfilerIntegration:
    def test_candidates_accumulate(self):
        vm = CoDesignedVM(get_workload("gcc").program(),
                          VMConfig(fmt=IFormat.MODIFIED))
        vm.run(max_v_instructions=BUDGET)
        assert vm.profiler.candidate_count() > 2

    def test_threshold_respected(self):
        # a very high threshold means nothing ever gets translated
        vm = CoDesignedVM(get_workload("gzip").program(),
                          VMConfig(fmt=IFormat.MODIFIED, threshold=10**9))
        vm.run(max_v_instructions=20_000)
        assert vm.stats.fragments_created == 0
        assert vm.stats.interpreted_instructions >= 20_000

    def test_max_superblock_bounds_fragments(self):
        vm = CoDesignedVM(get_workload("gzip").program(),
                          VMConfig(fmt=IFormat.MODIFIED))
        vm.run(max_v_instructions=BUDGET)
        assert vm.halted is True or vm.stats.fragments_created > 0
        for fragment in vm.tcache.fragments:
            assert len(fragment.superblock.entries) <= \
                DEFAULT_MAX_SUPERBLOCK


class TestTranslationCost:
    def test_cost_accumulates(self):
        vm = CoDesignedVM(get_workload("gzip").program(),
                          VMConfig(fmt=IFormat.MODIFIED))
        vm.run(max_v_instructions=BUDGET)
        cost = vm.cost_model
        assert cost.fragments == vm.stats.fragments_created
        assert cost.per_translated_instruction() > 0
        assert 0 < cost.phase_fraction("tcache_copy") < 1


class TestRunLifetime:
    def test_finished_traced_run_is_freed_without_collector(self):
        """With the cyclic collector off, a finished traced VM, its
        trace and its translation cache die as soon as the caller drops
        the result: none of the hooks wired between the VM, the cache
        and guest memory refers back to its owner."""

        class Marker:
            pass

        gc.collect()
        gc.disable()
        try:
            result = run_vm("twolf", VMConfig(), budget=20_000)
            assert result.vm.stats.fragments_created > 0
            assert result.trace
            marker = Marker()
            result.trace.append(marker)   # a template: lives exactly as
            trace_alive = weakref.ref(marker)   # long as the trace
            vm_alive = weakref.ref(result.vm)
            tcache_alive = weakref.ref(result.tcache)
            del marker, result
            assert vm_alive() is None, "finished VM outlived its result"
            assert trace_alive() is None, "trace outlived its result"
            assert tcache_alive() is None, "tcache outlived its result"
        finally:
            gc.enable()

    @pytest.mark.parametrize("engine", ("jit", "naive"))
    def test_finished_run_frees_interpreter_and_guest_memory(self, engine):
        """With the cyclic collector off, a traced run's interpreter and
        its guest memory die with the result: the interpreter's ``step``
        is bound per class, so it holds no reference back to itself."""
        gc.collect()
        gc.disable()
        try:
            result = run_vm("bzip2", VMConfig(exec_engine=engine),
                            budget=20_000)
            assert result.trace
            interpreter_alive = weakref.ref(result.vm.interpreter)
            memory_alive = weakref.ref(result.vm.program.memory)
            del result
            assert interpreter_alive() is None, \
                "interpreter outlived its result"
            assert memory_alive() is None, "guest memory outlived its result"
        finally:
            gc.enable()

    def test_dropped_original_run_interpreter_is_freed(self):
        """The interpreter ``run_original`` returns, and the guest memory
        it ran, die as soon as the caller drops it."""
        gc.collect()
        gc.disable()
        try:
            trace, interpreter = run_original("bzip2", budget=20_000)
            assert trace
            interpreter_alive = weakref.ref(interpreter)
            memory_alive = weakref.ref(interpreter.memory)
            del interpreter
            assert interpreter_alive() is None, \
                "interpreter outlived its caller's reference"
            assert memory_alive() is None, "guest memory outlived its run"
        finally:
            gc.enable()
