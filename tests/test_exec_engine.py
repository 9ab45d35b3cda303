"""Execution engines: selection, equivalence, generated-code caching.

The engines differ only in how translated fragments run; the
interpreter has one step for both.  The heavyweight differential
guarantees live in ``test_cosim_differential.py`` (full workloads, both
engines); these are the fast unit-level checks: engine selection and
validation, jit-vs-naive trace equivalence, budget behaviour, and
compilation of every fragment on its first entry.
"""

import pytest

from repro.asm import assemble
from repro.harness.runner import run_vm
from repro.ildp_isa.opcodes import IFormat
from repro.translator.chaining import ChainingPolicy
from repro.vm import CoDesignedVM, VMConfig
from tests.conftest import CALL_KERNEL, FIG2_KERNEL, assert_traces_equal


def _run_vm(source, engine, fmt=IFormat.MODIFIED, budget=1_000_000,
            collect_trace=False):
    vm = CoDesignedVM(assemble(source),
                      VMConfig(fmt=fmt, exec_engine=engine,
                               collect_trace=collect_trace))
    vm.run(max_v_instructions=budget)
    return vm


class TestEngineSelection:
    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="exec engine"):
            VMConfig(exec_engine="bytecode")

    def test_config_roundtrip_carries_engine(self):
        config = VMConfig(exec_engine="naive")
        assert config.to_dict()["exec_engine"] == "naive"
        assert VMConfig.from_dict(config.to_dict()).exec_engine == "naive"

    def test_config_takes_format_and_policy_values(self):
        config = VMConfig(fmt="alpha", policy="no_pred")
        assert config.fmt is IFormat.ALPHA
        assert config.policy is ChainingPolicy.NO_PRED
        rebuilt = VMConfig.from_dict(config.to_dict())
        assert rebuilt.to_dict() == config.to_dict()
        assert rebuilt.fmt is IFormat.ALPHA

    @pytest.mark.parametrize("field", ("fmt", "policy"))
    def test_config_rejects_unknown_format_and_policy(self, field):
        with pytest.raises(ValueError):
            VMConfig(**{field: "bogus"})

    def test_format_value_runs_alike_under_both_engines(self):
        """A format given by its value string selects the member, so
        the naive walk writes the GPRs the jit writes."""
        naive, jit = (run_vm("eon", VMConfig(fmt="alpha", exec_engine=engine),
                             budget=60_000)
                      for engine in ("naive", "jit"))
        assert len(jit.trace) > 0
        assert_traces_equal(jit.trace, naive.trace)
        assert vars(jit.stats) == vars(naive.stats)

    def test_engines_share_result_cache_keys(self):
        naive = VMConfig(exec_engine="naive")
        jit = VMConfig(exec_engine="jit")
        assert naive.key_fields() == jit.key_fields()
        assert "exec_engine" not in naive.key_fields()


class TestExecutorSpecialization:
    @pytest.mark.parametrize("fmt",
                             (IFormat.BASIC, IFormat.MODIFIED,
                              IFormat.ALPHA))
    def test_vm_engines_agree(self, fmt):
        naive = _run_vm(FIG2_KERNEL, "naive", fmt=fmt)
        jit = _run_vm(FIG2_KERNEL, "jit", fmt=fmt)
        assert jit.halted and naive.halted
        assert jit.state.regs == naive.state.regs
        assert vars(jit.stats) == vars(naive.stats)

    def test_traces_are_identical(self):
        naive = _run_vm(CALL_KERNEL, "naive", collect_trace=True)
        jit = _run_vm(CALL_KERNEL, "jit", collect_trace=True)
        assert len(jit.trace) == len(naive.trace) > 0
        assert_traces_equal(jit.trace, naive.trace)
        assert vars(jit.stats) == vars(naive.stats)

    def test_budget_behaviour_is_identical(self):
        naive = _run_vm(FIG2_KERNEL, "naive", budget=800)
        jit = _run_vm(FIG2_KERNEL, "jit", budget=800)
        assert not naive.halted and not jit.halted
        assert jit.state.pc == naive.state.pc
        assert jit.state.regs == naive.state.regs
        assert vars(jit.stats) == vars(naive.stats)


class TestCompiledCodeCache:
    def test_executed_fragments_carry_compiled_code(self):
        """The jit compiles a fragment on its first entry: every
        fragment that ever ran carries generated code."""
        vm = _run_vm(FIG2_KERNEL, "jit")
        executed = [f for f in vm.tcache.fragments if f.execution_count]
        assert executed
        assert all(f._jit_code is not None for f in executed)

    def test_chaining_patch_invalidates_compiled_code(self):
        """A chaining patch rewrites a body instruction in place; stale
        generated code would keep exiting to the translator forever."""
        vm = _run_vm(CALL_KERNEL, "jit")
        assert vm.tcache.patches_applied > 0
        # patched fragments were recompiled and re-executed to completion:
        # the run halts only if patched branches actually chain
        assert vm.halted

    def test_naive_engine_compiles_nothing(self):
        vm = _run_vm(FIG2_KERNEL, "naive")
        assert vm.tcache.fragments
        assert all(f._jit_code is None for f in vm.tcache.fragments)
