"""Execution engines: selection, equivalence, generated-code caching.

The heavyweight differential guarantees live in
``test_cosim_differential.py`` (full workloads, both engines); these are
the fast unit-level checks: engine selection and validation, interpreter
decode-cache specialization, jit-vs-naive trace equivalence, budget
behaviour, and compilation of every fragment on its first entry.
"""

import pytest

from repro.asm import assemble
from repro.ildp_isa.opcodes import IFormat
from repro.interp.interpreter import DECODE_CACHE, Interpreter
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

    def test_interpreter_rejects_unknown_engine(self):
        program = assemble(FIG2_KERNEL)
        for engine in ("bytecode", "specialized"):
            with pytest.raises(ValueError, match="exec engine"):
                Interpreter(program, exec_engine=engine)

    def test_config_roundtrip_carries_engine(self):
        config = VMConfig(exec_engine="naive")
        assert config.to_dict()["exec_engine"] == "naive"
        assert VMConfig.from_dict(config.to_dict()).exec_engine == "naive"

    def test_engines_share_result_cache_keys(self):
        naive = VMConfig(exec_engine="naive")
        jit = VMConfig(exec_engine="jit")
        assert naive.key_fields() == jit.key_fields()
        assert "exec_engine" not in naive.key_fields()


class TestInterpreterSpecialization:
    def test_decode_cache_carries_step_closures(self):
        program = assemble(FIG2_KERNEL)
        interp = Interpreter(program)
        instr = interp.fetch(program.entry)
        word = program.memory.load(program.entry, 4)
        instruction, step = DECODE_CACHE[word]
        assert instruction is instr
        assert callable(step)

    def test_interpreter_engines_agree(self):
        program_a = assemble(FIG2_KERNEL)
        program_b = assemble(FIG2_KERNEL)
        naive = Interpreter(program_a, exec_engine="naive")
        jit = Interpreter(program_b, exec_engine="jit")
        assert naive.run() == jit.run()
        assert naive.state.pc == jit.state.pc
        assert naive.state.regs == jit.state.regs
        assert naive.console == jit.console
        assert naive.instruction_count == jit.instruction_count

    def test_interpreter_events_agree(self):
        program_a = assemble(CALL_KERNEL)
        program_b = assemble(CALL_KERNEL)
        naive = Interpreter(program_a, exec_engine="naive")
        jit = Interpreter(program_b, exec_engine="jit")
        for _ in range(200):
            ev_n = naive.step()
            ev_s = jit.step()
            assert (ev_n.pc, ev_n.next_pc, ev_n.taken, ev_n.mem_addr) == \
                (ev_s.pc, ev_s.next_pc, ev_s.taken, ev_s.mem_addr)
            assert ev_n.instr is ev_s.instr     # shared decode cache


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
