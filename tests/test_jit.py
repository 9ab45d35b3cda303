"""JIT engine: compilation, parity, guarded deopt, invalidation.

The heavyweight engine-differential guarantees live in
``test_cosim_differential.py`` (all workloads, both engines) and in the
fuzz corpus replay; these are the unit-level checks for the jit
machinery itself: generated-source introspection, trap deoptimisation
with precise state, compile-failure degradation, and the invalidation
paths (chaining patches, corruption recovery) that must discard
generated code.
"""

import pytest

import repro.vm.executor as executor_mod
from repro.asm import assemble
from repro.ildp_isa.instruction import IInstruction
from repro.ildp_isa.opcodes import IFormat, IOp
from repro.interp.state import ArchState
from repro.isa.semantics import TrapKind
from repro.memory.image import Memory
from repro.tcache.cache import TranslationCache
from repro.tcache.fragment import Fragment
from repro.vm import CoDesignedVM, VMConfig, VMTrap
from repro.vm.events import Trace
from repro.vm.executor import FragmentExecutor, StalenessError
from repro.vm.stats import VMStats
from tests.conftest import (
    ALL_FORMATS,
    CALL_KERNEL,
    FIG2_KERNEL,
    assert_traces_equal,
)
from tests.test_hostile import _SMC_HOTSTORE
from tests.test_traps import FAULTING_LOAD, FAULTING_STORE, GENTRAP_KERNEL


def _config(engine="jit", fmt=IFormat.MODIFIED, **overrides):
    return VMConfig(fmt=fmt, exec_engine=engine,
                    collect_trace=overrides.pop("collect_trace", False),
                    **overrides)


def _run(source, config, budget=1_000_000):
    vm = CoDesignedVM(assemble(source), config)
    vm.run(max_v_instructions=budget)
    return vm


def _run_trap(source, config, budget=1_000_000):
    vm = CoDesignedVM(assemble(source), config)
    with pytest.raises(VMTrap) as excinfo:
        vm.run(max_v_instructions=budget)
    return excinfo.value, vm


def _promoted(vm):
    return [f for f in vm.tcache.fragments if f._jit_code is not None]


class TestPromotion:
    def test_hot_fragments_promote(self):
        vm = _run(FIG2_KERNEL, _config())
        assert vm.halted
        promoted = _promoted(vm)
        assert promoted, "no fragment was compiled"
        for fragment in promoted:
            assert fragment._jit_key is not None
            assert len(fragment._jit_code._jit_source) > 0

    @pytest.mark.parametrize("engine", ("naive",))
    def test_other_engines_never_promote(self, engine):
        vm = _run(FIG2_KERNEL, _config(engine=engine))
        assert vm.halted
        assert not _promoted(vm)

    def test_generated_source_is_introspectable(self):
        vm = _run(FIG2_KERNEL, _config())
        source = _promoted(vm)[0]._jit_code._jit_source
        assert source.startswith("def _jit_f")
        # compile-time-constant statistics, not per-instruction
        # increments
        assert "_stats.iinstructions_executed +=" in source
        # every fragment ends in an explicit outcome
        assert "return" in source

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("source", (FIG2_KERNEL, CALL_KERNEL),
                             ids=("fig2", "call"))
    def test_statistics_only_at_exits(self, source, fmt):
        """A visit adds its statistics once, at the exit it leaves by:
        every return is preceded by ``_stats`` additions, and every run
        of them is followed by a return or a raise (after a trap
        handler's body index), so a not-taken branch runs none."""
        vm = _run(source, _config(fmt=fmt))
        assert _promoted(vm)
        for fragment in _promoted(vm):
            text = fragment._jit_code._jit_source
            lines = [line.strip() for line in text.splitlines()] + [""]
            for number, line in enumerate(lines[:-1]):
                after = lines[number + 1]
                if line.startswith("_stats.") and \
                        not after.startswith("_stats."):
                    if after.startswith("ex._jit_pei = "):
                        after = lines[number + 2]
                    assert after.startswith(("return", "raise")), text
                if line.startswith("return"):
                    assert lines[number - 1].startswith("_stats."), text

    def test_compile_failure_degrades_to_tier1(self, monkeypatch):
        """A fragment whose compile raises runs through the body walk
        and still matches the naive engine exactly."""
        def broken(_ex, fragment):
            raise RuntimeError(f"no codegen for f{fragment.fid}")

        monkeypatch.setattr(executor_mod, "_compile_fragment_jit", broken)
        vm = _run(FIG2_KERNEL, _config())
        reference = _run(FIG2_KERNEL, _config(engine="naive"))
        assert vm.halted
        assert not _promoted(vm)
        assert any(f._jit_failed for f in vm.tcache.fragments), \
            "compile failure did not pin any fragment"
        assert vm.state.regs == reference.state.regs
        assert vars(vm.stats) == vars(reference.stats)


class TestParity:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("source", (FIG2_KERNEL, CALL_KERNEL),
                             ids=("fig2", "call"))
    def test_kernels_match_naive(self, source, fmt):
        jit = _run(source, _config(fmt=fmt))
        naive = _run(source, _config(engine="naive", fmt=fmt))
        assert jit.halted and naive.halted
        assert _promoted(jit), "generated code never ran"
        assert jit.state.pc == naive.state.pc
        assert jit.state.regs == naive.state.regs, \
            jit.state.diff(naive.state)
        assert jit.console_text() == naive.console_text()
        assert vars(jit.stats) == vars(naive.stats)

    def test_budget_behaviour_is_identical(self):
        jit = _run(FIG2_KERNEL, _config(), budget=800)
        naive = _run(FIG2_KERNEL, _config(engine="naive"), budget=800)
        assert not jit.halted and not naive.halted
        assert jit.state.pc == naive.state.pc
        assert jit.state.regs == naive.state.regs
        assert vars(jit.stats) == vars(naive.stats)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("source", (FIG2_KERNEL, CALL_KERNEL),
                             ids=("fig2", "call"))
    def test_traced_visits_run_prebuilt_steps(self, source, fmt):
        """Trace-collecting runs execute each fragment as prebuilt steps
        (no generated source), which append the rows the naive walk
        appends: every column and every ``VMStats`` counter agree."""
        jit = _run(source, _config(fmt=fmt, collect_trace=True))
        naive = _run(source, _config(engine="naive", fmt=fmt,
                                     collect_trace=True))
        assert _promoted(jit), "no fragment was built"
        for fragment in _promoted(jit):
            assert fragment._jit_code.__module__ == "repro.vm.steps"
            assert not hasattr(fragment._jit_code, "_jit_source")
        assert len(jit.trace) == len(naive.trace) > 0
        assert_traces_equal(jit.trace, naive.trace)
        assert vars(jit.stats) == vars(naive.stats)


#: A loop that calls ``protect`` on its own text page every iteration,
#: keeping execute permission until the iteration at r2 == 3, whose
#: call revokes it: that call invalidates the running fragment, so the
#: stint deopts through RETRANSLATE, and the next fetch faults.
PROTECT_KERNEL = """
_start: li   r2, 20
        li   r9, 3
        clr  r3
loop:   addq r3, 1, r3
        subq r2, 1, r2
        li   r18, 7
        cmpeq r2, 3, r4
        cmovne r4, r9, r18
        la   r16, _start
        li   r17, 8
        call_pal protect
        bne  r2, loop
        call_pal halt
"""

#: case -> (source, VMConfig overrides, trap kind the run ends with or
#: None when it halts, whether a stint leaves its steps through a trap).
#: GENTRAP_KERNEL's trap fires in its cold block, which is interpreted,
#: after its loop has run as steps.
_TRACED_DEOPTS = {
    "faulting-load": (FAULTING_LOAD, {}, TrapKind.ACCESS_VIOLATION, True),
    "faulting-store": (FAULTING_STORE, {}, TrapKind.ACCESS_VIOLATION,
                       True),
    "gentrap": (GENTRAP_KERNEL, {}, TrapKind.GENTRAP, False),
    "smc-store": (_SMC_HOTSTORE, {"threshold": 2}, None, True),
    "protect": (PROTECT_KERNEL, {"threshold": 4},
                TrapKind.PROTECTION_VIOLATION, True),
}


class TestTrapDeopt:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_faulting_load_matches_naive(self, fmt):
        jit_trap, jit_vm = _run_trap(FAULTING_LOAD, _config(fmt=fmt))
        ref_trap, ref_vm = _run_trap(FAULTING_LOAD,
                                     _config(engine="naive", fmt=fmt))
        assert _promoted(jit_vm), "trap never reached generated code"
        assert jit_trap.trap.kind is TrapKind.ACCESS_VIOLATION
        assert jit_trap.trap.kind is ref_trap.trap.kind
        assert jit_trap.trap.vpc == ref_trap.trap.vpc
        assert jit_trap.state.pc == ref_trap.state.pc
        assert jit_trap.state.regs == ref_trap.state.regs, \
            jit_trap.state.diff(ref_trap.state)
        assert vars(jit_vm.stats) == vars(ref_vm.stats)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_gentrap_matches_naive(self, fmt):
        jit_trap, jit_vm = _run_trap(GENTRAP_KERNEL, _config(fmt=fmt))
        ref_trap, ref_vm = _run_trap(GENTRAP_KERNEL,
                                     _config(engine="naive", fmt=fmt))
        assert jit_trap.trap.kind is TrapKind.GENTRAP
        assert jit_trap.trap.vpc == ref_trap.trap.vpc
        assert jit_trap.state.pc == ref_trap.state.pc
        assert jit_trap.state.regs == ref_trap.state.regs
        assert vars(jit_vm.stats) == vars(ref_vm.stats)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("case", sorted(_TRACED_DEOPTS))
    def test_traced_deopt_matches_naive(self, case, fmt):
        """A traced stint that leaves its steps through a trap keeps
        exactly the naive walk's rows: a faulting load or store
        gets none, a store or protect call that forces RETRANSLATE keeps
        its row."""
        source, overrides, kind, deopts = _TRACED_DEOPTS[case]
        runs = {}
        for engine in ("jit", "naive"):
            vm = CoDesignedVM(assemble(source), _config(
                engine=engine, fmt=fmt, collect_trace=True, **overrides))
            try:
                vm.run(max_v_instructions=1_000_000)
                trap = None
            except VMTrap as exc:
                trap = exc.trap
            runs[engine] = (vm, trap)
        (jit_vm, jit_trap), (ref_vm, ref_trap) = runs["jit"], runs["naive"]
        counters = jit_vm.telemetry.summary()["counters"]
        assert counters["jit.promotions"] >= 1, "no fragment was built"
        assert (counters["jit.deopts"] >= 1) is deopts
        if kind is None:
            assert jit_trap is None and ref_trap is None
            assert jit_vm.stats.retranslate_deopts >= 1
        else:
            assert jit_trap.kind is ref_trap.kind is kind
            assert jit_trap.vpc == ref_trap.vpc
        assert_traces_equal(jit_vm.trace, ref_vm.trace)
        assert vars(jit_vm.stats) == vars(ref_vm.stats)

    def test_deopts_are_counted(self):
        _trap, vm = _run_trap(FAULTING_LOAD, _config())
        counters = vm.telemetry.summary()["counters"]
        assert counters["jit.promotions"] >= 1
        assert counters["jit.deopts"] >= 1


def _stale_body(case):
    """A fresh modified-format body whose first ALU writes r5
    non-operationally (so r5 is stale), then the case's read of r5: a
    load, a store of an accumulator, or a store whose data r6 is stale
    too; then a halt."""
    tail = {
        "load": [IInstruction(IOp.LOAD, acc=1, addr_src="gpr", gpr=5,
                              vpc=0x1004)],
        "store": [IInstruction(IOp.STORE, acc=0, addr_src="gpr", gpr=5,
                               data_src="acc", vpc=0x1004)],
        "store-stale-data": [
            IInstruction(IOp.ALU, op="addq", acc=1, src_a="zero",
                         src_b="imm", imm=7, islit=True, dest_gpr=6,
                         operational=False, vpc=0x1004),
            IInstruction(IOp.STORE, addr_src="gpr", gpr=5,
                         data_src="gpr2", gpr2=6, vpc=0x1008)],
    }[case]
    return [IInstruction(IOp.ALU, op="addq", acc=0, src_a="zero",
                         src_b="imm", imm=0x2000, islit=True, dest_gpr=5,
                         operational=False, vpc=0x1000),
            *tail, IInstruction(IOp.HALT, vpc=0x100C)]


class TestStalenessStop:
    @staticmethod
    def _stopped_run(case, engine, traced):
        """Run the case's body once as a fresh fragment; returns the
        StalenessError's text, the stats, the executor's jit counters
        and the trace."""
        body = _stale_body(case)
        memory = Memory()
        memory.map_segment("data", 0x2000, 0x1000)
        tcache = TranslationCache()
        fragment = Fragment(entry_vpc=0x1000, fmt=IFormat.MODIFIED,
                            body=body, exits=[], pei_table=[],
                            source_instr_count=len(body) - 1,
                            n_accumulators=4)
        tcache.add(fragment)
        stats = VMStats()
        trace = Trace() if traced else None
        executor = FragmentExecutor(
            VMConfig(fmt=IFormat.MODIFIED, exec_engine=engine), tcache,
            memory, [], stats, trace=trace)
        with pytest.raises(StalenessError) as excinfo:
            executor.run(fragment, ArchState(0x1000))
        counters = executor.telemetry.summary()["counters"]
        return str(excinfo.value), vars(stats), counters, trace

    @pytest.mark.parametrize("case", ("load", "store",
                                      "store-stale-data"))
    def test_engines_stop_on_the_same_read(self, case):
        """The walk reads a store's address before its data, so each
        body stops on r5; generated code and traced steps raise the
        same error with the same statistics, and neither build fails."""
        runs = {(engine, traced): self._stopped_run(case, engine, traced)
                for engine in ("naive", "jit") for traced in (False, True)}
        message, stats, _counters, trace = runs["naive", True]
        assert message.startswith("r5 read while operationally stale")
        for (engine, traced), run in runs.items():
            assert run[0] == message, (engine, traced)
            assert run[1] == stats, (engine, traced)
            if engine == "jit":
                assert run[2]["jit.compile_failures"] == 0, traced
                assert run[2]["jit.promotions"] == 1, traced
        assert_traces_equal(runs["jit", True][3], trace)


#: Two alternating hot loops under one outer loop.  The ``warm`` loop
#: is compiled while its fall-through exit still points at the
#: untranslated ``cold`` region; when ``cold`` finally translates, the
#: chaining patch rewrites the *compiled* fragment — and the outer loop
#: then enters it again.
LATE_CHAIN_KERNEL = """
        .text
_start: clr  r14
        clr  r13
        li   r12, 3
outer:  li   r15, 40
warm:   addq r14, 1, r14
        subq r15, 1, r15
        bne  r15, warm
        li   r15, 40
cold:   addq r13, 2, r13
        subq r15, 1, r15
        bne  r15, cold
        subq r12, 1, r12
        bne  r12, outer
        and  r14, 0x7f, r16
        call_pal putc
        call_pal halt
"""


class TestInvalidation:
    """Chaining patches and corruption recovery must discard generated
    code."""

    def test_chaining_patch_discards_then_recompiles(self, monkeypatch):
        """A fragment compiled before its exit is patched must be
        recompiled against the patched body: compile -> chaining patch
        -> compile again for the same fragment."""
        from repro.tcache.cache import TranslationCache
        from repro.vm.jit import compile_fragment_jit

        log = []

        def compile_logged(executor, fragment):
            log.append(("compile", fragment.fid))
            return compile_fragment_jit(executor, fragment)

        invalidate = TranslationCache._invalidate

        def invalidate_logged(tcache, fragment, clean=True):
            log.append(("patch", fragment.fid))
            invalidate(tcache, fragment, clean)

        monkeypatch.setattr(executor_mod, "_compile_fragment_jit",
                            compile_logged)
        monkeypatch.setattr(TranslationCache, "_invalidate",
                            invalidate_logged)
        config = VMConfig(threshold=2, exec_engine="jit")
        vm = _run(LATE_CHAIN_KERNEL, config)
        assert vm.halted
        assert vm.tcache.patches_applied > 0
        promoted = set()
        patched_after_promotion = set()
        repromoted = set()
        for what, fid in log:
            if what == "compile":
                if fid in patched_after_promotion:
                    repromoted.add(fid)
                promoted.add(fid)
            elif fid in promoted:
                patched_after_promotion.add(fid)
        assert patched_after_promotion, \
            "no promoted fragment was ever patched"
        assert repromoted, \
            "patched fragments were never recompiled"
        # and the generated code still computes the right answer
        reference = _run(LATE_CHAIN_KERNEL, _config(engine="naive"))
        assert vm.state.regs == reference.state.regs
        assert vm.console_text() == reference.console_text()

    def test_patch_drops_generated_code_immediately(self):
        vm = _run(CALL_KERNEL, _config())
        fragment = _promoted(vm)[0]
        old_code = fragment._jit_code
        vm.tcache._invalidate(fragment)
        assert fragment._jit_code is None
        assert fragment._jit_failed is False
        # the next visit recompiles against the (patched) body
        new_code = vm.executor._jit_for(fragment)
        assert new_code is not None
        assert new_code is not old_code
        assert fragment._jit_code is new_code

    def test_corrupt_path_drops_generated_code(self):
        vm = _run(FIG2_KERNEL, _config())
        fragment = _promoted(vm)[0]
        vm.tcache._corrupt(fragment)
        assert fragment._jit_code is None

    def test_compile_failure_pin_cleared_by_invalidate(self):
        vm = _run(FIG2_KERNEL, _config())
        fragment = _promoted(vm)[0]
        fragment._jit_failed = True
        fragment.invalidate_compiled()
        assert fragment._jit_failed is False
        assert fragment._jit_code is None


class TestTelemetry:
    def test_jit_metrics_recorded(self):
        vm = _run(FIG2_KERNEL, _config())
        summary = vm.telemetry.summary()
        promotions = summary["counters"]["jit.promotions"]
        assert promotions >= 1
        assert summary["counters"]["jit.compile_failures"] == 0
        host = vm.telemetry.host_summary()
        assert host["timers"]["jit.compile"]["count"] == promotions
