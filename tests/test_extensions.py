"""Tests for the out-of-paper extensions: capacity-bounded cache
flushing, steering policies, memory fusion ablation plumbing."""

import pytest

from repro.asm import assemble
from repro.ildp_isa.opcodes import IFormat
from repro.uarch.config import ildp_config
from repro.uarch.ildp import ILDPModel
from repro.vm import CoDesignedVM, VMConfig
from repro.workloads import get_workload
from tests.conftest import FIG2_KERNEL, assert_cosim_equivalent

#: Two phases: a tight loop, then a second, different tight loop.  Their
#: fragments take 32 and 40 bytes, so in a :data:`SMALL_TCACHE` cache the
#: phase change forces a capacity flush.
PHASED = """
_start: li r9, 400
p1:     addq r2, r9, r2
        subq r9, 1, r9
        bne r9, p1
        li r9, 400
p2:     xor r3, r9, r3
        sll r3, 1, r3
        srl r3, 1, r3
        subq r9, 1, r9
        bne r9, p2
        call_pal halt
"""

#: Room for either phase's fragment but not both.
SMALL_TCACHE = 64


def _bounded(**overrides):
    """A config whose small cache flushes on every capacity miss."""
    return VMConfig(fmt=IFormat.MODIFIED, threshold=10,
                    tcache_capacity_bytes=SMALL_TCACHE,
                    flush_storm_window=0, **overrides)


class TestFlushPolicy:
    def test_flush_preserves_correctness(self):
        vm = assert_cosim_equivalent(PHASED, _bounded())
        assert vm.stats.tcache_capacity_flushes >= 1

    def test_flush_counter_in_stats(self):
        vm = CoDesignedVM(assemble(PHASED), _bounded())
        vm.run(max_v_instructions=500_000)
        assert vm.stats.tcache_flushes >= 1
        assert vm.stats.tcache_flushes == vm.tcache.flush_count

    def test_fids_unique_across_flushes(self):
        vm = CoDesignedVM(assemble(PHASED), _bounded())
        vm.run(max_v_instructions=500_000)
        assert vm.stats.tcache_flushes >= 1
        fids = list(vm.stats.fragment_usage)
        assert len(fids) == len(set(fids))
        assert len(fids) == vm.stats.fragments_created

    def test_retranslation_after_flush(self):
        workload = get_workload("gzip")
        vm = CoDesignedVM(workload.program(), _bounded())
        vm.run(max_v_instructions=100_000)
        assert vm.stats.tcache_flushes >= 1
        # after a flush, hot code must get retranslated and still run
        assert vm.stats.fragments_created > vm.tcache.fragment_count()


class TestSteeringPolicies:
    @pytest.fixture(scope="class")
    def trace(self):
        vm = CoDesignedVM(assemble(FIG2_KERNEL),
                          VMConfig(fmt=IFormat.MODIFIED,
                                   collect_trace=True))
        vm.run(max_v_instructions=200_000)
        return vm.trace

    @pytest.mark.parametrize("steering", ("dependence", "least_loaded",
                                          "modulo"))
    def test_each_policy_runs(self, trace, steering):
        machine = ildp_config(8, 0)
        machine.steering = steering
        result = ILDPModel(machine).run(trace)
        assert result.cycles > 0

    def test_modulo_wastes_pes_with_four_accumulators(self, trace):
        renamed = ildp_config(8, 0)
        modulo = ildp_config(8, 0)
        modulo.steering = "modulo"
        fast = ILDPModel(renamed).run(trace)
        slow = ILDPModel(modulo).run(trace)
        # 4 accumulators on 8 PEs: modulo steering can only ever use 4 PEs
        assert slow.cycles >= fast.cycles

    def test_unknown_policy_rejected(self):
        from repro.uarch.config import MachineConfig

        with pytest.raises(ValueError):
            MachineConfig("bad", steering="random")


class TestMemoryFusion:
    def test_fused_reduces_instruction_count(self):
        source = get_workload("mcf").source()
        split = CoDesignedVM(assemble(source),
                             VMConfig(fmt=IFormat.MODIFIED))
        split.run(max_v_instructions=60_000)
        fused = CoDesignedVM(assemble(source),
                             VMConfig(fmt=IFormat.MODIFIED,
                                      fuse_memory=True))
        fused.run(max_v_instructions=60_000)
        assert fused.stats.dynamic_expansion() < \
            split.stats.dynamic_expansion()

    def test_fused_still_decomposes_nothing_when_disp_zero(self):
        from repro.ildp_isa.opcodes import IOp

        vm = CoDesignedVM(assemble(FIG2_KERNEL),
                          VMConfig(fmt=IFormat.MODIFIED,
                                   fuse_memory=True))
        vm.run(max_v_instructions=100_000)
        loads = [i for f in vm.tcache.fragments for i in f.body
                 if i.iop is IOp.LOAD]
        assert loads
        assert all(i.imm == 0 for i in loads)  # Fig. 2 loop has disp 0


class TestIdealisationKnobs:
    def test_oracle_prediction_never_hurts(self):
        from repro.harness.runner import run_vm
        from repro.uarch.config import ildp_config
        from repro.uarch.ildp import ILDPModel

        trace = run_vm("gcc", VMConfig(fmt=IFormat.MODIFIED),
                       budget=20_000).trace
        real = ILDPModel(ildp_config(8, 0)).run(trace)
        oracle_config = ildp_config(8, 0)
        oracle_config.perfect_prediction = True
        oracle = ILDPModel(oracle_config).run(trace)
        assert oracle.ipc >= real.ipc

    def test_perfect_dcache_never_hurts(self):
        from repro.harness.runner import run_vm
        from repro.uarch.config import ildp_config
        from repro.uarch.ildp import ILDPModel

        trace = run_vm("mcf", VMConfig(fmt=IFormat.MODIFIED),
                       budget=20_000).trace
        real = ILDPModel(ildp_config(8, 0)).run(trace)
        ideal_config = ildp_config(8, 0)
        ideal_config.perfect_dcache = True
        ideal = ILDPModel(ideal_config).run(trace)
        assert ideal.ipc >= real.ipc
