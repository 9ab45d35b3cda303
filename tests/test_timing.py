"""Timing model tests on hand-built synthetic traces."""

import pytest

from repro.uarch.config import MachineConfig, SUPERSCALAR, ildp_config
from repro.uarch.ildp import ILDPModel
from repro.uarch.superscalar import SuperscalarModel
from repro.vm.events import Template, Trace


def _wrap(addr):
    # keep synthetic code footprints loop-sized so cold I-cache misses do
    # not dominate (real traces revisit hot fragments)
    return 0x1000 + (addr - 0x1000) % 2048


def alu(addr, srcs=(), dst=None, acc=None, acc_read=False,
        strand_start=False):
    """One ALU trace row."""
    return (Template(_wrap(addr), 4, "int", srcs=srcs, dst=dst, acc=acc,
                     acc_read=acc_read, acc_write=acc is not None,
                     strand_start=strand_start, v_weight=1),
            False, None, None, None)


def memory_row(addr, op_class, mem_addr, **fields):
    """One load or store trace row."""
    return (Template(_wrap(addr), 4, op_class, v_weight=1, **fields),
            False, None, mem_addr, None)


def load(addr, mem_addr, srcs=(), dst=None, acc=None):
    return memory_row(addr, "load", mem_addr, srcs=srcs, dst=dst, acc=acc,
                      acc_write=acc is not None)


def independent_trace(n):
    return Trace.from_rows(alu(0x1000 + 4 * i, dst=None) for i in range(n))


def dependent_trace(n):
    return Trace.from_rows(alu(0x1000 + 4 * i, srcs=(1,), dst=1)
                           for i in range(n))


class TestSuperscalar:
    def test_independent_instructions_reach_width(self):
        result = SuperscalarModel(SUPERSCALAR).run(independent_trace(40000))
        assert result.ipc > 3.0   # 4-wide machine, no dependences

    def test_dependence_chain_serialises(self):
        result = SuperscalarModel(SUPERSCALAR).run(dependent_trace(4000))
        assert result.ipc < 1.1   # one instruction per cycle at best

    def test_ilp_between_extremes(self):
        # two interleaved chains: ~2 IPC
        trace = []
        for i in range(20000):
            trace.append(alu(0x1000 + 8 * i, srcs=(1,), dst=1))
            trace.append(alu(0x1004 + 8 * i, srcs=(2,), dst=2))
        result = SuperscalarModel(SUPERSCALAR).run(Trace.from_rows(trace))
        assert 1.5 < result.ipc < 2.5

    def test_load_latency_on_consumers(self):
        # a serial pointer-chase (load feeding the next load's address) is
        # slower than an equally serial ALU chain: 2-cycle hits vs 1-cycle
        chase = Trace.from_rows(load(0x1000 + 4 * i, 0x100000, srcs=(1,),
                                     dst=1) for i in range(10000))
        load_result = SuperscalarModel(SUPERSCALAR).run(chase)
        alu_result = SuperscalarModel(SUPERSCALAR).run(
            dependent_trace(10000))
        assert load_result.ipc < 0.75 * alu_result.ipc

    def test_mispredict_penalty(self):
        from repro.utils.rng import Xorshift64

        rng = Xorshift64(seed=11)
        branch = Template(0x1000, 4, "branch", btype="cond", v_weight=1)
        random_dir = Trace()
        for _ in range(4000):
            taken = bool(rng.next_u64() & 1)
            random_dir.append(branch, taken, 0x2000 if taken else None)
        bad = SuperscalarModel(MachineConfig("t")).run(random_dir)
        always = Trace.from_rows((branch, True, 0x2000, None, None)
                                 for _ in range(4000))
        good = SuperscalarModel(MachineConfig("t")).run(always)
        assert bad.ipc < 0.7 * good.ipc

    def test_result_fields(self):
        result = SuperscalarModel(SUPERSCALAR).run(independent_trace(100))
        assert result.instructions == 100
        assert result.v_instructions == 100
        assert result.cycles > 0
        assert result.native_ipc == pytest.approx(result.ipc)


class TestILDP:
    def test_single_strand_serialises(self):
        trace = Trace.from_rows(alu(0x1000 + 4 * i, acc=0, acc_read=i > 0,
                                    strand_start=i == 0)
                                for i in range(2000))
        result = ILDPModel(ildp_config(8, 0)).run(trace)
        assert result.ipc < 1.1

    def test_parallel_strands_scale(self):
        trace = []
        for i in range(10000):
            for acc in range(4):
                trace.append(alu(0x1000 + 16 * i + 4 * acc, acc=acc,
                                 acc_read=i > 0, strand_start=i == 0))
        result = ILDPModel(ildp_config(8, 0)).run(Trace.from_rows(trace))
        assert result.ipc > 2.5

    def test_communication_latency_costs(self):
        # strand 1 consumes a GPR produced by strand 0 every step
        def build():
            trace = []
            for i in range(1000):
                trace.append(alu(0x1000 + 8 * i, acc=0, dst=1,
                                 acc_read=False, strand_start=True))
                trace.append(alu(0x1004 + 8 * i, srcs=(1,), acc=1,
                                 acc_read=False, strand_start=True))
            return Trace.from_rows(trace)

        fast = ILDPModel(ildp_config(8, 0)).run(build())
        slow = ILDPModel(ildp_config(8, 2)).run(build())
        assert slow.cycles >= fast.cycles

    def test_fewer_pes_hurt_on_real_trace(self):
        """Fig. 9's 4-vs-8 PE gap: FIFO conflicts and head-of-line
        blocking in real traces (synthetic all-serial traces cannot show
        it, because their critical path is a single strand)."""
        from repro.harness.runner import run_vm
        from repro.vm.config import VMConfig
        from repro.ildp_isa.opcodes import IFormat

        result = run_vm("vpr", VMConfig(fmt=IFormat.MODIFIED),
                        budget=40_000)
        wide = ILDPModel(ildp_config(8, 0)).run(result.trace)
        narrow = ILDPModel(ildp_config(4, 0)).run(result.trace)
        assert narrow.cycles > 1.1 * wide.cycles

    def test_strand_start_renames_to_producer_pe(self):
        # each strand start reads r5 from the previous strand: dependence
        # steering renames it to the producer's PE, so a 2-cycle
        # communication latency costs nothing; least-loaded steering
        # sends it to another PE, which pays
        rows = []
        for i in range(200):
            rows.append(alu(0x1000 + 8 * i, acc=0, dst=5,
                            strand_start=True))
            rows.append(alu(0x1004 + 8 * i, srcs=(5,), acc=1,
                            strand_start=True))

        def cycles(steering, comm):
            machine = ildp_config(8, comm, steering=steering)
            return ILDPModel(machine).run(Trace.from_rows(rows)).cycles

        assert cycles("dependence", 2) == cycles("dependence", 0)
        assert cycles("least_loaded", 2) > cycles("least_loaded", 0)

    def test_requires_pe_config(self):
        with pytest.raises(ValueError):
            ILDPModel(SUPERSCALAR)

    def test_gpr_only_instructions_steered(self):
        trace = Trace.from_rows(alu(0x1000 + 4 * i) for i in range(100))
        result = ILDPModel(ildp_config(4, 0)).run(trace)
        assert result.cycles > 0


class TestMemoryDependence:
    def test_store_to_load_same_block_serialises(self):
        def build(same_block):
            trace = []
            for i in range(3000):
                store_addr = 0x100000
                load_addr = 0x100000 if same_block else 0x100800
                trace.append(memory_row(0x1000 + 8 * i, "store",
                                        store_addr))
                trace.append(memory_row(0x1004 + 8 * i, "load", load_addr))
            return Trace.from_rows(trace)

        conflicting = SuperscalarModel(SUPERSCALAR).run(build(True))
        disjoint = SuperscalarModel(SUPERSCALAR).run(build(False))
        assert conflicting.cycles > disjoint.cycles

    def test_ildp_honours_memory_dependence(self):
        def build(same_block):
            trace = []
            for i in range(3000):
                load_addr = 0x100000 if same_block else 0x100800
                trace.append(memory_row(0x1000 + 8 * i, "store",
                                        0x100000, acc=0,
                                        strand_start=i == 0))
                trace.append(memory_row(0x1004 + 8 * i, "load", load_addr,
                                        acc=1, acc_write=True,
                                        strand_start=i == 0))
            return Trace.from_rows(trace)

        conflicting = ILDPModel(ildp_config(8, 0)).run(build(True))
        disjoint = ILDPModel(ildp_config(8, 0)).run(build(False))
        assert conflicting.cycles >= disjoint.cycles


class TestPinnedFastModels:
    """Exact results of both fast models on a trace long enough for the
    ROB and the PE FIFOs to fill: parser at 20k V-ISA instructions.  The
    golden summaries pin every IPC at 5k only."""

    BUDGET = 20_000

    #: (steering, idealisation) -> (cycles, mispredictions) on the
    #: modified-format trace, 4 PEs, comm 2, the 8 KB L1-D
    ILDP = {
        ("dependence", "plain"): (21125, 236),
        ("dependence", "perfect_bp"): (15410, 236),
        ("dependence", "perfect_dcache"): (21037, 236),
        ("least_loaded", "plain"): (21051, 236),
        ("least_loaded", "perfect_bp"): (15401, 236),
        ("least_loaded", "perfect_dcache"): (20964, 236),
        ("modulo", "plain"): (20022, 236),
        ("modulo", "perfect_bp"): (17622, 236),
        ("modulo", "perfect_dcache"): (19967, 236),
    }
    #: the same trace on Fig. 8's machine: 8 PEs, comm 0, 32 KB L1-D
    ILDP_FIG8 = (16333, 236)
    #: use_conventional_ras -> (cycles, mispredictions) on the
    #: original-ISA trace
    SUPERSCALAR_BY_RAS = {True: (12216, 199), False: (20108, 1319)}

    IDEALISATIONS = {"plain": {}, "perfect_bp": {"perfect_prediction": True},
                     "perfect_dcache": {"perfect_dcache": True}}

    @pytest.fixture(scope="class")
    def modified_trace(self):
        from repro.harness.runner import run_vm
        from repro.ildp_isa.opcodes import IFormat
        from repro.vm.config import VMConfig

        return run_vm("parser", VMConfig(fmt=IFormat.MODIFIED),
                      budget=self.BUDGET).trace

    @staticmethod
    def pin(result):
        return result.cycles, result.branch_stats.mispredictions

    @pytest.mark.parametrize("steering, ideal", sorted(ILDP))
    def test_ildp(self, modified_trace, steering, ideal):
        machine = ildp_config(4, 2, dcache_small=True, steering=steering,
                              **self.IDEALISATIONS[ideal])
        result = ILDPModel(machine).run(modified_trace)
        assert self.pin(result) == self.ILDP[steering, ideal]

    def test_ildp_fig8_machine(self, modified_trace):
        result = ILDPModel(ildp_config(8, 0)).run(modified_trace)
        assert self.pin(result) == self.ILDP_FIG8

    @pytest.mark.parametrize("use_ras", [True, False])
    def test_superscalar(self, use_ras):
        from repro.harness.runner import run_original

        trace, _interpreter = run_original("parser", self.BUDGET)
        machine = MachineConfig("ooo", use_conventional_ras=use_ras)
        result = SuperscalarModel(machine).run(trace)
        assert self.pin(result) == self.SUPERSCALAR_BY_RAS[use_ras]
