"""Cross-validation of the cycle-stepped ILDP model against the one-pass
model, plus its own behavioural tests."""

import pytest

from repro.harness.runner import run_vm
from repro.ildp_isa.opcodes import IFormat
from repro.uarch.config import SUPERSCALAR, ildp_config
from repro.uarch.ildp import ILDPModel
from repro.uarch.ildp_cycle import CycleILDPModel
from repro.vm.config import VMConfig
from repro.vm.events import Template, Trace


def alu(addr, srcs=(), dst=None, acc=None, acc_read=False,
        strand_start=False, op_class="int"):
    """One ALU trace row."""
    return (Template(0x1000 + (addr - 0x1000) % 2048, 4, op_class,
                     srcs=srcs, dst=dst, acc=acc, acc_read=acc_read,
                     acc_write=acc is not None, strand_start=strand_start,
                     v_weight=1),
            False, None, None, None)


#: The workloads the fast and cycle-stepped ILDP models are
#: cross-validated on.
VALIDATION_WORKLOADS = ("gzip", "mcf", "gcc", "twolf", "vortex", "vpr")


def _modified_trace(name):
    """A 15k-instruction modified-format VM trace of workload ``name``."""
    return run_vm(name, VMConfig(fmt=IFormat.MODIFIED), budget=15_000).trace


@pytest.fixture(scope="module")
def workload_traces():
    return {name: _modified_trace(name) for name in ("gzip", "mcf", "twolf")}


@pytest.fixture(scope="module")
def validation_traces(workload_traces):
    return {name: workload_traces[name] if name in workload_traces
            else _modified_trace(name) for name in VALIDATION_WORKLOADS}


@pytest.fixture(scope="module")
def original_traces():
    from repro.harness.runner import run_original

    return {name: run_original(name, budget=15_000)[0]
            for name in ("gzip", "gcc")}


def _pinned(result):
    stats = result.branch_stats
    return (result.cycles, result.instructions, result.v_instructions,
            stats.instructions, stats.cond_mispredictions,
            stats.target_mispredictions, stats.ras_mispredictions,
            stats.btb_misfetches)


class TestPinnedResults:
    """Exact outputs of the cycle-stepped models on real 15k traces.

    The golden report gates only the fast models; these figures pin the
    reference models byte for byte, so a rewrite of how they read a
    trace cannot drift inside the cross-validation band unnoticed.
    Fields: cycles, instructions, V-ISA instructions, then the branch
    unit's instructions and cond/target/RAS mispredictions and BTB
    misfetches.
    """

    ILDP = {
        "gzip": (9939, 15216, 13248, 13248, 10, 0, 0, 7),
        "mcf": (6810, 19516, 13310, 13310, 28, 0, 0, 55),
        "twolf": (8934, 22262, 13787, 13787, 10, 0, 0, 12),
    }
    SUPERSCALAR = {
        "gzip": (9167, 15000, 15000, 15000, 3, 0, 0, 5),
        "gcc": (11289, 15000, 15000, 15000, 587, 0, 0, 11),
    }

    def test_cycle_ildp_exact(self, workload_traces):
        for name, expected in self.ILDP.items():
            result = CycleILDPModel(ildp_config(8, 0)).run(
                workload_traces[name])
            assert _pinned(result) == expected, name

    def test_cycle_superscalar_exact(self, original_traces):
        from repro.uarch.config import MachineConfig
        from repro.uarch.superscalar_cycle import CycleSuperscalarModel

        for name, expected in self.SUPERSCALAR.items():
            result = CycleSuperscalarModel(MachineConfig("t")).run(
                original_traces[name])
            assert _pinned(result) == expected, name


class TestCrossValidation:
    """The cycle-stepped ILDP model is the oracle for the fast one-pass
    model every experiment uses: on :data:`VALIDATION_WORKLOADS`' real
    traces they must agree on IPC and on parameter orderings."""

    def test_ipc_within_band_of_fast_model(self, validation_traces):
        """The two models use different abstractions; they must agree to
        within a modest band per workload, and closer on average."""
        ratios = []
        for name, trace in validation_traces.items():
            fast = ILDPModel(ildp_config(8, 0)).run(trace)
            cycle = CycleILDPModel(ildp_config(8, 0)).run(trace)
            ratio = cycle.ipc / fast.ipc
            assert 0.6 < ratio < 1.6, f"{name}: {ratio}"
            ratios.append(ratio)
        average = sum(ratios) / len(ratios)
        assert 0.7 < average < 1.4, f"average ratio {average}"

    def test_pe_ordering_agrees(self, validation_traces):
        for _name, trace in validation_traces.items():
            wide = CycleILDPModel(ildp_config(8, 0)).run(trace)
            narrow = CycleILDPModel(ildp_config(4, 0)).run(trace)
            assert narrow.ipc <= wide.ipc * 1.02

    def test_comm_latency_ordering_agrees(self, validation_traces):
        for _name, trace in validation_traces.items():
            fast_comm = CycleILDPModel(ildp_config(8, 0)).run(trace)
            slow_comm = CycleILDPModel(ildp_config(8, 2)).run(trace)
            assert slow_comm.ipc <= fast_comm.ipc * 1.02


class TestBehaviour:
    def test_serial_chain_one_per_cycle(self):
        trace = Trace.from_rows(alu(0x1000 + 4 * i, acc=0, acc_read=i > 0,
                                    strand_start=i == 0)
                                for i in range(4000))
        result = CycleILDPModel(ildp_config(8, 0)).run(trace)
        assert result.ipc < 1.1

    def test_parallel_strands_scale(self):
        trace = []
        for i in range(5000):
            for acc in range(4):
                trace.append(alu(0x1000 + 16 * i + 4 * acc, acc=acc,
                                 acc_read=i > 0, strand_start=i == 0))
        result = CycleILDPModel(ildp_config(8, 0)).run(
            Trace.from_rows(trace))
        assert result.ipc > 2.0

    def test_mul_latency_respected(self):
        ints = Trace.from_rows(alu(0x1000 + 4 * i, acc=0, acc_read=i > 0,
                                   strand_start=i == 0)
                               for i in range(2000))
        muls = Trace.from_rows(alu(0x1000 + 4 * i, acc=0, acc_read=i > 0,
                                   strand_start=i == 0, op_class="mul")
                               for i in range(2000))
        fast = CycleILDPModel(ildp_config(8, 0)).run(ints)
        slow = CycleILDPModel(ildp_config(8, 0)).run(muls)
        assert slow.cycles > 4 * fast.cycles

    def test_rejects_superscalar_config(self):
        with pytest.raises(ValueError):
            CycleILDPModel(SUPERSCALAR)

    def test_empty_trace(self):
        result = CycleILDPModel(ildp_config(8, 0)).run(Trace())
        assert result.instructions == 0

    def test_all_instructions_commit(self, workload_traces):
        trace = workload_traces["gzip"]
        result = CycleILDPModel(ildp_config(8, 0)).run(trace)
        # the run loop only terminates once the ROB has drained; cycles
        # must exceed the trivial fetch bound
        assert result.cycles >= len(trace) // 4

    def test_steering_policies_run(self, workload_traces):
        trace = workload_traces["gzip"]
        for steering in ("dependence", "least_loaded", "modulo"):
            machine = ildp_config(8, 0)
            machine.steering = steering
            result = CycleILDPModel(machine).run(trace)
            assert result.cycles > 0


class TestCycleSuperscalar:
    """The cycle-stepped OoO reference vs the fast one-pass model.

    The two use different issue abstractions (true windowed oldest-first
    vs per-instruction ready times), so the agreement band is loose — the
    paper itself cites [13] for SimpleScalar-class models diverging ~20%
    from detailed simulators.
    """

    def test_cross_validation(self, original_traces):
        from repro.uarch.config import MachineConfig
        from repro.uarch.superscalar import SuperscalarModel
        from repro.uarch.superscalar_cycle import CycleSuperscalarModel

        for name, trace in original_traces.items():
            fast = SuperscalarModel(MachineConfig("t")).run(trace)
            cycle = CycleSuperscalarModel(MachineConfig("t")).run(trace)
            ratio = cycle.ipc / fast.ipc
            assert 0.6 < ratio < 1.8, f"{name}: {ratio}"

    def test_dependence_chain_serialises(self):
        from repro.uarch.config import MachineConfig
        from repro.uarch.superscalar_cycle import CycleSuperscalarModel
        trace = Trace.from_rows(alu(0x1000 + 4 * i, srcs=(1,), dst=1)
                                for i in range(4000))
        result = CycleSuperscalarModel(MachineConfig("t")).run(trace)
        assert result.ipc < 1.1

    def test_independent_reach_width(self):
        from repro.uarch.config import MachineConfig
        from repro.uarch.superscalar_cycle import CycleSuperscalarModel
        trace = Trace.from_rows(alu(0x1000 + 4 * i) for i in range(40000))
        result = CycleSuperscalarModel(MachineConfig("t")).run(trace)
        assert result.ipc > 3.0

    def test_store_load_dependence(self):
        from repro.uarch.config import MachineConfig
        from repro.uarch.superscalar_cycle import CycleSuperscalarModel
        def build(same):
            out = Trace()
            for i in range(3000):
                out.append(Template(0x1000 + (8 * i) % 2048, 4, "store",
                                    v_weight=1), mem_addr=0x100000)
                out.append(Template(0x1004 + (8 * i) % 2048, 4, "load",
                                    v_weight=1),
                           mem_addr=0x100000 if same else 0x100800)
            return out

        conflict = CycleSuperscalarModel(MachineConfig("t")).run(
            build(True))
        disjoint = CycleSuperscalarModel(MachineConfig("t")).run(
            build(False))
        assert conflict.cycles > disjoint.cycles
