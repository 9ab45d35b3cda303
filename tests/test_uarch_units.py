"""Tests of the fast timing models' front end and in-order retirement,
each run on both models over a small hand-built trace, and of small I-ISA
and superblock helpers."""

from repro.uarch.cache import MemoryHierarchy
from repro.uarch.config import (
    INT_LATENCY,
    PIPELINE_DEPTH,
    REDIRECT_LATENCY,
    ROB_SIZE,
    SUPERSCALAR,
    WIDTH,
    MachineConfig,
    ildp_config,
)
from repro.uarch.ildp import ILDPModel
from repro.uarch.superscalar import SuperscalarModel
from repro.vm.events import Template, Trace
from tests.test_timing import alu, load

#: both fast models on Table 1's machines, built fresh for every run
FAST_MODELS = {
    "superscalar": lambda **options: SuperscalarModel(
        MachineConfig("ooo", **options)),
    "ildp": lambda **options: ILDPModel(ildp_config(8, 0, **options)),
}


def results(rows, **options):
    """``rows`` timed on a fresh copy of each fast model, by name."""
    trace = Trace.from_rows(rows)
    return {name: make(**options).run(trace)
            for name, make in FAST_MODELS.items()}


def cycles(rows, **options):
    return {name: result.cycles
            for name, result in results(rows, **options).items()}


def plus(base, extra):
    """Each model's cycles in ``base``, ``extra`` cycles later."""
    return {name: value + extra for name, value in base.items()}


def line_alu(i):
    """The ``i``-th of a run of independent ALU rows in one I-cache line."""
    return alu(0x1000 + 4 * (i % 32))


def cold_fetch_extra(address):
    """Extra cycles of a first fetch, which misses down to memory."""
    return MemoryHierarchy(SUPERSCALAR).ifetch(address)


def cold_load_latency(address):
    """Load-to-use cycles of a first load, which misses down to memory."""
    return MemoryHierarchy(SUPERSCALAR).daccess(address)


class TestRetireUnit:
    """The reorder buffer: in-order retirement, WIDTH per cycle, and
    dispatch held while it is full."""

    MISS = load(0x1000, 0x100000)    # misses down to memory

    def test_in_order(self):
        # rows behind the miss complete long before it; had they retired
        # then, the run would end when the miss retires
        behind = cycles([self.MISS] + [line_alu(i)
                                       for i in range(1, WIDTH + 1)])
        alone = cycles([self.MISS])
        assert all(behind[name] > alone[name] for name in alone)

    def test_bandwidth_limit(self):
        alone = cycles([self.MISS])
        for tail in (3, 4, 8, 12):
            behind = cycles([self.MISS] + [line_alu(i)
                                           for i in range(1, tail + 1)])
            assert behind == plus(alone, tail // WIDTH), tail

    def test_rob_occupancy_stalls_dispatch(self):
        # a second miss finds the ROB full of rows waiting behind the
        # first, and dispatches only when the first retires
        def with_gap(gap):
            second = load(0x1000 + 4 * ((gap + 1) % 32), 0x200000)
            return cycles([self.MISS] + [line_alu(i)
                                         for i in range(1, gap + 1)]
                          + [second])

        after_first = plus(cycles([self.MISS]),
                           cold_load_latency(0x200000))
        fits = with_gap(ROB_SIZE - 2)    # the second miss is row ROB_SIZE
        full = with_gap(ROB_SIZE - 1)    # ... and here row ROB_SIZE + 1
        for name in FAST_MODELS:
            assert fits[name] < after_first[name] <= full[name], name

    def test_admit_passes_when_space(self):
        # dispatch PIPELINE_DEPTH after fetch, retire the cycle after
        # completion
        expected = cold_fetch_extra(0x1000) + PIPELINE_DEPTH + \
            INT_LATENCY + 1
        assert cycles([alu(0x1000)]) == {name: expected
                                         for name in FAST_MODELS}


class TestFrontEnd:
    """Fetch: WIDTH-row groups, taken transfers, the misprediction
    redirect and I-cache misses."""

    def test_width_limits_group(self):
        # a miss fetched behind ``ahead`` rows of one line leaves fetch,
        # and so completes and retires, ahead // WIDTH cycles late
        alone = cycles([load(0x1000, 0x100000)])
        for ahead in (3, 4, 8):
            behind = cycles([line_alu(i) for i in range(ahead)]
                            + [load(0x1000 + 4 * ahead, 0x100000)])
            assert behind == plus(alone, ahead // WIDTH), ahead

    def test_taken_branch_ends_group(self):
        jump = Template(0x1004, 4, "branch", btype="uncond", v_weight=1)
        straight = cycles([alu(0x1000), alu(0x1004), alu(0x1008)])
        jumped = cycles([alu(0x1000), (jump, True, 0x1008, None, None),
                         alu(0x1008)])
        assert jumped == plus(straight, 1)

    def test_mispredict_redirects_fetch(self):
        # g-share starts weakly taken: a not-taken branch mispredicts
        branch = Template(0x1000, 4, "branch", btype="cond", v_weight=1)
        rows = [(branch, False, None, None, None), alu(0x1004)]
        wrong = results(rows)
        assert all(result.branch_stats.cond_mispredictions == 1
                   for result in wrong.values())
        # the next row is fetched REDIRECT_LATENCY cycles after the
        # branch completes, instead of beside it
        oracle = cycles(rows, perfect_prediction=True)
        assert {name: result.cycles for name, result in wrong.items()} == \
            plus(oracle, PIPELINE_DEPTH + INT_LATENCY + REDIRECT_LATENCY)

    def test_icache_miss_stalls(self):
        same_line = cycles([alu(0x1000), alu(0x1004)])
        next_line = cycles([alu(0x1000), alu(0x1080)])
        assert next_line == plus(same_line, cold_fetch_extra(0x1080))


class TestIInstructionMethods:
    def test_gpr_dest_by_format(self):
        from repro.ildp_isa.instruction import IInstruction
        from repro.ildp_isa.opcodes import IFormat, IOp

        alu = IInstruction(IOp.ALU, op="addq", acc=0, src_a="acc",
                           src_b="imm", imm=1, dest_gpr=5,
                           operational=False)
        assert alu.gpr_dest(IFormat.BASIC) is None
        assert alu.gpr_dest(IFormat.MODIFIED) is None   # not operational
        alu.operational = True
        assert alu.gpr_dest(IFormat.MODIFIED) == 5
        assert alu.gpr_dest(IFormat.ALPHA) == 5

    def test_copy_classification(self):
        from repro.ildp_isa.instruction import IInstruction
        from repro.ildp_isa.opcodes import IOp

        assert IInstruction(IOp.COPY_TO_GPR, acc=0, gpr=1).is_copy()
        assert IInstruction(IOp.COPY_FROM_GPR, acc=0, gpr=1).is_copy()
        assert not IInstruction(IOp.SAVE_VRA, gpr=26,
                                vtarget=0).is_copy()


class TestSuperblockHelpers:
    def test_side_exit_vpcs(self):
        from repro.asm import assemble
        from repro.ildp_isa.opcodes import IFormat
        from repro.vm import CoDesignedVM, VMConfig

        vm = CoDesignedVM(assemble("""
_start: li r1, 80
loop:   and r1, 1, r2
        beq r2, even
        addq r3, 1, r3
even:   subq r1, 1, r1
        bne r1, loop
        call_pal halt
"""), VMConfig(fmt=IFormat.MODIFIED))
        vm.run(max_v_instructions=100_000)
        superblock = vm.tcache.fragments[0].superblock
        exits = superblock.side_exit_vpcs()
        assert exits  # the beq produces one side exit
        for vpc in exits:
            assert vpc != superblock.entry_vpc
