"""Hostile-guest survival tests: MMU protections, SMC, syscalls.

Four angles on the robustness tentpole:

* precise trap-payload parity — unaligned / unmapped / protection
  faults raised *from translated code* must carry the same
  ``(kind, vpc, address, access)`` and the same precise register file
  under both execution engines as under the pure interpreter;
* SMC precision — a self-patching kernel invalidates exactly the
  overlapping fragment (no whole-cache flush), and a hot-path
  self-store forces the translated stint to deopt through the internal
  RETRANSLATE mechanism without observable divergence;
* the PAL syscall layer — getc/brk/protect/yield unit behaviour plus
  end-to-end engine agreement;
* the checked-in hostile corpus — every shrunk reproducer replays
  clean through the oracle stack under every engine.
"""

import os

import pytest

from repro.asm import assemble
from repro.fuzz.corpus import load_corpus, program_from_entry
from repro.fuzz.oracle import check_program, run_vm_outcome
from repro.interp import Interpreter
from repro.interp.pal import EOF_VALUE, HEAP_BASE, PalContext, heap_pages
from repro.isa.encoding import encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import PAL_FUNCTIONS
from repro.isa.semantics import Trap, TrapKind
from repro.memory.image import (
    PAGE_SIZE,
    PROT_ALL,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
    Memory,
)
from repro.vm import CoDesignedVM, VMConfig
from repro.vm.traps import VMTrap

ENGINES = ("naive", "jit")

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus", "hostile")
ENTRIES = load_corpus(CORPUS_DIR)
ENTRY_IDS = [f"{entry['seed']}-{entry['index']}" for entry in ENTRIES]


def _config(engine, **overrides):
    """A hot-trigger-happy config so short loops reach translated code."""
    settings = dict(threshold=4, exec_engine=engine)
    settings.update(overrides)
    return VMConfig(**settings)


def _interp_to_trap(program, max_instructions=100_000):
    """Pure interpretation until halt or trap; returns (interp, trap)."""
    interp = Interpreter(program)
    try:
        interp.run(max_instructions=max_instructions)
    except Trap as trap:
        return interp, trap
    return interp, None


def _vm_to_trap(source, engine, input_script=b"", **overrides):
    """Run under one engine until halt or VMTrap.

    Returns ``(vm, trap, state)`` — ``trap``/``state`` are the precise
    trap record and architected state off the ``VMTrap`` (None on halt).
    """
    program = assemble(source)
    program.input_script = bytes(input_script)
    vm = CoDesignedVM(program, _config(engine, **overrides))
    try:
        vm.run(max_v_instructions=100_000)
    except VMTrap as exc:
        return vm, exc.trap, exc.state
    return vm, None, None


# ---------------------------------------------------------------------------
# map_segment validation (satellite: overlap / zero-size rejection)
# ---------------------------------------------------------------------------

class TestMapSegmentValidation:
    def test_overlap_rejected_naming_collider(self):
        memory = Memory()
        memory.map_segment("text", 0x1_0000, 0x2000)
        with pytest.raises(ValueError) as excinfo:
            memory.map_segment("data", 0x1_1000, 0x1000)
        message = str(excinfo.value)
        assert "'data'" in message and "'text'" in message
        assert "0x10000" in message
        # the failed mapping must leave no trace
        assert [segment.name for segment in memory.segments] == ["text"]

    def test_partial_overlap_from_below_rejected(self):
        memory = Memory()
        memory.map_segment("heap", 0x4000, 0x1000)
        with pytest.raises(ValueError, match="overlaps segment 'heap'"):
            memory.map_segment("stack", 0x3000, 0x1001)

    def test_zero_and_negative_size_rejected(self):
        memory = Memory()
        with pytest.raises(ValueError, match="size must be positive"):
            memory.map_segment("empty", 0x1000, 0)
        with pytest.raises(ValueError, match="size must be positive"):
            memory.map_segment("anti", 0x1000, -4)

    def test_adjacent_segments_still_allowed(self):
        memory = Memory()
        memory.map_segment("lo", 0x1000, 0x1000)
        memory.map_segment("hi", 0x2000, 0x1000)
        assert len(memory.segments) == 2


# ---------------------------------------------------------------------------
# MMU page protection semantics
# ---------------------------------------------------------------------------

class TestMMUProtection:
    @pytest.fixture
    def memory(self):
        memory = Memory()
        memory.map_segment("data", 0x8_0000, PAGE_SIZE)
        return memory

    def test_default_prot_is_all(self, memory):
        assert memory.page_prot(0x8_0000) == PROT_ALL
        assert memory.page_prot(0x9_0000) is None

    def test_write_to_readonly_page_is_precise(self, memory):
        memory.protect(0x8_0000, PAGE_SIZE, PROT_READ)
        with pytest.raises(Trap) as excinfo:
            memory.store(0x8_0008, 1, 8, vpc=0x1_0040)
        trap = excinfo.value
        assert trap.kind is TrapKind.PROTECTION_VIOLATION
        assert (trap.vpc, trap.address, trap.access) == \
            (0x1_0040, 0x8_0008, "write")

    def test_read_from_writeonly_page_is_precise(self, memory):
        memory.protect(0x8_0000, PAGE_SIZE, PROT_WRITE)
        with pytest.raises(Trap) as excinfo:
            memory.load(0x8_0010, 8, vpc=0x1_0044)
        trap = excinfo.value
        assert trap.kind is TrapKind.PROTECTION_VIOLATION
        assert (trap.vpc, trap.address, trap.access) == \
            (0x1_0044, 0x8_0010, "read")

    def test_fetch_from_noexec_page_is_precise(self, memory):
        memory.protect(0x8_0000, PAGE_SIZE, PROT_READ | PROT_WRITE)
        with pytest.raises(Trap) as excinfo:
            memory.fetch(0x8_0000, vpc=0x8_0000)
        trap = excinfo.value
        assert trap.kind is TrapKind.PROTECTION_VIOLATION
        assert trap.access == "exec"

    def test_unmapped_stays_access_violation(self, memory):
        with pytest.raises(Trap) as excinfo:
            memory.store(0x9_0000, 1, 8, vpc=0)
        assert excinfo.value.kind is TrapKind.ACCESS_VIOLATION

    def test_reprotect_restores_access(self, memory):
        memory.protect(0x8_0000, PAGE_SIZE, PROT_READ)
        memory.protect(0x8_0000, PAGE_SIZE, PROT_ALL)
        memory.store(0x8_0000, 0x55, 8, vpc=0)
        assert memory.load(0x8_0000, 8) == 0x55

    def test_dirty_pages_track_guest_stores_only(self, memory):
        assert memory.dirty_pages() == []
        memory.write_bytes(0x8_0000, b"host")        # loader path: clean
        assert memory.dirty_pages() == []
        memory.store(0x8_0100, 7, 8, vpc=0)
        assert memory.dirty_pages() == [0x8_0000]

    def test_protect_rejects_unmapped_and_bad_bits(self, memory):
        with pytest.raises(ValueError, match="unmapped page"):
            memory.protect(0x8_0000, 2 * PAGE_SIZE, PROT_READ)
        with pytest.raises(ValueError, match="invalid protection bits"):
            memory.protect(0x8_0000, PAGE_SIZE, 0x9)
        with pytest.raises(ValueError, match="size must be positive"):
            memory.protect(0x8_0000, 0, PROT_READ)
        # failed calls must not have changed anything
        assert memory.page_prot(0x8_0000) == PROT_ALL


# ---------------------------------------------------------------------------
# Trap-payload parity across engines (satellite: page-boundary faults)
# ---------------------------------------------------------------------------

#: A hot counted loop whose 11th iteration runs ``fault:`` once; the
#: block redirects the loop's own (by then translated) memory accesses,
#: so the trap fires from inside a fragment under every engine.
_PARITY_KERNEL = """
        .text
_start: la   r1, buf
        mov  r1, r5
        li   r2, 12
loop:   ldq  r3, 0(r1)
        addq r3, 1, r3
        stq  r3, 0(r5)
        cmpeq r2, 2, r4
        bne  r4, fault
back:   subq r2, 1, r2
        bne  r2, loop
        and  r3, 0x7f, r16
        call_pal putc
        call_pal halt
fault:  {block}
        br   back
        .data
buf:    .space 64, 1
"""

_PROTECT_DATA = """la   r16, buf
        li   r17, 8
        li   r18, {prot}
        call_pal protect"""

_FAULT_BLOCKS = {
    # stq at buf+4089: crosses the page boundary, misaligned
    "unaligned-store": "lda  r5, 4089(r5)",
    # stq at buf+4096: the first unmapped byte past the data page
    "unmapped-store": "lda  r5, 4096(r5)",
    # ldq at buf+4096
    "unmapped-load": "lda  r1, 4096(r1)",
    # revoke W on the data page: the loop stq faults
    "prot-write": _PROTECT_DATA.format(prot=PROT_READ),
    # revoke R on the data page: the loop ldq faults
    "prot-read": _PROTECT_DATA.format(prot=PROT_WRITE),
    # revoke X on the text page: the very next fetch faults
    "prot-exec": """la   r16, _start
        li   r17, 8
        li   r18, {prot}
        call_pal protect""".format(prot=PROT_READ | PROT_WRITE),
}

_EXPECTED_KIND = {
    "unaligned-store": TrapKind.UNALIGNED,
    "unmapped-store": TrapKind.ACCESS_VIOLATION,
    "unmapped-load": TrapKind.ACCESS_VIOLATION,
    "prot-write": TrapKind.PROTECTION_VIOLATION,
    "prot-read": TrapKind.PROTECTION_VIOLATION,
    "prot-exec": TrapKind.PROTECTION_VIOLATION,
}


def _payload(trap):
    return (trap.kind, trap.vpc, trap.address, trap.access)


class TestTrapPayloadParity:
    @pytest.mark.parametrize("fault", sorted(_FAULT_BLOCKS))
    def test_engines_match_interpreter_payload(self, fault):
        source = _PARITY_KERNEL.format(block=_FAULT_BLOCKS[fault])
        interp, reference = _interp_to_trap(assemble(source))
        assert reference is not None, f"{fault}: reference did not trap"
        assert reference.kind is _EXPECTED_KIND[fault]
        for engine in ENGINES:
            _vm, trap, state = _vm_to_trap(source, engine)
            assert trap is not None, f"{fault}/{engine}: VM did not trap"
            assert _payload(trap) == _payload(reference), \
                f"{fault}/{engine}"
            # the trap state must be precise: same architected registers
            assert state.regs == interp.state.regs, \
                f"{fault}/{engine}: " + state.diff(interp.state)
            assert state.pc == interp.state.pc

    @pytest.mark.parametrize("fault", sorted(_FAULT_BLOCKS))
    def test_faults_fire_from_translated_code(self, fault):
        """The loop must actually be hot before the fault iteration."""
        source = _PARITY_KERNEL.format(block=_FAULT_BLOCKS[fault])
        vm, trap, _state = _vm_to_trap(source, "jit")
        assert trap is not None
        assert vm.stats.fragments_created > 0
        assert vm.stats.source_instructions_executed > 0

    def test_protection_fault_addresses_are_page_precise(self):
        source = _PARITY_KERNEL.format(
            block=_FAULT_BLOCKS["unmapped-store"])
        _interp, trap = _interp_to_trap(assemble(source))
        # exactly the first byte past the mapped data page
        assert trap.address == 0x8_0000 + PAGE_SIZE


# ---------------------------------------------------------------------------
# SMC precision
# ---------------------------------------------------------------------------

#: Patches ``slot:`` exactly once (iteration r2==3) with a donor word
#: held in data, then keeps looping over the rewritten code.
_SMC_ONESHOT = """
        .text
_start: la   r5, donor
        ldl  r6, 0(r5)
        li   r2, 20
        clr  r3
loop:   cmpeq r2, 3, r4
        beq  r4, slot
        la   r7, slot
        stl  r6, 0(r7)
slot:   addq r3, 1, r3
        subq r2, 1, r2
        bne  r2, loop
        and  r3, 0x7f, r16
        call_pal putc
        call_pal halt
        .data
donor:  .space 4, 0
"""

#: Rewrites its own hot loop every iteration (with the identical word,
#: so semantics never change) — each translated stint must detect the
#: store into its own fragment and deopt.
_SMC_HOTSTORE = """
        .text
_start: li   r2, 16
        clr  r3
loop:   la   r7, slot
        ldl  r6, 0(r7)
        stl  r6, 0(r7)
slot:   addq r3, 1, r3
        subq r2, 1, r2
        bne  r2, loop
        and  r3, 0x7f, r16
        call_pal putc
        call_pal halt
"""


def _smc_oneshot_program():
    program = assemble(_SMC_ONESHOT)
    donor = encode(Instruction("addq", ra=3, rc=3, imm=2, islit=True))
    program.memory.write_bytes(program.symbols["donor"],
                               donor.to_bytes(4, "little"))
    return program


class TestSMCPrecision:
    def test_oneshot_patch_matches_interpreter(self):
        reference = Interpreter(_smc_oneshot_program())
        reference.run(max_instructions=100_000)
        # 17 iterations before the patch lands mid-iteration at r2==3:
        # the patched +2 covers iterations r2 in {3, 2, 1}
        assert reference.console == [17 + 3 * 2]
        for engine in ENGINES:
            vm = CoDesignedVM(_smc_oneshot_program(), _config(engine))
            vm.run(max_v_instructions=100_000)
            assert vm.halted, engine
            assert vm.interpreter.console == reference.console, engine

    def test_oneshot_invalidation_is_precise(self):
        for engine in ENGINES:
            vm = CoDesignedVM(_smc_oneshot_program(), _config(engine))
            vm.run(max_v_instructions=100_000)
            stats = vm.stats
            assert stats.smc_detected == 1, engine
            assert stats.smc_invalidations >= 1, engine
            # precise invalidation, never a whole-cache flush
            assert stats.tcache_flushes == 0, engine

    def test_oneshot_stats_identical_across_engines(self):
        baseline = None
        for engine in ENGINES:
            vm = CoDesignedVM(_smc_oneshot_program(), _config(engine))
            vm.run(max_v_instructions=100_000)
            if baseline is None:
                baseline = vars(vm.stats)
            else:
                assert vars(vm.stats) == baseline, engine

    def test_hot_self_store_deopts_translated_stints(self):
        reference = Interpreter(assemble(_SMC_HOTSTORE))
        reference.run(max_instructions=100_000)
        assert reference.console == [16]
        baseline = None
        for engine in ENGINES:
            vm = CoDesignedVM(assemble(_SMC_HOTSTORE), _config(engine))
            vm.run(max_v_instructions=100_000)
            assert vm.halted, engine
            assert vm.interpreter.console == reference.console, engine
            # the store lands inside the executing fragment: the stint
            # must abandon via RETRANSLATE, never trap the guest
            assert vm.stats.retranslate_deopts >= 1, engine
            assert vm.stats.smc_detected >= 1, engine
            assert vm.stats.tcache_flushes == 0, engine
            if baseline is None:
                baseline = vars(vm.stats)
            else:
                assert vars(vm.stats) == baseline, engine

    def test_deopting_store_keeps_its_row(self):
        """The SMC hook fires after the write, so a store that deopts its
        stint committed and keeps its trace row: every deopt leaves one
        store row, and the trace weighs exactly the V-ISA instructions
        translated code executed."""
        for engine in ENGINES:
            program = assemble(_SMC_HOTSTORE)
            slot = program.symbols["slot"]
            vm = CoDesignedVM(program, _config(engine, threshold=2,
                                               collect_trace=True))
            vm.run(max_v_instructions=100_000)
            rows = list(vm.trace)
            stores = sum(1 for template, _taken, _target, mem_addr, _ras
                         in rows
                         if template.op_class == "store" and mem_addr == slot)
            assert vm.stats.retranslate_deopts >= 1, engine
            assert stores == vm.stats.retranslate_deopts, engine
            assert sum(row[0].v_weight for row in rows) == \
                vm.stats.source_instructions_executed, engine


# ---------------------------------------------------------------------------
# PAL syscall layer
# ---------------------------------------------------------------------------

class TestPalUnit:
    def _context(self, input_script=b""):
        program = assemble("_start: call_pal halt\n")
        program.input_script = input_script
        return PalContext(program), program

    def test_getc_cursor_then_eof(self):
        pal, _program = self._context(b"hi")
        regs = [0] * 32
        getc = PAL_FUNCTIONS["getc"]
        pal.call(regs, getc, 0)
        assert regs[0] == ord("h")
        pal.call(regs, getc, 0)
        assert regs[0] == ord("i")
        pal.call(regs, getc, 0)
        assert regs[0] == EOF_VALUE
        assert pal.calls["getc"] == 3

    def test_brk_query_grow_shrink(self):
        pal, _program = self._context()
        regs = [0] * 32
        brk = PAL_FUNCTIONS["brk"]
        regs[16] = 0
        pal.call(regs, brk, 0)
        assert regs[0] == HEAP_BASE
        regs[16] = HEAP_BASE + 10
        pal.call(regs, brk, 0)
        assert regs[0] == HEAP_BASE + 10
        assert heap_pages(pal) == 1
        assert pal.memory.load(HEAP_BASE, 8) == 0   # fresh page, zeroed
        regs[16] = HEAP_BASE + 4
        pal.call(regs, brk, 0)
        assert regs[0] == HEAP_BASE + 4             # shrink moves break
        assert heap_pages(pal) == 1                 # pages stay mapped

    def test_brk_refuses_out_of_range(self):
        pal, _program = self._context()
        regs = [0] * 32
        brk = PAL_FUNCTIONS["brk"]
        for request in (HEAP_BASE - 1, HEAP_BASE + 0x10_0000 + 1, 1):
            regs[16] = request
            pal.call(regs, brk, 0)
            assert regs[0] == HEAP_BASE, hex(request)
        assert heap_pages(pal) == 0

    def test_brk_refuses_collision(self):
        pal, program = self._context()
        program.memory.map_segment("squatter", HEAP_BASE, PAGE_SIZE)
        regs = [0] * 32
        regs[16] = HEAP_BASE + 10
        pal.call(regs, PAL_FUNCTIONS["brk"], 0)
        assert regs[0] == HEAP_BASE                 # refused, break kept
        assert heap_pages(pal) == 0

    def test_protect_success_and_failure(self):
        pal, program = self._context()
        program.memory.map_segment("scratch", 0x9_0000, PAGE_SIZE)
        regs = [0] * 32
        protect = PAL_FUNCTIONS["protect"]
        regs[16], regs[17], regs[18] = 0x9_0000, PAGE_SIZE, PROT_READ
        pal.call(regs, protect, 0)
        assert regs[0] == 0
        assert program.memory.page_prot(0x9_0000) == PROT_READ
        regs[16] = 0x30_0000                        # unmapped range
        pal.call(regs, protect, 0)
        assert regs[0] == EOF_VALUE
        assert pal.calls["protect"] == 2

    def test_yield_is_architecturally_inert(self):
        pal, _program = self._context()
        regs = list(range(32))
        pal.call(regs, PAL_FUNCTIONS["yield"], 0)
        assert regs == list(range(32))
        assert pal.calls["yield"] == 1


_GETC_KERNEL = """
        .text
_start: li   r2, 4
        clr  r3
loop:   call_pal getc
        addq r3, r0, r3
        subq r2, 1, r2
        bne  r2, loop
        and  r3, 0x7f, r16
        call_pal putc
        call_pal halt
"""

_BRK_KERNEL = """
        .text
_start: li   r16, 0x400040
        call_pal brk
        mov  r0, r5
        li   r7, 0x400000
        li   r3, 77
        stq  r3, 8(r7)
        ldq  r4, 8(r7)
        and  r4, 0x7f, r16
        call_pal putc
        call_pal halt
"""

_YIELD_KERNEL = """
        .text
_start: li   r2, 40
        clr  r3
loop:   addq r3, 2, r3
        call_pal yield
        subq r2, 1, r2
        bne  r2, loop
        and  r3, 0x7f, r16
        call_pal putc
        call_pal halt
"""


class TestPalEndToEnd:
    def test_getc_reads_scripted_input_under_every_engine(self):
        program = assemble(_GETC_KERNEL)
        program.input_script = b"AB"
        reference = Interpreter(program)
        reference.run(max_instructions=100_000)
        for engine in ENGINES:
            vm, trap, _state = _vm_to_trap(_GETC_KERNEL, engine,
                                           input_script=b"AB")
            assert trap is None and vm.halted, engine
            assert vm.interpreter.console == reference.console, engine
            assert vm.state.regs == reference.state.regs, engine
            assert vm.interpreter.pal.calls["getc"] == 4, engine

    def test_brk_maps_writable_heap_under_every_engine(self):
        for engine in ENGINES:
            vm, trap, _state = _vm_to_trap(_BRK_KERNEL, engine)
            assert trap is None and vm.halted, engine
            assert vm.interpreter.console == [77], engine
            assert vm.state.regs[5] == 0x40_0040, engine
            assert vm.interpreter.pal.memory.page_prot(HEAP_BASE) == \
                PROT_ALL, engine

    def test_yield_in_hot_loop_stays_translated_and_inert(self):
        baseline = None
        for engine in ENGINES:
            vm, trap, _state = _vm_to_trap(_YIELD_KERNEL, engine)
            assert trap is None and vm.halted, engine
            assert vm.interpreter.console == [80], engine
            assert vm.interpreter.pal.calls["yield"] == 40, engine
            assert vm.stats.fragments_created > 0, engine
            if baseline is None:
                baseline = vars(vm.stats)
            else:
                assert vars(vm.stats) == baseline, engine


# ---------------------------------------------------------------------------
# The checked-in hostile corpus
# ---------------------------------------------------------------------------

class TestHostileCorpusShape:
    def test_corpus_is_populated(self):
        assert len(ENTRIES) >= 15

    def test_every_entry_is_hostile_with_scripted_input(self):
        for entry in ENTRIES:
            assert entry.get("hostile") is True, entry["index"]
            assert entry.get("input"), entry["index"]
            assert entry.get("shrunk_text"), entry["index"]

    def test_corpus_covers_every_hostile_shape(self):
        shapes = set()
        for entry in ENTRIES:
            shapes.update(entry["shapes"])
        assert {"smc", "protect", "getc", "brk", "yield"} <= shapes


@pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
def test_hostile_corpus_entry_replays_clean(entry):
    fprog = program_from_entry(entry, shrunk=True)
    report = check_program(fprog, stages=("cosim", "engine"),
                           engines=("naive", "jit"))
    assert not report["failures"], report["failures"]
    assert not report["inconclusive"], report["inconclusive"]


def test_hostile_corpus_exercises_the_hostile_surface():
    """Replaying the corpus must actually hit SMC, protect and the PAL
    calls — a corpus that stops exercising the surface is a regression
    even if every entry still agrees."""
    smc_hits = protect_hits = 0
    traps = set()
    calls = {"getc": 0, "brk": 0, "protect": 0, "yield": 0}
    for entry in ENTRIES:
        fprog = program_from_entry(entry, shrunk=True)
        outcome, vm = run_vm_outcome(
            fprog, VMConfig(threshold=8, exec_engine="naive"))
        smc_hits += vm.stats.smc_detected
        protect_hits += vm.stats.protect_invalidations
        traps.add(outcome.trap_kind)
        for name, count in vm.interpreter.pal.calls.items():
            calls[name] += count
    assert smc_hits > 0
    assert protect_hits > 0
    assert "protection_violation" in traps
    assert all(count > 0 for count in calls.values()), calls
