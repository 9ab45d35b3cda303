"""Translation cache tests: layout, lookup, patching, flush."""

import pytest

from repro.asm import assemble
from repro.ildp_isa.opcodes import IFormat, IOp
from repro.tcache.cache import TCacheFull, TranslationCache
from repro.tcache.dispatch import DISPATCH_LENGTH, build_dispatch_code
from repro.vm import CoDesignedVM, VMConfig
from tests.conftest import FIG2_KERNEL

TWO_LOOP = """
_start: li r9, 80
outer:  li r1, 60
inner:  subq r1, 1, r1
        addq r2, r1, r2
        bne r1, inner
        subq r9, 1, r9
        bne r9, outer
        call_pal halt
"""


#: A plan that names the ``corrupt`` site, which turns fragment
#: verification on, but never fires: V-PCs are word-aligned.
VERIFY_ONLY = "corrupt@vpc=0x1"


def run_vm(source, fmt=IFormat.MODIFIED, **kwargs):
    vm = CoDesignedVM(assemble(source), VMConfig(fmt=fmt, **kwargs))
    vm.run(max_v_instructions=500_000)
    return vm


class TestLayout:
    def test_dispatch_at_base(self):
        cache = TranslationCache(base=0x100_0000)
        assert cache.dispatch_address == 0x100_0000
        assert len(cache.dispatch_body) == DISPATCH_LENGTH

    def test_dispatch_ends_with_indirect_jump(self):
        body = build_dispatch_code()
        assert body[-1].iop is IOp.JMP_DISPATCH

    def test_fragments_laid_out_contiguously(self):
        vm = run_vm(TWO_LOOP)
        fragments = vm.tcache.fragments
        assert len(fragments) >= 2
        for earlier, later in zip(fragments, fragments[1:]):
            assert later.base_address == \
                earlier.base_address + earlier.byte_size

    def test_addresses_and_sizes_assigned(self):
        vm = run_vm(FIG2_KERNEL)
        fragment = vm.tcache.fragments[0]
        address = fragment.base_address
        for instr in fragment.body:
            assert instr.address == address
            assert instr.size in (2, 4, 8)
            address += instr.size

    def test_lookup_by_vpc_and_address(self):
        vm = run_vm(FIG2_KERNEL)
        fragment = vm.tcache.fragments[0]
        assert vm.tcache.lookup(fragment.entry_vpc) is fragment
        assert vm.tcache.fragment_at(fragment.entry_address()) is fragment
        assert vm.tcache.lookup(0xDEAD) is None

    def test_duplicate_entry_rejected(self):
        vm = run_vm(FIG2_KERNEL)
        fragment = vm.tcache.fragments[0]
        with pytest.raises(ValueError):
            vm.tcache.add(fragment)

    def test_v_weights_one_per_source_instruction(self):
        vm = run_vm(FIG2_KERNEL)
        fragment = vm.tcache.fragments[0]
        assert sum(i.v_weight for i in fragment.body) == \
            fragment.source_instr_count


class TestPatching:
    def test_self_loop_patched_at_install(self):
        vm = run_vm(FIG2_KERNEL)
        fragment = vm.tcache.fragments[0]
        # the backward branch targets the fragment's own entry: must have
        # been patched into a direct branch at install time
        branches = [i for i in fragment.body if i.iop is IOp.BRANCH]
        assert any(i.target == fragment.entry_address() for i in branches)

    def test_cross_fragment_patching(self):
        vm = run_vm(TWO_LOOP)
        cache = vm.tcache
        assert cache.patches_applied >= 1
        # after the run, the hot inner/outer path must be fully chained:
        # no unpatched exits between translated fragments
        for fragment in cache.fragments:
            for exit_record in fragment.exits:
                if exit_record.vtarget is not None and \
                        cache.lookup(exit_record.vtarget) is not None:
                    assert exit_record.patched

    def test_patched_instruction_keeps_slot(self):
        vm = run_vm(TWO_LOOP)
        for fragment in vm.tcache.fragments:
            address = fragment.base_address
            for instr in fragment.body:
                assert instr.address == address
                address += instr.size

    def test_flush_empties_cache(self):
        vm = run_vm(TWO_LOOP)
        cache = vm.tcache
        cache.flush()
        assert cache.fragment_count() == 0
        assert cache.total_code_bytes() == 0
        assert cache.lookup(vm.program.entry) is None


class TestStaticSizes:
    def test_total_bytes_matches_fragments(self):
        vm = run_vm(TWO_LOOP)
        cache = vm.tcache
        assert cache.total_code_bytes() == \
            sum(f.byte_size for f in cache.fragments)

    def test_modified_smaller_than_basic_on_workload(self):
        # Table 2's bytes columns: across real-ish code the modified format
        # is denser (shared dest/source specifiers beat copy instructions);
        # tiny kernels can go either way, so measure a whole workload.
        from repro.workloads import get_workload

        source = get_workload("mcf").source()
        basic = run_vm(source, fmt=IFormat.BASIC)
        modified = run_vm(source, fmt=IFormat.MODIFIED)
        assert modified.stats.static_expansion(modified.tcache) < \
            basic.stats.static_expansion(basic.tcache)

    def test_alpha_fragments_word_sized(self):
        vm = run_vm(FIG2_KERNEL, fmt=IFormat.ALPHA)
        for fragment in vm.tcache.fragments:
            for instr in fragment.body:
                assert instr.size in (4, 8)


class TestCapacity:
    def _donor(self):
        """A real translated fragment to (re-)install in a fresh cache."""
        return run_vm(FIG2_KERNEL).tcache.fragments[0]

    @staticmethod
    def _needed(fragment):
        # the install-time size estimate; may differ from byte_size when
        # in-place patches changed instruction kinds after first install
        from repro.ildp_isa.sizes import instruction_size
        return sum(instruction_size(instr, fragment.fmt)
                   for instr in fragment.body)

    def test_full_cache_raises_before_mutation(self):
        donor = self._donor()
        needed = self._needed(donor)
        cache = TranslationCache(capacity_bytes=needed - 1)
        with pytest.raises(TCacheFull) as excinfo:
            cache.add(donor)
        err = excinfo.value
        assert err.entry_vpc == donor.entry_vpc
        assert err.needed == needed
        assert err.used == 0
        assert err.capacity == needed - 1
        # nothing was mutated: the add can be retried after a flush
        assert cache.fragment_count() == 0
        assert cache.lookup(donor.entry_vpc) is None
        assert cache.total_code_bytes() == 0

    def test_exact_fit_installs(self):
        donor = self._donor()
        cache = TranslationCache(capacity_bytes=self._needed(donor))
        cache.add(donor)
        assert cache.fragment_count() == 1

    def test_injected_capacity_miss_is_transient(self):
        from repro.faults.inject import FaultInjector
        from repro.faults.plan import FaultPlan

        donor = self._donor()
        injector = FaultInjector(FaultPlan.parse("tcache_full@count=1"))
        cache = TranslationCache(injector=injector)
        with pytest.raises(TCacheFull):
            cache.add(donor)
        cache.add(donor)        # the spec only strikes the 1st occurrence
        assert cache.fragment_count() == 1


class TestFlushState:
    def test_flush_clears_pending_patch_state(self):
        cache = run_vm(TWO_LOOP).tcache
        assert cache._pending_exits       # exits to untranslated code
        assert cache._incoming            # chained fragments
        cache.flush()
        assert cache._pending_exits == {}
        assert cache._pending_ras == {}
        assert cache._incoming == {}


class TestInvalidation:
    def test_standalone_fragment_removed(self):
        cache = run_vm(FIG2_KERNEL).tcache
        fragment = cache.fragments[0]
        # the only incoming direct branch is the fragment's own self-loop
        assert cache.invalidate_fragment(fragment) == "removed"
        assert cache.lookup(fragment.entry_vpc) is None
        assert cache.fragment_at(fragment.base_address) is None
        assert fragment not in cache.fragments
        # no pending registration may reference the freed fragment
        for waiters in cache._pending_exits.values():
            assert all(frag is not fragment for frag, _exit in waiters)

    def test_externally_chained_fragment_flushes(self):
        cache = run_vm(TWO_LOOP).tcache
        target = next(
            cache.fragments[i] for i in range(len(cache.fragments))
            if cache._incoming.get(cache.fragments[i].fid, set()) -
            {cache.fragments[i].fid})
        assert cache.invalidate_fragment(target) == "flushed"
        assert cache.fragment_count() == 0


class TestChecksums:
    def test_stamped_only_when_verifying(self):
        verified = run_vm(FIG2_KERNEL, faults=VERIFY_ONLY)
        assert verified.injector.total_injected() == 0
        for fragment in verified.tcache.fragments:
            assert fragment.checksum is not None
            assert fragment.compute_checksum() == fragment.checksum
        plain = run_vm(FIG2_KERNEL)
        assert all(f.checksum is None for f in plain.tcache.fragments)

    def test_corruption_changes_checksum(self):
        vm = run_vm(FIG2_KERNEL, faults=VERIFY_ONLY)
        fragment = vm.tcache.fragments[0]
        victim = fragment.body[0]
        victim.imm = (victim.imm if victim.imm is not None else 0) ^ 0x2A
        assert fragment.compute_checksum() != fragment.checksum

    def test_relocation_is_checksum_neutral(self):
        vm = run_vm(FIG2_KERNEL, faults=VERIFY_ONLY)
        fragment = vm.tcache.fragments[0]
        for instr in fragment.body:
            instr.address += 0x1000
        assert fragment.compute_checksum() == fragment.checksum
