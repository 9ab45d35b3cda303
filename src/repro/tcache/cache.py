"""The translation cache: layout, lookup and chaining patches.

Fragments are laid out at real byte addresses in a dedicated region of the
address space (disjoint from the V-ISA program image), honouring the 16/32
bit I-ISA size model.  This keeps the I-cache behaviour, BTB indexing and
the Table 2 static-bytes measurements of translated code genuine.

Patching implements the "patch is performed" step of Section 3.2: when the
target of a ``call-translator[-if-condition-is-met]`` instruction is later
translated, the instruction is rewritten in place into a normal (direct)
branch.  The rewritten instruction keeps its original encoding slot, as an
in-place binary patch must.
"""

from repro.faults.inject import NULL_INJECTOR as _NULL_INJECTOR
from repro.faults.plan import FaultSite
from repro.ildp_isa.opcodes import IFormat, IOp
from repro.ildp_isa.sizes import instruction_size
from repro.memory.image import PAGE_SHIFT
from repro.obs.telemetry import Telemetry
from repro.obs.trace import NULL_TRACER
from repro.tcache.dispatch import build_dispatch_code
from repro.tcache.fragment import ExitKind
from repro.utils.weak import weak_method

#: Base address of the translation cache region.
DEFAULT_TCACHE_BASE = 0x100_0000


class TCacheFull(Exception):
    """Installing a fragment would exceed the cache's capacity bound.

    Raised before any cache state is mutated, so the caller can flush
    and retry the installation cleanly (``docs/robustness.md``).
    """

    def __init__(self, entry_vpc, needed, used, capacity):
        super().__init__(
            f"translation cache full installing V:{entry_vpc:#x}: "
            f"{needed} bytes needed, {used}/{capacity} used")
        self.entry_vpc = entry_vpc
        self.needed = needed
        self.used = used
        self.capacity = capacity


class TranslationCache:
    """Holds translated fragments plus the shared dispatch code."""

    def __init__(self, base=DEFAULT_TCACHE_BASE, telemetry=None,
                 tracer=None, capacity_bytes=None, injector=None,
                 verify=False):
        self.base = base
        self.telemetry = telemetry if telemetry is not None \
            else Telemetry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Bound on total fragment code bytes (dispatch excluded);
        #: ``None`` leaves the cache unbounded.
        self.capacity_bytes = capacity_bytes
        #: Fault injector consulted at the ``tcache_full`` and
        #: ``corrupt`` sites (the shared no-op twin by default).
        self.injector = injector if injector is not None else _NULL_INJECTOR
        #: Stamp body checksums at install so the executor can verify
        #: fragment integrity at entry.
        self.verify = verify
        self.fragments = []
        self._by_entry_vpc = {}
        self._entry_addresses = {}      # I-address -> fragment
        #: exits waiting for a fragment at some V-PC:
        #: vtarget -> [(fragment, exit)]
        self._pending_exits = {}
        #: push-dual-RAS instructions waiting for their return-point
        #: fragment: vtarget -> [(fragment, body_index)]
        self._pending_ras = {}
        self.dispatch_body = build_dispatch_code()
        self.dispatch_address = base
        self._next_free = self._layout_dispatch()
        self.patches_applied = 0
        self._next_fid = 0
        self.flush_count = 0
        #: cumulative generated-code invalidations caused by in-place
        #: chaining patches (never reset — like fragment ids, statistics
        #: keyed on it must survive flushes)
        self.invalidations = 0
        #: target fid -> set of source fids whose *direct-branch* patches
        #: jump straight to the target's entry.  Used by
        #: :meth:`invalidate_fragment` to decide whether a single
        #: fragment can be removed safely or the whole cache must flush.
        #: RAS links are not tracked: the dual-address return path
        #: re-validates its target via :meth:`fragment_at` at run time.
        self._incoming = {}
        #: guest page index -> set of fragments translated from it; the
        #: SMC reverse map.  A page is write-watched in guest memory
        #: exactly while it has an entry here.
        self._by_page = {}
        #: the guest :class:`~repro.memory.image.Memory` whose stores we
        #: watch, set by :meth:`attach_memory` (None for cache-only use
        #: in unit tests).
        self._memory = None
        #: VM callback ``(vpc, invalidated, flushed)`` fired after an SMC
        #: store invalidates fragments — lets the VM keep its statistics
        #: and force a deopt when it happens under translated execution.
        self._smc_callback = None
        #: cumulative fragments invalidated by guest self-modifying
        #: stores (never reset, like ``invalidations``).
        self.smc_invalidations = 0
        #: cumulative SMC store events that hit at least one fragment.
        self.smc_detected = 0

    def _layout_dispatch(self):
        address = self.base
        for instr in self.dispatch_body:
            instr.address = address
            instr.size = instruction_size(instr, IFormat.BASIC)
            address += instr.size
        return address

    # -- queries -------------------------------------------------------------

    def lookup(self, vpc):
        """Fragment whose entry corresponds to V-PC ``vpc``, or None."""
        return self._by_entry_vpc.get(vpc)

    def fragment_at(self, address):
        """Fragment whose entry address is ``address``, or None."""
        return self._entry_addresses.get(address)

    def total_code_bytes(self):
        """Static size of all fragment bodies (dispatch excluded)."""
        return sum(fragment.byte_size for fragment in self.fragments)

    def fragment_count(self):
        return len(self.fragments)

    # -- self-modifying-code watch -------------------------------------------

    def attach_memory(self, memory):
        """Watch guest stores in ``memory`` for self-modifying code.

        Installs :meth:`_on_code_write` as the memory's code-write hook
        (weakly: the cache already holds the memory);
        from then on every page a fragment translates from is
        write-watched while fragments cover it, so a guest store landing
        on translated code precisely invalidates the overlapping
        fragments (and only those).
        """
        self._memory = memory
        memory.set_code_write_hook(weak_method(self, "_on_code_write"))
        for page in self._by_page:
            memory.watch_page(page)

    def _watch_fragment(self, fragment):
        for page in fragment.source_pages:
            watchers = self._by_page.get(page)
            if watchers is None:
                watchers = self._by_page[page] = set()
                if self._memory is not None:
                    self._memory.watch_page(page)
            watchers.add(fragment)

    def _unwatch_fragment(self, fragment):
        for page in fragment.source_pages:
            watchers = self._by_page.get(page)
            if watchers is None:
                continue
            watchers.discard(fragment)
            if not watchers:
                del self._by_page[page]
                if self._memory is not None:
                    self._memory.unwatch_page(page)

    def _on_code_write(self, address, size, vpc):
        """A guest store landed on a watched code page (fires post-write).

        Invalidates exactly the fragments whose source words the store
        touched — the precise SMC path.  The ``smc`` fault site widens a
        hit to every fragment on the page (spurious invalidation is
        behaviour-neutral: the victims simply retranslate).  Aligned
        stores never straddle a page, so one page lookup suffices.
        """
        candidates = self._by_page.get(address >> PAGE_SHIFT)
        if not candidates:
            return
        words = range(address & ~3, address + size, 4)
        victims = [fragment for fragment in candidates
                   if any(word in fragment.source_vpcs for word in words)]
        if victims and self.injector.fire(FaultSite.SMC, vpc=vpc):
            victims = list(candidates)
        if not victims:
            return
        victims.sort(key=lambda fragment: fragment.fid)
        self.smc_detected += 1
        self.smc_invalidations += len(victims)
        flushed = False
        for fragment in victims:
            if fragment not in self.fragments:
                continue  # a flush below already removed it
            if self.invalidate_fragment(fragment) == "flushed":
                flushed = True
        if self._smc_callback is not None:
            self._smc_callback(vpc, len(victims), flushed)

    def invalidate_range(self, base, size):
        """Invalidate every fragment translated from ``[base, base+size)``.

        The ``protect`` PAL call uses this when a range loses execute
        permission (and the ``protect`` fault site uses it for spurious
        invalidation): the VM must stop running stale translations of
        pages the guest revoked.  Returns ``(invalidated, flushed)``.
        """
        if size <= 0:
            return 0, False
        first = base >> PAGE_SHIFT
        last = (base + size - 1) >> PAGE_SHIFT
        victims = set()
        for page in range(first, last + 1):
            victims.update(self._by_page.get(page, ()))
        if not victims:
            return 0, False
        flushed = False
        for fragment in sorted(victims, key=lambda f: f.fid):
            if fragment not in self.fragments:
                continue
            if self.invalidate_fragment(fragment) == "flushed":
                flushed = True
        return len(victims), flushed

    # -- installation ----------------------------------------------------------

    def add(self, fragment):
        """Lay out a fragment, register it, and apply pending patches.

        Raises :class:`TCacheFull` — before mutating any cache state —
        when the fragment would push total code bytes past
        ``capacity_bytes`` (or when the ``tcache_full`` fault site
        strikes); the VM reacts by flushing and retranslating.
        """
        if fragment.entry_vpc in self._by_entry_vpc:
            raise ValueError(
                f"fragment for V:{fragment.entry_vpc:#x} already exists")
        needed = sum(instruction_size(instr, fragment.fmt)
                     for instr in fragment.body)
        used = self.total_code_bytes()
        over_capacity = self.capacity_bytes is not None and \
            used + needed > self.capacity_bytes
        if over_capacity or self.injector.fire(
                FaultSite.TCACHE_FULL, vpc=fragment.entry_vpc):
            capacity = self.capacity_bytes if self.capacity_bytes \
                is not None else used + needed - 1
            raise TCacheFull(fragment.entry_vpc, needed, used, capacity)
        fragment.fid = self._next_fid
        self._next_fid += 1
        address = self._next_free
        fragment.base_address = address
        last_vpc = None
        for instr in fragment.body:
            instr.address = address
            instr.size = instruction_size(instr, fragment.fmt)
            address += instr.size
            if instr.vpc is not None and instr.vpc != last_vpc:
                instr.v_weight = 1
                last_vpc = instr.vpc
        fragment.byte_size = address - fragment.base_address
        self._next_free = address

        self.fragments.append(fragment)
        self._by_entry_vpc[fragment.entry_vpc] = fragment
        self._entry_addresses[fragment.base_address] = fragment
        self._watch_fragment(fragment)
        self.telemetry.registry.histogram("tcache.fragment_sizes").observe(
            len(fragment.body))
        self.tracer.instant("tcache.fragment", cat="tcache",
                            fid=fragment.fid, entry_vpc=fragment.entry_vpc,
                            bytes=fragment.byte_size)
        self._register_pending(fragment)
        self._apply_patches(fragment)
        if self.verify:
            # stamp after patching: a self-loop patch may have rewritten
            # this fragment's own body during _apply_patches
            fragment.checksum = fragment.compute_checksum()
            fragment.verified = False
        if self.injector.fire(FaultSite.CORRUPT, vpc=fragment.entry_vpc,
                              fid=fragment.fid):
            self._corrupt(fragment)
        return fragment

    def _corrupt(self, fragment):
        """Silently flip a bit in one body instruction (fault injection).

        The stamped checksum predates the corruption, so entry
        verification detects the damage; with verification off the
        fragment would execute wrong code — which is exactly what the
        chaos suite proves the checksums prevent.
        """
        victim = fragment.body[fragment.fid % len(fragment.body)]
        victim.imm = (victim.imm if victim.imm is not None else 0) ^ 0x2A
        fragment.invalidate_compiled()

    def _register_pending(self, fragment):
        for exit_record in fragment.exits:
            if exit_record.vtarget is None:
                continue
            if exit_record.patched:
                # born chained (codegen saw the target already installed):
                # record the direct-branch edge for invalidate_fragment
                target = self._by_entry_vpc.get(exit_record.vtarget)
                if target is not None:
                    self._incoming.setdefault(target.fid, set()).add(
                        fragment.fid)
                continue
            self._pending_exits.setdefault(exit_record.vtarget, []).append(
                (fragment, exit_record))
        for index, instr in enumerate(fragment.body):
            if instr.iop is IOp.PUSH_RAS and instr.target is None:
                self._pending_ras.setdefault(instr.vtarget, []).append(
                    (fragment, index))

    def _apply_patches(self, new_fragment):
        vpc = new_fragment.entry_vpc
        target = new_fragment.entry_address()
        for fragment, exit_record in self._pending_exits.pop(vpc, []):
            clean = self._is_clean(fragment)
            instr = fragment.body[exit_record.instr_index]
            if instr.iop is IOp.COND_CALL_TRANSLATOR:
                instr.iop = IOp.BRANCH
            elif instr.iop is IOp.CALL_TRANSLATOR:
                instr.iop = IOp.BR
            else:  # pragma: no cover - exit records only cover those two
                raise AssertionError(f"unpatchable exit {instr.iop}")
            instr.target = target
            exit_record.patched = True
            self.patches_applied += 1
            self._incoming.setdefault(new_fragment.fid, set()).add(
                fragment.fid)
            # the in-place binary patch invalidates any generated code
            self._invalidate(fragment, clean)
        for fragment, index in self._pending_ras.pop(vpc, []):
            clean = self._is_clean(fragment)
            fragment.body[index].target = target
            self.patches_applied += 1
            self._invalidate(fragment, clean)

    def _is_clean(self, fragment):
        """Whether a fragment's body still matches its stamped checksum.

        Consulted *before* an in-place patch mutates the body: a patch
        must not restamp (and thereby legitimise) a fragment that was
        already corrupted while sitting unexecuted in the cache.
        """
        if not self.verify or fragment.verified or \
                fragment.checksum is None:
            return True
        return fragment.compute_checksum() == fragment.checksum

    def _invalidate(self, fragment, clean=True):
        """Drop a fragment's generated code after an in-place patch."""
        fragment.invalidate_compiled()
        if self.verify:
            if clean:
                # the patch changed semantic fields; restamp so
                # verification keeps matching the (legitimate) new body
                fragment.checksum = fragment.compute_checksum()
            else:
                # the body failed verification before this patch: poison
                # the checksum so entry verification still trips and the
                # executor invalidates/retranslates the fragment
                fragment.checksum = -1
            fragment.verified = False
        self.invalidations += 1

    def _forget_fragment(self, fragment):
        """Drop every registration a fragment holds in the cache maps.

        The single place removal bookkeeping lives — both
        :meth:`invalidate_fragment` and :meth:`flush` go through it, so
        the maps can never disagree about what was cleared: the fragment
        leaves the live list and both entry indexes, its ``_incoming``
        row is dropped *and* its fid is discarded from every other row,
        and its unresolved patch requests are purged from the pending
        waiter maps (emptied waiter keys are deleted, so a long-running
        cache does not accumulate ghost keys) — a later translation can
        never patch into freed space.
        """
        self.fragments.remove(fragment)
        del self._by_entry_vpc[fragment.entry_vpc]
        del self._entry_addresses[fragment.base_address]
        self._unwatch_fragment(fragment)
        self._incoming.pop(fragment.fid, None)
        for sources in self._incoming.values():
            sources.discard(fragment.fid)
        for waiters_by_vpc in (self._pending_exits, self._pending_ras):
            for vpc in list(waiters_by_vpc):
                waiters = [entry for entry in waiters_by_vpc[vpc]
                           if entry[0] is not fragment]
                if waiters:
                    waiters_by_vpc[vpc] = waiters
                else:
                    del waiters_by_vpc[vpc]

    def invalidate_fragment(self, fragment):
        """Remove one fragment (corruption recovery); may flush instead.

        Removing just the fragment is safe only when no *other* fragment
        holds a patched direct branch to its entry — such a branch would
        dangle into freed cache space.  When external incoming links
        exist the whole cache is flushed (the always-safe fallback).
        Returns ``"removed"`` or ``"flushed"``.
        """
        incoming = self._incoming.get(fragment.fid, set())
        if incoming - {fragment.fid}:
            self.flush()
            return "flushed"
        self._forget_fragment(fragment)
        return "removed"

    def flush(self):
        """Drop all fragments (translation cache flush, Section 4.1).

        Fragment ids stay globally unique across flushes so statistics
        keyed by fid never collide.  Removal runs through
        :meth:`_forget_fragment` per fragment (quadratic in the live
        count, which the capacity bound keeps small) so a flush exercises
        exactly the same bookkeeping as single-fragment invalidation.
        """
        self.tracer.instant("tcache.flush", cat="tcache",
                            fragments=len(self.fragments),
                            code_bytes=self.total_code_bytes())
        for fragment in list(self.fragments):
            self._forget_fragment(fragment)
        self._next_free = self.dispatch_address + sum(
            instr.size for instr in self.dispatch_body)
        self.patches_applied = 0
        self.flush_count += 1
