"""The top-level co-designed VM (Fig. 1).

``CoDesignedVM.run()`` switches between three modes exactly as the paper's
simulation methodology describes (Section 4.1):

* **interpret** V-ISA instructions, maintaining MRET hotness counters;
* when a trace-start candidate becomes hot, **capture** the interpreted
  path as a superblock and **translate** it into the translation cache;
* when control reaches a translated fragment's entry, **execute** the
  translated code directly, returning to interpretation when a
  ``call-translator`` exit or dispatch miss leads outside translated code.
"""

from time import perf_counter

from repro.faults.inject import make_injector
from repro.faults.plan import FaultSite
from repro.interp.interpreter import Halted, Interpreter
from repro.interp.profiler import CandidateKind, HotnessProfiler
from repro.isa.opcodes import Kind
from repro.isa.semantics import Trap, TrapKind
from repro.memory.image import PROT_EXEC
from repro.obs.telemetry import Telemetry
from repro.obs.trace import make_tracer
from repro.tcache.cache import TCacheFull, TranslationCache
from repro.translator.cost import TranslationCostModel
from repro.translator.pipeline import TranslationError, Translator
from repro.translator.superblock import (
    EndReason,
    Superblock,
    SuperblockEntry,
    elided_by_translation,
)
from repro.utils.weak import weak_method
from repro.vm.config import VMConfig
from repro.vm.events import Trace
from repro.vm.executor import ExitReason, FragmentExecutor
from repro.vm.stats import VMStats
from repro.vm.traps import VMTrap, reconstruct_state


class BudgetExceeded(Exception):
    """The host-step fuel watchdog tripped (``VMConfig.max_host_steps``).

    A clean bound on runaway executions: raised from the run loop at a
    dispatch boundary (complete architected state), carrying the partial
    :class:`VMStats` so callers can report how far the run got.
    """

    def __init__(self, host_steps, stats):
        super().__init__(
            f"host step budget of {host_steps} exhausted")
        self.host_steps = host_steps
        self.stats = stats


class CoDesignedVM:
    """A complete DBT virtual machine for one loaded program."""

    def __init__(self, program, config=None):
        self.program = program
        self.config = config if config is not None else VMConfig()
        self.telemetry = Telemetry()
        self.tracer = make_tracer(self.config)
        self.injector = make_injector(self.config, telemetry=self.telemetry,
                                      tracer=self.tracer)
        verify = self.config.resolve_verify_fragments()
        self.interpreter = Interpreter(
            program, exec_engine=self.config.exec_engine)
        self.state = self.interpreter.state
        self.profiler = HotnessProfiler(self.config.threshold)
        self.tcache = TranslationCache(
            telemetry=self.telemetry, tracer=self.tracer,
            capacity_bytes=self.config.tcache_capacity_bytes,
            injector=self.injector, verify=verify)
        self.cost_model = TranslationCostModel()
        self.translator = Translator(
            self.tcache, fmt=self.config.fmt, policy=self.config.policy,
            n_accumulators=self.config.n_accumulators,
            fuse_memory=self.config.fuse_memory,
            cost_model=self.cost_model, telemetry=self.telemetry,
            tracer=self.tracer, injector=self.injector)
        self.stats = VMStats()
        self.trace = Trace() if self.config.collect_trace else None
        self.executor = FragmentExecutor(
            self.config, self.tcache, program.memory,
            self.interpreter.console, self.stats, trace=self.trace,
            telemetry=self.telemetry, verify=verify,
            pal=self.interpreter.pal)
        # hostile-guest wiring: watch guest stores for self-modifying
        # code, and let protect calls invalidate stale translations (weak
        # hooks, so a finished VM is freed without a cyclic collection)
        self.tcache.attach_memory(program.memory)
        self.tcache._smc_callback = weak_method(self, "_on_smc")
        self.interpreter.pal.on_protect = weak_method(self, "_on_protect")
        #: True while the fragment executor is running — an invalidation
        #: then must deopt the current stint (see ``_on_smc``)
        self._in_translated = False
        self.halted = False
        self._flush_window_start = 0
        self._flush_window_fragments = 0
        self._previous_flush_rate = None
        #: V-PC -> consecutive translation failures (retry accounting)
        self._translation_failures = {}
        #: committed-instruction clock of the last capacity flush, for
        #: the flush-storm guard
        self._last_capacity_flush = None

    # -- public API -----------------------------------------------------------

    def run(self, max_v_instructions=1_000_000):
        """Run until halt, trap, or the V-ISA instruction budget is spent.

        Returns the :class:`VMStats`.  Precise traps surface as
        :class:`VMTrap` with the reconstructed architected state attached.
        When ``VMConfig.max_host_steps`` is set, the fuel watchdog raises
        :class:`BudgetExceeded` (with partial stats) once the loop has
        taken that many dispatch steps.

        Phase attribution reads the clock only around translated stints
        and superblock captures: ``phase.vm.interpret`` is the loop's
        total time minus those two, so interpretation pays nothing per
        instruction.  The totals accumulate in locals and hit the
        registry once, in a ``finally`` that also finalises telemetry,
        so partial runs still report consistent numbers.

        With tracing on, the loop also opens spans: one ``vm.run`` root,
        a ``vm.translated`` span per translated stint, a ``vm.capture``
        span per superblock capture+translation (the translator's phase
        spans nest inside it), and each stretch of interpreter steps
        between them as one ``vm.interpret`` span, recorded from the
        same clock readings — a per-V-instruction span would swamp the
        trace.
        """
        stats = self.stats
        state = self.state
        profiler = self.profiler
        tcache = self.tcache
        tracer = self.tracer
        traced = tracer.enabled
        translated_s = capture_s = 0.0
        translated_n = capture_n = 0
        max_host_steps = self.config.max_host_steps
        host_steps = 0
        # interpreted-instruction count where the open stretch began
        mark = stats.interpreted_instructions
        tracer.begin("vm.run", budget=max_v_instructions)
        started = last = perf_counter()
        try:
            while not self.halted:
                if max_host_steps is not None:
                    host_steps += 1
                    if host_steps > max_host_steps:
                        raise BudgetExceeded(max_host_steps, stats)
                remaining = max_v_instructions - \
                    stats.total_v_instructions()
                if remaining <= 0:
                    break
                fragment = tcache.lookup(state.pc)
                if fragment is not None:
                    before = perf_counter()
                    if traced:
                        self._trace_interpret(last, before, mark)
                        tracer.begin("vm.translated", fid=fragment.fid,
                                     entry_vpc=fragment.entry_vpc)
                    try:
                        self._execute_translated(fragment, remaining)
                    finally:
                        last = perf_counter()
                        translated_s += last - before
                        translated_n += 1
                        mark = stats.interpreted_instructions
                    if traced:
                        tracer.end()
                    continue
                if profiler.record_execution(state.pc):
                    before = perf_counter()
                    if traced:
                        self._trace_interpret(last, before, mark)
                        tracer.begin("vm.capture", start_vpc=state.pc)
                    try:
                        self._capture_and_translate(state.pc)
                    finally:
                        last = perf_counter()
                        capture_s += last - before
                        capture_n += 1
                        mark = stats.interpreted_instructions
                    if traced:
                        tracer.end()
                    continue
                self._interpret_one()
        finally:
            ended = perf_counter()
            if traced:
                self._trace_interpret(last, ended, mark)
                # a trap can leave a stint span open; close it and vm.run
                tracer.unwind()
            registry = self.telemetry.registry
            registry.timer("phase.vm.translated").add(translated_s,
                                                      translated_n)
            registry.timer("phase.vm.capture").add(capture_s, capture_n)
            # one residual measurement per run
            registry.timer("phase.vm.interpret").add(
                ended - started - translated_s - capture_s)
            self.telemetry.finalize(stats, tcache, self.interpreter)
        return stats

    def _trace_interpret(self, start, end, mark):
        """Record the interpreter stretch since ``start`` as one
        ``vm.interpret`` span, unless it interpreted nothing."""
        instructions = self.stats.interpreted_instructions - mark
        if instructions:
            self.tracer.add_complete("vm.interpret", start, end, cat="vm",
                                     args={"instructions": instructions})

    def console_text(self):
        return self.interpreter.console_text()

    # -- translated-code execution ------------------------------------------------

    def _execute_translated(self, fragment, budget):
        self._in_translated = True
        try:
            result = self.executor.run(fragment, self.state,
                                       max_instructions=budget)
        finally:
            self._in_translated = False
        if result.reason is ExitReason.HALT:
            self.halted = True
        elif result.reason is ExitReason.UNTRANSLATED:
            self.profiler.note_candidate(result.vpc,
                                         CandidateKind.FRAGMENT_EXIT)
        elif result.reason is ExitReason.TRAP:
            if result.trap.kind is TrapKind.RETRANSLATE:
                self._deopt_after(result)
                return
            precise = reconstruct_state(result.fragment, result.body_index,
                                        self.state.regs,
                                        self.executor.accs)
            self.stats.traps_delivered += 1
            raise VMTrap(result.trap, precise)
        elif result.reason is ExitReason.BUDGET:
            # state.pc points at a fragment entry with complete state; the
            # outer loop's budget check terminates the run
            pass
        elif result.reason is ExitReason.CORRUPT:
            self._recover_corrupt(result.fragment)

    def _deopt_after(self, result):
        """Resume interpretation after an invalidation mid-fragment.

        The internal RETRANSLATE pseudo-trap (never guest-visible) fires
        when translated execution invalidates fragments — a
        self-modifying store hitting watched code, or a ``protect`` call
        dropping execute permission.  The triggering instruction
        *completed* (the store wrote, the PAL call returned), so the
        precise architected state is the PEI recovery state advanced
        past it; the currently executing fragment may itself be stale
        (or flushed), so the stint is always abandoned and the outer
        loop re-enters through lookup/translate with fresh code.
        """
        precise = reconstruct_state(result.fragment, result.body_index,
                                    self.state.regs, self.executor.accs)
        if result.trap.access == "pal":
            # the PAL call wrote R0 directly into the live file after
            # its operands were read; a basic-format recovery map
            # predates that write and must not clobber it
            precise.regs[0] = self.state.regs[0]
        self.state.regs[:] = precise.regs
        self.state.pc = precise.pc + 4
        self.stats.retranslate_deopts += 1
        self.tracer.instant("vm.retranslate_deopt", cat="vm",
                            vpc=result.trap.vpc,
                            origin=result.trap.access)

    def _on_smc(self, vpc, invalidated, flushed):
        """Translation-cache callback: a guest store hit translated code.

        Mirrors the cache's counters into :class:`VMStats` (so the
        engine-differential suites assert them) and, when the store ran
        inside translated code, abandons the stint via RETRANSLATE — the
        store itself has already completed in guest memory.
        """
        self.stats.smc_detected += 1
        self.stats.smc_invalidations += invalidated
        if flushed:
            self.stats.tcache_flushes += 1
        if self._in_translated:
            raise Trap(TrapKind.RETRANSLATE, vpc=vpc, access="write")

    def _on_protect(self, base, size, prot, vpc):
        """PAL hook: the guest changed page protections.

        Dropping execute permission invalidates every fragment
        translated from the range — the guest revoked the code those
        translations came from, and the interpreter's exec-checked fetch
        must be the one to (precisely) fault if control returns there.
        The ``protect`` fault site forces the invalidation spuriously,
        which is behaviour-neutral: victims simply retranslate.
        """
        spurious = self.injector.fire(FaultSite.PROTECT, vpc=vpc)
        if (prot & PROT_EXEC) and not spurious:
            return 0
        invalidated, flushed = self.tcache.invalidate_range(base, size)
        if invalidated:
            self.stats.protect_invalidations += invalidated
            if flushed:
                self.stats.tcache_flushes += 1
        return invalidated

    def _recover_corrupt(self, fragment):
        """Graceful recovery from a failed fragment integrity check.

        The corrupt fragment is removed (or the cache flushed when other
        fragments branch into it); control is already at its entry V-PC
        with complete architected state, so the outer loop falls back to
        interpretation and the hotness machinery retranslates the path
        on its own schedule.
        """
        self.stats.corrupt_fragments_detected += 1
        self.tracer.instant("vm.fragment_corrupted", cat="vm",
                            fid=fragment.fid,
                            entry_vpc=fragment.entry_vpc)
        if self.tcache.invalidate_fragment(fragment) == "flushed":
            self.stats.tcache_flushes += 1

    # -- interpretation -------------------------------------------------------------

    def _interpret_one(self):
        try:
            event = self.interpreter.step()
        except Halted:
            self.halted = True
            return
        except Trap as trap:
            self.stats.traps_delivered += 1
            raise VMTrap(trap, self.state.copy()) from trap
        self.stats.interpreted_instructions += 1
        if elided_by_translation(event.instr):
            self.stats.interpreted_elided += 1
        self._profile(event)

    def _profile(self, event):
        instr = event.instr
        if instr.kind is Kind.JUMP:
            self.profiler.note_candidate(event.next_pc,
                                         CandidateKind.INDIRECT_TARGET)
        elif instr.kind is Kind.COND_BRANCH and event.taken and \
                event.next_pc <= event.pc:
            self.profiler.note_candidate(
                event.next_pc, CandidateKind.BACKWARD_BRANCH_TARGET)

    # -- superblock capture -----------------------------------------------------------

    def _capture_and_translate(self, start_vpc):
        entries = []
        visited = set()
        end_reason = None
        continuation = None
        max_size = self.config.max_superblock

        memory = self.program.memory

        while True:
            vpc = self.state.pc
            try:
                # record the raw word *before* the step: a store may
                # rewrite its own instruction, and the captured entry
                # must describe the word that actually executed (the
                # pre-fetch raises exactly the trap the step would)
                word = memory.fetch(vpc, vpc=vpc)
                event = self.interpreter.step()
            except Halted:
                # include the halt instruction itself and end the block
                instr = self.interpreter.fetch(vpc)
                entries.append(SuperblockEntry(vpc, instr, False, vpc + 4,
                                               word=word))
                end_reason = EndReason.TRAP_INSTRUCTION
                self.halted = True
                break
            except Trap as trap:
                self.stats.traps_delivered += 1
                raise VMTrap(trap, self.state.copy()) from trap
            self.stats.interpreted_instructions += 1
            if elided_by_translation(event.instr):
                self.stats.interpreted_elided += 1
            entries.append(SuperblockEntry(event.pc, event.instr,
                                           event.taken, event.next_pc,
                                           word=word))
            visited.add(event.pc)
            kind = event.instr.kind

            if kind is Kind.JUMP:
                end_reason = EndReason.INDIRECT_JUMP
                break
            if kind is Kind.PAL:
                end_reason = EndReason.TRAP_INSTRUCTION
                continuation = event.next_pc
                break
            if kind is Kind.COND_BRANCH and event.taken and \
                    event.next_pc <= event.pc:
                end_reason = EndReason.BACKWARD_TAKEN_BRANCH
                continuation = event.pc + 4
                break
            if len(entries) >= max_size:
                end_reason = EndReason.MAX_SIZE
                continuation = event.next_pc
                break
            if event.next_pc in visited:
                end_reason = EndReason.CYCLE
                continuation = event.next_pc
                break
            if self.config.stop_at_existing_fragment and \
                    self.tcache.lookup(event.next_pc) is not None:
                end_reason = EndReason.EXISTING_FRAGMENT
                continuation = event.next_pc
                break

        superblock = Superblock(start_vpc, entries, end_reason, continuation)
        self._translate_superblock(superblock, start_vpc)

    def _translate_superblock(self, superblock, start_vpc):
        """Translate a captured superblock, degrading gracefully.

        A :class:`TranslationError` discards the superblock — the
        interpreted path already executed, so architected state is
        untouched — and backs off (eventually blacklisting) the entry
        PC.  A :class:`TCacheFull` flushes the cache and retries once,
        unless the flush-storm guard vetoes the flush, in which case the
        translation is treated as a plain failure.

        A superblock whose recorded words no longer match guest memory is
        discarded outright: a store *during* capture rewrote code that
        was already recorded (the page is only write-watched once a
        fragment is installed), so translating it would bake stale
        semantics.  The entry stays hot, and the next visit recaptures
        the rewritten code.
        """
        if self._capture_is_stale(superblock):
            self.stats.stale_captures_discarded += 1
            return
        try:
            result = self.translator.translate(superblock)
        except TranslationError as exc:
            self._note_translation_failure(start_vpc, exc.reason)
            return
        except TCacheFull:
            if not self._flush_for_capacity():
                self._note_translation_failure(
                    start_vpc, "tcache full, flush suppressed (storm)")
                return
            try:
                result = self.translator.translate(superblock)
            except TranslationError as exc:
                self._note_translation_failure(start_vpc, exc.reason)
                return
            except TCacheFull:
                # still full after flushing: the fragment alone exceeds
                # capacity (or injection struck again) — interpret
                self._note_translation_failure(
                    start_vpc, "tcache full after flush")
                return
        self.stats.note_translation(result)
        self.profiler.reset(start_vpc)
        if self.config.flush_on_phase_change:
            self._maybe_flush()

    def _capture_is_stale(self, superblock):
        """Whether any recorded word was rewritten since it was captured."""
        read = self.program.memory.read_bytes
        for entry in superblock.entries:
            if entry.word is None:
                continue
            if int.from_bytes(read(entry.vpc, 4), "little") != entry.word:
                return True
        return False

    def _flush_for_capacity(self):
        """Flush for a capacity miss unless the storm guard vetoes it.

        Two capacity flushes within ``flush_storm_window`` committed
        V-ISA instructions indicate thrashing (e.g. a working set larger
        than the cache); the second flush is suppressed so the VM backs
        off to interpretation instead of flushing in a tight loop.
        """
        now = self.stats.total_v_instructions()
        last = self._last_capacity_flush
        if last is not None and \
                now - last < self.config.flush_storm_window:
            self.stats.flush_storms_suppressed += 1
            return False
        self.tcache.flush()
        self.stats.tcache_flushes += 1
        self.stats.tcache_capacity_flushes += 1
        self._last_capacity_flush = now
        return True

    def _note_translation_failure(self, vpc, reason):
        """Retry accounting for a failed translation of ``vpc``.

        Below ``translation_retry_limit`` failures the PC's hotness
        counter is reset with a doubled threshold (visit-count backoff);
        at the limit the PC is blacklisted and interpreted for the rest
        of the run.  Either way the run continues correctly — the
        superblock's instructions were interpreted during capture.
        """
        self.stats.translation_failures += 1
        failures = self._translation_failures.get(vpc, 0) + 1
        self._translation_failures[vpc] = failures
        self.tracer.instant("vm.translation_failed", cat="vm", vpc=vpc,
                            failures=failures)
        if failures >= self.config.translation_retry_limit:
            self.profiler.blacklist(vpc)
            self.stats.translation_pcs_blacklisted += 1
            self.tracer.instant("vm.pc_blacklisted", cat="vm", vpc=vpc)
        else:
            self.profiler.backoff(vpc)

    def _maybe_flush(self):
        """Dynamo-style phase-change detection (paper Section 4.1): an
        abrupt increase of the fragment generation rate flushes the cache,
        evicting stale fragments and allowing new formation."""
        config = self.config
        self._flush_window_fragments += 1
        now = self.stats.total_v_instructions()
        elapsed = now - self._flush_window_start
        if elapsed < config.flush_window:
            return
        rate = self._flush_window_fragments / max(elapsed, 1)
        previous = self._previous_flush_rate
        if previous is not None and previous > 0 and \
                rate > config.flush_rate_factor * previous:
            self.tcache.flush()
            self.stats.tcache_flushes += 1
        self._previous_flush_rate = rate
        self._flush_window_start = now
        self._flush_window_fragments = 0
