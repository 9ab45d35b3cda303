"""Functional execution of translated fragments.

The executor models the co-designed hardware's architectural behaviour:
accumulators, the GPR file (with the modified format's operational/
architected distinction checked on every read), the dual-address return
address stack (:data:`RAS_DEPTH` entries), fragment-to-fragment chaining,
the shared dispatch code, and precise traps.

Control only ever enters a fragment at its entry address — chaining
branches, RAS predictions and dispatch all resolve to fragment entries —
so execution walks fragment bodies by index and follows entry addresses
across fragments without leaving the executor.  It returns to the VM only
when translated code runs out (``call-translator`` or a dispatch miss),
the program halts, or a trap must be delivered.

There are two execution engines (``VMConfig.exec_engine``).  ``naive``
is the reference: every fragment visit walks the body instruction by
instruction through the readable ``_execute`` dispatch.  ``jit``, the
default, runs each fragment as one generated Python function
(:mod:`repro.vm.jit`), compiled on the fragment's first entry; visits
the generated code cannot serve — trace collection on, or a compile
failure — take the same reference walk.  Both produce identical
architected state, traces and ``VMStats``.

With trace collection on, each committed instruction appends one row to
the :class:`~repro.vm.events.Trace`: a reference to the instruction's
:class:`~repro.vm.events.Template`, built on its first traced visit and
kept with the fragment (``Fragment._trace_templates``, dropped with the
generated code by ``Fragment.invalidate_compiled``), plus the four
dynamic fields.  The shared dispatch body's templates are built once
per executor.  Untraced runs build no template.
"""

import enum
import itertools

from repro.ildp_isa.opcodes import IFormat, IOp
from repro.ildp_isa.semantics import IALU_OPS, icond_taken
from repro.isa.semantics import CMOV_CONDITIONS, Trap, TrapKind
from repro.obs.telemetry import Telemetry
from repro.utils.bitops import MASK64, sext
from repro.vm.events import Template

#: Dynamic instruction-count weight per special op in the ALPHA format
#: (embedding a 64-bit address costs an ldah+lda pair on a conventional
#: ISA; the I-ISA has single wide encodings for these).
_ALPHA_WEIGHTS = {
    IOp.LOAD_EMB: 2,
    IOp.SAVE_VRA: 2,
    IOp.CALL_TRANSLATOR: 2,
    IOp.COND_CALL_TRANSLATOR: 2,
}

_MUL_OPS = frozenset({"mull", "mulq", "umulh"})

#: Entries of the dual-address return address stack (push-dual-RAS
#: drops the oldest entry past this depth).
RAS_DEPTH = 16

#: The register-state copies Table 2 counts (``IInstruction.is_copy``).
_COPY_IOPS = frozenset({IOp.COPY_TO_GPR, IOp.COPY_FROM_GPR})

#: Serial numbers identifying which executor a fragment's generated
#: code belongs to (see ``FragmentExecutor._jit_for``).
_EXECUTOR_SERIALS = itertools.count()

#: Lazily bound ``repro.vm.jit.compile_fragment_jit`` (that module
#: imports this one, so it cannot be imported at the top).
_compile_fragment_jit = None

#: jit code-size histogram buckets (generated source lines per fragment).
_JIT_SIZE_BUCKETS = (8, 16, 32, 64, 128, 256, 512)


def _body_template(instr, fmt):
    """The static trace fields of fragment body instruction ``instr``.

    Classifies the instruction once — class, GPR sources and
    destination, accumulator use, branch type — so every traced
    execution appends the same tuple plus its dynamic fields.
    """
    iop = instr.iop
    address, size, v_weight = instr.address, instr.size, instr.v_weight
    if iop is IOp.BRANCH or iop is IOp.COND_CALL_TRANSLATOR:
        cond_src = instr.cond_src
        return Template(address, size, "branch",
                        (instr.gpr,) if cond_src == "gpr" else (),
                        acc=instr.acc if cond_src == "acc" else None,
                        btype="cond", v_weight=v_weight)
    if iop is IOp.BR or iop is IOp.CALL_TRANSLATOR:
        return Template(address, size, "branch", btype="uncond",
                        v_weight=v_weight)
    if iop is IOp.RET_RAS:
        return Template(address, size, "branch", (instr.gpr,), btype="ret",
                        v_weight=v_weight)
    if iop is IOp.TO_DISPATCH:
        return Template(address, size, "branch", (instr.gpr,),
                        btype="uncond", v_weight=v_weight)
    op_class = "int"
    srcs = ()
    dst = None
    acc_read = False
    if iop is IOp.ALU:
        srcs = tuple(instr.gpr if source == "gpr" else instr.gpr2
                     for source in (instr.src_a, instr.src_b)
                     if source == "gpr" or source == "gpr2")
        if fmt is IFormat.ALPHA and instr.op in CMOV_CONDITIONS and \
                instr.dest_gpr is not None:
            srcs += (instr.dest_gpr,)   # the old destination value
        if instr.op in _MUL_OPS:
            op_class = "mul"
        dst = instr.gpr_dest(fmt)
        acc_read = instr.src_a == "acc" or instr.src_b == "acc"
    elif iop is IOp.LOAD:
        op_class = "load"
        srcs = (instr.gpr,) if instr.addr_src == "gpr" else ()
        dst = instr.gpr_dest(fmt)
        acc_read = instr.addr_src == "acc"
    elif iop is IOp.STORE:
        op_class = "store"
        if instr.addr_src == "gpr":
            srcs = (instr.gpr,)
        if instr.data_src == "gpr":
            srcs += (instr.gpr,)
        elif instr.data_src == "gpr2":
            srcs += (instr.gpr2,)
        acc_read = instr.addr_src == "acc" or instr.data_src == "acc"
    elif iop is IOp.COPY_TO_GPR:
        dst = instr.gpr
        acc_read = True
    elif iop is IOp.COPY_FROM_GPR:
        srcs = (instr.gpr,)
    elif iop is IOp.SAVE_VRA:
        dst = instr.gpr
    elif iop is IOp.PUTC or iop is IOp.SYSCALL:
        srcs = (16,)
    return Template(address, size, op_class, srcs, dst, instr.acc, acc_read,
                    instr.writes_acc(), instr.strand_start, None, v_weight)


def _dispatch_templates(body):
    """Templates of the shared dispatch body: a hash-probe chain through
    one accumulator, ending in its one ``JMP_DISPATCH``
    (:func:`repro.tcache.dispatch.build_dispatch_code`)."""
    *chain, jump = body
    templates = [Template(instr.address, instr.size,
                          "load" if instr.iop is IOp.LOAD else "int",
                          acc=instr.acc, acc_read=True, acc_write=True,
                          is_dispatch=True)
                 for instr in chain]
    templates.append(Template(jump.address, jump.size, "branch",
                              acc=jump.acc, acc_read=True,
                              btype="indirect", is_dispatch=True))
    return templates


class ExitReason(enum.Enum):
    HALT = "halt"
    UNTRANSLATED = "untranslated"   # call-translator or dispatch miss
    TRAP = "trap"
    BUDGET = "budget"               # instruction budget exhausted
    CORRUPT = "corrupt"             # fragment failed entry verification


class ExecResult:
    """How a stint of translated-code execution ended."""

    __slots__ = ("reason", "vpc", "fragment", "body_index", "trap")

    def __init__(self, reason, vpc=None, fragment=None, body_index=None,
                 trap=None):
        self.reason = reason
        self.vpc = vpc                  # V-PC where the VM resumes
        self.fragment = fragment        # fragment active at exit (traps)
        self.body_index = body_index
        self.trap = trap

    def __repr__(self):
        return f"ExecResult({self.reason.value}, vpc={self.vpc})"


class StalenessError(AssertionError):
    """Strict modified-format check: an operationally-stale GPR was read."""


class FragmentExecutor:
    """Executes fragments against shared architected state."""

    def __init__(self, config, tcache, memory, console, stats, trace=None,
                 telemetry=None, verify=False, pal=None):
        self.config = config
        self.tcache = tcache
        self.memory = memory
        self.console = console
        self.stats = stats
        self.trace = trace
        #: the interpreter's :class:`repro.interp.pal.PalContext` — the
        #: SYSCALL iop dispatches through it so translated and
        #: interpreted CALL_PALs share one input cursor and heap break
        self.pal = pal
        #: Checksum-verify fragments at entry and at fragment transitions
        #: (both are synchronisation points with complete architected
        #: state, so bailing out there is always safe).  Off by default;
        #: the fault-free path pays nothing.
        self.verify = verify
        self.accs = [0] * max(config.n_accumulators, 1)
        self.ras = []
        #: modified-format staleness tracking
        self._stale = set()
        #: identity under which fragments cache generated code for us
        self._compile_key = next(_EXECUTOR_SERIALS)
        #: body index of the instruction whose generated guard last
        #: raised a trap (set by generated code, read by ``run`` to build
        #: the precise ``ExecResult``)
        self._jit_pei = None
        #: templates of the dispatch body's probe chain and of its final
        #: jump, built on the first traced dispatch
        self._dispatch_rows = None
        self.telemetry = telemetry if telemetry is not None \
            else Telemetry()
        registry = self.telemetry.registry
        self._entries_counter = registry.counter("exec.fragment_entries")
        self._jit_promotions = registry.counter("jit.promotions")
        self._jit_deopts = registry.counter("jit.deopts")
        self._jit_compile_failures = registry.counter("jit.compile_failures")
        self._jit_compile_timer = registry.timer("jit.compile")
        self._jit_size_hist = registry.histogram("jit.code_lines",
                                                 _JIT_SIZE_BUCKETS)

    # -- register plumbing ---------------------------------------------------

    def _read_gpr(self, regs, index, fmt):
        if fmt is IFormat.MODIFIED and index in self._stale:
            raise StalenessError(
                f"r{index} read while operationally stale (usage analysis "
                "marked it non-operational)")
        return regs[index]

    def _write_gpr(self, regs, index, value, operational=True):
        if index == 31:
            return
        regs[index] = value & MASK64
        if operational:
            self._stale.discard(index)
        else:
            self._stale.add(index)

    def _operand(self, instr, source, regs, fmt):
        if source == "acc":
            return self.accs[instr.acc]
        if source == "gpr":
            return self._read_gpr(regs, instr.gpr, fmt)
        if source == "gpr2":
            return self._read_gpr(regs, instr.gpr2, fmt)
        if source == "imm":
            return instr.imm
        return 0  # "zero" and None

    # -- main loop -------------------------------------------------------------

    def run(self, fragment, state, max_instructions=None):
        """Execute from ``fragment`` until the VM must take over.

        ``state`` is the shared :class:`~repro.interp.state.ArchState`; its
        register list is the GPR file (operational + architected in one,
        with staleness assertions for the modified format).

        Each fragment visit runs one of two ways.  Under the default
        ``jit`` engine an untraced visit calls the fragment's generated
        function (:mod:`repro.vm.jit`), compiling it on first entry.
        Every other visit — trace collection on, a fragment whose
        compile failed, or ``exec_engine="naive"`` — walks the body
        through the reference ``_execute`` dispatch.  The two are
        observationally identical: generated code batches exactly the
        statistics the walk counts per instruction, flushed before
        every point where they can be observed.
        """
        verify = self.verify
        if verify and not self._integrity_ok(fragment):
            return ExecResult(ExitReason.CORRUPT, vpc=fragment.entry_vpc,
                              fragment=fragment)
        regs = state.regs
        stats = self.stats
        iop_counts = stats.iop_counts
        execute = self._execute
        traced = self.trace is not None
        jit = not traced and self.config.exec_engine == "jit"
        key = self._compile_key
        self._stale.clear()
        frag = fragment
        frag.execution_count += 1
        self._entries_counter.inc()
        start_v = stats.source_instructions_executed

        while True:
            jfn = None
            if jit:
                if frag._jit_key == key:
                    jfn = frag._jit_code
                if jfn is None:
                    jfn = self._jit_for(frag)
            if jfn is not None:
                try:
                    outcome = jfn(self, regs, state)
                except Trap as trap:
                    self._jit_deopts.inc()
                    return ExecResult(ExitReason.TRAP, vpc=trap.vpc,
                                      fragment=frag,
                                      body_index=self._jit_pei, trap=trap)
            else:
                body = frag.body
                fmt = frag.fmt
                alpha = fmt is IFormat.ALPHA
                templates = template = None
                if traced:
                    templates = frag._trace_templates
                    if templates is None:
                        templates = frag._trace_templates = \
                            [None] * len(body)
                index = 0
                while True:
                    instr = body[index]
                    iop = instr.iop
                    # VMStats' four per-instruction counters, inlined
                    stats.iinstructions_executed += \
                        _ALPHA_WEIGHTS.get(iop, 1) if alpha else 1
                    iop_counts[iop] += 1
                    if iop in _COPY_IOPS:
                        stats.copies_executed += 1
                    stats.source_instructions_executed += instr.v_weight
                    if templates is not None:
                        template = templates[index]
                        if template is None:
                            template = templates[index] = \
                                _body_template(instr, fmt)
                    try:
                        outcome = execute(instr, iop, regs, fmt, template)
                    except Trap as trap:
                        trap.vpc = instr.vpc
                        return ExecResult(ExitReason.TRAP, vpc=instr.vpc,
                                          fragment=frag, body_index=index,
                                          trap=trap)
                    if outcome is not None:
                        break
                    index += 1
            kind, value = outcome
            if kind == "goto":
                frag = value[0]
                # A fragment transition is a synchronisation point: the
                # redirect gives the machine time to make the architected
                # file visible, so staleness tracking restarts here.  The
                # strict check therefore only catches *intra-fragment*
                # reads of non-operational values, which would be genuine
                # usage-analysis bugs.
                self._stale.clear()
                if verify and not self._integrity_ok(frag):
                    state.pc = frag.entry_vpc
                    return ExecResult(ExitReason.CORRUPT,
                                      vpc=frag.entry_vpc, fragment=frag)
                # Budget checks happen only at fragment boundaries, where
                # the architected state is complete (all live-outs copied).
                if max_instructions is not None and \
                        stats.source_instructions_executed - start_v >= \
                        max_instructions:
                    state.pc = frag.entry_vpc
                    return ExecResult(ExitReason.BUDGET,
                                      vpc=frag.entry_vpc, fragment=frag)
                frag.execution_count += 1
            elif kind == "exit":
                state.pc = value.vpc if value.vpc is not None else state.pc
                return value
            else:  # pragma: no cover
                raise AssertionError(kind)

    # -- jit -----------------------------------------------------------------

    def _jit_for(self, frag):
        """Compile the fragment's generated function for this executor.

        Returns ``None`` when the fragment cannot be compiled.  Generated
        code is keyed per executor: it binds *our* translation cache,
        memory and config, and a fragment can be handed to a different
        executor (tests do this after hand-mutating instructions), so a
        key mismatch simply recompiles.  A compile failure pins the
        fragment to the body walk (``_jit_failed``) instead of retrying
        every visit; ``Fragment.invalidate_compiled`` clears both the
        code and the pin, so patched bodies get a fresh chance.
        """
        global _compile_fragment_jit
        if frag._jit_key != self._compile_key:
            frag._jit_key = self._compile_key
            frag._jit_code = None
            frag._jit_failed = False
        if frag._jit_failed:
            return None
        if _compile_fragment_jit is None:
            from repro.vm.jit import compile_fragment_jit
            _compile_fragment_jit = compile_fragment_jit
        try:
            with self._jit_compile_timer.time():
                fn = _compile_fragment_jit(self, frag)
        except Exception:
            # degrade, never die: the body walk is semantically complete
            frag._jit_failed = True
            self._jit_compile_failures.inc()
            return None
        frag._jit_code = fn
        self._jit_promotions.inc()
        self._jit_size_hist.observe(fn._jit_lines)
        return fn

    def _integrity_ok(self, frag):
        """Checksum-verify a fragment, amortised via ``frag.verified``.

        Unstamped fragments (``checksum is None``) pass trivially; a
        verified fragment is trusted until an in-place patch resets the
        flag.  Returns False exactly when the body no longer matches its
        install-time checksum — i.e. it was corrupted.
        """
        if frag.verified:
            return True
        if frag.checksum is None:
            frag.verified = True
            return True
        if frag.compute_checksum() == frag.checksum:
            frag.verified = True
            return True
        return False

    # -- single-instruction semantics -------------------------------------------

    def _execute(self, instr, iop, regs, fmt, template=None):
        """Execute one body instruction; with ``template`` (trace
        collection on) also append its trace row."""
        if iop is IOp.ALU:
            self._do_alu(instr, regs, fmt, template)
        elif iop is IOp.LOAD:
            self._do_load(instr, regs, fmt, template)
        elif iop is IOp.STORE:
            self._do_store(instr, regs, fmt, template)
        elif iop is IOp.COPY_TO_GPR:
            if template is not None:
                self.trace.append(template)
            self._write_gpr(regs, instr.gpr, self.accs[instr.acc])
        elif iop is IOp.COPY_FROM_GPR:
            if template is not None:
                self.trace.append(template)
            self.accs[instr.acc] = self._read_gpr(regs, instr.gpr, fmt)
        elif iop is IOp.BRANCH:
            return self._do_branch(instr, regs, fmt, template)
        elif iop is IOp.BR:
            if template is not None:
                self.trace.append(template, True, instr.target)
            return self._transfer(instr.target)
        elif iop is IOp.SET_VPC_BASE:
            if template is not None:
                self.trace.append(template)
        elif iop is IOp.SAVE_VRA:
            if template is not None:
                self.trace.append(template)
            self._write_gpr(regs, instr.gpr, instr.vtarget)
        elif iop is IOp.PUSH_RAS:
            if template is not None:
                self.trace.append(template)
            self._push_ras(instr)
        elif iop is IOp.RET_RAS:
            return self._do_ret_ras(instr, regs, fmt, template)
        elif iop is IOp.LOAD_EMB:
            if template is not None:
                self.trace.append(template)
            self.accs[instr.acc] = instr.vtarget
        elif iop is IOp.CALL_TRANSLATOR:
            if template is not None:
                self.trace.append(template, True)
            return ("exit", ExecResult(ExitReason.UNTRANSLATED,
                                       vpc=instr.vtarget))
        elif iop is IOp.COND_CALL_TRANSLATOR:
            value = self._operand(instr, instr.cond_src, regs, fmt)
            taken = icond_taken(instr.op, value)
            if template is not None:
                self.trace.append(template, taken)
            if taken:
                return ("exit", ExecResult(ExitReason.UNTRANSLATED,
                                           vpc=instr.vtarget))
        elif iop is IOp.TO_DISPATCH:
            return self._do_dispatch(instr, regs, fmt, template)
        elif iop is IOp.HALT:
            if template is not None:
                self.trace.append(template)
            return ("exit", ExecResult(ExitReason.HALT, vpc=instr.vpc))
        elif iop is IOp.PUTC:
            if template is not None:
                self.trace.append(template)
            self.console.append(self._read_gpr(regs, 16, fmt) & 0xFF)
        elif iop is IOp.SYSCALL:
            if template is not None:
                self.trace.append(template)
            self.pal.call(regs, instr.imm, instr.vpc, translated=True)
        elif iop is IOp.GENTRAP:
            raise Trap(TrapKind.GENTRAP, vpc=instr.vpc)
        else:  # pragma: no cover
            raise AssertionError(f"cannot execute {iop}")
        return None

    # -- computation ------------------------------------------------------------

    def _do_alu(self, instr, regs, fmt, template):
        op = instr.op
        a = self._operand(instr, instr.src_a, regs, fmt)
        b = self._operand(instr, instr.src_b, regs, fmt)
        if fmt is IFormat.ALPHA and op in CMOV_CONDITIONS:
            old = regs[instr.dest_gpr] if instr.dest_gpr is not None else 0
            result = b if CMOV_CONDITIONS[op](a) else old
        else:
            result = IALU_OPS[op](a, b)
        if template is not None:
            self.trace.append(template)
        self._commit_result(instr, result, regs, fmt)

    def _commit_result(self, instr, result, regs, fmt):
        if instr.acc is not None:
            self.accs[instr.acc] = result
        if fmt is IFormat.ALPHA:
            if instr.dest_gpr is not None:
                self._write_gpr(regs, instr.dest_gpr, result)
        elif fmt is IFormat.MODIFIED:
            if instr.dest_gpr is not None:
                self._write_gpr(regs, instr.dest_gpr, result,
                                operational=instr.operational)
        # basic format: architected state is maintained by copy-to-GPR

    def _do_load(self, instr, regs, fmt, template):
        base = self._operand(instr, instr.addr_src, regs, fmt)
        address = (base + instr.imm) & MASK64
        raw = self.memory.load(address, instr.mem_size, vpc=instr.vpc)
        value = sext(raw, 8 * instr.mem_size) if instr.mem_signed else raw
        if template is not None:
            self.trace.append(template, False, None, address)
        self._commit_result(instr, value, regs, fmt)

    def _do_store(self, instr, regs, fmt, template):
        base = self._operand(instr, instr.addr_src, regs, fmt)
        address = (base + instr.imm) & MASK64
        data = self._operand(instr, instr.data_src, regs, fmt)
        if template is not None:
            self.trace.append(template, False, None, address)
        self.memory.store(address, data & MASK64, instr.mem_size,
                          vpc=instr.vpc)

    # -- control -------------------------------------------------------------------

    def _transfer(self, address):
        frag = self.tcache.fragment_at(address)
        if frag is None:  # pragma: no cover - layout guarantees entries
            raise AssertionError(
                f"control transfer to non-entry address {address:#x}")
        return ("goto", (frag, 0))

    def _do_branch(self, instr, regs, fmt, template):
        value = self._operand(instr, instr.cond_src, regs, fmt)
        taken = icond_taken(instr.op, value)
        if template is not None:
            self.trace.append(template, taken,
                              instr.target if taken else None)
        if taken:
            return self._transfer(instr.target)
        return None

    def _push_ras(self, instr):
        self.ras.append((instr.vtarget,
                         instr.target if instr.target is not None
                         else self.tcache.dispatch_address))
        if len(self.ras) > RAS_DEPTH:
            self.ras.pop(0)

    def _do_ret_ras(self, instr, regs, fmt, template):
        actual = self._read_gpr(regs, instr.gpr, fmt) & ~3 & MASK64
        hit = False
        target = None
        if self.ras:
            v_pred, i_pred = self.ras.pop()
            frag = self.tcache.fragment_at(i_pred)
            if v_pred == actual and frag is not None and \
                    frag.entry_vpc == actual:
                hit = True
                target = i_pred
        self.stats.count_ras(hit)
        if template is not None:
            self.trace.append(template, hit, target, None, hit)
        if hit:
            return self._transfer(target)
        return None  # fall through to the TO_DISPATCH that follows

    def _do_dispatch(self, instr, regs, fmt, template=None):
        vtarget = self._read_gpr(regs, instr.gpr, fmt) & ~3 & MASK64
        if template is not None:
            self.trace.append(template, True, self.tcache.dispatch_address)
        frag = self.tcache.lookup(vtarget)
        self.stats.count_dispatch()
        self._emit_dispatch_trace(frag)
        if frag is None:
            return ("exit", ExecResult(ExitReason.UNTRANSLATED,
                                       vpc=vtarget))
        return ("goto", (frag, 0))

    def _emit_dispatch_trace(self, target_fragment):
        """Count the shared dispatch body and, when tracing, append its
        rows: the probe chain's, then the final jump's, whose target is
        the only dynamic field."""
        body = self.tcache.dispatch_body
        self.stats.count_dispatch_instructions(len(body))
        trace = self.trace
        if trace is None:
            return
        rows = self._dispatch_rows
        if rows is None:
            *probe, jump = _dispatch_templates(body)
            rows = self._dispatch_rows = (probe, jump)
        probe, jump = rows
        append = trace.append
        for template in probe:
            append(template)
        append(jump, True, target_fragment.entry_address()
               if target_fragment is not None else None)
