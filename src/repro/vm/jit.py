"""JIT: lower fragments to straight-line Python source on first entry.

The reference body walk (``FragmentExecutor.run`` over ``_execute``)
pays an if/elif dispatch, four statistics increments and an outcome
check for every executed I-ISA instruction.  This module removes all of
that: the whole body is emitted as *one* generated Python function —
operands pre-resolved to ``regs[i]``/``_accs[i]`` index expressions, ALU
semantics inlined where an expression reproduces the :data:`IALU_OPS`
formula exactly (everything else calls the very same table function),
branch targets pre-resolved to shared ``("goto", (fragment, 0))``
outcomes, and the per-instruction statistics *batched*: the deltas are
compile-time constants, so one flush of four attribute additions replaces
dozens of per-step increments.

The generated function has the signature ``fn(ex, regs, state)`` and
returns the outcome protocol of ``_execute``: ``("goto", (fragment,
0))`` for an intra-cache transfer or ``("exit", ExecResult)`` (never
``None`` — control cannot fall off a laid-out fragment).

Exactness guarantees (the engine-differential suites assert full
``vars(VMStats)`` equality against the naive engine):

* statistics are flushed before every point the body walk could observe
  them — conditional and unconditional exits, the RAS/dispatch helpers
  (which call ``stats.count_ras``/``count_dispatch``), and trap raises;
* each potentially-excepting instruction (LOAD/STORE) sits in its own
  ``try/except Trap`` whose *cold* handler performs the catch-up flush
  (including the trapping instruction), records the body index for
  precise-state reconstruction, and re-raises — the hot path pays
  nothing (CPython 3.11 zero-cost exceptions);
* the strict modified-format staleness check is *simulated at compile
  time*: control only enters fragments at index 0 and bodies are
  straight-line, so the stale set at each instruction is static.  A
  simulated violation compiles to the same :class:`StalenessError` raise
  the walk would perform at run time; valid fragments carry no tracking
  code at all.

The caller (``FragmentExecutor.run``) compiles a fragment the first time
an untraced jit executor enters it and falls back to the body walk for
trace-collecting visits and for fragments whose compile failed.  Traps
surface as precise ``ExecResult`` records, and chaining patches,
corruption recovery and cache flushes drop generated functions through
``Fragment.invalidate_compiled``.
"""

from repro.ildp_isa.opcodes import IFormat, IOp
from repro.ildp_isa.semantics import IALU_OPS
from repro.isa.semantics import CMOV_CONDITIONS, Trap, TrapKind
from repro.memory.image import PAGE_MASK, PAGE_SHIFT
from repro.utils.bitops import MASK64, sext
from repro.vm.executor import _ALPHA_WEIGHTS, ExecResult, ExitReason, \
    StalenessError

_ZERO_REG = 31

#: ALU mnemonics emitted as inline expressions.  Each template must
#: reproduce the :data:`IALU_OPS` formula *exactly* (including its
#: masking behaviour on out-of-range operands — accumulators may hold
#: 65-bit cmov1 temporaries).  ``masked`` marks results guaranteed to be
#: < 2**64 already, letting GPR commits skip a redundant ``& MASK64``.
_INLINE_OPS = {
    "addq": ("(({a}) + ({b})) & MASK64", True),
    "subq": ("(({a}) - ({b})) & MASK64", True),
    "s4addq": ("(4 * ({a}) + ({b})) & MASK64", True),
    "s4subq": ("(4 * ({a}) - ({b})) & MASK64", True),
    "s8addq": ("(8 * ({a}) + ({b})) & MASK64", True),
    "s8subq": ("(8 * ({a}) - ({b})) & MASK64", True),
    "cmpeq": ("1 if ({a}) == ({b}) else 0", True),
    "cmpult": ("1 if ({a}) < ({b}) else 0", True),
    "cmpule": ("1 if ({a}) <= ({b}) else 0", True),
    "and": ("({a}) & ({b})", False),
    "bis": ("({a}) | ({b})", False),
    "xor": ("({a}) ^ ({b})", False),
    "bic": ("({a}) & ~({b}) & MASK64", True),
    "ornot": ("(({a}) | (~({b}) & MASK64)) & MASK64", True),
    "eqv": ("(({a}) ^ (~({b}) & MASK64)) & MASK64", True),
    "sll": ("(({a}) << (({b}) & 0x3F)) & MASK64", True),
    "srl": ("({a}) >> (({b}) & 0x3F)", False),
    "mulq": ("(({a}) * ({b})) & MASK64", True),
    "umulh": ("(({a}) * ({b})) >> 64", False),
}

#: Branch predicates over ``_c``, an already-masked unsigned 64-bit value
#: (``to_signed(c) < 0`` is exactly ``c >> 63`` on masked values).
_BRANCH_EXPRS = {
    "beq": "_c == 0",
    "bne": "_c != 0",
    "blt": "_c >> 63",
    "bge": "not (_c >> 63)",
    "ble": "_c >> 63 or _c == 0",
    "bgt": "not (_c >> 63 or _c == 0)",
    "blbc": "not (_c & 1)",
    "blbs": "_c & 1",
}

_STALE_MESSAGE = ("r{index} read while operationally stale (usage "
                  "analysis marked it non-operational)")


def _resolve_goto(tcache, target):
    """Pre-resolved ``("goto", ...)`` outcome for a direct transfer.

    Fragment entry addresses are stable for the life of the translation
    cache (a flush drops every fragment, including the one being
    compiled), and any patch that rewrites a branch drops the generated
    code (see ``TranslationCache._apply_patches``).
    """
    fragment = tcache.fragment_at(target)
    if fragment is None:  # pragma: no cover - layout guarantees entries
        raise AssertionError(
            f"control transfer to non-entry address {target:#x}")
    return ("goto", (fragment, 0))


class _Stale(Exception):
    """Compile-time signal: this instruction reads a stale register."""

    def __init__(self, index):
        super().__init__(index)
        self.index = index


class _Emitter:
    """Builds the source text and exec namespace for one fragment."""

    def __init__(self, ex, fragment):
        self.ex = ex
        self.fragment = fragment
        self.fmt = fragment.fmt
        self.alpha = self.fmt is IFormat.ALPHA
        self.track = (self.fmt is IFormat.MODIFIED
                      and ex.config.strict_modified)
        self.fname = f"_jit_f{fragment.fid}"
        self.lines = []
        self.ns = {
            "MASK64": MASK64,
            "_Trap": Trap,
            "_TK_GENTRAP": TrapKind.GENTRAP,
            "_StalenessError": StalenessError,
            "_sext": sext,
        }
        #: compile-time simulation of the strict modified-format stale set
        self.stale = set()
        # pending statistics deltas (flushed before observation points)
        self.pending_weight = 0
        self.pending_v = 0
        self.pending_copies = 0
        self.pending_iops = {}
        self.done = False

    # -- low-level helpers ---------------------------------------------------

    def emit(self, text, depth=1):
        self.lines.append("    " * depth + text)

    def bind(self, name, value):
        self.ns[name] = value
        return name

    def charge(self, instr):
        """Accumulate one instruction's statistics into the pending batch."""
        weight = _ALPHA_WEIGHTS.get(instr.iop, 1) if self.alpha else 1
        self.pending_weight += weight
        self.pending_iops[instr.iop] = \
            self.pending_iops.get(instr.iop, 0) + 1
        if instr.is_copy():
            self.pending_copies += 1
        self.pending_v += instr.v_weight

    def flush(self, depth=1, reset=True):
        """Emit the pending statistics increments.

        ``reset=False`` is the PEI except-handler variant: the handler
        re-raises, so the hot path's later flush must still cover the
        same instructions.
        """
        if self.pending_weight:
            self.emit(f"_stats.iinstructions_executed += "
                      f"{self.pending_weight}", depth)
        for iop, count in self.pending_iops.items():
            name = self.bind(f"_k_{iop.name}", iop)
            self.emit(f"_iops[{name}] += {count}", depth)
        if self.pending_copies:
            self.emit(f"_stats.copies_executed += {self.pending_copies}",
                      depth)
        if self.pending_v:
            self.emit(f"_stats.source_instructions_executed += "
                      f"{self.pending_v}", depth)
        if reset:
            self.pending_weight = 0
            self.pending_v = 0
            self.pending_copies = 0
            self.pending_iops = {}

    def check_gpr(self, index):
        """Compile-time equivalent of the runtime staleness assertion."""
        if self.track and index in self.stale:
            raise _Stale(index)

    def operand(self, instr, source):
        """Operand expression plus whether its value is already < 2**64."""
        if source == "acc":
            return f"_accs[{instr.acc}]", False
        if source == "gpr":
            self.check_gpr(instr.gpr)
            return f"regs[{instr.gpr}]", True
        if source == "gpr2":
            self.check_gpr(instr.gpr2)
            return f"regs[{instr.gpr2}]", True
        if source == "imm":
            return repr(instr.imm), 0 <= instr.imm <= MASK64
        return "0", True  # "zero" and None

    def address_expr(self, instr):
        base, masked = self.operand(instr, instr.addr_src)
        if instr.imm == 0:
            return base if masked else f"({base}) & MASK64"
        return f"(({base}) + {instr.imm!r}) & MASK64"

    def _dest_gpr(self, instr):
        dest = instr.dest_gpr if self.fmt is not IFormat.BASIC else None
        return None if dest == _ZERO_REG else dest

    def commit(self, instr, expr, masked, simple=False):
        """Emit the acc-then-GPR result commit (mirrors
        ``FragmentExecutor._commit_result``)."""
        acc = instr.acc
        dest = self._dest_gpr(instr)
        if acc is None and dest is None:
            return  # result unobservable (operands are pure reads)
        if dest is None:
            self.emit(f"_accs[{acc}] = {expr}")
        else:
            gexpr = expr if masked else f"({expr}) & MASK64"
            if acc is None:
                self.emit(f"regs[{dest}] = {gexpr}")
            elif simple:
                self.emit(f"_accs[{acc}] = {expr}")
                self.emit(f"regs[{dest}] = {gexpr}")
            else:
                self.emit(f"_r = {expr}")
                self.emit(f"_accs[{acc}] = _r")
                self.emit("regs[{0}] = _r{1}".format(
                    dest, "" if masked else " & MASK64"))
            if self.track:
                operational = True if self.alpha else instr.operational
                if operational:
                    self.stale.discard(dest)
                else:
                    self.stale.add(dest)

    def pei_handler(self, index):
        """The cold catch-up path for a potentially-excepting instruction."""
        self.emit("except _Trap:")
        self.flush(depth=2, reset=False)
        self.emit(f"ex._jit_pei = {index}", 2)
        self.emit("raise", 2)

    def cond_value(self, instr):
        """Emit ``_c = <masked condition operand>``."""
        expr, masked = self.operand(instr, instr.cond_src)
        self.emit(f"_c = {expr}" if masked
                  else f"_c = ({expr}) & MASK64")

    # -- per-IOp emission ----------------------------------------------------

    def emit_instr(self, index, instr):
        iop = instr.iop
        if iop is IOp.ALU:
            self._emit_alu(instr)
        elif iop is IOp.LOAD:
            self._emit_load(index, instr)
        elif iop is IOp.STORE:
            self._emit_store(index, instr)
        elif iop is IOp.COPY_TO_GPR:
            if instr.gpr != _ZERO_REG:
                self.emit(f"regs[{instr.gpr}] = "
                          f"_accs[{instr.acc}] & MASK64")
                if self.track:
                    self.stale.discard(instr.gpr)
        elif iop is IOp.COPY_FROM_GPR:
            self.check_gpr(instr.gpr)
            self.emit(f"_accs[{instr.acc}] = regs[{instr.gpr}]")
        elif iop is IOp.BRANCH:
            goto = self.bind(f"_g{index}",
                             _resolve_goto(self.ex.tcache, instr.target))
            self.check_gpr_source(instr)
            self.flush()
            self.cond_value(instr)
            self.emit(f"if {_BRANCH_EXPRS[instr.op]}:")
            self.emit(f"return {goto}", 2)
        elif iop is IOp.BR:
            goto = self.bind(f"_g{index}",
                             _resolve_goto(self.ex.tcache, instr.target))
            self.flush()
            self.emit(f"return {goto}")
            self.done = True
        elif iop is IOp.SET_VPC_BASE:
            pass  # statistics only
        elif iop is IOp.SAVE_VRA:
            if instr.gpr != _ZERO_REG:
                self.emit(f"regs[{instr.gpr}] = "
                          f"{instr.vtarget & MASK64!r}")
                if self.track:
                    self.stale.discard(instr.gpr)
        elif iop is IOp.PUSH_RAS:
            target = instr.target if instr.target is not None \
                else self.ex.tcache.dispatch_address
            self.emit(f"_ras.append(({instr.vtarget!r}, {target!r}))")
            self.emit(f"if len(_ras) > {self.ex.config.ras_depth}:")
            self.emit("_ras.pop(0)", 2)
        elif iop is IOp.RET_RAS:
            # Inlined ``_do_ret_ras`` fast path: trace is always off in
            # generated code, so the helper reduces to pop-compare-count.
            self.check_gpr(instr.gpr)
            self.bind("_frag_at", self.ex.tcache.fragment_at)
            self.bind("_count_ras", self.ex.stats.count_ras)
            self.flush()
            self.emit(f"_c = regs[{instr.gpr}] & 0xFFFFFFFFFFFFFFFC")
            self.emit("if _ras:")
            self.emit("_vp, _ip = _ras.pop()", 2)
            self.emit("_f = _frag_at(_ip)", 2)
            self.emit("if _vp == _c and _f is not None "
                      "and _f.entry_vpc == _c:", 2)
            self.emit("_count_ras(True)", 3)
            self.emit('return ("goto", (_f, 0))', 3)
            self.emit("_count_ras(False)")
        elif iop is IOp.LOAD_EMB:
            self.emit(f"_accs[{instr.acc}] = {instr.vtarget!r}")
        elif iop is IOp.CALL_TRANSLATOR:
            exit_ = self.bind(f"_x{index}", (
                "exit", ExecResult(ExitReason.UNTRANSLATED,
                                   vpc=instr.vtarget)))
            self.flush()
            self.emit(f"return {exit_}")
            self.done = True
        elif iop is IOp.COND_CALL_TRANSLATOR:
            exit_ = self.bind(f"_x{index}", (
                "exit", ExecResult(ExitReason.UNTRANSLATED,
                                   vpc=instr.vtarget)))
            self.check_gpr_source(instr)
            self.flush()
            self.cond_value(instr)
            self.emit(f"if {_BRANCH_EXPRS[instr.op]}:")
            self.emit(f"return {exit_}", 2)
        elif iop is IOp.TO_DISPATCH:
            self.check_gpr(instr.gpr)
            ref = self.bind(f"_i{index}", instr)
            self.bind("_FMT", self.fmt)
            self.flush()
            self.emit(f"return ex._do_dispatch({ref}, regs, _FMT)")
            self.done = True
        elif iop is IOp.HALT:
            exit_ = self.bind(f"_x{index}", (
                "exit", ExecResult(ExitReason.HALT, vpc=instr.vpc)))
            self.flush()
            self.emit(f"return {exit_}")
            self.done = True
        elif iop is IOp.PUTC:
            self.check_gpr(16)
            self.emit("_con.append(regs[16] & 0xFF)")
        elif iop is IOp.SYSCALL:
            # PAL syscalls read/write architected GPRs directly through
            # the shared PalContext (as the body walk does); a protect call
            # that invalidates fragments raises the internal RETRANSLATE
            # trap, so the call sits under a PEI handler like any load.
            pal = self.bind("_pal", self.ex.pal.call)
            self.emit("try:")
            self.emit(f"{pal}(regs, {instr.imm!r}, {instr.vpc!r}, True)", 2)
            self.pei_handler(index)
        elif iop is IOp.GENTRAP:
            self.flush()
            self.emit(f"ex._jit_pei = {index}")
            self.emit(f"raise _Trap(_TK_GENTRAP, {instr.vpc!r})")
            self.done = True
        else:
            raise NotImplementedError(f"cannot jit {iop}")

    def check_gpr_source(self, instr):
        """Staleness check for a branch/cond-call condition operand."""
        if instr.cond_src == "gpr":
            self.check_gpr(instr.gpr)
        elif instr.cond_src == "gpr2":
            self.check_gpr(instr.gpr2)

    def _emit_alu(self, instr):
        op = instr.op
        a, _ = self.operand(instr, instr.src_a)
        b, _ = self.operand(instr, instr.src_b)
        if self.alpha and op in CMOV_CONDITIONS:
            cond = self.bind(f"_cmov_{op}", CMOV_CONDITIONS[op])
            old = (f"regs[{instr.dest_gpr}]"
                   if instr.dest_gpr is not None else "0")
            self.commit(instr, f"({b}) if {cond}({a}) else {old}", False)
            return
        inline = _INLINE_OPS.get(op)
        if inline is not None:
            template, masked = inline
            self.commit(instr, template.format(a=a, b=b), masked)
        else:
            fn = self.bind(f"_op_{op}", IALU_OPS[op])
            self.commit(instr, f"{fn}({a}, {b})", False)

    def _emit_alignment_check(self, instr, size):
        """Inline misalignment raise, identical payload to ``Memory``."""
        if size > 1:
            self.bind("_TK_UNALIGNED", TrapKind.UNALIGNED)
            self.emit(f"if _a & {size - 1}:", 2)
            self.emit(f"raise _Trap(_TK_UNALIGNED, {instr.vpc!r}, _a)", 3)

    def _emit_load(self, index, instr):
        """Inline load via the MMU read fast-path dict.

        ``Memory._read_ok`` maps every page index that is mapped *and*
        readable to its page buffer (maintained eagerly by
        ``map_segment``/``protect``), so a hit can go straight to the
        bytes; a miss always faults and delegates to ``Memory.load``,
        whose slow path raises the identical precise
        ACCESS_VIOLATION/PROTECTION_VIOLATION trap.  The dict itself is
        never reassigned (only mutated), so binding its ``.get`` at
        compile time is safe across protection changes.  A
        naturally-aligned access can never straddle a page (``size``
        divides ``PAGE_SIZE``), so the cross-page slow path is
        statically dead here.
        """
        size = instr.mem_size
        self.bind("_rdget", self.ex.memory._read_ok.get)
        self.bind("_mld", self.ex.memory.load)
        self.emit("try:")
        self.emit(f"_a = {self.address_expr(instr)}", 2)
        self._emit_alignment_check(instr, size)
        self.emit(f"_p = _rdget(_a >> {PAGE_SHIFT})", 2)
        self.emit("if _p is None:", 2)
        self.emit(f"_r = _mld(_a, {size}, {instr.vpc!r})", 3)
        self.emit("else:", 2)
        self.emit(f"_o = _a & {PAGE_MASK}", 3)
        if size == 1:
            self.emit("_r = _p[_o]", 3)
        else:
            self.bind("_from_bytes", int.from_bytes)
            self.emit(f"_r = _from_bytes(_p[_o:_o + {size}], "
                      f"\"little\")", 3)
        self.pei_handler(index)
        if instr.mem_signed:
            self.emit(f"_r = _sext(_r, {8 * size})")
        # memory values (and their sign extensions) are < 2**64 already
        self.commit(instr, "_r", True, simple=True)

    def _emit_store(self, index, instr):
        """Inline store via the MMU write fast-path dict.

        ``Memory._write_ok`` holds only pages that are mapped, writable,
        already dirty and *unwatched*: a miss is not necessarily a fault
        — it may be the first store to a clean page (installs the entry)
        or a store to a code page carrying fragments (fires the SMC
        hook, which can raise the internal RETRANSLATE trap).
        ``Memory.store`` handles all of those plus the genuine faults,
        so misses delegate to it wholesale.
        """
        size = instr.mem_size
        data, masked = self.operand(instr, instr.data_src)
        # Memory.store keeps the low ``size`` bytes; for 8-byte stores
        # that is MASK64, which ``masked`` operands already satisfy.
        mask = (1 << (8 * size)) - 1
        dexpr = data if masked and size == 8 else f"({data}) & {mask:#x}"
        self.bind("_wrget", self.ex.memory._write_ok.get)
        self.bind("_mst", self.ex.memory.store)
        self.emit("try:")
        self.emit(f"_a = {self.address_expr(instr)}", 2)
        self._emit_alignment_check(instr, size)
        self.emit(f"_p = _wrget(_a >> {PAGE_SHIFT})", 2)
        self.emit("if _p is None:", 2)
        self.emit(f"_mst(_a, {dexpr}, {size}, {instr.vpc!r})", 3)
        self.emit("else:", 2)
        self.emit(f"_o = _a & {PAGE_MASK}", 3)
        if size == 1:
            self.emit(f"_p[_o] = {dexpr}", 3)
        else:
            self.emit(f"_p[_o:_o + {size}] = ({dexpr}).to_bytes("
                      f"{size}, \"little\")", 3)
        self.pei_handler(index)

    # -- assembly ------------------------------------------------------------

    def build(self):
        for index, instr in enumerate(self.fragment.body):
            if self.done:
                break  # unreachable tail after an unconditional exit
            self.charge(instr)
            try:
                self.emit_instr(index, instr)
            except _Stale as stale:
                # the walk counts the instruction, then ``_read_gpr``
                # raises; straight-line bodies make this a static fact
                self.flush()
                self.emit("raise _StalenessError("
                          f"{_STALE_MESSAGE.format(index=stale.index)!r})")
                self.done = True
        if not self.done:
            # control fell off the body: the walk indexes past the body
            # list; raise the identical error with the stats caught up
            self.flush()
            self.emit('raise IndexError("list index out of range")')

        body = "\n".join(self.lines)
        hoists = []
        for name, expr in (("_stats", "ex.stats"),
                           ("_accs", "ex.accs"),
                           ("_con", "ex.console"),
                           ("_ras", "ex.ras")):
            if name in body:
                hoists.append(f"    {name} = {expr}")
        if "_iops" in body:
            hoists.append("    _iops = _stats.iop_counts")
        header = f"def {self.fname}(ex, regs, state):"
        return "\n".join([header] + hoists + [body, ""])


#: Source text -> compiled code object, shared process-wide (the
#: :data:`repro.interp.interpreter.DECODE_CACHE` idiom).  The source is a
#: pure function of the body semantics — executor-specific values enter
#: through the exec namespace, never the code — so repeated runs of the
#: same program (benchmark repetitions, differential reruns, harness
#: workers) skip the ``compile()`` call, which dominates the jit's compile
#: cost.  Keying by content also makes staleness impossible: a patched
#: body emits different source, hence a different key.
_CODE_CACHE = {}


def compile_fragment_jit(ex, fragment):
    """Compile ``fragment.body`` into one Python function for ``ex``.

    Must be called after layout (addresses and ``v_weight`` assigned) and
    re-run — via ``Fragment.invalidate_compiled`` — whenever a chaining
    patch or corruption recovery rewrites the body.  The returned
    function carries its generated source on ``_jit_source`` (docs and
    tests introspect it) and its line count on ``_jit_lines``.
    """
    emitter = _Emitter(ex, fragment)
    source = emitter.build()
    code = _CODE_CACHE.get(source)
    if code is None:
        code = compile(source,
                       f"<jit f{fragment.fid} @{fragment.entry_vpc:#x}>",
                       "exec")
        _CODE_CACHE[source] = code
    namespace = emitter.ns
    exec(code, namespace)
    fn = namespace[emitter.fname]
    fn._jit_source = source
    fn._jit_lines = len(emitter.lines)
    return fn
