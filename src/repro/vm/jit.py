"""JIT: lower fragments to straight-line Python source on first entry.

The reference body walk (``FragmentExecutor.run`` over ``_execute``)
pays an if/elif dispatch, three statistics increments and an outcome
check for every executed I-ISA instruction.  This module removes all of
that: the whole body is emitted as *one* generated Python function —
operands pre-resolved to ``regs[i]``/``_accs[i]`` index expressions, ALU
semantics inlined where an expression reproduces the :data:`IALU_OPS`
formula exactly (everything else calls the very same table function),
branch targets pre-resolved to shared ``("goto", (fragment, 0))``
outcomes, and the per-instruction statistics added once per visit, at
the exit it leaves by, as compile-time constants: the prefix totals of
the fragment's plan (``repro.vm.executor.fragment_plan``).

The generated function has the signature ``fn(ex, regs, state)`` and
returns the outcome protocol of ``_execute``: ``("goto", (fragment,
0))`` for an intra-cache transfer or ``("exit", ExecResult)`` (never
``None`` — control cannot fall off a laid-out fragment).

Exactness guarantees (the engine-differential suites assert full
``vars(VMStats)`` equality against the naive engine):

* a visit enters at index 0 and a body is straight-line, so a visit
  that leaves at body index ``i`` ran exactly the instructions up to
  ``i``: every exit — a taken branch, a RAS hit, call-translator,
  dispatch, halt, a trap handler, the staleness raise and the fall-off
  — adds the plan's totals for its index, and a not-taken branch adds
  nothing; nothing reads those counters inside a visit (the budget
  check runs between visits);
* each potentially-excepting instruction (LOAD/STORE) sits in its own
  ``try/except Trap`` whose *cold* handler adds the statistics
  (including the trapping instruction), records the body index for
  precise-state reconstruction, and re-raises — the hot path pays
  nothing (CPython 3.11 zero-cost exceptions);
* the strict modified-format staleness check is decided at build time:
  the plan names the first instruction that reads a stale GPR, which
  compiles to the same :class:`StalenessError` raise the walk would
  perform at run time; valid fragments carry no tracking code at all.

The caller (``FragmentExecutor.run``) compiles a fragment the first time
an untraced jit executor enters it and falls back to the body walk for
fragments whose compile failed; a trace-collecting executor runs
fragments as prebuilt steps instead (:mod:`repro.vm.steps`, which says
why traced runs do not compile source).  Traps
surface as precise ``ExecResult`` records, and chaining patches,
corruption recovery and cache flushes drop generated functions through
``Fragment.invalidate_compiled``.
"""

from repro.ildp_isa.opcodes import IFormat, IOp
from repro.ildp_isa.semantics import IALU_OPS
from repro.isa.semantics import CMOV_CONDITIONS, Trap, TrapKind
from repro.memory.image import PAGE_MASK, PAGE_SHIFT
from repro.utils.bitops import MASK64, sext
from repro.vm.executor import _EXIT_IOPS, _STALE_MESSAGE, RAS_DEPTH, \
    ExecResult, ExitReason, StalenessError, fragment_plan

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


class _Emitter:
    """Builds the source text and exec namespace for one fragment."""

    def __init__(self, ex, fragment):
        self.ex = ex
        self.fragment = fragment
        self.fmt = fragment.fmt
        self.alpha = self.fmt is IFormat.ALPHA
        self.fname = f"_jit_f{fragment.fid}"
        self.lines = []
        self.ns = {
            "MASK64": MASK64,
            "_Trap": Trap,
            "_TK_GENTRAP": TrapKind.GENTRAP,
            "_StalenessError": StalenessError,
            "_sext": sext,
        }
        #: per reachable body index, the statistics of a visit that
        #: leaves there; and the modified format's staleness stop
        self.totals, self.stop = fragment_plan(fragment)

    # -- low-level helpers ---------------------------------------------------

    def emit(self, text, depth=1):
        self.lines.append("    " * depth + text)

    def bind(self, name, value):
        self.ns[name] = value
        return name

    def count(self, index, depth=1):
        """Emit the statistics of a visit that leaves at body ``index``:
        the plan's prefix totals for it."""
        weight, copies, v_weight = self.totals[index]
        self.emit(f"_stats.iinstructions_executed += {weight}", depth)
        if copies:
            self.emit(f"_stats.copies_executed += {copies}", depth)
        if v_weight:
            self.emit(f"_stats.source_instructions_executed += {v_weight}",
                      depth)

    def operand(self, instr, source):
        """Operand expression plus whether its value is already < 2**64."""
        if source == "acc":
            return f"_accs[{instr.acc}]", False
        if source == "gpr":
            return f"regs[{instr.gpr}]", True
        if source == "gpr2":
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

    def pei_handler(self, index):
        """The cold path of a potentially-excepting instruction: add the
        visit's statistics, record the body index, re-raise."""
        self.emit("except _Trap:")
        self.count(index, 2)
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
        elif iop is IOp.COPY_FROM_GPR:
            self.emit(f"_accs[{instr.acc}] = regs[{instr.gpr}]")
        elif iop is IOp.BRANCH:
            goto = self.bind(f"_g{index}", self.ex._transfer(instr.target))
            self.cond_value(instr)
            self.emit(f"if {_BRANCH_EXPRS[instr.op]}:")
            self.count(index, 2)
            self.emit(f"return {goto}", 2)
        elif iop is IOp.BR:
            goto = self.bind(f"_g{index}", self.ex._transfer(instr.target))
            self.count(index)
            self.emit(f"return {goto}")
        elif iop is IOp.SET_VPC_BASE:
            pass  # statistics only
        elif iop is IOp.SAVE_VRA:
            if instr.gpr != _ZERO_REG:
                self.emit(f"regs[{instr.gpr}] = "
                          f"{instr.vtarget & MASK64!r}")
        elif iop is IOp.PUSH_RAS:
            target = instr.target if instr.target is not None \
                else self.ex.tcache.dispatch_address
            self.emit(f"_ras.append(({instr.vtarget!r}, {target!r}))")
            self.emit(f"if len(_ras) > {RAS_DEPTH}:")
            self.emit("_ras.pop(0)", 2)
        elif iop is IOp.RET_RAS:
            # Inlined ``_do_ret_ras`` fast path: trace is always off in
            # generated code, so the helper reduces to pop-compare-count.
            self.bind("_frag_at", self.ex.tcache.fragment_at)
            self.bind("_count_ras", self.ex.stats.count_ras)
            self.emit(f"_c = regs[{instr.gpr}] & 0xFFFFFFFFFFFFFFFC")
            self.emit("if _ras:")
            self.emit("_vp, _ip = _ras.pop()", 2)
            self.emit("_f = _frag_at(_ip)", 2)
            self.emit("if _vp == _c and _f is not None "
                      "and _f.entry_vpc == _c:", 2)
            self.emit("_count_ras(True)", 3)
            self.count(index, 3)
            self.emit('return ("goto", (_f, 0))', 3)
            self.emit("_count_ras(False)")
        elif iop is IOp.LOAD_EMB:
            self.emit(f"_accs[{instr.acc}] = {instr.vtarget!r}")
        elif iop is IOp.CALL_TRANSLATOR:
            exit_ = self.bind(f"_x{index}", (
                "exit", ExecResult(ExitReason.UNTRANSLATED,
                                   vpc=instr.vtarget)))
            self.count(index)
            self.emit(f"return {exit_}")
        elif iop is IOp.COND_CALL_TRANSLATOR:
            exit_ = self.bind(f"_x{index}", (
                "exit", ExecResult(ExitReason.UNTRANSLATED,
                                   vpc=instr.vtarget)))
            self.cond_value(instr)
            self.emit(f"if {_BRANCH_EXPRS[instr.op]}:")
            self.count(index, 2)
            self.emit(f"return {exit_}", 2)
        elif iop is IOp.TO_DISPATCH:
            ref = self.bind(f"_i{index}", instr)
            self.bind("_FMT", self.fmt)
            self.count(index)
            self.emit(f"return ex._do_dispatch({ref}, regs, _FMT)")
        elif iop is IOp.HALT:
            exit_ = self.bind(f"_x{index}", (
                "exit", ExecResult(ExitReason.HALT, vpc=instr.vpc)))
            self.count(index)
            self.emit(f"return {exit_}")
        elif iop is IOp.PUTC:
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
            self.count(index)
            self.emit(f"ex._jit_pei = {index}")
            self.emit(f"raise _Trap(_TK_GENTRAP, {instr.vpc!r})")
        else:
            raise NotImplementedError(f"cannot jit {iop}")

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
        reachable = self.fragment.body[:len(self.totals)]
        for index, instr in enumerate(reachable):
            if self.stop is not None and index == self.stop[0]:
                # the walk counts the instruction, then ``_read_gpr``
                # raises; straight-line bodies make this a static fact
                message = _STALE_MESSAGE.format(self.stop[1])
                self.count(index)
                self.emit(f"raise _StalenessError({message!r})")
                break
            self.emit_instr(index, instr)
        else:
            if instr.iop not in _EXIT_IOPS:
                # control fell off the body: the walk indexes past the
                # body list; raise the identical error, statistics added
                self.count(index)
                self.emit('raise IndexError("list index out of range")')

        body = "\n".join(self.lines)
        hoists = []
        for name, expr in (("_stats", "ex.stats"),
                           ("_accs", "ex.accs"),
                           ("_con", "ex.console"),
                           ("_ras", "ex.ras")):
            if name in body:
                hoists.append(f"    {name} = {expr}")
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
    tests introspect it).
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
    # the function's globals are the namespace: leaving it there would
    # make the pair a reference cycle that only the collector frees
    fn = namespace.pop(emitter.fname)
    fn._jit_source = source
    return fn
