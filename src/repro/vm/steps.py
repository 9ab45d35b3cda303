"""Traced fragment visits as prebuilt steps.

A trace-collecting executor under the ``jit`` engine runs each fragment
through a list of *steps*, built on the fragment's first entry: one
closure per body instruction that performs the instruction and appends
its trace row, exactly where and when the body walk (``_execute``)
appends it.  What the walk pays per instruction and the steps do not:
the if/elif dispatch (each step is specialised to its opcode, operands
and format when built), the template lookup (the template is bound into
the step), and the four statistics increments (the visit adds the
cumulative deltas of the instructions it ran, once, when it leaves the
fragment).

Traced runs do not use generated source (:mod:`repro.vm.jit`) because
of ``compile()``'s memory: CPython 3.11's parser holds about 100 bytes
per source character while it runs, in C-heap blocks that the trace's
small-object pools cannot reuse afterwards, and every traced experiment
compiles a new set of fragments.  Compiling the traced fragments of
Fig. 8 raised its peak resident set by 1.5 MB (7%); steps allocate only
small objects, freed with the run.  The row append dominates a traced
step either way.

Exactness (the engine-differential suites compare the trace column by
column and ``vars(VMStats)`` with the naive walk):

* the common opcodes (ALU, loads, stores, register copies, branches,
  the return address stack) run specialised code that mirrors the
  walk's statement order; every other opcode runs the walk's own code
  for its instruction (``_do_dispatch``, or ``_execute``);
* statistics reach ``VMStats`` when the visit leaves the fragment, by a
  return, a trap or an error; nothing reads those four counters inside
  a visit (the budget check runs between visits);
* a trap is reported like the walk reports it: the trapping instruction
  is counted, ``trap.vpc`` is its V-PC and ``ex._jit_pei`` its body
  index;
* the strict modified-format staleness check is simulated when the
  steps are built, as the jit does: control enters fragments at index 0
  and bodies are straight-line, so the stale set at each instruction is
  static.  An instruction that reads a stale register runs the walk's
  code with the executor's stale set primed to the simulated one, so it
  raises :class:`StalenessError` at the same point; so does every
  walk-run instruction of the modified format.

A step holds the fragments it branches to, like generated code, so the
executor drops its steps when it dies (see
``repro.vm.executor._release_generated_code``).  Steps take the
executor as an argument rather than binding it, so that they do not
keep it alive.
"""

from repro.ildp_isa.opcodes import IFormat, IOp
from repro.ildp_isa.semantics import IALU_OPS
from repro.isa.semantics import BRANCH_CONDITIONS, CMOV_CONDITIONS, Trap, \
    TrapKind
from repro.utils.bitops import MASK64, sext
from repro.vm.executor import _ALPHA_WEIGHTS, RAS_DEPTH, FragmentExecutor, \
    _body_template

_ZERO_REG = 31

#: operand kinds: a GPR, an accumulator, or a constant
_REG, _ACC, _CONST = 0, 1, 2

#: the opcodes with a specialised step; every other opcode's step runs
#: the walk's code for that instruction
_SPECIALISED = frozenset({
    IOp.ALU, IOp.LOAD, IOp.STORE, IOp.COPY_TO_GPR, IOp.COPY_FROM_GPR,
    IOp.BRANCH, IOp.BR, IOp.SET_VPC_BASE, IOp.SAVE_VRA, IOp.LOAD_EMB,
    IOp.PUSH_RAS, IOp.RET_RAS})

#: the GPRs each opcode reads through the walk's ``_read_gpr``
_READS = {
    IOp.ALU: lambda instr: _gpr_reads(instr, instr.src_a, instr.src_b),
    IOp.LOAD: lambda instr: _gpr_reads(instr, instr.addr_src),
    IOp.STORE: lambda instr: _gpr_reads(instr, instr.addr_src,
                                        instr.data_src),
    IOp.COPY_FROM_GPR: lambda instr: (instr.gpr,),
    IOp.BRANCH: lambda instr: _gpr_reads(instr, instr.cond_src),
    IOp.COND_CALL_TRANSLATOR: lambda instr: _gpr_reads(instr,
                                                       instr.cond_src),
    IOp.RET_RAS: lambda instr: (instr.gpr,),
    IOp.TO_DISPATCH: lambda instr: (instr.gpr,),
    IOp.PUTC: lambda instr: (16,),
}

#: opcodes after which control never reaches the next instruction
_EXITS = frozenset({IOp.BR, IOp.CALL_TRANSLATOR, IOp.TO_DISPATCH,
                    IOp.HALT, IOp.GENTRAP})


def _operand(instr, source):
    """``(kind, value)`` of an operand: a GPR or accumulator index, or a
    constant (the walk's ``_operand``)."""
    if source == "acc":
        return _ACC, instr.acc
    if source == "gpr":
        return _REG, instr.gpr
    if source == "gpr2":
        return _REG, instr.gpr2
    if source == "imm":
        return _CONST, instr.imm
    return _CONST, 0  # "zero" and None


def _gpr_reads(instr, *sources):
    """The GPRs the given operand sources read."""
    return tuple(value for kind, value in
                 (_operand(instr, source) for source in sources)
                 if kind is _REG)


def _charge(stats, iops, totals):
    """Add one visit's statistics: the cumulative deltas of the
    instructions it ran.  ``totals`` counts the opcodes it ran in the
    order of ``iops``, the fragment's opcodes by first occurrence, so
    an opcode the visit did not reach gets no key."""
    weight, v_weight, copies, counts = totals
    stats.iinstructions_executed += weight
    iop_counts = stats.iop_counts
    for iop, count in zip(iops, counts):
        iop_counts[iop] += count
    if copies:
        stats.copies_executed += copies
    stats.source_instructions_executed += v_weight


def _goto(ex, target):
    """The shared ``("goto", ...)`` outcome of a direct transfer, as the
    walk's ``_transfer`` resolves it (patches drop the steps, as they
    drop generated code)."""
    fragment = ex.tcache.fragment_at(target)
    if fragment is None:  # pragma: no cover - layout guarantees entries
        raise AssertionError(
            f"control transfer to non-entry address {target:#x}")
    return ("goto", (fragment, 0))


def _alu_step(instr, fmt, dest, append, template):
    op = instr.op
    ka, va = _operand(instr, instr.src_a)
    kb, vb = _operand(instr, instr.src_b)
    acc = instr.acc
    if fmt is IFormat.ALPHA and op in CMOV_CONDITIONS:
        cond = CMOV_CONDITIONS[op]
        old = instr.dest_gpr

        def step(ex, regs, accs):
            a = regs[va] if ka is _REG else accs[va] if ka is _ACC else va
            b = regs[vb] if kb is _REG else accs[vb] if kb is _ACC else vb
            result = b if cond(a) else \
                (regs[old] if old is not None else 0)
            append(template)
            if acc is not None:
                accs[acc] = result
            if dest is not None:
                regs[dest] = result & MASK64
        return step
    fn = IALU_OPS[op]

    def step(ex, regs, accs):
        a = regs[va] if ka is _REG else accs[va] if ka is _ACC else va
        b = regs[vb] if kb is _REG else accs[vb] if kb is _ACC else vb
        result = fn(a, b)
        append(template)
        if acc is not None:
            accs[acc] = result
        if dest is not None:
            regs[dest] = result & MASK64
    return step


def _load_step(instr, dest, load, append, template):
    ka, va = _operand(instr, instr.addr_src)
    imm, size, vpc, acc = instr.imm, instr.mem_size, instr.vpc, instr.acc
    bits = 8 * size if instr.mem_signed else 0

    def step(ex, regs, accs):
        base = regs[va] if ka is _REG else accs[va] if ka is _ACC else va
        address = (base + imm) & MASK64
        value = load(address, size, vpc)
        if bits:
            value = sext(value, bits)
        append(template, False, None, address)
        if acc is not None:
            accs[acc] = value
        if dest is not None:
            regs[dest] = value
    return step


def _store_step(instr, store, append, template):
    ka, va = _operand(instr, instr.addr_src)
    kd, vd = _operand(instr, instr.data_src)
    imm, size, vpc = instr.imm, instr.mem_size, instr.vpc
    retranslate = TrapKind.RETRANSLATE

    def step(ex, regs, accs):
        base = regs[va] if ka is _REG else accs[va] if ka is _ACC else va
        address = (base + imm) & MASK64
        data = regs[vd] if kd is _REG else accs[vd] if kd is _ACC else vd
        try:
            store(address, data & MASK64, size, vpc)
        except Trap as trap:
            # a faulting store wrote nothing and gets no row; the SMC
            # hook's RETRANSLATE fires after the write, so that store
            # committed and keeps its row
            if trap.kind is retranslate:
                append(template, False, None, address)
            raise
        append(template, False, None, address)
    return step


def _branch_step(instr, goto, append, template):
    kc, vc = _operand(instr, instr.cond_src)
    taken_if = BRANCH_CONDITIONS[instr.op]
    target = instr.target

    def step(ex, regs, accs):
        value = regs[vc] if kc is _REG else accs[vc] if kc is _ACC else vc
        taken = taken_if(value & MASK64)
        if taken:
            append(template, taken, target)
            return goto
        append(template, taken, None)
        return None
    return step


def _ret_ras_step(instr, fragment_at, append, template):
    """The walk's ``_do_ret_ras``: pop, compare, count, append the row,
    whose hit flag is also its RAS outcome."""
    gpr = instr.gpr

    def step(ex, regs, accs):
        actual = regs[gpr] & ~3 & MASK64
        ras = ex.ras
        if ras:
            v_pred, i_pred = ras.pop()
            frag = fragment_at(i_pred)
            if v_pred == actual and frag is not None and \
                    frag.entry_vpc == actual:
                ex.stats.count_ras(True)
                append(template, True, i_pred, None, True)
                return ("goto", (frag, 0))
        ex.stats.count_ras(False)
        append(template, False, None, None, False)
        return None
    return step


def _push_ras_step(entry, append, template):
    def step(ex, regs, accs):
        append(template)
        ras = ex.ras
        ras.append(entry)
        if len(ras) > RAS_DEPTH:
            ras.pop(0)
    return step


def _br_step(goto, target, append, template):
    def step(ex, regs, accs):
        append(template, True, target)
        return goto
    return step


def _walk_step(instr, fmt, template, stale):
    """A step that runs the walk's ``_execute`` for ``instr``.  In the
    modified format the executor's stale set is first made the simulated
    one, so the walk's staleness check sees what it would see."""
    iop = instr.iop
    if iop is IOp.TO_DISPATCH:
        run = FragmentExecutor._do_dispatch
    else:
        def run(ex, instr, regs, fmt, template):
            return ex._execute(instr, iop, regs, fmt, template)
    if fmt is not IFormat.MODIFIED:
        def step(ex, regs, accs):
            return run(ex, instr, regs, fmt, template)
        return step
    stale = frozenset(stale)

    def primed(ex, regs, accs):
        ex._stale.clear()
        ex._stale.update(stale)
        return run(ex, instr, regs, fmt, template)
    return primed


def _simple_step(iop, instr, append, template, copy_dest):
    """Steps of the opcodes that append a bare row and move one value."""
    acc, vtarget = instr.acc, instr.vtarget
    if iop is IOp.COPY_TO_GPR:
        if copy_dest is None:
            def step(ex, regs, accs):
                append(template)
        else:
            def step(ex, regs, accs):
                append(template)
                regs[copy_dest] = accs[acc] & MASK64
    elif iop is IOp.COPY_FROM_GPR:
        gpr = instr.gpr

        def step(ex, regs, accs):
            append(template)    # the walk appends before its read
            accs[acc] = regs[gpr]
    elif iop is IOp.SAVE_VRA:
        value = vtarget & MASK64
        if copy_dest is None:
            def step(ex, regs, accs):
                append(template)
        else:
            def step(ex, regs, accs):
                append(template)
                regs[copy_dest] = value
    elif iop is IOp.LOAD_EMB:
        def step(ex, regs, accs):
            append(template)
            accs[acc] = vtarget
    else:  # SET_VPC_BASE: statistics and trace only
        def step(ex, regs, accs):
            append(template)
    return step


def build_traced_steps(ex, fragment):
    """Build ``fragment``'s traced visit for executor ``ex``.

    Returns a function with generated code's signature, ``fn(ex, regs,
    state)``, and outcome protocol.  Must be rebuilt — via
    ``Fragment.invalidate_compiled`` — whenever a patch rewrites the
    body.
    """
    body = fragment.body
    fmt = fragment.fmt
    alpha = fmt is IFormat.ALPHA
    track = fmt is IFormat.MODIFIED
    append = ex.trace.append
    memory = ex.memory
    templates = fragment._trace_templates
    if templates is None:
        templates = fragment._trace_templates = [None] * len(body)

    steps = []
    totals = []         # per index: statistics of the body up to it
    weight = v_weight = copies = 0
    iops = {}
    stale = set()       # the simulated modified-format stale set
    for index, instr in enumerate(body):
        iop = instr.iop
        weight += _ALPHA_WEIGHTS.get(iop, 1) if alpha else 1
        iops[iop] = iops.get(iop, 0) + 1
        if instr.is_copy():
            copies += 1
        v_weight += instr.v_weight
        totals.append((weight, v_weight, copies, tuple(iops.values())))
        template = templates[index]
        if template is None:
            template = templates[index] = _body_template(instr, fmt)

        if track and iop in _READS and \
                stale.intersection(_READS[iop](instr)):
            # the walk raises StalenessError here, on every visit
            steps.append(_walk_step(instr, fmt, template, stale))
            break

        # the GPR a result commits to (the walk's ``_commit_result``)
        dest = instr.dest_gpr if fmt is not IFormat.BASIC else None
        if dest == _ZERO_REG:
            dest = None
        copy_dest = instr.gpr if instr.gpr != _ZERO_REG else None
        if iop not in _SPECIALISED:
            step = _walk_step(instr, fmt, template, stale)
        elif iop is IOp.ALU:
            step = _alu_step(instr, fmt, dest, append, template)
        elif iop is IOp.LOAD:
            step = _load_step(instr, dest, memory.load, append, template)
        elif iop is IOp.STORE:
            step = _store_step(instr, memory.store, append, template)
        elif iop is IOp.BRANCH:
            step = _branch_step(instr, _goto(ex, instr.target), append,
                                template)
        elif iop is IOp.BR:
            step = _br_step(_goto(ex, instr.target), instr.target, append,
                            template)
        elif iop is IOp.RET_RAS:
            step = _ret_ras_step(instr, ex.tcache.fragment_at, append,
                                 template)
        elif iop is IOp.PUSH_RAS:
            step = _push_ras_step(
                (instr.vtarget, instr.target if instr.target is not None
                 else ex.tcache.dispatch_address), append, template)
        else:
            step = _simple_step(iop, instr, append, template, copy_dest)
        steps.append(step)

        if track:
            if iop is IOp.ALU or iop is IOp.LOAD:
                if dest is not None:
                    if instr.operational:
                        stale.discard(dest)
                    else:
                        stale.add(dest)
            elif iop is IOp.COPY_TO_GPR or iop is IOp.SAVE_VRA:
                if copy_dest is not None:
                    stale.discard(copy_dest)
        if iop in _EXITS:
            break  # the rest of the body is unreachable

    position = {step: index for index, step in enumerate(steps)}
    vpcs = [instr.vpc for instr in body[:len(steps)]]
    totals = totals[:len(steps)]
    iops = tuple(iops)

    def visit(ex, regs, state):
        accs = ex.accs
        try:
            for step in steps:
                outcome = step(ex, regs, accs)
                if outcome is not None:
                    break
        except BaseException as error:
            index = position[step]
            _charge(ex.stats, iops, totals[index])
            if isinstance(error, Trap):
                error.vpc = vpcs[index]
                ex._jit_pei = index
            raise
        _charge(ex.stats, iops, totals[position[step]])
        if outcome is None:
            # control fell off the body: the walk indexes past the body
            # list and raises this
            raise IndexError("list index out of range")
        return outcome
    return visit
