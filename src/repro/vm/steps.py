"""Traced fragment visits as prebuilt steps.

A trace-collecting executor under the ``jit`` engine runs each fragment
through a list of *steps*, built on the fragment's first entry: one
closure per body instruction that performs the instruction and appends
its trace row, exactly where and when the body walk (``_execute``)
appends it.  What the walk pays per instruction and the steps do not:
the if/elif dispatch (each step is specialised to its opcode, operands
and format when built), the template lookup (the template is bound into
the step), and the three statistics increments (the visit adds the
prefix totals of the fragment's plan for the index it leaves at, once,
when it leaves the fragment, as generated code does).

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
  return, a trap or an error; nothing reads those three counters inside
  a visit (the budget check runs between visits);
* a trap is reported like the walk reports it: the trapping instruction
  is counted, ``trap.vpc`` is its V-PC and ``ex._jit_pei`` its body
  index;
* the strict modified-format staleness check is the plan's staleness
  stop (``repro.vm.executor.fragment_plan``), as in generated code: the
  instruction that reads a stale register runs the walk's code with the
  executor's stale set primed to the plan's, so it raises
  :class:`StalenessError` at the same point, after any row the walk
  appends first.

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
from repro.vm.executor import RAS_DEPTH, _body_template, fragment_plan

_ZERO_REG = 31

#: operand kinds: a GPR, an accumulator, or a constant
_REG, _ACC, _CONST = 0, 1, 2

#: the opcodes with a specialised step; every other opcode's step runs
#: the walk's code for that instruction
_SPECIALISED = frozenset({
    IOp.ALU, IOp.LOAD, IOp.STORE, IOp.COPY_TO_GPR, IOp.COPY_FROM_GPR,
    IOp.BRANCH, IOp.BR, IOp.SET_VPC_BASE, IOp.SAVE_VRA, IOp.LOAD_EMB,
    IOp.PUSH_RAS, IOp.RET_RAS})


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


def _charge(stats, totals):
    """Add one visit's statistics: the plan's prefix totals for the body
    index it left at."""
    weight, copies, v_weight = totals
    stats.iinstructions_executed += weight
    if copies:
        stats.copies_executed += copies
    stats.source_instructions_executed += v_weight


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


def _walk_step(instr, fmt, template):
    """A step that runs the walk's ``_execute`` for ``instr``."""
    iop = instr.iop
    if iop is IOp.TO_DISPATCH:
        def step(ex, regs, accs):
            return ex._do_dispatch(instr, regs, fmt, template)
    else:
        def step(ex, regs, accs):
            return ex._execute(instr, iop, regs, fmt, template)
    return step


def _stale_step(instr, fmt, template, stale):
    """The staleness stop's step: the walk's code for ``instr`` with the
    executor's stale set made the plan's ``stale``, so it raises the
    walk's :class:`StalenessError`."""
    walk = _walk_step(instr, fmt, template)

    def step(ex, regs, accs):
        ex._stale.clear()
        ex._stale.update(stale)
        return walk(ex, regs, accs)
    return step


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
    totals, stop = fragment_plan(fragment)
    append = ex.trace.append
    memory = ex.memory
    templates = fragment._trace_templates
    if templates is None:
        templates = fragment._trace_templates = [None] * len(body)

    steps = []
    for index, instr in enumerate(body[:len(totals)]):
        iop = instr.iop
        template = templates[index]
        if template is None:
            template = templates[index] = _body_template(instr, fmt)
        # the GPR a result commits to (the walk's ``_commit_result``)
        dest = instr.dest_gpr if fmt is not IFormat.BASIC else None
        if dest == _ZERO_REG:
            dest = None
        copy_dest = instr.gpr if instr.gpr != _ZERO_REG else None
        if stop is not None and index == stop[0]:
            step = _stale_step(instr, fmt, template, stop[2])
        elif iop not in _SPECIALISED:
            step = _walk_step(instr, fmt, template)
        elif iop is IOp.ALU:
            step = _alu_step(instr, fmt, dest, append, template)
        elif iop is IOp.LOAD:
            step = _load_step(instr, dest, memory.load, append, template)
        elif iop is IOp.STORE:
            step = _store_step(instr, memory.store, append, template)
        elif iop is IOp.BRANCH:
            step = _branch_step(instr, ex._transfer(instr.target), append,
                                template)
        elif iop is IOp.BR:
            step = _br_step(ex._transfer(instr.target), instr.target,
                            append, template)
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

    position = {step: index for index, step in enumerate(steps)}
    vpcs = [instr.vpc for instr in body[:len(steps)]]

    def visit(ex, regs, state):
        accs = ex.accs
        try:
            for step in steps:
                outcome = step(ex, regs, accs)
                if outcome is not None:
                    break
        except BaseException as error:
            index = position[step]
            _charge(ex.stats, totals[index])
            if isinstance(error, Trap):
                error.vpc = vpcs[index]
                ex._jit_pei = index
            raise
        _charge(ex.stats, totals[position[step]])
        if outcome is None:
            # control fell off the body: the walk indexes past the body
            # list and raises this
            raise IndexError("list index out of range")
        return outcome
    return visit
