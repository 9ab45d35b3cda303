"""Building timing traces from plain interpretation.

The paper's "original" configuration is the unmodified Alpha binary running
on the superscalar simulator.  This module runs the interpreter over a
program and records each executed instruction as one row of a
:class:`~repro.vm.events.Trace`, including the branch-type annotations the
predictor models need (conventional RAS push/pop on BSR/JSR/RET).

The static part of a row is classified once per PC
(:func:`instruction_template`); every later execution of the PC reuses
the template and records only the branch outcome and the effective
address.
"""

from repro.interp.interpreter import Halted, Interpreter
from repro.isa.opcodes import Format, Kind
from repro.vm.events import BLOCK_ROWS, Template, Trace

_MUL_MNEMONICS = frozenset({"mull", "mulq", "umulh"})


def instruction_template(pc, instr):
    """The static trace fields of the V-ISA instruction ``instr`` at
    ``pc``: its class, registers, branch type and V-ISA weight (0 for
    NOPs, which the paper does not count)."""
    kind = instr.kind
    btype = None
    if kind is Kind.LOAD:
        op_class = "load"
    elif kind is Kind.STORE:
        op_class = "store"
    elif kind is Kind.COND_BRANCH:
        op_class, btype = "branch", "cond"
    elif kind is Kind.UNCOND_BRANCH:
        op_class = "branch"
        btype = "call" if instr.ra != 31 else "uncond"
    elif kind is Kind.JUMP:
        op_class = "branch"
        if instr.mnemonic == "ret":
            btype = "ret"
        else:
            btype = "call_ind" if instr.ra != 31 else "indirect"
    elif instr.mnemonic in _MUL_MNEMONICS:
        op_class = "mul"
    else:
        op_class = "int"
    nop = (instr.fmt is Format.OPERATE and instr.rc == 31) or \
        (kind is Kind.LDA and instr.ra == 31)
    return Template(pc, 4, op_class, instr.sources(), instr.dest(),
                    btype=btype, v_weight=0 if nop else 1)


def interpreter_trace(program, max_instructions=200_000):
    """Run ``program`` under pure interpretation, collecting a trace.

    Returns ``(trace, interpreter)``; the interpreter exposes final state
    and console output for verification.  Templates are kept per PC for
    the run and re-checked against the decoded instruction, so a word
    the program rewrites gets a fresh template.
    """
    interpreter = Interpreter(program)
    step = interpreter.step
    trace = Trace()
    by_pc = {}   # pc -> (decoded instruction, its template)
    try:
        for first in range(0, max_instructions, BLOCK_ROWS):
            (add_template, add_taken, add_target, add_mem_addr,
             add_ras_hit) = (column.append for column in trace.new_block())
            for _ in range(min(BLOCK_ROWS, max_instructions - first)):
                event = step()
                pc = event.pc
                instr = event.instr
                known = by_pc.get(pc)
                if known is None or known[0] is not instr:
                    known = by_pc[pc] = (instr,
                                         instruction_template(pc, instr))
                add_template(known[1])
                taken = event.taken
                add_taken(taken)
                add_target(event.next_pc if taken else None)
                add_mem_addr(event.mem_addr)
                add_ras_hit(None)
    except Halted:
        pass
    return trace, interpreter
