"""I-ISA operation and format enumerations."""

import enum


class IFormat(enum.Enum):
    """Which target a fragment is encoded in.

    BASIC and MODIFIED are the two accumulator I-ISA variants of paper
    Sections 2.1/2.3.  ALPHA is the "code-straightening-only" target of
    Section 4.1: the same superblock formation and chaining, but the
    instructions remain conventional two-source-register Alpha operations
    (4 bytes each).
    """

    BASIC = "basic"
    MODIFIED = "modified"
    ALPHA = "alpha"


class IOp(enum.Enum):
    """I-ISA operation classes.

    The ordinary computation set mirrors the Alpha integer operations but is
    accumulator-oriented; the remainder are the co-designed VM's special
    instructions for chaining and precise-trap support.
    """

    # ordinary computation
    ALU = "alu"                      # A <- op(operands)
    LOAD = "load"                    # A <- mem[A|R (+imm)]
    STORE = "store"                  # mem[A|R] <- A|R
    COPY_TO_GPR = "copy_to_gpr"      # R <- A
    COPY_FROM_GPR = "copy_from_gpr"  # A <- R  (starts a strand)
    BRANCH = "branch"                # P <- target, if cond(A|R)
    BR = "br"                        # P <- target (I-address, unconditional)

    # co-designed VM special instructions
    SET_VPC_BASE = "set_vpc_base"    # first instr of every fragment
    SAVE_VRA = "save_vra"            # R <- embedded V-ISA return address
    PUSH_RAS = "push_ras"            # push (V-return, I-return) pair
    RET_RAS = "ret_ras"              # RAS-predicted return (verify vs R)
    LOAD_EMB = "load_emb"            # A <- embedded V-ISA target address
    CALL_TRANSLATOR = "call_translator"            # exit to VM at V-target
    COND_CALL_TRANSLATOR = "cond_call_translator"  # ... if cond(A|R) is met
    TO_DISPATCH = "to_dispatch"      # branch to the shared dispatch code
    JMP_DISPATCH = "jmp_dispatch"    # indirect jump inside the dispatch code

    # system
    HALT = "halt"
    PUTC = "putc"
    GENTRAP = "gentrap"
    SYSCALL = "syscall"              # PAL syscall dispatch (imm = function)

    #: Enum members are singletons, so the identity hash is equivalent to
    #: the default name-based hash — and much cheaper.  The body walk
    #: looks every instruction's IOp up in a dict and a set (its ALPHA
    #: weight, whether it is a copy), which makes hashing measurably hot.
    __hash__ = object.__hash__


#: IOps that end a fragment's fall-through path unconditionally.
TERMINATORS = frozenset(
    {
        IOp.BR,
        IOp.RET_RAS,
        IOp.CALL_TRANSLATOR,
        IOp.TO_DISPATCH,
        IOp.JMP_DISPATCH,
        IOp.HALT,
        IOp.GENTRAP,
    }
)

#: IOps that may transfer control (for BTB / predictor modelling).
CONTROL_OPS = frozenset(
    {
        IOp.BRANCH,
        IOp.BR,
        IOp.RET_RAS,
        IOp.CALL_TRANSLATOR,
        IOp.COND_CALL_TRANSLATOR,
        IOp.TO_DISPATCH,
        IOp.JMP_DISPATCH,
    }
)
