"""The I-ISA instruction object.

One class covers the basic format, the modified format, and the
"code-straightening-only" Alpha target (used by the paper's third
DBT/simulator), selected by the fragment's
:class:`~repro.ildp_isa.opcodes.IFormat`.

Operand model
-------------

ALU instructions evaluate ``op(a, b)`` where each of ``src_a``/``src_b``
names where the operand comes from:

* ``"acc"`` — the instruction's accumulator (strand continuation),
* ``"gpr"`` — the single GPR operand the accumulator formats allow,
* ``"gpr2"`` — a second GPR, legal only in the ALPHA format,
* ``"imm"`` — the literal in ``imm``,
* ``None`` — unused (unary operations pass 0).

Loads take their address from ``addr_src`` (``"acc"``/``"gpr"``) plus the
``imm`` displacement; stores also name ``data_src``.  The accumulator
formats keep the invariant *at most one accumulator and at most one GPR per
instruction* (Section 2.1); the code generator enforces it.

Other field conventions
-----------------------

``dest_gpr``
    Architected destination register of the translated Alpha instruction.
    Encoded in the modified format (Section 2.3); metadata for PEI recovery
    in the basic format; the real destination in the ALPHA format.
``operational``
    Modified format: the result is a communication/live-out value and must
    be written to the latency-critical operational GPR file.
``target`` / ``vtarget``
    ``target`` is a translation-cache (I-ISA) address assigned at layout
    time and rewritten by chaining patches; ``vtarget`` is the corresponding
    V-ISA address.
``vpc``
    V-ISA address of the source instruction (None for chaining glue).
"""

from repro.ildp_isa.opcodes import CONTROL_OPS, IFormat, IOp


class IInstruction:
    """One I-ISA (or straightened-Alpha) instruction."""

    __slots__ = (
        "iop",
        "op",
        "acc",
        "gpr",
        "gpr2",
        "imm",
        "islit",
        "src_a",
        "src_b",
        "addr_src",
        "data_src",
        "cond_src",
        "dest_gpr",
        "operational",
        "mem_size",
        "mem_signed",
        "target",
        "vtarget",
        "vpc",
        "address",
        "size",
        "strand_start",
        "v_weight",
    )

    def __init__(self, iop, op=None, acc=None, gpr=None, gpr2=None, imm=0,
                 islit=False, src_a=None, src_b=None, addr_src=None,
                 data_src=None, cond_src=None, dest_gpr=None,
                 operational=False, mem_size=8, mem_signed=False,
                 target=None, vtarget=None, vpc=None):
        self.iop = iop
        self.op = op
        self.acc = acc
        self.gpr = gpr
        self.gpr2 = gpr2
        self.imm = imm
        self.islit = islit
        self.src_a = src_a
        self.src_b = src_b
        self.addr_src = addr_src
        self.data_src = data_src
        self.cond_src = cond_src
        self.dest_gpr = dest_gpr
        self.operational = operational
        self.mem_size = mem_size
        self.mem_signed = mem_signed
        self.target = target
        self.vtarget = vtarget
        self.vpc = vpc
        self.address = None       # assigned at tcache layout time
        self.size = None          # assigned by the size model at layout time
        self.strand_start = False
        #: V-ISA instructions this one accounts for when executed: 1 for the
        #: first I-instruction of each translated source instruction, else 0
        #: (assigned at layout time).
        self.v_weight = 0

    # -- classification ------------------------------------------------------

    def is_control(self):
        """True when the instruction may redirect fetch."""
        return self.iop in CONTROL_OPS

    def is_conditional(self):
        return self.iop in (IOp.BRANCH, IOp.COND_CALL_TRANSLATOR)

    def is_copy(self):
        """True for the register-state copy instructions Table 2 counts."""
        return self.iop in (IOp.COPY_TO_GPR, IOp.COPY_FROM_GPR)

    def is_pei(self):
        """Potentially-excepting instruction (memory access)."""
        return self.iop in (IOp.LOAD, IOp.STORE)

    def writes_acc(self):
        """True when the instruction produces a value into its accumulator."""
        return self.acc is not None and self.iop in (
            IOp.ALU, IOp.LOAD, IOp.COPY_FROM_GPR, IOp.LOAD_EMB)

    def reads_acc(self):
        """True when the accumulator's old value is a source operand."""
        if self.acc is None:
            return False
        if self.iop is IOp.ALU:
            return self.src_a == "acc" or self.src_b == "acc"
        if self.iop is IOp.LOAD:
            return self.addr_src == "acc"
        if self.iop is IOp.STORE:
            return self.addr_src == "acc" or self.data_src == "acc"
        if self.iop in (IOp.BRANCH, IOp.COND_CALL_TRANSLATOR):
            return self.cond_src == "acc"
        if self.iop in (IOp.COPY_TO_GPR, IOp.JMP_DISPATCH):
            return True
        return False

    def gpr_sources(self):
        """Tuple of GPR indices read by this instruction."""
        out = []
        if self.iop is IOp.ALU:
            if self.src_a == "gpr" or self.src_b == "gpr":
                out.append(self.gpr)
            if self.src_a == "gpr2" or self.src_b == "gpr2":
                out.append(self.gpr2)
        elif self.iop is IOp.LOAD:
            if self.addr_src == "gpr":
                out.append(self.gpr)
        elif self.iop is IOp.STORE:
            if self.addr_src == "gpr":
                out.append(self.gpr)
            if self.data_src == "gpr":
                out.append(self.gpr)
            if self.data_src == "gpr2":
                out.append(self.gpr2)
        elif self.iop in (IOp.BRANCH, IOp.COND_CALL_TRANSLATOR):
            if self.cond_src == "gpr":
                out.append(self.gpr)
        elif self.iop is IOp.COPY_FROM_GPR:
            out.append(self.gpr)
        elif self.iop is IOp.RET_RAS:
            out.append(self.gpr)
        return tuple(r for r in out if r is not None)

    def gpr_dest(self, fmt):
        """GPR written on the critical path under format ``fmt``, or None.

        Basic-format computation writes only its accumulator (copies move
        values to GPRs); the modified format writes ``dest_gpr`` to the
        operational file only for communication/live-out values; the ALPHA
        format writes ``dest_gpr`` directly.
        """
        if self.iop in (IOp.COPY_TO_GPR, IOp.SAVE_VRA):
            return self.gpr
        if self.dest_gpr is None or self.iop not in (
                IOp.ALU, IOp.LOAD, IOp.COPY_FROM_GPR):
            return None
        if fmt is IFormat.ALPHA:
            return self.dest_gpr
        if fmt is IFormat.MODIFIED and self.operational:
            return self.dest_gpr
        return None

    def __repr__(self):
        from repro.ildp_isa.disasm import disassemble_iinstr

        return f"<I {disassemble_iinstr(self)}>"
