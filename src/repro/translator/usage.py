"""Dependence and usage identification (paper Section 3.3).

For every value produced inside a superblock this pass determines its
"globalness":

* **no user** — not used before being overwritten in the block;
* **local** — used exactly once before being overwritten, with no side exit
  in between (candidate for pure accumulator residence);
* **temp** — passed between the two halves of a decomposed instruction;
* **communication global** — used more than once before being overwritten;
* **live-out global** — still the architected value of its register at the
  block's final exit;
* **local → global** / **no-user → global** — used at most once but
  architected-live at a *side* exit, so the basic ISA must copy it to a GPR
  before the branch (the extra copies Fig. 7 shows for the basic format);
* **spill global** — promoted later by strand formation or accumulator
  allocation (two-local-input conflicts, strand termination).

Inputs are resolved to either an in-block value or a **live-in global**
(read from the GPR file).
"""

import enum

from repro.translator.decompose import NodeKind


class ValueClass(enum.Enum):
    NO_USER = "no_user"
    LOCAL = "local"
    TEMP = "temp"
    COMM_GLOBAL = "comm_global"
    LIVEOUT_GLOBAL = "liveout_global"
    LOCAL_TO_GLOBAL = "local_to_global"
    NOUSER_TO_GLOBAL = "nouser_to_global"
    SPILL_GLOBAL = "spill_global"


#: Classes whose value must be available in a GPR (the basic format emits a
#: copy-to-GPR; the modified format marks the destination write operational).
GLOBAL_CLASSES = frozenset(
    {
        ValueClass.COMM_GLOBAL,
        ValueClass.LIVEOUT_GLOBAL,
        ValueClass.LOCAL_TO_GLOBAL,
        ValueClass.NOUSER_TO_GLOBAL,
        ValueClass.SPILL_GLOBAL,
    }
)


class ValueInfo:
    """One in-block value: a node's register or temp output."""

    __slots__ = ("vid", "producer", "operand", "uses", "redef", "vclass",
                 "via_link", "spilled", "gpr_read")

    def __init__(self, vid, producer, operand):
        self.vid = vid
        self.producer = producer      # node index
        self.operand = operand        # ("reg", r) or ("temp", t)
        self.uses = []                # consumer node indices, in order
        self.redef = None             # node index of the next definition
        self.vclass = None
        self.via_link = False         # produced as a return-address link
        self.spilled = False          # promoted to SPILL_GLOBAL later
        #: an in-fragment consumer reads this value through its GPR (set
        #: by strand resolution; forces an operational write in the
        #: modified format)
        self.gpr_read = False

    @property
    def is_temp(self):
        return self.operand[0] == "temp"

    @property
    def reg(self):
        """Architected register index (None for temps)."""
        return self.operand[1] if self.operand[0] == "reg" else None

    def needs_gpr(self):
        """True when the value must be delivered to a GPR."""
        return self.spilled or self.vclass in GLOBAL_CLASSES

    def __repr__(self):
        return (f"ValueInfo(v{self.vid}, node{self.producer}, "
                f"{self.operand}, {self.vclass})")


class UsageResult:
    """Def-use information for a node list."""

    def __init__(self, nodes):
        self.nodes = nodes
        self.values = []
        #: node index -> ValueInfo produced there (ALU/LOAD dests and links)
        self.producer_of = {}
        #: per node: {slot: ("livein", reg) | ("value", vid)}
        self.node_inputs = [dict() for _ in nodes]
        self.livein_regs = set()
        self.side_exits = []

    def value(self, vid):
        return self.values[vid]

    def input_value(self, node_index, slot):
        """The ValueInfo feeding ``slot`` of node ``node_index``, or None
        when the input is a live-in global."""
        resolution = self.node_inputs[node_index].get(slot)
        if resolution is None or resolution[0] != "value":
            return None
        return self.values[resolution[1]]

    def class_counts(self):
        """How many values fall in each class (drives the Fig. 7 benchmark)."""
        counts = {vclass: 0 for vclass in ValueClass}
        for value in self.values:
            vclass = ValueClass.SPILL_GLOBAL if value.spilled else \
                value.vclass
            counts[vclass] += 1
        return counts


def analyze_usage(nodes):
    """Run def-use analysis and classification over decomposed nodes."""
    result = UsageResult(nodes)
    last_def = {}  # operand -> vid

    for node in nodes:
        index = node.index
        for slot, operand in node.input_operands():
            vid = last_def.get(operand)
            if vid is None:
                if operand[0] == "temp":  # pragma: no cover - decompose bug
                    raise AssertionError(f"temp {operand} used before def")
                result.node_inputs[index][slot] = ("livein", operand[1])
                result.livein_regs.add(operand[1])
            else:
                result.node_inputs[index][slot] = ("value", vid)
                result.values[vid].uses.append(index)
        dest = _definition_of(node)
        if dest is not None:
            previous = last_def.get(dest)
            if previous is not None:
                result.values[previous].redef = index
            info = ValueInfo(len(result.values), index, dest)
            info.via_link = node.kind in (NodeKind.BSR, NodeKind.JUMP)
            result.values.append(info)
            result.producer_of[index] = info
            last_def[dest] = info.vid
        if node.is_side_exit():
            result.side_exits.append(index)

    _classify(result)
    return result


def _definition_of(node):
    if node.kind in (NodeKind.ALU, NodeKind.LOAD):
        return node.dest
    if node.kind in (NodeKind.BSR, NodeKind.JUMP):
        return node.dest  # return-address link (may be None)
    return None


def _classify(result):
    exits = result.side_exits
    for value in result.values:
        end = value.redef if value.redef is not None else float("inf")
        exits_between = any(value.producer < e < end for e in exits)
        if value.is_temp:
            value.vclass = ValueClass.TEMP
        elif len(value.uses) >= 2:
            value.vclass = ValueClass.COMM_GLOBAL
        elif value.redef is None:
            value.vclass = ValueClass.LIVEOUT_GLOBAL
        elif len(value.uses) == 1:
            value.vclass = ValueClass.LOCAL_TO_GLOBAL if exits_between \
                else ValueClass.LOCAL
        else:
            value.vclass = ValueClass.NOUSER_TO_GLOBAL if exits_between \
                else ValueClass.NO_USER
