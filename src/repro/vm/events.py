"""Committed-instruction traces.

The functional executor (and, for the "original" configuration, the
interpreter) emits one row per committed instruction.  The trace-driven
timing models in :mod:`repro.uarch` consume these rows; nothing in the
functional path depends on them.

A row splits into a static part and a dynamic part.  Twelve of its
sixteen fields depend only on the instruction — its address, size, class,
registers and branch type — so each producer builds them once per
instruction as a :class:`Template` and every later execution of that
instruction appends a reference to the same tuple.  The four dynamic
fields (``taken``, ``target``, ``mem_addr``, ``ras_hit``) are held in
parallel columns beside it: a :class:`Trace` is five columns of equal
length, stored in blocks of :data:`BLOCK_ROWS` rows.

Dependence is expressed with GPR indices (0..31, 31 reads as zero and is
never a destination) plus the accumulator/strand number for steering in the
ILDP machine.
"""

from collections import namedtuple
from itertools import chain, starmap

#: The static fields of one trace row, built once per instruction.
Template = namedtuple("Template", (
    "address",      # fetch address (tcache for I-code, V-PC for Alpha)
    "size",         # encoded bytes (I-cache modelling)
    "op_class",     # "int" | "mul" | "load" | "store" | "branch"
    "srcs",         # tuple of GPR indices read
    "dst",          # GPR written, or None
    "acc",          # accumulator/strand id, or None
    "acc_read",     # True when the accumulator's old value is a source
    "acc_write",    # True when the instruction writes its accumulator
    "strand_start",  # True for the first instruction of a strand
    "btype",        # None|"cond"|"uncond"|"call"|"call_ind"|"ret"|"indirect"
    "v_weight",     # V-ISA instructions this row accounts for (0/1)
    "is_dispatch",  # True for shared-dispatch-code instructions
), defaults=((), None, None, False, False, False, None, 0, False))


#: Rows per trace block.  A column list that grows to 64 references by
#: appends holds a 512-byte array, the largest request CPython's
#: small-object allocator serves, so no column ever reaches the C heap.
BLOCK_ROWS = 64


class Trace:
    """A committed-instruction trace as five parallel columns.

    Row *i* is its :class:`Template` plus four dynamic fields: ``taken``,
    ``target`` (the next fetch address of a taken transfer, else None),
    ``mem_addr`` (a load's or store's effective address, else None) and
    ``ras_hit`` (the dual-address RAS outcome of a ``RET_RAS``, else
    None).  ``len(trace)`` is the row count, iterating yields
    ``(template, taken, target, mem_addr, ras_hit)`` rows and
    :meth:`column` yields one field of every row.

    The columns are stored in blocks of at most :data:`BLOCK_ROWS` rows:
    ``blocks`` holds one tuple of five lists per block, the last of them
    open for appends.  Five whole-trace lists growing side by side each
    outgrow their slot in the C heap in turn, and the holes they leave
    made a run's peak resident set depend on the heap's layout (by up to
    1.4 MB between two checkouts of the same code in different
    directories).  Blocks come from CPython's small-object pools, and the
    next block reuses a freed one's space, so the peak no longer depends
    on where the code runs.
    """

    #: column names, in row order
    COLUMNS = ("templates", "taken", "target", "mem_addr", "ras_hit")

    __slots__ = ("blocks", "_closed", "_templates", "_taken", "_target",
                 "_mem_addr", "_ras_hit")

    def __init__(self):
        self.blocks = []
        self._closed = 0    # rows in the blocks before the open one
        self._open()

    def _open(self):
        block = ([], [], [], [], [])
        self.blocks.append(block)
        (self._templates, self._taken, self._target, self._mem_addr,
         self._ras_hit) = block
        return block

    def new_block(self):
        """Open an empty block (unless the open one is empty) and return
        its five column lists.  A producer's tight loop may append at
        most :data:`BLOCK_ROWS` rows to them directly."""
        if not self._templates:
            return self.blocks[-1]
        self._closed += len(self._templates)
        return self._open()

    def append(self, template, taken=False, target=None, mem_addr=None,
               ras_hit=None):
        """Add one row."""
        templates = self._templates
        if len(templates) == BLOCK_ROWS:
            templates = self.new_block()[0]
        templates.append(template)
        self._taken.append(taken)
        self._target.append(target)
        self._mem_addr.append(mem_addr)
        self._ras_hit.append(ras_hit)

    @classmethod
    def from_rows(cls, rows):
        """A trace holding ``rows``, each a ``(template, taken, target,
        mem_addr, ras_hit)`` tuple as iteration yields them."""
        trace = cls()
        for row in rows:
            trace.append(*row)
        return trace

    def column(self, name):
        """An iterator over column ``name`` (one of :attr:`COLUMNS`), in
        row order."""
        index = self.COLUMNS.index(name)
        return chain.from_iterable(block[index] for block in self.blocks)

    def __len__(self):
        return self._closed + len(self._templates)

    def __iter__(self):
        return chain.from_iterable(starmap(zip, self.blocks))


def first_difference(trace, reference):
    """Where ``trace`` first departs from ``reference``, in one line.

    Names the first row whose fields differ, its first differing column
    (one of :attr:`Trace.COLUMNS`) and both values, or the two lengths
    when one trace is a prefix of the other.  Returns None when both
    hold the same rows.
    """
    for row, (ours, theirs) in enumerate(zip(trace, reference)):
        if ours != theirs:
            name, mine, other = next(
                (name, mine, other) for name, mine, other
                in zip(Trace.COLUMNS, ours, theirs) if mine != other)
            return (f"row {row} column {name}: {mine!r}, reference "
                    f"{other!r}")
    if len(trace) != len(reference):
        return f"{len(trace)} rows, reference {len(reference)}"
    return None
