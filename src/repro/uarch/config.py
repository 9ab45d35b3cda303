"""Machine configurations from Table 1 of the paper.

Table 1 fixes both machines; the constants below are its values.  The
experiments vary only the PE count, the communication latency, the L1-D
size (Fig. 9), the return address stack (Fig. 6) and the steering and
idealisation ablations, so :class:`MachineConfig` holds exactly those.
"""


class CacheConfig:
    """Geometry and timing of one cache level."""

    __slots__ = ("name", "size", "line", "assoc", "latency", "policy")

    def __init__(self, name, size, line, assoc, latency, policy):
        self.name = name
        self.size = size
        self.line = line
        self.assoc = assoc
        self.latency = latency
        self.policy = policy


#: Fetch, decode, steer and retire width of both machines.
WIDTH = 4
#: Reorder buffer entries (the superscalar's issue window too).
ROB_SIZE = 128
#: The superscalar's fully symmetric, fully pipelined functional units.
N_FUNCTIONAL_UNITS = 4
#: Entries in each ILDP processing element's issue FIFO.
FIFO_DEPTH = 8
#: Cycles from fetch to dispatch.
PIPELINE_DEPTH = 5
#: Cycles from a mispredicted transfer's resolution to its first
#: correct-path fetch.
REDIRECT_LATENCY = 3
#: Result latency of integer operations and of multiplies.
INT_LATENCY = 1
MUL_LATENCY = 7
#: G-share direction predictor: entries and global history bits.
GSHARE_ENTRIES = 16384
GSHARE_HISTORY = 12
#: Branch target buffer: entries and ways.
BTB_ENTRIES = 512
BTB_ASSOC = 4
#: Entries in the conventional return address stack.
RAS_DEPTH = 8
#: Cycles to main memory below the L2.
MEMORY_LATENCY = 72
ICACHE = CacheConfig("icache", 32 * 1024, 128, 1, 1, "lru")
DCACHE = CacheConfig("dcache", 32 * 1024, 64, 4, 2, "random")
#: The ILDP alternative L1-D: 8 KB, 2-way, replicated across PEs.
SMALL_DCACHE = CacheConfig("dcache", 8 * 1024, 64, 2, 2, "random")
L2 = CacheConfig("l2", 1024 * 1024, 128, 4, 8, "random")


class MachineConfig:
    """The Table 1 values an experiment varies; every other parameter is
    one of this module's constants."""

    __slots__ = ("name", "pe_count", "comm_latency", "dcache_small",
                 "use_conventional_ras", "steering", "perfect_prediction",
                 "perfect_dcache")

    def __init__(self, name, pe_count=None, comm_latency=0,
                 dcache_small=False, use_conventional_ras=True,
                 steering="dependence", perfect_prediction=False,
                 perfect_dcache=False):
        self.name = name
        #: ILDP only: number of processing elements (None = superscalar)
        self.pe_count = pe_count
        #: ILDP only: extra cycles for a GPR value produced in another PE
        self.comm_latency = comm_latency
        #: Fig. 9: the 8 KB :data:`SMALL_DCACHE` instead of :data:`DCACHE`
        self.dcache_small = dcache_small
        #: Fig. 6 compares machines with and without a return address stack.
        self.use_conventional_ras = use_conventional_ras
        #: Strand-start steering heuristic for the ILDP machine:
        #: "dependence" (producer PE first, the ISCA 2002 policy),
        #: "least_loaded" (shortest FIFO) or "modulo" (acc % PEs, no
        #: renaming) — the ablation studied in bench_ablation_steering.
        if steering not in ("dependence", "least_loaded", "modulo"):
            raise ValueError(f"unknown steering policy {steering!r}")
        self.steering = steering
        #: Idealisation knobs for loss decomposition: oracle branch
        #: prediction (no misprediction penalties) and an always-hitting
        #: L1 data cache.
        self.perfect_prediction = perfect_prediction
        self.perfect_dcache = perfect_dcache

    def __repr__(self):
        if self.pe_count is None:
            return f"MachineConfig({self.name}, {WIDTH}-wide OoO)"
        return (f"MachineConfig({self.name}, {self.pe_count} PEs, "
                f"comm={self.comm_latency})")


#: Table 1, left column: the out-of-order superscalar reference — 4-wide,
#: 128-entry reorder buffer / issue window, 4 symmetric functional units,
#: no communication latency, oldest-first issue.
SUPERSCALAR = MachineConfig("superscalar-ooo")


def ildp_config(pe_count=8, comm_latency=0, **options):
    """Table 1, right column: the ILDP machine with 4/6/8 PEs (FIFO heads)
    and 0 or 2 cycle global communication latency.  ``options`` are the
    remaining :class:`MachineConfig` keywords (``dcache_small`` for the
    quarter-size replicated L1 data cache, the ablations' knobs)."""
    return MachineConfig(f"ildp-{pe_count}pe-c{comm_latency}",
                         pe_count=pe_count, comm_latency=comm_latency,
                         **options)
