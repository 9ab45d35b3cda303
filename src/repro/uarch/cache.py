"""Cache hierarchy models (Table 1).

Caches are set-associative with LRU or (deterministic) random replacement.
``access`` returns the total latency for the access, charging each level it
had to descend to, down to the 72-cycle memory.
"""

from repro.uarch.config import (
    DCACHE,
    ICACHE,
    INT_LATENCY,
    L2,
    MEMORY_LATENCY,
    MUL_LATENCY,
    SMALL_DCACHE,
)
from repro.utils.rng import Xorshift64


class Cache:
    """One cache level."""

    def __init__(self, config, next_level=None,
                 memory_latency=MEMORY_LATENCY, seed=0xC0FFEE):
        self.name = config.name
        self.line = config.line
        self.latency = config.latency
        self.assoc = config.assoc
        self.n_sets = max(config.size // (config.line * config.assoc), 1)
        self.policy = config.policy
        self.next_level = next_level
        self.memory_latency = memory_latency
        self._sets = [dict() for _ in range(self.n_sets)]
        self._rng = Xorshift64(seed)
        self.hits = 0
        self.misses = 0

    def _locate(self, address):
        line_address = address // self.line
        return self._sets[line_address % self.n_sets], line_address

    def access(self, address):
        """Access one address; returns the latency in cycles."""
        ways, tag = self._locate(address)
        if tag in ways:
            self.hits += 1
            if self.policy == "lru":
                del ways[tag]
                ways[tag] = True
            return self.latency
        self.misses += 1
        if self.next_level is not None:
            below = self.next_level.access(address)
        else:
            below = self.memory_latency
        self._fill(ways, tag)
        return self.latency + below

    def _fill(self, ways, tag):
        if len(ways) >= self.assoc:
            if self.policy == "lru":
                victim = next(iter(ways))
            else:
                victim = list(ways)[self._rng.next_range(len(ways))]
            del ways[victim]
        ways[tag] = True

    def miss_rate(self):
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


class MemoryHierarchy:
    """I-cache + D-cache over a shared L2 over memory."""

    def __init__(self, machine_config):
        self.l2 = Cache(L2)
        self.icache = Cache(ICACHE, next_level=self.l2)
        self.dcache = Cache(SMALL_DCACHE if machine_config.dcache_small
                            else DCACHE, next_level=self.l2)
        self.perfect_dcache = machine_config.perfect_dcache

    def ifetch(self, address):
        """Instruction fetch; returns extra cycles beyond a 1-cycle hit."""
        return self.icache.access(address) - self.icache.latency

    def daccess(self, address):
        """Data access; returns the full load-to-use latency."""
        return self.dcache.access(address)

    def latency(self, op_class, mem_addr, address):
        """Issue-to-result cycles of one instruction, the rule all four
        timing models share.

        A load pays its D-cache access (at ``mem_addr``, or its own
        ``address`` when the trace row has none); a store accesses the
        D-cache for its effect on the hierarchy but completes in
        :data:`INT_LATENCY`; a multiply takes :data:`MUL_LATENCY`.  A
        perfect L1-D answers every load in its hit latency and sends no
        data traffic at all.
        """
        if op_class == "load":
            if self.perfect_dcache:
                return self.dcache.latency
            return self.daccess(address if mem_addr is None else mem_addr)
        if op_class == "mul":
            return MUL_LATENCY
        if op_class == "store" and mem_addr is not None and \
                not self.perfect_dcache:
            self.daccess(mem_addr)
        return INT_LATENCY
