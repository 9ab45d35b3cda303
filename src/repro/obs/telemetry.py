"""The telemetry facade the VM wires through every layer.

One :class:`Telemetry` object bundles the three observability primitives —
the metrics registry, the bounded event stream, and the hot-fragment
profiler — plus the finalisation step that mirrors end-of-run ``VMStats``
and translation-cache totals into the registry so a run's whole
observable state exports as one JSON-able summary.

``VMConfig.telemetry`` (default off) selects between the real object and
:data:`NULL_TELEMETRY`, whose registry/events/profiler are the no-op
twins: with telemetry off the VM's hot paths see only dead attribute
loads and ``is not None`` checks at fragment and run boundaries, never
per-instruction work — the ≤2% overhead budget the benchmark gate
enforces.

Two summary views exist because the harness treats them differently:

* :meth:`Telemetry.summary` is **deterministic** — counters, gauges,
  histograms, event totals and the hottest fragments are pure functions
  of the run point, so they live in cacheable run summaries and must be
  bit-identical across serial/parallel/cached execution;
* :meth:`Telemetry.host_summary` is **process-local** — wall-clock phase
  timers and decode-cache miss counts depend on the machine and on which
  process ran first, so the harness stores them next to ``elapsed``,
  outside the determinism contract.
"""

from repro.obs.events import DEFAULT_CAPACITY, EventStream, NULL_EVENTS
from repro.obs.profile import FragmentProfiler, NULL_PROFILER
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY

#: Bucket bounds for instruction-count-shaped distributions (superblock
#: lengths, fragment body sizes).
SIZE_BUCKETS = (5, 10, 20, 50, 100, 200, 500)
#: Bucket bounds for fragment execution counts.
EXEC_BUCKETS = (1, 10, 100, 1000, 10_000, 100_000)

#: Resilience counters exported under dedicated gauge names; anything
#: not listed lands in the generic ``faults.*`` namespace.
_RESILIENCE_GAUGES = {
    "smc_detected": "smc.detected",
    "smc_invalidations": "smc.invalidations",
    "retranslate_deopts": "smc.retranslate_deopts",
    "stale_captures_discarded": "smc.stale_captures_discarded",
    "protect_invalidations": "mmu.protect_invalidations",
}


class Telemetry:
    """Live telemetry: registry + event stream + fragment profiler."""

    enabled = True

    def __init__(self, event_capacity=DEFAULT_CAPACITY):
        self.registry = MetricsRegistry()
        self.events = EventStream(event_capacity)
        self.fragments = FragmentProfiler()
        self.decode_misses = 0

    def finalize(self, stats, tcache, interpreter=None):
        """Mirror end-of-run totals into the registry (idempotent).

        Gauges are *set*, and the execution-count histogram is rebuilt,
        so calling this after every ``run()`` stint is safe.
        """
        registry = self.registry
        for name, value in stats.summary().items():
            registry.gauge(f"stats.{name}").set(value)
        registry.gauge("stats.traps_delivered").set(stats.traps_delivered)
        registry.gauge("stats.tcache_flushes").set(stats.tcache_flushes)
        registry.gauge("tcache.fragments_live").set(len(tcache.fragments))
        registry.gauge("tcache.code_bytes").set(tcache.total_code_bytes())
        registry.gauge("tcache.patches_applied").set(tcache.patches_applied)
        registry.gauge("tcache.invalidations").set(tcache.invalidations)
        histogram = registry.histogram("tcache.fragment_executions",
                                       EXEC_BUCKETS)
        histogram.reset()
        for fragment in tcache.fragments:
            histogram.observe(fragment.execution_count)
        # degradation gauges appear only when something fired, keeping
        # fault-free summaries bit-identical to pre-fault-injection runs;
        # the hostile-guest counters get their own smc.*/mmu.* namespaces
        # (docs/observability.md) instead of the generic faults.* one
        for name, value in stats.resilience().items():
            if value:
                registry.gauge(_RESILIENCE_GAUGES.get(
                    name, f"faults.{name}")).set(value)
        if interpreter is not None:
            self.decode_misses = interpreter.decode_misses

    def summary(self, hot_fragments=5):
        """The deterministic JSON-able summary (see the module docstring)."""
        data = self.registry.to_dict()
        return {
            "counters": data["counters"],
            "gauges": data["gauges"],
            "histograms": data["histograms"],
            "events": self.events.summary(),
            "fragments_profiled": len(self.fragments),
            "hot_fragments": [record.to_json()
                              for record in self.fragments.top(hot_fragments)],
        }

    def host_summary(self):
        """Process-local wall-clock measurements (outside determinism)."""
        return {
            "timers": self.registry.to_dict()["timers"],
            "decode_misses": self.decode_misses,
        }

    def __repr__(self):
        return (f"Telemetry({self.events.emitted} events, "
                f"{len(self.fragments)} fragments profiled)")


class NullTelemetry:
    """Telemetry disabled: the same surface, every operation a no-op."""

    enabled = False
    registry = NULL_REGISTRY
    events = NULL_EVENTS
    fragments = NULL_PROFILER
    decode_misses = 0

    def finalize(self, stats, tcache, interpreter=None):
        """No-op."""

    def summary(self, hot_fragments=5):
        """An empty summary."""
        return {"counters": {}, "gauges": {}, "histograms": {},
                "events": NULL_EVENTS.summary(), "fragments_profiled": 0,
                "hot_fragments": []}

    def host_summary(self):
        """An empty host summary."""
        return {"timers": {}, "decode_misses": 0}

    def __repr__(self):
        return "NullTelemetry()"


NULL_TELEMETRY = NullTelemetry()


def make_telemetry(config):
    """The telemetry object ``config`` asks for.

    ``VMConfig.telemetry`` truthy selects a fresh :class:`Telemetry`;
    anything else the shared :data:`NULL_TELEMETRY`.  The
    ``REPRO_EVENT_CAPACITY`` environment variable overrides the event
    ring's capacity (chiefly so tests and overflow investigations can
    shrink it without plumbing a knob through every constructor).
    """
    if getattr(config, "telemetry", False):
        import os

        capacity = os.environ.get("REPRO_EVENT_CAPACITY")
        if capacity is not None:
            return Telemetry(event_capacity=int(capacity))
        return Telemetry()
    return NULL_TELEMETRY


def merge_summary(registry, summary, host=None):
    """Fold one run's telemetry summary (and optional host block) into an
    aggregate registry — how the harness merges parallel workers'
    registries.

    Event per-kind totals become ``events.<kind>`` counters; dropped
    records and profiled-fragment counts merge as counters too, so the
    aggregate view never silently under-reports.
    """
    registry.merge_dict({
        "counters": summary.get("counters", {}),
        "gauges": summary.get("gauges", {}),
        "histograms": summary.get("histograms", {}),
    })
    events = summary.get("events", {})
    for kind, count in events.get("by_kind", {}).items():
        registry.counter(f"events.{kind}").inc(count)
    registry.counter("events.dropped").inc(events.get("dropped", 0))
    registry.counter("fragments.profiled").inc(
        summary.get("fragments_profiled", 0))
    if host:
        registry.merge_dict({"timers": host.get("timers", {})})
        registry.counter("interp.decode_misses").inc(
            host.get("decode_misses", 0))
    return registry
