"""The telemetry facade every VM carries.

One :class:`Telemetry` object per VM holds the metrics registry the
layers record into, plus the finalisation step that mirrors end-of-run
``VMStats`` and translation-cache totals into the registry so a run's
whole observable state exports as one JSON-able summary.

Telemetry is always on, so what it costs is paid by every run: the
layers record per fragment created, per translated stint and per
``FragmentExecutor.run`` call, never per instruction or per fragment
transition.  The benchmark gate in ``benchmarks/bench_exec_engine.py``
bounds that cost (``docs/observability.md``).

Two summary views exist because the harness treats them differently:

* :meth:`Telemetry.summary` is **deterministic** — counters, gauges and
  histograms are pure functions of the run point, so they live in
  cacheable run summaries and must be bit-identical across
  serial/parallel/cached execution;
* :meth:`Telemetry.host_summary` is **process-local** — wall-clock phase
  timers and decode-cache miss counts depend on the machine and on which
  process ran first, so the harness stores them next to ``elapsed``,
  outside the determinism contract.
"""

from repro.obs.registry import MetricsRegistry

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
    """A VM's metrics registry plus its end-of-run finalisation."""

    def __init__(self):
        self.registry = MetricsRegistry()
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

    def summary(self):
        """The deterministic JSON-able summary (see the module docstring)."""
        data = self.registry.to_dict()
        return {
            "counters": data["counters"],
            "gauges": data["gauges"],
            "histograms": data["histograms"],
        }

    def host_summary(self):
        """Process-local wall-clock measurements (outside determinism)."""
        return {
            "timers": self.registry.to_dict()["timers"],
            "decode_misses": self.decode_misses,
        }

    def __repr__(self):
        return f"Telemetry({self.registry!r})"


def merge_summary(registry, summary, host=None):
    """Fold one run's telemetry summary (and optional host block) into an
    aggregate registry — how the harness merges parallel workers'
    registries."""
    registry.merge_dict({
        "counters": summary.get("counters", {}),
        "gauges": summary.get("gauges", {}),
        "histograms": summary.get("histograms", {}),
    })
    if host:
        registry.merge_dict({"timers": host.get("timers", {})})
        registry.counter("interp.decode_misses").inc(
            host.get("decode_misses", 0))
    return registry
