"""The telemetry facade every VM carries.

One :class:`Telemetry` object per VM holds the metrics registry the
layers record into, plus the finalisation step that records the two
translation-cache totals no other summary block holds, so a run's
whole telemetry exports as one JSON-able summary.  ``VMStats``, the
cache's fragment and byte totals and the resilience counters live in
their own summary blocks and are not repeated here.

Telemetry is always on, so what it costs is paid by every run: the
layers record per fragment created, per translated stint and per
``FragmentExecutor.run`` call, never per instruction or per fragment
transition.  The benchmark gate in ``benchmarks/bench_exec_engine.py``
bounds that cost (``docs/observability.md``).

Two summary views exist because the harness treats them differently:

* :meth:`Telemetry.summary` is **deterministic** — counters and gauges
  are pure functions of the run point, so they live in cacheable run
  summaries and must be bit-identical across serial/parallel/cached
  execution;
* :meth:`Telemetry.host_summary` is **process-local** — wall-clock phase
  timers and decode-cache miss counts depend on the machine and on which
  process ran first, so the harness stores them next to ``elapsed``,
  outside the determinism contract.
"""

from repro.obs.registry import MetricsRegistry


class Telemetry:
    """A VM's metrics registry plus its end-of-run finalisation."""

    def __init__(self):
        self.registry = MetricsRegistry()
        self.decode_misses = 0

    def finalize(self, tcache, interpreter):
        """Record the cache's patch totals as gauges and copy the
        interpreter's decode-cache misses (idempotent).

        Gauges are *set*, so calling this after every ``run()`` stint is
        safe.
        """
        registry = self.registry
        registry.gauge("tcache.patches_applied").set(tcache.patches_applied)
        registry.gauge("tcache.invalidations").set(tcache.invalidations)
        self.decode_misses = interpreter.decode_misses

    def summary(self):
        """The deterministic JSON-able summary (see the module docstring)."""
        data = self.registry.to_dict()
        return {"counters": data["counters"], "gauges": data["gauges"]}

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
    registry.merge_dict(summary)
    if host:
        registry.merge_dict({"timers": host.get("timers", {})})
        registry.counter("interp.decode_misses").inc(
            host.get("decode_misses", 0))
    return registry
