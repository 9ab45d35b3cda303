"""Metrics registry: named counters, gauges and timers.

The registry is what every VM's telemetry records into.  Three metric
kinds cover everything the DBT reports beyond ``VMStats`` and the
translation-cache totals:

* **counters** — monotonically increasing totals (fragment entries, jit
  promotions);
* **gauges** — last-written point-in-time values (in-place chaining
  patches, generated-code invalidations);
* **timers** — accumulated wall-clock seconds plus a span count (translator
  phase times, interpret/execute split).  A timer takes what its caller
  measured (:meth:`Timer.add`): each timed region reads
  ``perf_counter`` itself, so the same two readings can also place the
  region on the span timeline (:mod:`repro.obs.trace`).

Every metric serialises to JSON-able primitives (:meth:`MetricsRegistry.
to_dict`) and merges associatively (:meth:`MetricsRegistry.merge_dict`):
counters and timers add, gauges keep the maximum (the only
order-independent choice without timestamps).  That makes registries
from parallel harness workers — which arrive as plain dicts inside run
summaries — foldable into one aggregate view.
"""


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        """Add ``amount`` (default 1) to the total."""
        self.value += amount

    def __repr__(self):
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-written point-in-time value."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def set(self, value):
        """Record the current value."""
        self.value = value

    def __repr__(self):
        return f"Gauge({self.name}={self.value})"


class Timer:
    """Accumulated wall-clock seconds plus the number of measured spans."""

    __slots__ = ("name", "seconds", "count")

    def __init__(self, name):
        self.name = name
        self.seconds = 0.0
        self.count = 0

    def add(self, seconds, count=1):
        """Credit ``seconds`` of measured time (``count`` spans)."""
        self.seconds += seconds
        self.count += count

    def __repr__(self):
        return f"Timer({self.name}={self.seconds:.6f}s/{self.count})"


class MetricsRegistry:
    """A namespace of metrics, created on first use and mergeable."""

    def __init__(self):
        self.counters = {}
        self.gauges = {}
        self.timers = {}

    # -- creation-on-use ------------------------------------------------------

    def counter(self, name):
        """The counter called ``name`` (created on first use)."""
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def gauge(self, name):
        """The gauge called ``name`` (created on first use)."""
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        return metric

    def timer(self, name):
        """The timer called ``name`` (created on first use)."""
        metric = self.timers.get(name)
        if metric is None:
            metric = self.timers[name] = Timer(name)
        return metric

    # -- serialisation and merging -------------------------------------------

    def to_dict(self):
        """Every metric as JSON-able primitives."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "timers": {n: {"seconds": t.seconds, "count": t.count}
                       for n, t in sorted(self.timers.items())},
        }

    def merge_dict(self, data):
        """Fold a :meth:`to_dict` payload into this registry.

        Counters and timers add; gauges keep the maximum of the two
        values.
        """
        for name, value in data.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in data.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, value))
        for name, fields in data.get("timers", {}).items():
            self.timer(name).add(fields["seconds"], fields["count"])
        return self

    def merge(self, other):
        """Fold another registry into this one (see :meth:`merge_dict`)."""
        return self.merge_dict(other.to_dict())

    def __repr__(self):
        return (f"MetricsRegistry({len(self.counters)} counters, "
                f"{len(self.gauges)} gauges, {len(self.timers)} timers)")
