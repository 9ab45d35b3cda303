"""Metrics registry: named counters, gauges, timers and histograms.

The registry is what every VM's telemetry records into.  Four metric
kinds cover everything the DBT wants to report:

* **counters** — monotonically increasing totals (fragments created,
  dispatch runs);
* **gauges** — last-written point-in-time values (live fragment count,
  translation-cache bytes);
* **timers** — accumulated wall-clock seconds plus a span count (translator
  phase times, interpret/execute split);
* **histograms** — fixed-bucket distributions (superblock lengths,
  fragment body sizes).

Every metric serialises to JSON-able primitives (:meth:`MetricsRegistry.
to_dict`) and merges associatively (:meth:`MetricsRegistry.merge_dict`):
counters, timers and histogram buckets add, gauges keep the maximum (the
only order-independent choice without timestamps).  That makes registries
from parallel harness workers — which arrive as plain dicts inside run
summaries — foldable into one aggregate view.
"""

import time
from bisect import bisect_left

#: Default histogram bucket upper bounds (values above the last bound land
#: in the overflow bucket).  Suits instruction-count-like quantities.
DEFAULT_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)


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


class _TimerSpan:
    """Context manager measuring one span for its owning :class:`Timer`."""

    __slots__ = ("_timer", "_started")

    def __init__(self, timer):
        self._timer = timer
        self._started = None

    def __enter__(self):
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._timer.add(time.perf_counter() - self._started)
        return False


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

    def time(self):
        """A context manager that measures one span into this timer."""
        return _TimerSpan(self)

    def __repr__(self):
        return f"Timer({self.name}={self.seconds:.6f}s/{self.count})"


class Histogram:
    """A fixed-bucket distribution.

    ``bounds`` are ascending inclusive upper edges; one extra overflow
    bucket catches everything above the last bound.  Fixed buckets keep
    observation O(log n) and make merging across registries a plain
    element-wise sum.
    """

    __slots__ = ("name", "bounds", "counts", "total")

    def __init__(self, name, bounds=DEFAULT_BUCKETS):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly ascending")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0

    def observe(self, value, count=1):
        """Record ``value`` falling into its bucket ``count`` times."""
        self.counts[bisect_left(self.bounds, value)] += count
        self.total += count

    def quantile(self, q):
        """Estimate the ``q``-quantile (see :func:`histogram_quantile`)."""
        return histogram_quantile(self.bounds, self.counts, q)

    def reset(self):
        """Zero every bucket (used for rebuild-on-finalize histograms)."""
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0

    def __repr__(self):
        return f"Histogram({self.name}, n={self.total})"


def histogram_quantile(bounds, counts, q):
    """Estimate the ``q``-quantile of a fixed-bucket histogram.

    The estimator is the Prometheus ``histogram_quantile`` rule: find
    the bucket containing the target rank ``q * total`` and interpolate
    linearly inside it, taking the first bucket's lower edge as 0 and
    clamping the overflow bucket to the last finite bound (a fixed
    bucket layout cannot know how far past it the tail reaches).  The
    estimate is therefore **exact at bucket boundaries**: a rank landing
    precisely on a bucket's cumulative count returns that bucket's upper
    bound, which the unit tests pin down.

    Returns ``None`` for an empty histogram — there is no distribution
    to ask about, and 0.0 would be indistinguishable from a real
    all-zero sample.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return None
    bounds = tuple(bounds)
    rank = q * total
    cumulative = 0
    for index, count in enumerate(counts):
        below = cumulative
        cumulative += count
        if cumulative >= rank and count:
            if index >= len(bounds):        # overflow bucket
                return float(bounds[-1]) if bounds else 0.0
            lower = 0.0 if index == 0 else float(bounds[index - 1])
            upper = float(bounds[index])
            return lower + (upper - lower) * ((rank - below) / count)
    return float(bounds[-1]) if bounds else 0.0


class MetricsRegistry:
    """A namespace of metrics, created on first use and mergeable."""

    def __init__(self):
        self.counters = {}
        self.gauges = {}
        self.timers = {}
        self.histograms = {}

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

    def histogram(self, name, bounds=DEFAULT_BUCKETS):
        """The histogram called ``name`` (created on first use).

        ``bounds`` only applies at creation; asking again with different
        bounds is an error (silent re-bucketing would corrupt merges).
        """
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name, bounds)
        elif tuple(bounds) != metric.bounds:
            raise ValueError(
                f"histogram {name!r} already exists with bounds "
                f"{metric.bounds}")
        return metric

    # -- serialisation and merging -------------------------------------------

    def to_dict(self):
        """Every metric as JSON-able primitives."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "timers": {n: {"seconds": t.seconds, "count": t.count}
                       for n, t in sorted(self.timers.items())},
            "histograms": {n: {"bounds": list(h.bounds),
                               "counts": list(h.counts),
                               "total": h.total}
                           for n, h in sorted(self.histograms.items())},
        }

    def merge_dict(self, data):
        """Fold a :meth:`to_dict` payload into this registry.

        Counters, timers and histogram buckets add; gauges keep the
        maximum of the two values.  Histograms must agree on bounds.
        """
        for name, value in data.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in data.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, value))
        for name, fields in data.get("timers", {}).items():
            self.timer(name).add(fields["seconds"], fields["count"])
        for name, fields in data.get("histograms", {}).items():
            histogram = self.histogram(name, tuple(fields["bounds"]))
            if list(histogram.bounds) != list(fields["bounds"]):
                raise ValueError(
                    f"histogram {name!r} bounds mismatch on merge")
            for index, count in enumerate(fields["counts"]):
                histogram.counts[index] += count
            histogram.total += fields["total"]
        return self

    def merge(self, other):
        """Fold another registry into this one (see :meth:`merge_dict`)."""
        return self.merge_dict(other.to_dict())

    def __repr__(self):
        return (f"MetricsRegistry({len(self.counters)} counters, "
                f"{len(self.gauges)} gauges, {len(self.timers)} timers, "
                f"{len(self.histograms)} histograms)")
