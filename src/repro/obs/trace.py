"""Span tracing with Chrome trace-event export.

Where the metrics registry answers "how much", the :class:`Tracer`
answers "*when*, nested inside what": the VM run loop, the translator
pipeline stages and the harness record a span for each region they
time, and the result exports as Chrome trace-event JSON — loadable in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing`` — plus a
plain-text flame summary for terminals.

``VMConfig.trace`` (default off) selects between a live :class:`Tracer`
and the shared :data:`NULL_TRACER`, whose every operation is a dead
method call: spans buffer up to :data:`DEFAULT_MAX_EVENTS` events, which
only ``repro trace`` and ``--trace-out`` want to pay for.  ``trace`` is
excluded from the run-point cache key (the no-op parity tests assert
behavioural identity).

A span is recorded once its region has finished, from the two
``perf_counter`` readings the region's timer already takes
(:meth:`Tracer.add_complete`), so no span is ever open and a trap cannot
leave one behind.  Nesting is positional, exactly as the Chrome trace
format defines it: a complete ("ph": "X") event is a child of any event
on the same ``pid``/``tid`` track whose time range contains it.  One
tracer owns one track by default; the harness adds one track per
parallel worker.  ``perf_counter`` reads the system-wide monotonic clock
on every platform we run on, so worker readings land on the same
timeline.

The buffer is bounded (:data:`DEFAULT_MAX_EVENTS` spans) so tracing a
long run cannot grow memory without limit; overflow is counted in
``dropped`` and surfaced in the export's ``otherData`` block, never
silently.
"""

import json
import time

#: Spans retained per tracer; beyond this, new spans are dropped and
#: counted (a 200k-instruction VM run stays well below this).
DEFAULT_MAX_EVENTS = 200_000

#: Slack, in microseconds, when comparing span ends: ``ts + dur`` can
#: round an ulp away from the reading it came from, and no two clock
#: readings are this close.
_SAME_READING_US = 1e-3


class Tracer:
    """A span recorder exporting Chrome trace events.

    Every span arrives finished (:meth:`add_complete`); timestamps are
    microseconds since the tracer's ``epoch`` (a ``perf_counter``
    reading), as the trace-event format expects.
    """

    enabled = True

    def __init__(self, pid=0, tid=0, max_events=DEFAULT_MAX_EVENTS,
                 epoch=None, process_name="repro", thread_name="main"):
        if max_events < 1:
            raise ValueError("max_events must be positive")
        self.pid = pid
        self.tid = tid
        self.max_events = max_events
        self.epoch = time.perf_counter() if epoch is None else epoch
        #: Chrome trace-event dicts ("X" completes and "i" instants), in
        #: recording order
        self.events = []
        #: spans/instants discarded after the buffer filled
        self.dropped = 0
        self._meta = []         # "M" metadata events (track names)
        self.set_process_name(process_name)
        self.set_thread_name(tid, thread_name)

    # -- recording ------------------------------------------------------------

    def instant(self, name, cat="vm", **args):
        """Record a zero-duration marker at the current time."""
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append({"name": name, "cat": cat, "ph": "i",
                            "ts": (time.perf_counter() - self.epoch) * 1e6,
                            "s": "t", "pid": self.pid, "tid": self.tid,
                            "args": args})

    def add_complete(self, name, start, end, tid=None, cat="harness",
                     args=None):
        """Record one finished span from raw ``perf_counter`` readings.

        ``tid`` None puts the span on this tracer's own track, where it
        nests under whichever span's time range contains it; the harness
        passes a worker's track for runs measured in pool workers.
        """
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        start_us = (start - self.epoch) * 1e6
        end_us = (end - self.epoch) * 1e6
        self.events.append({"name": name, "cat": cat, "ph": "X",
                            "ts": start_us, "dur": max(end_us - start_us, 0.0),
                            "pid": self.pid,
                            "tid": self.tid if tid is None else tid,
                            "args": dict(args) if args else {}})

    # -- track naming ---------------------------------------------------------

    def set_process_name(self, name):
        """Label this tracer's process row in the trace viewer."""
        self._meta.append({"name": "process_name", "ph": "M",
                           "pid": self.pid, "tid": 0,
                           "args": {"name": name}})

    def set_thread_name(self, tid, name):
        """Label one track (``tid``) in the trace viewer."""
        self._meta.append({"name": "thread_name", "ph": "M",
                           "pid": self.pid, "tid": tid,
                           "args": {"name": name}})

    # -- export ---------------------------------------------------------------

    def to_chrome(self):
        """The trace as a Chrome trace-event JSON object."""
        return {
            "traceEvents": self._meta + self.events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped": self.dropped,
                          "spans": len(self.events)},
        }

    def write(self, path):
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle)

    def flame_lines(self, top=20):
        """The flame summary: inclusive time per span path, hottest first.

        A path names a span and the spans enclosing it, read from the
        time ranges on this tracer's own track: sorted by start, longer
        first, and later-recorded first on ties (a parent is recorded
        after its children), each span sits inside the nearest earlier
        span that ends no sooner.  Spans on other tracks (pool workers)
        are roots.  Dropped spans are not counted.
        """
        completes = sorted((event["ts"], -event["dur"], -index, event)
                           for index, event in enumerate(self.events)
                           if event["ph"] == "X")
        paths = {}              # "a;b;c" -> [total_us, count]
        enclosing = []          # (end_us, path) of the spans around the next
        for ts, neg_dur, _order, event in completes:
            path = event["name"]
            if event["tid"] == self.tid:
                end = ts - neg_dur
                while enclosing and \
                        enclosing[-1][0] < end - _SAME_READING_US:
                    enclosing.pop()
                if enclosing:
                    path = f"{enclosing[-1][1]};{path}"
                enclosing.append((end, path))
            bucket = paths.setdefault(path, [0.0, 0])
            bucket[0] -= neg_dur
            bucket[1] += 1
        ranked = sorted(paths.items(),
                        key=lambda item: item[1][0], reverse=True)
        total_s = sum(bucket[0] for _path, bucket in
                      paths.items() if ";" not in _path) / 1e6
        lines = [f"flame summary (top {min(top, len(ranked))} of "
                 f"{len(ranked)} span paths, {total_s:.3f}s at the root):"]
        if not ranked:
            lines.append("  (no spans recorded — was tracing on?)")
            return lines
        for path, (total_us, count) in ranked[:top]:
            depth = path.count(";")
            name = path.rsplit(";", 1)[-1]
            lines.append(f"  {total_us / 1e6:9.4f}s x{count:<7d} "
                         f"{'  ' * depth}{name}")
        return lines

    def __repr__(self):
        return f"Tracer({len(self.events)} events, {self.dropped} dropped)"


class NullTracer:
    """Tracing disabled: the same surface, every operation a no-op."""

    enabled = False
    pid = 0
    tid = 0
    events = ()
    dropped = 0
    max_events = 0

    def instant(self, name, cat="vm", **args):
        """No-op."""

    def add_complete(self, name, start, end, tid=None, cat="harness",
                     args=None):
        """No-op."""

    def set_process_name(self, name):
        """No-op."""

    def set_thread_name(self, tid, name):
        """No-op."""

    def to_chrome(self):
        """An empty (but loadable) trace document."""
        return {"traceEvents": [], "displayTimeUnit": "ms",
                "otherData": {"dropped": 0, "spans": 0}}

    def write(self, path):
        """No-op: the null tracer never touches the filesystem."""

    def flame_lines(self, top=20):
        """Always empty."""
        return []

    def __repr__(self):
        return "NullTracer()"


NULL_TRACER = NullTracer()


def make_tracer(config):
    """The tracer ``config`` asks for (``VMConfig.trace``)."""
    if getattr(config, "trace", False):
        return Tracer()
    return NULL_TRACER


# -- validation (tests, the smoke script, and external tooling) ---------------

def validate_chrome_trace(doc):
    """Schema-check an exported trace document.

    Raises :class:`ValueError` naming the offending event on any
    violation; returns the list of complete ("X") events on success.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a Chrome trace document "
                         "(missing 'traceEvents')")
    completes = []
    for index, event in enumerate(doc["traceEvents"]):
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                raise ValueError(f"trace event {index} missing {field!r}")
        if event["ph"] == "M":
            continue
        if "ts" not in event:
            raise ValueError(f"trace event {index} missing 'ts'")
        if event["ph"] == "X":
            if "dur" not in event:
                raise ValueError(f"trace event {index} ('X') missing 'dur'")
            if event["dur"] < 0:
                raise ValueError(f"trace event {index} has negative dur")
            completes.append(event)
    return completes


def span_contains(parent, child, slop_us=0.5):
    """True when ``child``'s time range nests inside ``parent``'s on the
    same track (how Chrome/Perfetto decide parenthood)."""
    return (parent["pid"] == child["pid"]
            and parent["tid"] == child["tid"]
            and parent["ts"] - slop_us <= child["ts"]
            and child["ts"] + child.get("dur", 0.0)
            <= parent["ts"] + parent["dur"] + slop_us)
