"""Hierarchical span tracing with Chrome trace-event export.

Where the metrics registry answers "how much", the :class:`Tracer`
answers "*when*, nested inside what": the VM run loop, the translator
pipeline phases and the harness wrap their stages in spans, and the
result exports as Chrome trace-event JSON — loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing`` — plus a plain-text
flame summary for terminals.

``VMConfig.trace`` (default off) selects between a live :class:`Tracer`
and the shared :data:`NULL_TRACER`, whose every operation is a dead
method call: spans buffer up to :data:`DEFAULT_MAX_EVENTS` events, which
only ``repro trace`` and ``--trace-out`` want to pay for.  ``trace`` is
excluded from the run-point cache key (the no-op parity tests assert
behavioural identity).

Span nesting is positional, exactly as the Chrome trace format defines
it: a complete ("ph": "X") event is a child of any event on the same
``pid``/``tid`` track whose time range contains it.  One tracer owns one
track by default; the harness adds extra tracks (one per parallel
worker) through :meth:`Tracer.add_complete`, which accepts raw
``perf_counter`` timestamps measured in worker processes —
``perf_counter`` reads the system-wide monotonic clock on every platform
we run on, so worker timestamps land on the same timeline.

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


class _Span:
    """Context manager recording one span on its owning :class:`Tracer`."""

    __slots__ = ("_tracer", "_name", "_cat", "_args")

    def __init__(self, tracer, name, cat, args):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self):
        self._tracer.begin(self._name, cat=self._cat, **self._args)
        return self

    def __exit__(self, exc_type, exc, tb):
        self._tracer.end()
        return False


class MultiSpan:
    """Enter several context managers as one (e.g. a registry timer span
    plus a tracer span around the same region)."""

    __slots__ = ("_cms",)

    def __init__(self, *cms):
        self._cms = cms

    def __enter__(self):
        for cm in self._cms:
            cm.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        for cm in reversed(self._cms):
            cm.__exit__(exc_type, exc, tb)
        return False


class Tracer:
    """A hierarchical span recorder exporting Chrome trace events.

    Spans open with :meth:`begin` (or the :meth:`span` context manager)
    and close with :meth:`end`; the open-span stack gives nesting for
    free, and closing records one complete ("ph": "X") trace event.
    Timestamps are microseconds since the tracer's ``epoch`` (a
    ``perf_counter`` reading), as the trace-event format expects.
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
        #: finished Chrome trace-event dicts ("X" completes and "i"
        #: instants), in completion order
        self.events = []
        #: spans/instants discarded after the buffer filled
        self.dropped = 0
        self._stack = []        # open spans: [name, cat, start_us, args]
        self._meta = []         # "M" metadata events (track names)
        self._paths = {}        # flame data: "a;b;c" -> [total_us, count]
        self.set_process_name(process_name)
        self.set_thread_name(tid, thread_name)

    def _now_us(self):
        return (time.perf_counter() - self.epoch) * 1e6

    # -- span recording -------------------------------------------------------

    def begin(self, name, cat="vm", **args):
        """Open a span; it becomes the parent of spans opened before
        :meth:`end`."""
        self._stack.append([name, cat, self._now_us(), args])

    def end(self, **args):
        """Close the innermost open span, merging extra ``args`` in."""
        if not self._stack:
            raise RuntimeError("Tracer.end() without a matching begin()")
        name, cat, start_us, span_args = self._stack.pop()
        if args:
            span_args.update(args)
        self._record(name, cat, start_us, self._now_us(), self.tid,
                     span_args)

    def span(self, name, cat="vm", **args):
        """A context manager measuring one span."""
        return _Span(self, name, cat, args)

    def instant(self, name, cat="vm", **args):
        """Record a zero-duration marker at the current time."""
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append({"name": name, "cat": cat, "ph": "i",
                            "ts": self._now_us(), "s": "t",
                            "pid": self.pid, "tid": self.tid, "args": args})

    def add_complete(self, name, start, end, tid=None, cat="harness",
                     args=None):
        """Record a finished span from raw ``perf_counter`` timestamps.

        This is how measurements taken elsewhere join the trace: the VM
        run loop's interpreter stretches, evaluator calls, and parallel
        harness workers, whose ``perf_counter`` readings ``tid`` places
        on their own track.  On this tracer's own track (``tid`` None)
        the span nests under the open spans in the flame summary, as if
        it had been begun and ended there.
        """
        self._record(name, cat, (start - self.epoch) * 1e6,
                     (end - self.epoch) * 1e6,
                     self.tid if tid is None else tid,
                     dict(args) if args else {},
                     path=None if tid is None else name)

    def unwind(self):
        """Close every open span (abnormal exits: traps, budget raises)."""
        while self._stack:
            self.end()

    def _record(self, name, cat, start_us, end_us, tid, args, path=None):
        duration = max(end_us - start_us, 0.0)
        if path is None:
            path = ";".join([frame[0] for frame in self._stack] + [name])
        bucket = self._paths.setdefault(path, [0.0, 0])
        bucket[0] += duration
        bucket[1] += 1
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append({"name": name, "cat": cat, "ph": "X",
                            "ts": start_us, "dur": duration,
                            "pid": self.pid, "tid": tid, "args": args})

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
        """The trace as a Chrome trace-event JSON object.

        Spans still open at export time (a trap unwound past them) are
        flushed as best-effort completes ending now, so the file always
        loads.
        """
        events = list(self._meta) + list(self.events)
        now = self._now_us()
        prefix = []
        for name, cat, start_us, args in self._stack:
            prefix.append(name)
            events.append({"name": name, "cat": cat, "ph": "X",
                           "ts": start_us, "dur": max(now - start_us, 0.0),
                           "pid": self.pid, "tid": self.tid,
                           "args": dict(args, unfinished=True)})
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped": self.dropped,
                          "spans": len(self.events)},
        }

    def write(self, path):
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle)

    def flame_lines(self, top=20):
        """The flame summary: inclusive time per span path, hottest first."""
        ranked = sorted(self._paths.items(),
                        key=lambda item: item[1][0], reverse=True)
        total_s = sum(bucket[0] for _path, bucket in
                      self._paths.items() if ";" not in _path) / 1e6
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
        return (f"Tracer({len(self.events)} events, "
                f"{len(self._stack)} open, {self.dropped} dropped)")


class _NullSpan:
    """A context manager that records nothing."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: the same surface, every operation a no-op."""

    enabled = False
    pid = 0
    tid = 0
    events = ()
    dropped = 0
    max_events = 0

    def begin(self, name, cat="vm", **args):
        """No-op."""

    def end(self, **args):
        """No-op."""

    def span(self, name, cat="vm", **args):
        """A no-op span."""
        return _NULL_SPAN

    def instant(self, name, cat="vm", **args):
        """No-op."""

    def add_complete(self, name, start, end, tid=None, cat="harness",
                     args=None):
        """No-op."""

    def unwind(self):
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
