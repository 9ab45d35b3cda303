"""The ``repro top`` live serving dashboard.

``repro top`` opens one ``subscribe`` stream against a running
``repro serve`` socket and redraws a terminal dashboard on every
``snapshot`` frame: request throughput and latency quantiles (computed
client-side from the streamed histogram buckets), dedup/cache
effectiveness, persistent-store warm-hit rate, jit promotions,
degradation counters, the hottest fragments and the most recent
completions.  It is a pure *consumer* — everything it shows comes off
the frame stream, so running it costs the server one subscriber queue
and nothing on the batch path.

Split from :mod:`repro.cli` so the renderer and the frame-folding state
machine (:class:`TopState`) are importable and testable without a
terminal; ``--frames N`` bounds the stream for scripted runs (the smoke
test renders a real dashboard this way).
"""

from collections import Counter, deque

from repro.obs.registry import histogram_quantile
from repro.serve.client import DEFAULT_TIMEOUT, ServeError, Subscription

#: Completions remembered for the "recent" pane.
RECENT_LIMIT = 5
#: Rows in the hot-fragment pane.
HOT_LIMIT = 5


def _rate(deltas, interval, name):
    """Per-second rate of one delta'd value (0.0 before two snapshots)."""
    if interval <= 0:
        return 0.0
    return deltas.get(name, 0) / interval


class TopState:
    """Folds a frame stream into the numbers the dashboard renders.

    Feed every incoming frame to :meth:`update`; render whenever it
    returns True (a fresh ``snapshot`` arrived — the redraw cadence).
    """

    def __init__(self):
        #: newest snapshot frame payload (values/deltas/latency), or None
        self.snapshot = None
        self.frames_seen = 0
        #: lifecycle phase -> occurrences observed on this stream
        self.phases = Counter()
        #: telemetry event kind -> occurrences observed on this stream
        self.events = Counter()
        #: (workload, entry_vpc) -> summed entry count from executed frames
        self.hot = Counter()
        #: last few ``completed`` lifecycle payloads, newest last
        self.recent = deque(maxlen=RECENT_LIMIT)

    def update(self, frame):
        """Fold one frame dict in; returns True when it was a snapshot
        (i.e. the dashboard should redraw)."""
        self.frames_seen += 1
        kind = frame.get("frame")
        data = frame.get("data", {})
        if kind == "snapshot":
            self.snapshot = data
            return True
        if kind == "lifecycle":
            phase = data.get("phase", "?")
            self.phases[phase] += 1
            if phase == "completed":
                self.recent.append(data)
            elif phase == "executed":
                for record in data.get("hot_fragments", []):
                    self.hot[(data.get("workload", "?"),
                              record.get("entry_vpc"))] += \
                        record.get("entries", 0)
        elif kind == "event":
            self.events[data.get("kind", "?")] += 1
        return False

    def quantiles(self, name, qs=(0.5, 0.9, 0.99)):
        """Latency quantiles for one streamed histogram, or None when
        that histogram has no observations yet."""
        latency = (self.snapshot or {}).get("latency", {})
        histogram = latency.get(name)
        if not histogram or not histogram.get("total"):
            return None
        return {q: histogram_quantile(histogram["bounds"],
                                      histogram["counts"], q)
                for q in qs}

    def value(self, name, default=0):
        """One value from the newest snapshot."""
        return ((self.snapshot or {}).get("values") or {}).get(name,
                                                               default)


def _format_seconds(value):
    """Compact human latency: µs under 1 ms, ms under 1 s, else s."""
    if value is None:
        return "-"
    if value < 0.001:
        return f"{value * 1e6:.0f}µs"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def _quantile_cell(state, name):
    """One 'p50/p90/p99' latency cell for the dashboard."""
    quantiles = state.quantiles(name)
    if quantiles is None:
        return "-"
    return "/".join(_format_seconds(quantiles[q])
                    for q in (0.5, 0.9, 0.99))


def render_dashboard(state, socket_path=""):
    """The dashboard as one multi-line string (no terminal control)."""
    lines = []
    snapshot = state.snapshot or {}
    values = snapshot.get("values", {})
    deltas = snapshot.get("deltas", {})
    interval = snapshot.get("interval", 0.0)
    lines.append(f"repro top — {socket_path}  "
                 f"[snapshot #{snapshot.get('seq', '-')}"
                 f" · {interval:.1f}s window"
                 f" · {state.frames_seen} frames]")
    lines.append("")
    run_rate = _rate(deltas, interval, "serve.runs_completed")
    req_rate = _rate(deltas, interval, "serve.requests")
    lines.append(
        f"requests   {values.get('serve.requests', 0):>6} total "
        f"({req_rate:5.1f}/s)   runs {values.get('serve.runs_completed', 0)}"
        f" ({run_rate:.1f}/s)   dedup joins "
        f"{values.get('serve.dedup_joined', 0)}   cache hits "
        f"{values.get('runner.cache_hits', 0)}   failures "
        f"{values.get('serve.run_failures', 0)}")
    lines.append(
        f"latency    total {_quantile_cell(state, 'serve.total_seconds')}"
        f"   queue {_quantile_cell(state, 'serve.queue_wait_seconds')}"
        f"   run {_quantile_cell(state, 'serve.run_seconds')}"
        f"   (p50/p90/p99)")
    warm_hits = values.get("persist.warm_hits", 0)
    warm_misses = values.get("persist.warm_misses", 0)
    warm_pct = 100.0 * warm_hits / (warm_hits + warm_misses) \
        if warm_hits + warm_misses else 0.0
    lines.append(
        f"persist    warm {warm_hits}/{warm_hits + warm_misses} "
        f"({warm_pct:.0f}%)   saved {values.get('persist.records_saved', 0)}"
        f"   jit promotions {values.get('jit.promotions', 0)}")
    faults = {name.split('.', 1)[1]: value
              for name, value in values.items()
              if name.startswith("faults.") and value}
    if faults:
        lines.append("faults     " + "   ".join(
            f"{name} {value}" for name, value in sorted(faults.items())))
    lines.append(
        f"streaming  {values.get('stream.subscribers', 0)} subscribers"
        f"   {values.get('stream.frames_published', 0)} frames"
        f"   {values.get('stream.frames_dropped', 0)} dropped")
    if state.hot:
        lines.append("")
        lines.append("hot fragments        workload      entry_vpc   "
                     "entries")
        for (workload, entry_vpc), entries in \
                state.hot.most_common(HOT_LIMIT):
            lines.append(f"                     {workload:<12}  "
                         f"{str(entry_vpc):>9}   {entries}")
    if state.recent:
        lines.append("")
        lines.append("recent completions")
        for record in reversed(state.recent):
            lines.append(
                f"  {record.get('cid', '?'):>6}  "
                f"{record.get('workload', '?'):<12}  "
                f"{_format_seconds(record.get('total_seconds'))}  "
                f"committed {record.get('committed', '?')}")
    return "\n".join(lines)


def command_top(socket_path, frames=None, out=None, clear=None,
                timeout=DEFAULT_TIMEOUT):
    """Run the dashboard loop; returns a process exit code.

    ``frames`` bounds how many frames to consume (None = until the
    server closes the stream or Ctrl-C).  ``clear`` controls the ANSI
    clear-screen between redraws (default: only when ``out`` is a tty).
    """
    import sys

    out = out if out is not None else sys.stdout
    if clear is None:
        clear = getattr(out, "isatty", lambda: False)()
    state = TopState()
    try:
        subscription = Subscription(
            socket_path, kinds=("snapshot", "lifecycle", "event"),
            timeout=timeout)
    except ServeError as exc:
        print(f"repro top: {exc}", file=out, flush=True)
        return 2
    rendered = False
    try:
        with subscription:
            for frame in subscription.frames(limit=frames):
                if state.update(frame):
                    if clear:
                        out.write("\x1b[2J\x1b[H")
                    print(render_dashboard(state, socket_path),
                          file=out, flush=True)
                    rendered = True
    except KeyboardInterrupt:
        pass
    except ServeError as exc:
        print(f"repro top: {exc}", file=out, flush=True)
        return 2
    if not rendered:
        # bounded runs still produce one dashboard even if the stream
        # ended before a snapshot frame arrived
        print(render_dashboard(state, socket_path), file=out, flush=True)
    return 0
