"""The structured event stream: a bounded ring buffer of typed records.

Where the registry (:mod:`repro.obs.registry`) answers "how much", the
event stream answers "what happened, in order": fragment lifecycle
(created, entered, chained, invalidated), translation-cache flushes, trap
deliveries, superblock captures and dispatch runs, each as a small typed
record with a global sequence number.

The buffer is bounded (default :data:`DEFAULT_CAPACITY` records) so a
long run cannot grow memory without limit: once full, the oldest records
are dropped and counted, while per-kind totals keep counting everything
ever emitted.  Records export to JSON Lines — one JSON object per line —
and :func:`parse_jsonl` round-trips them, which is what external tooling
(and the smoke test) consumes.
"""

import json
from collections import Counter, deque

#: Default ring-buffer capacity, in records.
DEFAULT_CAPACITY = 4096


class EventKind:
    """Names of the event types the VM emits (plain strings)."""

    FRAGMENT_CREATED = "fragment_created"
    FRAGMENT_ENTERED = "fragment_entered"
    FRAGMENT_CHAINED = "fragment_chained"
    FRAGMENT_INVALIDATED = "fragment_invalidated"
    TCACHE_FLUSH = "tcache_flush"
    TRAP_DELIVERED = "trap_delivered"
    SUPERBLOCK_CAPTURED = "superblock_captured"
    DISPATCH_RUN = "dispatch_run"
    # fault injection and graceful degradation (docs/robustness.md)
    FAULT_INJECTED = "fault_injected"
    TRANSLATION_FAILED = "translation_failed"
    PC_BLACKLISTED = "pc_blacklisted"
    TCACHE_FULL = "tcache_full"
    FRAGMENT_CORRUPTED = "fragment_corrupted"
    # a fragment compiled by the jit (docs/performance.md)
    JIT_PROMOTED = "jit_promoted"
    # a guest store hit translated code (docs/robustness.md)
    SMC_DETECTED = "smc_detected"


#: Every kind the VM emits — the strict parser rejects anything else.
KNOWN_KINDS = frozenset(
    value for name, value in vars(EventKind).items()
    if not name.startswith("_"))


class Event:
    """One typed record: a sequence number, a kind, and a payload dict."""

    __slots__ = ("seq", "kind", "data")

    def __init__(self, seq, kind, data):
        self.seq = seq
        self.kind = kind
        self.data = data

    def to_json(self):
        """The record as a JSON-able dict (the JSONL line's object)."""
        return {"seq": self.seq, "kind": self.kind, "data": self.data}

    def __eq__(self, other):
        return isinstance(other, Event) and \
            (self.seq, self.kind, self.data) == \
            (other.seq, other.kind, other.data)

    def __repr__(self):
        return f"Event({self.seq}, {self.kind}, {self.data})"


class EventStream:
    """A bounded, ordered buffer of :class:`Event` records."""

    def __init__(self, capacity=DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("event capacity must be positive")
        self.capacity = capacity
        self._buffer = deque(maxlen=capacity)
        self.emitted = 0
        self.by_kind = Counter()

    def emit(self, kind, **data):
        """Append one record; returns it.

        When the buffer is full the oldest record is silently dropped
        (``dropped`` counts them); per-kind totals are never dropped.
        """
        event = Event(self.emitted, kind, data)
        self.emitted += 1
        self.by_kind[kind] += 1
        self._buffer.append(event)
        return event

    @property
    def dropped(self):
        """Records evicted from the ring so far."""
        return self.emitted - len(self._buffer)

    def __len__(self):
        return len(self._buffer)

    def __iter__(self):
        return iter(self._buffer)

    def records(self, kind=None):
        """Buffered records in order, optionally filtered by kind."""
        if kind is None:
            return list(self._buffer)
        return [event for event in self._buffer if event.kind == kind]

    def summary(self):
        """Emission totals as a JSON-able dict."""
        return {
            "emitted": self.emitted,
            "dropped": self.dropped,
            "by_kind": dict(sorted(self.by_kind.items())),
        }

    def to_jsonl(self):
        """The buffered records as JSON Lines text."""
        return "".join(json.dumps(event.to_json(), sort_keys=True) + "\n"
                       for event in self._buffer)

    def __repr__(self):
        return (f"EventStream({len(self._buffer)}/{self.capacity} "
                f"buffered, {self.emitted} emitted)")


def _parse_line(line, lineno):
    """One JSONL line -> :class:`Event`; raises ValueError naming the
    1-based line number on any malformation."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {lineno}: invalid JSON ({exc.msg})") \
            from None
    if not isinstance(obj, dict):
        raise ValueError(f"line {lineno}: expected a JSON object, "
                         f"got {type(obj).__name__}")
    for field in ("seq", "kind", "data"):
        if field not in obj:
            raise ValueError(f"line {lineno}: missing {field!r} field")
    if not isinstance(obj["seq"], int) or isinstance(obj["seq"], bool):
        raise ValueError(f"line {lineno}: 'seq' must be an integer")
    if obj["kind"] not in KNOWN_KINDS:
        raise ValueError(f"line {lineno}: unknown event kind "
                         f"{obj['kind']!r}")
    if not isinstance(obj["data"], dict):
        raise ValueError(f"line {lineno}: 'data' must be an object")
    return Event(obj["seq"], obj["kind"], obj["data"])


def parse_jsonl(text):
    """Parse JSON Lines text back into a list of :class:`Event` records.

    Strict: any malformed line (invalid JSON, a non-object, missing
    ``seq``/``kind``/``data``, or an unknown kind) raises
    ``ValueError`` naming the 1-based line number.  Use
    :func:`parse_jsonl_lenient` to skip bad lines instead.
    """
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        events.append(_parse_line(line, lineno))
    return events


#: Longest payload excerpt a :class:`SkippedLines` warning quotes.
SKIP_PAYLOAD_LIMIT = 60


class SkippedLines(int):
    """The skip count :func:`parse_jsonl_lenient` returns, carrying the
    diagnosis of the *first* line it skipped.

    Subclassing ``int`` keeps every existing caller working (``if
    skipped:``, arithmetic, formatting) while tooling that wants to say
    *why* lines were skipped reads :attr:`first_lineno` /
    :attr:`first_error` / :attr:`first_payload` or prints
    :meth:`warning` directly.
    """

    first_lineno = None
    first_error = None
    first_payload = None

    def __new__(cls, count, lineno=None, error=None, payload=None):
        """``count`` skipped lines; the rest describes the first one."""
        value = super().__new__(cls, count)
        value.first_lineno = lineno
        value.first_error = error
        if payload is not None and len(payload) > SKIP_PAYLOAD_LIMIT:
            payload = payload[:SKIP_PAYLOAD_LIMIT] + "..."
        value.first_payload = payload
        return value

    def warning(self):
        """A one-line report naming the first skipped line, or ``""``
        when nothing was skipped."""
        if self == 0:
            return ""
        return (f"skipped {int(self)} malformed line(s); first at line "
                f"{self.first_lineno}: {self.first_error} "
                f"(payload {self.first_payload!r})")


def parse_jsonl_lenient(text):
    """Like :func:`parse_jsonl`, but skip malformed lines.

    Returns ``(events, skipped)`` where ``skipped`` is a
    :class:`SkippedLines` count of the lines that failed to parse —
    tooling reading logs of unknown provenance can report
    ``skipped.warning()`` (the 1-based line number, the parse error and
    a truncated payload of the first bad line) instead of dying on it.
    """
    events = []
    skipped = 0
    first = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(_parse_line(line, lineno))
        except ValueError as exc:
            skipped += 1
            if first is None:
                message = str(exc)
                prefix = f"line {lineno}: "
                if message.startswith(prefix):
                    message = message[len(prefix):]
                first = (lineno, message, line)
    if first is None:
        return events, SkippedLines(0)
    return events, SkippedLines(skipped, lineno=first[0], error=first[1],
                                payload=first[2])


class NullEventStream:
    """The no-op event stream wired up when telemetry is disabled."""

    capacity = 0
    emitted = 0
    dropped = 0
    by_kind = {}

    def emit(self, kind, **data):
        """No-op; returns None."""
        return None

    def records(self, kind=None):
        """Always empty."""
        return []

    def summary(self):
        """An all-zero summary."""
        return {"emitted": 0, "dropped": 0, "by_kind": {}}

    def to_jsonl(self):
        """Empty text."""
        return ""

    def __len__(self):
        return 0

    def __iter__(self):
        return iter(())


NULL_EVENTS = NullEventStream()
