"""Telemetry subsystem: metrics registry, event stream, fragment profiling.

``repro.obs`` is the VM's observability layer (see
``docs/observability.md`` for the catalogue and overhead methodology):

* :mod:`repro.obs.registry` — named counters, gauges, wall-clock timers
  and fixed-bucket histograms, with a zero-overhead no-op twin;
* :mod:`repro.obs.events` — a bounded ring buffer of typed records with
  JSONL export;
* :mod:`repro.obs.profile` — per-fragment execution profiling and the
  ``repro profile`` report renderers;
* :mod:`repro.obs.telemetry` — the facade ``VMConfig.telemetry`` selects
  (default: the no-op :data:`NULL_TELEMETRY`);
* :mod:`repro.obs.trace` — hierarchical span tracing with Chrome
  trace-event export (``VMConfig.trace``; default the no-op
  :data:`NULL_TRACER`);
* :mod:`repro.obs.regress` — the benchmark-regression sentinel behind
  ``repro bench-compare``.
"""

from repro.obs.events import (
    Event,
    EventKind,
    EventStream,
    parse_jsonl,
    parse_jsonl_lenient,
)
from repro.obs.profile import (
    FragmentProfiler,
    histogram_quantile_lines,
    hot_fragment_table,
    phase_breakdown_lines,
)
from repro.obs.registry import (
    MetricsRegistry,
    NULL_REGISTRY,
    histogram_quantile,
)
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    make_telemetry,
    merge_summary,
)
from repro.obs.trace import (
    NULL_TRACER,
    MultiSpan,
    NullTracer,
    Tracer,
    make_tracer,
    span_contains,
    validate_chrome_trace,
)

__all__ = [
    "Event", "EventKind", "EventStream", "parse_jsonl",
    "parse_jsonl_lenient",
    "FragmentProfiler", "histogram_quantile_lines", "hot_fragment_table",
    "phase_breakdown_lines",
    "MetricsRegistry", "NULL_REGISTRY", "histogram_quantile",
    "NULL_TELEMETRY", "NullTelemetry", "Telemetry", "make_telemetry",
    "merge_summary",
    "NULL_TRACER", "MultiSpan", "NullTracer", "Tracer", "make_tracer",
    "span_contains", "validate_chrome_trace",
]
