"""Per-layer spans for the traced run, recorded from outside the program.

:func:`install` wraps each layer's public entry point with a span that
reads the calibrated clock (:class:`calib.RefClock`) on entry and exit
and records its caller's span as parent.  Spans stay in memory until the
pass ends.  A layer's self time is its spans' time minus their direct
children's.  Nothing under ``src/`` is edited: the wrappers replace
attributes of the imported modules and classes, in this process only.
"""

import functools
from collections import Counter

#: (module, attribute path, layer) of every wrapped entry point.  The
#: interpreter entry is wrapped where the harness looks it up.
ENTRY_POINTS = (
    ("repro.harness.parallel", "PointRunner.run", "harness"),
    ("repro.workloads.base", "Workload.program", "asm"),
    ("repro.harness.runpoints", "run_original", "interp"),
    ("repro.vm.system", "CoDesignedVM.run", "vm"),
    ("repro.translator.pipeline", "Translator.translate", "translator"),
    ("repro.uarch.ildp", "ILDPModel.run", "uarch.ildp"),
    ("repro.uarch.superscalar", "SuperscalarModel.run",
     "uarch.superscalar"),
)

LAYERS = ("harness", "asm", "interp", "vm", "translator", "uarch.ildp",
          "uarch.superscalar")


def _records(layer, args, result):
    """Trace records a call consumed or produced (0 if not a trace layer)."""
    if layer == "interp":
        return len(result[0])
    if layer.startswith("uarch."):
        return len(args[1])
    return 0


class Span:
    """One call into a layer, in reference seconds."""

    __slots__ = ("layer", "parent", "start", "end", "records", "failed")

    def __init__(self, layer, parent, start):
        self.layer = layer
        self.parent = parent
        self.start = start
        self.end = None
        self.records = 0
        self.failed = False

    def to_json(self):
        return {"layer": self.layer, "parent": self.parent,
                "start": self.start, "end": self.end,
                "records": self.records, "failed": self.failed}


class SpanRecorder:
    """Collects the spans of one pass."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, function, layer):
        """``function`` with a span around every call."""
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = Span(layer, stack[-1] if stack else None, clock.now())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock.now()
                stack.pop()
            span.records = _records(layer, args, result)
            return result

        return traced

    def self_times(self):
        """layer -> summed self time (span minus its direct children)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals = dict.fromkeys(LAYERS, 0.0)
        for span, children in zip(self.spans, child_time):
            totals[span.layer] += span.end - span.start - children
        return totals


def install(recorder):
    """Wrap every entry point in ``ENTRY_POINTS`` with ``recorder``."""
    import importlib

    for module_name, path, layer in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *owners, attribute = path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        setattr(owner, attribute,
                recorder.wrap(getattr(owner, attribute), layer))


#: per-layer metric -> the program's own wall-clock timer behind it
TIMERS = {
    "vm.interpret_s": "phase.vm.interpret",
    "vm.translated_s": "phase.vm.translated",
    "vm.capture_s": "phase.vm.capture",
    "vm.jit_compile_s": "jit.compile",
    **{f"translator.{phase}_s": f"phase.translate.{phase}"
       for phase in ("decompose", "usage", "strand", "allocate", "codegen",
                     "chaining")},
}

#: per-layer metric -> the telemetry counter behind it
COUNTERS = {
    "vm.fragment_entries": "exec.fragment_entries",
    "vm.jit_promotions": "jit.promotions",
    "vm.jit_deopts": "jit.deopts",
    "vm.jit_compile_failures": "jit.compile_failures",
}


def vm_figures(summary):
    """The figures :func:`layer_metrics` sums, read from one VM run
    point's summary, so that a pass keeps these rather than the summary.
    Timers are in raw seconds, keyed by their metric's name."""
    counters = summary["telemetry"]["counters"]
    timers = summary["telemetry_host"]["timers"]
    stats = summary["stats"]
    figures = {
        "vm.v_insns": summary["committed"],
        "translated_v": stats["translated_v"],
        "vm.interpreted": stats["interpreted"],
        "vm.i_insns": stats["iinstructions"],
        "vm.trace_records": summary["trace_len"] or 0,
        "tcache.fragments": summary["tcache"]["fragments"],
        "tcache.code_bytes": summary["tcache"]["code_bytes"],
        "tcache.invalidations": summary["telemetry"]["gauges"].get(
            "tcache.invalidations", 0),
    }
    for metric, name in COUNTERS.items():
        figures[metric] = counters.get(name, 0)
    for metric, name in TIMERS.items():
        figures[metric] = timers.get(name, {}).get("seconds", 0.0)
    return figures


def layer_metrics(recorder, figures, report, factor):
    """Every per-layer metric of one traced pass.

    ``figures`` are the pass's :func:`vm_figures`, one per VM run point,
    ``report`` its runner's :class:`RunReport`, and ``factor`` the pass's
    mean calibration factor (reference seconds per CPU second), which
    turns the program's own wall-clock timers into reference seconds.
    """
    spans = recorder.spans
    self_s = recorder.self_times()

    def calls(layer):
        return sum(1 for span in spans if span.layer == layer)

    def records(layer):
        return sum(span.records for span in spans if span.layer == layer)

    vm = Counter()
    for point in figures:
        vm.update(point)
    committed = vm["vm.v_insns"]
    metrics = {
        "asm.s": self_s["asm"],
        "asm.calls": calls("asm"),
        "interp.s": self_s["interp"],
        "interp.records": records("interp"),
        "vm.s": self_s["vm"],
        "vm.v_insns": committed,
        "vm.interpreted": vm["vm.interpreted"],
        "vm.i_insns": vm["vm.i_insns"],
        "vm.trace_records": vm["vm.trace_records"],
        "vm.translated_share": (vm["translated_v"] / committed
                                if committed else 0.0),
        "translator.s": self_s["translator"],
        "translator.calls": calls("translator"),
        "translator.failures": sum(1 for span in spans
                                   if span.layer == "translator"
                                   and span.failed),
        "tcache.fragments": vm["tcache.fragments"],
        "tcache.code_bytes": vm["tcache.code_bytes"],
        "tcache.invalidations": vm["tcache.invalidations"],
        "uarch.ildp_s": self_s["uarch.ildp"],
        "uarch.ildp_records": records("uarch.ildp"),
        "uarch.superscalar_s": self_s["uarch.superscalar"],
        "uarch.superscalar_records": records("uarch.superscalar"),
        "harness.s": self_s["harness"],
        "harness.points": report.executed,
        "harness.cache_hits": report.cache_hits,
    }
    for metric in COUNTERS:
        metrics[metric] = vm[metric]
    for metric in TIMERS:
        metrics[metric] = factor * vm[metric]
    return metrics
