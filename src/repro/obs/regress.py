"""The benchmark-regression sentinel behind ``repro bench-compare``.

The repo's benchmarks leave JSON records (``BENCH_exec.json``,
``BENCH_harness.json``) whose numeric fields fall into two families:

* **wall-clock-shaped** metrics (``*_seconds``, ``*ratio``,
  ``*speedup``) are only reproducible up to machine jitter, so they are
  compared with a relative tolerance (and, for raw seconds, a small
  absolute slack that keeps sub-hundredth-second noise from tripping a
  relative gate);
* **count-shaped** metrics (everything else — run points, event totals,
  fragment counts) are deterministic by the harness contract and must
  match *exactly*: a drifting count is a correctness bug, not noise.

An end-to-end record (``BENCH_e2e.json``, from ``scripts/record_e2e.py``)
holds e2ebench runs and carries BENCHMARK.json's rules: each end-to-end
metric is gated by its ``better`` and ``bound``, counts stay exact and a
run's ``failed`` may not rise.  Per-layer seconds and ratios, which come
from one pass, and a run's ``attempted``, which grows with its speed, are
reported but not gated.

Wall-clock numbers only mean something relative to the machine that
produced them, so the comparison honours the same machine-metadata guard
the benchmarks themselves use: when the two records disagree on machine
or run context (workloads, budget, reps, seed), the gate is *skipped with
a warning* rather than failed — cross-machine comparisons are flagged,
never gated.

``compare_benchmarks`` is pure (two dicts in, a :class:`Comparison`
out); the CLI layer in :mod:`repro.cli` maps it to exit codes:
0 = no regression (or gate skipped), 1 = regression, 2 = unreadable
input.
"""

import os
import platform

#: Relative tolerance for wall-clock-shaped metrics (5%).
TIME_TOLERANCE = 0.05
#: Absolute slack, in seconds, added on top of the relative tolerance for
#: raw ``*_seconds`` metrics.  Small by design: large enough to absorb
#: scheduler jitter on sub-hundredth-second timings, far too small to
#: swallow a real regression on any gated total.
TIME_SLACK_SECONDS = 0.005

#: Top-level fields that describe *what was run*, not *how it went*.
#: They guard comparability instead of being compared as metrics.
CONTEXT_KEYS = ("benchmark", "experiment", "workloads", "budget", "reps",
                "run_points", "seed")

#: Top-level *blocks* (nested dicts) that likewise carry context, not
#: metrics: the machine-identity block every record embeds.
CONTEXT_BLOCKS = ("machine",)

#: The ``benchmark`` name of an end-to-end record.
E2E_BENCHMARK = "e2ebench"


def machine_metadata():
    """The host identity embedded in benchmark output files.

    Wall-clock records only mean something relative to the machine that
    produced them; gates that compare a fresh run against a recorded
    file first check this block matches, so numbers from different
    hardware or interpreters never gate each other.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def classify(name):
    """Which comparison rule a metric name gets.

    Returns ``"time"`` (lower is better, relative tolerance + absolute
    slack), ``"lower"`` (lower is better, relative tolerance),
    ``"higher"`` (higher is better, relative tolerance) or ``"exact"``.
    Classification looks at the last dotted segment, so nested names
    like ``rows.gzip.naive_seconds`` classify the same as top-level
    ones.
    """
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("speedup"):
        return "higher"
    if leaf.endswith("ratio"):
        return "lower"
    if leaf.endswith("seconds") or leaf == "elapsed":
        return "time"
    return "exact"


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def flatten_metrics(doc):
    """Flatten a benchmark record into ``{dotted.name: number}``.

    Top-level context fields (:data:`CONTEXT_KEYS`) and context blocks
    (:data:`CONTEXT_BLOCKS` — ``machine``) are excluded —
    they guard comparability, they are not metrics.  Lists of
    per-workload row dicts key by the row's ``workload``
    (``rows.gzip.speedup``); other lists key by index.  Non-numeric
    leaves are ignored.
    """
    metrics = {}
    for key, value in doc.items():
        if key in CONTEXT_KEYS or key in CONTEXT_BLOCKS:
            continue
        _flatten_into(metrics, key, value)
    return metrics


def _flatten_into(metrics, prefix, value):
    if _is_number(value):
        metrics[prefix] = value
    elif isinstance(value, dict):
        for key, inner in value.items():
            _flatten_into(metrics, f"{prefix}.{key}", inner)
    elif isinstance(value, list):
        for index, inner in enumerate(value):
            if isinstance(inner, dict) and "workload" in inner:
                label = inner["workload"]
                for key, leaf in inner.items():
                    if key != "workload":
                        _flatten_into(metrics, f"{prefix}.{label}.{key}",
                                      leaf)
            else:
                _flatten_into(metrics, f"{prefix}.{index}", inner)


def e2e_metrics(doc, rules):
    """Flatten an end-to-end record into ``{<run>.<metric>: (value, kind,
    tolerance)}``.  ``doc["runs"]`` maps a run's label to e2ebench's
    result; ``rules`` maps an end-to-end metric to its ``better`` and
    ``bound``.  Per-layer seconds and ratios are ``"reported"``, and so
    is ``attempted``: a timed run repeats passes until its time is up."""
    metrics = {}
    for label, run in doc["runs"].items():
        metrics[f"{label}.attempted"] = (run["attempted"], "reported", 0.0)
        metrics[f"{label}.failed"] = (run["failed"], "lower", 0.0)
        for name, metric in run["metrics"].items():
            rule = rules.get(name)
            if rule is not None:
                kind, tolerance = rule["better"], rule["bound"]
            elif metric["unit"] == "count":
                kind, tolerance = "exact", 0.0
            else:
                kind, tolerance = "reported", 0.0
            metrics[f"{label}.{name}"] = (metric["value"], kind, tolerance)
    return metrics


class MetricDelta:
    """One metric compared across the two records."""

    __slots__ = ("name", "kind", "baseline", "current", "verdict")

    def __init__(self, name, kind, baseline, current, verdict):
        self.name = name
        self.kind = kind
        self.baseline = baseline
        self.current = current
        #: "ok", "improved" or "regressed" (a reported metric is "ok")
        self.verdict = verdict

    def render(self):
        change = ""
        if self.baseline:
            change = f" ({(self.current / self.baseline - 1.0):+.1%})"
        return (f"{self.name}: {self.baseline:g} -> {self.current:g}"
                f"{change} [{self.kind}] {self.verdict}")

    def __repr__(self):
        return f"MetricDelta({self.render()})"


class Comparison:
    """The result of :func:`compare_benchmarks`."""

    def __init__(self):
        self.deltas = []
        self.warnings = []
        #: None while the gate applies; otherwise why it was skipped
        self.skipped = None

    @property
    def regressions(self):
        return [d for d in self.deltas if d.verdict == "regressed"]

    @property
    def ok(self):
        """True when the gate passes (including when it was skipped)."""
        return self.skipped is not None or not self.regressions

    def render_lines(self):
        lines = []
        if self.skipped is not None:
            lines.append(f"gate skipped: {self.skipped}")
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        regressed = self.regressions
        interesting = [d for d in self.deltas
                       if d.verdict != "ok" or d.baseline != d.current]
        for delta in sorted(interesting, key=lambda d: d.name):
            lines.append("  " + delta.render())
        if self.skipped is not None:
            lines.append("result: SKIPPED (not comparable)")
        elif regressed:
            lines.append(f"result: REGRESSED "
                         f"({len(regressed)} of {len(self.deltas)} metrics)")
        else:
            lines.append(f"result: OK ({len(self.deltas)} metrics compared)")
        return lines


def _compare_one(name, kind, tolerance, slack, baseline, current):
    if kind == "reported":
        return MetricDelta(name, kind, baseline, current, "ok")
    if kind == "exact":
        if current != baseline:
            return MetricDelta(name, kind, baseline, current, "regressed")
        return MetricDelta(name, kind, baseline, current, "ok")
    if kind == "higher":
        floor = baseline * (1.0 - tolerance)
        verdict = "regressed" if current < floor else (
            "improved" if current > baseline * (1.0 + tolerance)
            else "ok")
        return MetricDelta(name, kind, baseline, current, verdict)
    # "lower" and "time": lower is better
    extra = slack if kind == "time" else 0.0
    ceiling = baseline * (1.0 + tolerance) + extra
    floor = baseline * (1.0 - tolerance) - extra
    verdict = "regressed" if current > ceiling else (
        "improved" if current < floor else "ok")
    return MetricDelta(name, kind, baseline, current, verdict)


def compare_benchmarks(baseline, current, time_tolerance=TIME_TOLERANCE,
                       slack=TIME_SLACK_SECONDS):
    """Compare two benchmark records; returns a :class:`Comparison`.

    ``baseline`` and ``current`` are parsed benchmark JSON documents.
    The gate is skipped (with a warning, never a failure) when the two
    records describe different run contexts or machines.  An end-to-end
    record's metrics follow the baseline's ``end_to_end`` rules
    (:func:`e2e_metrics`) instead of ``time_tolerance`` and ``slack``.
    """
    result = Comparison()

    for key in CONTEXT_KEYS:
        if baseline.get(key) != current.get(key):
            result.skipped = (
                f"run context differs: {key} "
                f"{baseline.get(key)!r} vs {current.get(key)!r}")
            return result
    base_machine = baseline.get("machine")
    cur_machine = current.get("machine")
    if not base_machine or not cur_machine:
        result.skipped = ("missing machine metadata; wall-clock numbers "
                          "cannot be gated")
        return result
    if base_machine != cur_machine:
        differing = sorted(
            key for key in set(base_machine) | set(cur_machine)
            if base_machine.get(key) != cur_machine.get(key))
        result.skipped = (f"records are from different machines "
                          f"({', '.join(differing)} differ); wall-clock "
                          f"numbers are not comparable across hosts")
        return result

    if baseline.get("benchmark") == E2E_BENCHMARK:
        rules = {rule["name"]: rule for rule in baseline["end_to_end"]}
        base_metrics = e2e_metrics(baseline, rules)
        cur_metrics = e2e_metrics(current, rules)
    else:
        base_metrics, cur_metrics = [
            {name: (value, classify(name), time_tolerance)
             for name, value in flatten_metrics(doc).items()}
            for doc in (baseline, current)]
    for name in sorted(base_metrics):
        if name not in cur_metrics:
            result.warnings.append(f"metric {name} missing from current "
                                   f"record")
            continue
        value, kind, tolerance = base_metrics[name]
        result.deltas.append(_compare_one(
            name, kind, tolerance, slack, value, cur_metrics[name][0]))
    for name in sorted(set(cur_metrics) - set(base_metrics)):
        result.warnings.append(f"metric {name} new in current record "
                               f"(not gated)")
    return result
