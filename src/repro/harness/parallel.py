"""Parallel, memoizing execution of harness run points.

:class:`PointRunner` is the single entry point the experiment drivers use:

* duplicate points inside one batch are computed once and shared;
* points answered by the :class:`~repro.harness.resultcache.ResultCache`
  never reach a VM at all;
* the remaining points are grouped by simulator run
  (:meth:`~repro.harness.runpoints.RunPoint.run_identity`): points that
  differ only in their evaluators share one run, which carries the union
  of their evaluators (:func:`~repro.harness.runpoints.execute_run`);
* the runs execute serially (``workers=1``) or fan out over a
  ``concurrent.futures.ProcessPoolExecutor``.  Every run is an
  independent, deterministic pure function (see
  :mod:`repro.harness.runpoints`), so the three execution strategies are
  interchangeable — the equivalence tests assert bit-identical tables.

If the process pool cannot be created or dies (restricted sandboxes,
missing semaphores), the runner falls back to serial execution and records
the fact in its report rather than failing the experiment.
"""

import os
import time

from repro.harness.runpoints import execute_run
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import merge_summary
from repro.obs.trace import NULL_TRACER


def _group_runs(points):
    """Positions in ``points`` grouped by simulator run, first seen first."""
    runs = {}
    for position, point in enumerate(points):
        runs.setdefault(point.run_identity(), []).append(position)
    return list(runs.values())


def _execute_chunk(points):
    """Run one worker's whole share of a batch as a single pool task.

    The parent chunks runs, not points, so every point of a run is in
    this chunk and the run executes once.  Each summary is paired with
    the ``perf_counter`` readings around its run: on the platforms we run
    on that clock is system-wide monotonic, so the parent process can
    place worker runs on the shared span timeline (one trace track per
    worker).
    """
    results = [None] * len(points)
    for run in _group_runs(points):
        started = time.perf_counter()
        summaries = execute_run([points[i] for i in run])
        ended = time.perf_counter()
        for position, summary in zip(run, summaries):
            results[position] = (summary, started, ended)
    return results


def _host_seconds(summary, prefix):
    """Seconds of a summary's ``telemetry_host`` timers under ``prefix``."""
    timers = summary.get("telemetry_host", {}).get("timers", {})
    return sum(timer["seconds"] for name, timer in timers.items()
               if name.startswith(prefix))


class RunObserver:
    """Per-point lifecycle callbacks a :class:`PointRunner` reports to.

    The default implementation is all no-ops, so observers override
    only what they need.  Only executed points are reported; a point
    answered by the result cache never reaches the observer.  Points run
    in pool worker *processes* are reported post-hoc by the parent when
    the chunk returns (``on_point_done`` only).
    """

    def on_point_start(self, point):
        """``point`` is about to execute on the serial path.

        A run that serves several points calls this once for each of
        them, back to back, right before the run starts.
        """

    def on_point_done(self, point, summary):
        """``point`` finished executing; ``summary`` is its result.

        A run that serves several points calls this once for each of
        them, each with that point's own summary.
        """


class RunReport:
    """Counters accumulated across one runner's batches."""

    def __init__(self):
        self.requested = 0
        self.unique = 0
        self.cache_hits = 0
        self.cache_corrupt = 0
        self.executed = 0
        #: simulator runs behind the executed points
        self.runs = 0
        #: simulator seconds (``run.*`` timers), once per run
        self.run_seconds = 0.0
        #: evaluator seconds (``eval.*`` timers), once per call
        self.eval_seconds = 0.0
        self.wall_seconds = 0.0
        self.pool_failures = 0

    def snapshot(self):
        """A plain-dict copy (for per-experiment deltas)."""
        return dict(vars(self))

    def render(self):
        """One human-readable line for CLI output."""
        line = (f"run points: {self.requested} requested, "
                f"{self.unique} unique, {self.cache_hits} cache hits, "
                f"{self.executed} executed in {self.runs} runs; "
                f"run {self.run_seconds:.1f}s, "
                f"eval {self.eval_seconds:.1f}s, "
                f"wall {self.wall_seconds:.1f}s")
        if self.cache_corrupt:
            line += f"; {self.cache_corrupt} corrupt cache entries"
        if self.pool_failures:
            line += f" (pool unavailable, ran serially x{self.pool_failures})"
        return line

    def __repr__(self):
        return f"RunReport({self.render()})"


def _delta(before, after):
    return {key: after[key] - before[key] for key in after}


class PointRunner:
    """Executes batches of run points with caching and optional workers."""

    def __init__(self, workers=1, cache=None, tracer=None, observer=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.cache = cache
        #: span tracer for the harness timeline: every executed run
        #: becomes a span (parallel workers land on their own tracks) and
        #: every cache hit an instant marker.  Defaults to the no-op twin.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: optional :class:`RunObserver` receiving per-point lifecycle
        #: callbacks (per-point timing, golden summary digests)
        self.observer = observer
        self.report = RunReport()
        #: report delta for the most recent :meth:`run` call
        self.last_report = None
        #: telemetry blocks this runner's summaries carry, folded into one
        #: registry once per simulator run (pool workers cannot share a
        #: live registry, so their summaries are merged on the way back;
        #: cached summaries merge the telemetry recorded when the entry
        #: was first computed)
        self.telemetry = MetricsRegistry()

    def run(self, points):
        """Execute ``points``; returns their summaries in input order."""
        points = list(points)
        before = self.report.snapshot()
        started = time.perf_counter()
        corrupt_before = self.cache.corrupt if self.cache is not None else 0

        # de-duplicate within the batch: unique points, first-seen order
        order = list(dict.fromkeys(points))
        slot_of = {point: index for index, point in enumerate(order)}

        summaries = [None] * len(order)
        pending = []
        for index, point in enumerate(order):
            cached = self.cache.get(point) if self.cache is not None \
                else None
            if cached is not None:
                summaries[index] = cached
                self.report.cache_hits += 1
                self.tracer.instant(f"cache-hit {point.label()}",
                                    cat="harness")
            else:
                pending.append(index)

        if pending:
            self._execute_pending(order, summaries, pending)

        for run in _group_runs(order):
            summary = summaries[run[0]]
            if "telemetry" in summary:
                merge_summary(self.telemetry, summary["telemetry"],
                              host=summary.get("telemetry_host"))

        self.report.requested += len(points)
        self.report.unique += len(order)
        if self.cache is not None:
            self.report.cache_corrupt += self.cache.corrupt - corrupt_before
        self.report.wall_seconds += time.perf_counter() - started
        self.last_report = _delta(before, self.report.snapshot())
        return [summaries[slot_of[point]] for point in points]

    # -- execution strategies -------------------------------------------------

    def _execute_pending(self, order, summaries, pending):
        points = [order[i] for i in pending]
        runs = _group_runs(points)
        executed = None
        if self.workers > 1 and len(runs) > 1:
            executed = self._run_pool(points, runs)
        if executed is None:
            executed = [None] * len(points)
            for run in runs:
                members = [points[i] for i in run]
                if self.observer is not None:
                    for point in members:
                        self.observer.on_point_start(point)
                with self.tracer.span(members[0].label(), cat="harness",
                                      kind=members[0].kind,
                                      budget=members[0].budget):
                    results = execute_run(members)
                for position, summary in zip(run, results):
                    executed[position] = summary
        for run in runs:
            # members share the run's host block: count it once
            host = executed[run[0]]
            self.report.runs += 1
            self.report.run_seconds += _host_seconds(host, "run.")
            self.report.eval_seconds += _host_seconds(host, "eval.")
            for position in run:
                point, summary = points[position], executed[position]
                summaries[pending[position]] = summary
                if self.observer is not None:
                    self.observer.on_point_done(point, summary)
                self.report.executed += 1
                if self.cache is not None:
                    self.cache.put(point, summary)

    def _run_pool(self, points, runs):
        """Fan the runs out over a process pool; returns None to run
        serially.

        Runs are chunked round-robin so each worker receives *one* task
        covering its whole share of the batch: process startup, pickling
        and scheduling overhead is paid once per worker rather than once
        per run.  The worker count is clamped to the machine's cores — a
        pool wider than the machine (or any pool on a single-core
        machine) only adds overhead, which is how an earlier
        BENCH_harness.json ended up with four workers slower than serial.
        """
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        cores = os.cpu_count() or 1
        max_workers = min(self.workers, len(runs), cores)
        if max_workers < 2:
            return None     # a 1-worker pool is pure overhead
        positions = [[i for run in runs[worker::max_workers] for i in run]
                     for worker in range(max_workers)]
        chunks = [[points[i] for i in chunk] for chunk in positions]
        try:
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                futures = [pool.submit(_execute_chunk, chunk)
                           for chunk in chunks]
                chunk_results = [future.result() for future in futures]
        except (OSError, ImportError, PermissionError, BrokenProcessPool):
            self.report.pool_failures += 1
            return None
        summaries = [None] * len(points)
        for chunk, results in zip(positions, chunk_results):
            for position, (summary, _t0, _t1) in zip(chunk, results):
                summaries[position] = summary
        self._note_pool_spans(chunks, chunk_results)
        return summaries

    def _note_pool_spans(self, chunks, chunk_results):
        """Place each worker's runs on its own trace track.

        Workers report raw ``perf_counter`` readings (system-wide
        monotonic), so their spans share the parent tracer's timeline;
        track ``tid`` = worker index + 1 keeps them visually separate
        from the runner's own (serial) track 0.
        """
        if not self.tracer.enabled:
            return
        for worker, (chunk, results) in enumerate(zip(chunks,
                                                      chunk_results)):
            tid = worker + 1
            self.tracer.set_thread_name(tid, f"worker-{tid}")
            for run in _group_runs(chunk):
                point = chunk[run[0]]
                _summary, started, ended = results[run[0]]
                self.tracer.add_complete(
                    point.label(), started, ended, tid=tid,
                    args={"kind": point.kind, "budget": point.budget})
