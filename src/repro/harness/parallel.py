"""Parallel, memoizing execution of harness run points.

:class:`PointRunner` is the single entry point the experiment drivers use:

* duplicate points inside one batch are computed once and shared;
* points answered by the :class:`~repro.harness.resultcache.ResultCache`
  never reach a VM at all;
* the remaining points run serially (``workers=1``) or fan out over a
  ``concurrent.futures.ProcessPoolExecutor``.  Every run point is an
  independent, deterministic pure function (see
  :mod:`repro.harness.runpoints`), so the three execution strategies are
  interchangeable — the equivalence tests assert bit-identical tables.

If the process pool cannot be created or dies (restricted sandboxes,
missing semaphores), the runner falls back to serial execution and records
the fact in its report rather than failing the experiment.
"""

import os
import time

from repro.faults.inject import FaultInjector, NULL_INJECTOR
from repro.faults.plan import FaultPlan, FaultSite
from repro.harness.runpoints import execute_point
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import merge_summary
from repro.obs.trace import NULL_TRACER


class WorkerCrash(Exception):
    """A pool worker died before returning its chunk (fault injection)."""


class WorkerTimeout(Exception):
    """A pool worker stalled past its deadline (fault injection)."""


def _execute_chunk(points, fail=None):
    """Run one worker's whole share of a batch as a single pool task.

    Each summary is paired with the ``perf_counter`` readings around its
    run: on the platforms we run on that clock is system-wide monotonic,
    so the parent process can place worker runs on the shared span
    timeline (one trace track per worker).

    ``fail`` is the fault-injection hook: ``"crash"``/``"timeout"``
    (decided deterministically by the parent's injector before dispatch)
    make the worker die before touching any point, exercising the
    retry/requeue path without real process murder or real deadlines.
    """
    if fail == "crash":
        raise WorkerCrash(f"injected crash before {len(points)} points")
    if fail == "timeout":
        raise WorkerTimeout(f"injected timeout before {len(points)} points")
    results = []
    for point in points:
        started = time.perf_counter()
        summary = execute_point(point)
        results.append((summary, started, time.perf_counter()))
    return results


class RunObserver:
    """Per-point lifecycle callbacks a :class:`PointRunner` reports to.

    The default implementation is all no-ops, so observers override
    only what they need.  Only executed points are reported; a point
    answered by the result cache never reaches the observer.  Points run
    in pool worker *processes* are reported post-hoc by the parent when
    the chunk returns (``on_point_done`` only).
    """

    def on_point_start(self, point):
        """``point`` is about to execute on the serial path."""

    def on_point_done(self, point, summary):
        """``point`` finished executing; ``summary`` is its result."""


class RunReport:
    """Counters accumulated across one runner's batches."""

    def __init__(self):
        self.requested = 0
        self.unique = 0
        self.cache_hits = 0
        self.cache_corrupt = 0
        self.executed = 0
        self.vm_seconds = 0.0
        self.wall_seconds = 0.0
        self.pool_failures = 0
        #: worker chunk dispatches that crashed or timed out and were
        #: retried on the pool
        self.worker_retries = 0
        #: run points requeued to the serial path after a worker
        #: exhausted its retries
        self.worker_requeued = 0

    def snapshot(self):
        """A plain-dict copy (for per-experiment deltas)."""
        return {
            "requested": self.requested,
            "unique": self.unique,
            "cache_hits": self.cache_hits,
            "cache_corrupt": self.cache_corrupt,
            "executed": self.executed,
            "vm_seconds": self.vm_seconds,
            "wall_seconds": self.wall_seconds,
            "pool_failures": self.pool_failures,
            "worker_retries": self.worker_retries,
            "worker_requeued": self.worker_requeued,
        }

    def render(self):
        """One human-readable line for CLI output."""
        line = (f"run points: {self.requested} requested, "
                f"{self.unique} unique, {self.cache_hits} cache hits, "
                f"{self.executed} executed; "
                f"vm time {self.vm_seconds:.1f}s, "
                f"wall {self.wall_seconds:.1f}s")
        if self.cache_corrupt:
            line += f"; {self.cache_corrupt} corrupt cache entries"
        if self.worker_retries or self.worker_requeued:
            line += (f"; worker retries {self.worker_retries}, "
                     f"requeued {self.worker_requeued}")
        if self.pool_failures:
            line += f" (pool unavailable, ran serially x{self.pool_failures})"
        return line

    def __repr__(self):
        return f"RunReport({self.render()})"


def _delta(before, after):
    return {key: after[key] - before[key] for key in after}


class PointRunner:
    """Executes batches of run points with caching and optional workers."""

    def __init__(self, workers=1, cache=None, tracer=None, faults=None,
                 fault_seed=0, max_worker_retries=2, observer=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_worker_retries < 0:
            raise ValueError("max_worker_retries must be >= 0")
        self.workers = workers
        self.cache = cache
        #: harness-level fault plan (``worker_crash``/``worker_timeout``
        #: sites); the shared no-op twin when unset, so the fault-free
        #: dispatch path pays one constant-False call per worker chunk
        self.injector = FaultInjector(
            FaultPlan.parse(faults, seed=fault_seed)) if faults \
            else NULL_INJECTOR
        #: bounded retries per worker chunk before its points are
        #: requeued to the serial path
        self.max_worker_retries = max_worker_retries
        #: span tracer for the harness timeline: every executed run point
        #: becomes a span (parallel workers land on their own tracks) and
        #: every cache hit an instant marker.  Defaults to the no-op twin.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: optional :class:`RunObserver` receiving per-point lifecycle
        #: callbacks (per-point timing, golden summary digests)
        self.observer = observer
        self.report = RunReport()
        #: report delta for the most recent :meth:`run` call
        self.last_report = None
        #: telemetry blocks from every unique summary this runner has
        #: produced, folded into one registry (pool workers cannot share
        #: a live registry, so their summaries are merged on the way
        #: back; cached summaries merge the telemetry recorded when the
        #: entry was first computed)
        self.telemetry = MetricsRegistry()

    def run(self, points):
        """Execute ``points``; returns their summaries in input order."""
        points = list(points)
        before = self.report.snapshot()
        started = time.perf_counter()
        corrupt_before = self.cache.corrupt if self.cache is not None else 0

        # de-duplicate within the batch
        order = []            # unique points, first-seen order
        index_of = {}         # identity -> position in `order`
        slots = []            # for each input point: its unique index
        for point in points:
            identity = point.identity()
            if identity not in index_of:
                index_of[identity] = len(order)
                order.append(point)
            slots.append(index_of[identity])

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

        for summary in summaries:
            if "telemetry" in summary:
                merge_summary(self.telemetry, summary["telemetry"],
                              host=summary.get("telemetry_host"))

        self.report.requested += len(points)
        self.report.unique += len(order)
        if self.cache is not None:
            self.report.cache_corrupt += self.cache.corrupt - corrupt_before
        self.report.wall_seconds += time.perf_counter() - started
        self.last_report = _delta(before, self.report.snapshot())
        return [summaries[slot] for slot in slots]

    # -- execution strategies -------------------------------------------------

    def _execute_pending(self, order, summaries, pending):
        executed = None
        if self.workers > 1 and len(pending) > 1:
            executed = self._run_pool([order[i] for i in pending])
        if executed is None:
            executed = [None] * len(pending)
        # the serial path fills everything the pool didn't produce: the
        # whole batch when no pool ran, or the requeued points of workers
        # that exhausted their retries
        for slot, i in enumerate(pending):
            if executed[slot] is None:
                point = order[i]
                if self.observer is not None:
                    self.observer.on_point_start(point)
                with self.tracer.span(point.label(), cat="harness",
                                      kind=point.kind,
                                      budget=point.budget):
                    executed[slot] = execute_point(point)
        for index, summary in zip(pending, executed):
            summaries[index] = summary
            if self.observer is not None:
                self.observer.on_point_done(order[index], summary)
            self.report.executed += 1
            self.report.vm_seconds += summary.get("elapsed", 0.0)
            if self.cache is not None:
                self.cache.put(order[index], summary)

    def _run_pool(self, points):
        """Fan out over a process pool; returns None to run serially.

        Points are chunked round-robin so each worker receives *one*
        task covering its whole share of the batch: process startup,
        pickling and scheduling overhead is paid once per worker rather
        than once per point.  The worker count is clamped to the
        machine's cores — a pool wider than the machine (or any pool on
        a single-core machine) only adds overhead, which is how an
        earlier BENCH_harness.json ended up with four workers slower
        than serial.

        A chunk whose worker crashes or times out (fault injection) is
        retried up to ``max_worker_retries`` times; past that its points
        are requeued — returned as ``None`` holes that
        ``_execute_pending`` fills on the serial path, so an injected
        fault can delay results but never lose them.
        """
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        cores = os.cpu_count() or 1
        max_workers = min(self.workers, len(points), cores)
        if max_workers < 2:
            return None     # a 1-worker pool is pure overhead
        chunks = [points[i::max_workers] for i in range(max_workers)]
        chunk_results = [None] * len(chunks)
        try:
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                remaining = list(range(len(chunks)))
                attempts = [0] * len(chunks)
                while remaining:
                    futures = [
                        (worker, pool.submit(_execute_chunk, chunks[worker],
                                             self._worker_fault(worker)))
                        for worker in remaining]
                    retry = []
                    for worker, future in futures:
                        try:
                            chunk_results[worker] = future.result()
                        except (WorkerCrash, WorkerTimeout):
                            attempts[worker] += 1
                            if attempts[worker] > self.max_worker_retries:
                                self.report.worker_requeued += \
                                    len(chunks[worker])
                            else:
                                self.report.worker_retries += 1
                                retry.append(worker)
                    remaining = retry
        except (OSError, ImportError, PermissionError, BrokenProcessPool):
            self.report.pool_failures += 1
            return None
        summaries = [None] * len(points)
        good_chunks = []
        good_results = []
        for start, chunk_result in enumerate(chunk_results):
            if chunk_result is None:
                continue        # requeued: left for the serial path
            for offset, (summary, _t0, _t1) in enumerate(chunk_result):
                summaries[start + offset * max_workers] = summary
            good_chunks.append(chunks[start])
            good_results.append(chunk_result)
        self._note_pool_spans(good_chunks, good_results)
        return summaries

    def _worker_fault(self, worker):
        """Consult the harness fault plan before dispatching a chunk.

        Returns the failure mode the worker should simulate (``"crash"``
        / ``"timeout"``), or None on the (default) healthy path.
        """
        if self.injector.fire(FaultSite.WORKER_CRASH, worker=worker):
            return "crash"
        if self.injector.fire(FaultSite.WORKER_TIMEOUT, worker=worker):
            return "timeout"
        return None

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
            for point, (summary, started, ended) in zip(chunk, results):
                self.tracer.add_complete(
                    point.label(), started, ended, tid=tid,
                    args={"kind": point.kind, "budget": point.budget})
