"""The ``repro serve`` asyncio server.

Protocol: JSON objects, one per line, over a local unix stream socket.
Each request gets exactly one JSON-line response with an ``ok`` flag.
Operations (full field reference in ``docs/serving.md``):

``{"op": "ping"}``
    liveness check;
``{"op": "run", "workload": ..., "budget": ..., "scale": ...,
"config": {...}}``
    execute one VM run point and return its summary (``config`` holds
    ``VMConfig.to_dict``-style overrides on the default config);
``{"op": "stats"}``
    the server's request counters, the shared runner's report, merged
    telemetry counters, the accumulated ``persist.*`` totals, latency
    quantiles and streaming-hub accounting;
``{"op": "metrics"}``
    the whole metric surface as Prometheus text exposition;
``{"op": "subscribe", "kinds": [...], "events": [...]}``
    acknowledge, then turn the connection into a one-way stream of
    typed JSONL frames (see :mod:`repro.serve.streaming`) until the
    client disconnects or sends another line;
``{"op": "shutdown"}``
    acknowledge, then stop the server.

Scheduling: requests are deduplicated *at submission* — an identical
run point arriving while one is queued or executing joins the same
future (counted as ``dedup_joined``), so duplicates cost one VM run and
one response each.  A single batcher task drains the submission queue,
collecting up to ``max_batch`` points for ``batch_window`` seconds, and
hands each batch to ``PointRunner.run`` on the default executor — the
event loop keeps accepting requests while a batch computes, which is
what lets later duplicates join in-flight work.

Observability: every ``run`` request is assigned a **correlation id**
(``r1``, ``r2``, ...) that threads through the structured logs
(``--log-json``) and the ``lifecycle`` frames from accept through batch
dispatch to reply.  Request latencies land in fixed-bucket histograms
(queue wait / per-point run time / total turnaround), a periodic
snapshot task records the whole flat metric surface into a bounded
:class:`~repro.obs.timeseries.TimeSeriesRing` (and publishes each
snapshot with deltas, so subscribers compute rates), and a process-wide
event tap forwards VM telemetry events to subscribers live.  All of it
hangs off the subscription hub's bounded queues: slow consumers drop
frames, they never stall the batcher.
"""

import asyncio
import contextlib
import itertools
import json
import os
import time
from collections import Counter

from repro.harness.parallel import RunObserver
from repro.harness.runner import DEFAULT_BUDGET, add_run_hook, \
    remove_run_hook
from repro.harness.runpoints import RunPoint
from repro.obs.events import add_global_tap, remove_global_tap
from repro.obs.events import KNOWN_KINDS as KNOWN_EVENT_KINDS
from repro.obs.expo import render_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import DEFAULT_RING_CAPACITY, TimeSeriesRing, \
    flatten_registry
from repro.serve.streaming import DEFAULT_QUEUE_DEPTH, FrameKind, \
    KNOWN_FRAME_KINDS, SubscriptionHub
from repro.vm.config import VMConfig
from repro.workloads import WORKLOAD_NAMES

DEFAULT_BATCH_WINDOW = 0.05
DEFAULT_MAX_BATCH = 16
DEFAULT_SNAPSHOT_INTERVAL = 1.0

#: Latency histogram bucket upper bounds, in seconds.
LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                   0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

#: Hot-fragment entries a ``lifecycle/executed`` frame carries.
EXECUTED_FRAME_HOT_FRAGMENTS = 3


class _StreamObserver(RunObserver):
    """Forwards :class:`PointRunner` lifecycle callbacks (fired on the
    batch executor thread) onto the server's event loop as frames."""

    def __init__(self, server):
        self.server = server

    def on_cache_hit(self, point):
        self.server.publish_threadsafe(
            FrameKind.LIFECYCLE,
            {"phase": "point_cached", "workload": point.workload,
             "label": point.label()})

    def on_point_start(self, point):
        self.server.publish_threadsafe(
            FrameKind.LIFECYCLE,
            {"phase": "point_started", "workload": point.workload,
             "label": point.label()})


class FragmentServer:
    """One long-lived serving session around a shared PointRunner."""

    def __init__(self, runner, socket_path,
                 batch_window=DEFAULT_BATCH_WINDOW,
                 max_batch=DEFAULT_MAX_BATCH, out=None,
                 snapshot_interval=DEFAULT_SNAPSHOT_INTERVAL,
                 queue_depth=DEFAULT_QUEUE_DEPTH,
                 ring_capacity=DEFAULT_RING_CAPACITY,
                 log_json=False):
        if batch_window < 0:
            raise ValueError("batch window must be >= 0")
        if max_batch < 1:
            raise ValueError("max batch must be >= 1")
        if snapshot_interval <= 0:
            raise ValueError("snapshot interval must be > 0")
        self.runner = runner
        self.socket_path = str(socket_path)
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.snapshot_interval = snapshot_interval
        self.out = out
        self.log_json = log_json
        #: request/op counters plus scheduling counters (dedup_joined,
        #: batches, runs_completed, run_failures, bad_requests) and
        #: per-workload ``workload.<name>`` totals
        self.counters = Counter()
        #: PersistStats totals accumulated across every run summary
        self.persist_totals = Counter()
        #: server-side request metrics: latency histograms and gauges
        self.metrics = MetricsRegistry()
        #: the streaming fan-out point (see repro.serve.streaming)
        self.hub = SubscriptionHub(queue_depth)
        #: periodic metric snapshots, for rates over any recent window
        self.ring = TimeSeriesRing(ring_capacity)
        self._cids = itertools.count(1)
        self._inflight = {}     # point identity -> (future, primary cid)
        self._queue = None
        self._stop = None
        self._loop = None
        #: union of live subscribers' event-kind filters — consulted by
        #: the (hot) tap before paying a cross-thread hand-off
        self._tap_kinds = frozenset()

    # -- lifecycle -------------------------------------------------------

    async def serve(self):
        """Accept requests until a ``shutdown`` request arrives."""
        self._queue = asyncio.Queue()
        self._stop = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        self.runner.observer = _StreamObserver(self)
        tap = self._event_tap
        add_global_tap(tap)
        add_run_hook(self._run_hook)
        batcher = asyncio.ensure_future(self._batcher())
        snapshots = asyncio.ensure_future(self._snapshot_loop())
        server = await asyncio.start_unix_server(self._handle,
                                                 path=self.socket_path)
        self._say(f"serving on {self.socket_path}", event="serving",
                  socket=self.socket_path)
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in (batcher, snapshots):
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
            remove_global_tap(tap)
            remove_run_hook(self._run_hook)
            self.runner.observer = None
            self.hub.close_all()
            self._loop = None
            # asyncio removes a pre-existing socket file before binding
            # but leaves ours behind on close; unlink it so a stopped
            # server does not look like a stale one to the next client.
            with contextlib.suppress(OSError):
                os.unlink(self.socket_path)
            self._say(f"served {self.counters['requests']} requests "
                      f"({self.counters['runs_completed']} runs, "
                      f"{self.counters['dedup_joined']} dedup joins, "
                      f"{self.counters['batches']} batches, "
                      f"{self.hub.published} frames to "
                      f"{self.hub.connected_total} subscribers)",
                      event="stopped",
                      requests=self.counters["requests"],
                      frames=self.hub.published)

    def _say(self, message, event="log", **fields):
        if self.log_json:
            self._log(event, msg=message, **fields)
        else:
            print(message, file=self.out, flush=True)

    def _log(self, event, **fields):
        """One structured JSON log line (``--log-json`` mode only)."""
        if not self.log_json:
            return
        record = {"ts": round(time.time(), 6), "event": event}
        record.update(fields)
        print(json.dumps(record, sort_keys=True), file=self.out,
              flush=True)

    # -- streaming taps --------------------------------------------------

    def publish_threadsafe(self, kind, data):
        """Publish one frame from any thread (no-op once the loop is
        gone or nobody subscribed)."""
        loop = self._loop
        if loop is None or not len(self.hub):
            return
        try:
            loop.call_soon_threadsafe(self.hub.publish, kind, data,
                                      time.time())
        except RuntimeError:
            pass        # loop already closed mid-shutdown

    def _event_tap(self, event):
        """The process-global telemetry tap (runs on the VM's thread)."""
        if event.kind in self._tap_kinds:
            self.publish_threadsafe(
                FrameKind.EVENT,
                {"kind": event.kind, "seq": event.seq,
                 "data": dict(event.data)})

    def _run_hook(self, phase, workload, info):
        """The run-lifecycle hook (runs on the VM's thread)."""
        data = {"phase": phase, "workload": workload}
        data.update(info)
        self.publish_threadsafe(FrameKind.LIFECYCLE, data)

    def _retune_tap(self):
        """Recompute the union event-kind filter after (un)subscribes."""
        self._tap_kinds = self.hub.event_kind_union()

    def _lifecycle(self, phase, data):
        """Publish one lifecycle frame from the loop thread."""
        payload = {"phase": phase}
        payload.update(data)
        self.hub.publish(FrameKind.LIFECYCLE, payload, time.time())

    # -- connection handling ---------------------------------------------

    async def _handle(self, reader, writer):
        try:
            pending_line = None
            while True:
                line = pending_line if pending_line is not None \
                    else await reader.readline()
                pending_line = None
                if not line:
                    break
                response, subscriber = await self._dispatch(line)
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
                if subscriber is not None:
                    # the connection is now a frame stream; any line the
                    # client sends ends the subscription and is handled
                    # as its next request
                    pending_line = await self._stream(subscriber, reader,
                                                      writer)
                    if not pending_line:
                        break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _stream(self, subscriber, reader, writer):
        """Pump a subscriber's frames down one connection.

        Returns the line that ended the subscription (the client's next
        request), or falsy when the client disconnected / the server is
        closing the stream.
        """
        eof = asyncio.ensure_future(reader.readline())
        next_line = b""
        try:
            while True:
                get = asyncio.ensure_future(subscriber.queue.get())
                done, _pending = await asyncio.wait(
                    {get, eof}, return_when=asyncio.FIRST_COMPLETED)
                if get in done:
                    frame = get.result()
                    if frame is None:       # server-side close
                        break
                    writer.write(
                        json.dumps(frame.to_json()).encode("utf-8") +
                        b"\n")
                    await writer.drain()
                else:
                    get.cancel()
                if eof in done:
                    next_line = eof.result()
                    break
        finally:
            if not eof.done():
                eof.cancel()
            self.hub.unsubscribe(subscriber)
            self._retune_tap()
            self._log("unsubscribed", id=subscriber.sid,
                      sent=subscriber.sent, dropped=subscriber.dropped)
        return next_line

    async def _dispatch(self, line):
        """One request line -> ``(response, subscriber-or-None)``."""
        self.counters["requests"] += 1
        try:
            request = json.loads(line)
        except ValueError:
            self.counters["bad_requests"] += 1
            return {"ok": False, "error": "malformed JSON request"}, None
        if not isinstance(request, dict):
            self.counters["bad_requests"] += 1
            return {"ok": False,
                    "error": "request must be a JSON object"}, None
        op = request.get("op")
        self.counters[f"op.{op}"] += 1
        if op == "ping":
            return {"ok": True, "op": "ping"}, None
        if op == "stats":
            return self._stats(), None
        if op == "metrics":
            return {"ok": True, "op": "metrics",
                    "text": self.exposition()}, None
        if op == "subscribe":
            return self._subscribe(request)
        if op == "shutdown":
            # answer first, then stop: the response must reach the
            # client before the loop tears the transport down
            asyncio.get_running_loop().call_later(0.05, self._stop.set)
            return {"ok": True, "op": "shutdown"}, None
        if op == "run":
            return await self._run(request), None
        self.counters["bad_requests"] += 1
        return {"ok": False, "error": f"unknown op {op!r}"}, None

    def _subscribe(self, request):
        """Register a subscriber; the caller switches to streaming."""
        kinds = request.get("kinds")
        event_kinds = request.get("events")
        if event_kinds is not None:
            unknown = set(event_kinds) - KNOWN_EVENT_KINDS
            if unknown:
                self.counters["bad_requests"] += 1
                return {"ok": False, "error": f"unknown event kinds "
                                              f"{sorted(unknown)}"}, None
        try:
            subscriber = self.hub.subscribe(kinds=kinds,
                                            event_kinds=event_kinds)
        except (ValueError, TypeError) as exc:
            self.counters["bad_requests"] += 1
            return {"ok": False, "error": str(exc)}, None
        self._retune_tap()
        self.counters["subscriptions"] += 1
        self._log("subscribed", id=subscriber.sid,
                  kinds=sorted(subscriber.kinds) if subscriber.kinds
                  else None)
        self.hub.direct(subscriber, FrameKind.HELLO, {
            "id": subscriber.sid,
            "queue_depth": self.hub.queue_depth,
            "snapshot_interval": self.snapshot_interval,
            "kinds": sorted(subscriber.kinds) if subscriber.kinds
            else sorted(KNOWN_FRAME_KINDS),
            "event_kinds": sorted(subscriber.event_kinds),
        }, time.time())
        return {"ok": True, "op": "subscribe",
                "id": subscriber.sid}, subscriber

    def _stats(self):
        latency = {}
        for name, histogram in sorted(self.metrics.histograms.items()):
            quantiles = histogram.quantiles()
            latency[name] = {
                "count": histogram.total,
                "p50": quantiles[0.5], "p90": quantiles[0.9],
                "p99": quantiles[0.99],
            }
        return {
            "ok": True,
            "op": "stats",
            "requests": dict(self.counters),
            "inflight": len(self._inflight),
            "report": self.runner.report.snapshot(),
            "persist": dict(self.persist_totals),
            "telemetry": self.runner.telemetry.to_dict()["counters"],
            "latency": latency,
            "streaming": self.hub.stats(),
            "snapshots": {"recorded": self.ring.recorded,
                          "held": len(self.ring),
                          "interval": self.snapshot_interval},
        }

    # -- metric snapshots ------------------------------------------------

    def snapshot_values(self):
        """The whole metric surface flattened to ``{name: number}``."""
        values = {}
        for name, value in self.counters.items():
            values[f"serve.{name}"] = value
        for name, value in self.persist_totals.items():
            values[f"persist.{name}"] = value
        for name, value in self.runner.report.snapshot().items():
            values[f"runner.{name}"] = value
        values["serve.inflight"] = len(self._inflight)
        hub = self.hub.stats()
        values["stream.subscribers"] = hub["subscribers"]
        values["stream.frames_published"] = hub["frames_published"]
        values["stream.frames_dropped"] = hub["frames_dropped"]
        values.update(flatten_registry(self.runner.telemetry.to_dict()))
        values.update(flatten_registry(self.metrics.to_dict()))
        return values

    def record_snapshot(self):
        """Record one snapshot into the ring and publish it with deltas
        (so a subscriber computes rates without holding history)."""
        ts = time.time()
        snapshot = self.ring.record(self.snapshot_values(), ts)
        deltas, elapsed = self.ring.delta()
        self.hub.publish(FrameKind.SNAPSHOT, {
            "seq": snapshot.seq,
            "interval": round(elapsed, 6),
            "values": snapshot.values,
            "deltas": deltas,
            "latency": {name: {"bounds": list(histogram.bounds),
                               "counts": list(histogram.counts),
                               "total": histogram.total}
                        for name, histogram
                        in self.metrics.histograms.items()},
        }, ts)
        return snapshot

    async def _snapshot_loop(self):
        while True:
            await asyncio.sleep(self.snapshot_interval)
            self.record_snapshot()

    def exposition(self):
        """Prometheus text exposition of the whole metric surface."""
        registry = MetricsRegistry()
        registry.merge(self.runner.telemetry)
        registry.merge(self.metrics)
        for name, value in self.counters.items():
            registry.counter(f"serve.{name}").inc(value)
        for name, value in self.persist_totals.items():
            registry.counter(f"persist.{name}").inc(value)
        for name, value in self.runner.report.snapshot().items():
            registry.counter(f"runner.{name}").inc(value)
        hub = self.hub.stats()
        registry.gauge("stream.subscribers").set(hub["subscribers"])
        registry.counter("stream.connected").inc(hub["connected_total"])
        registry.counter("stream.frames_published").inc(
            hub["frames_published"])
        registry.counter("stream.frames_dropped").inc(
            hub["frames_dropped"])
        registry.gauge("serve.inflight").set(len(self._inflight))
        return render_prometheus(registry)

    # -- run dispatch ----------------------------------------------------

    def _point_from(self, request):
        workload = request.get("workload")
        if workload not in WORKLOAD_NAMES:
            raise ValueError(f"unknown workload {workload!r}")
        fields = VMConfig().to_dict()
        overrides = request.get("config") or {}
        unknown = set(overrides) - set(fields)
        if unknown:
            raise ValueError(
                f"unknown config fields {sorted(unknown)}")
        fields.update(overrides)
        config = VMConfig.from_dict(fields)
        budget = request.get("budget", DEFAULT_BUDGET)
        if not isinstance(budget, int) or budget < 1:
            raise ValueError("budget must be a positive integer")
        return RunPoint.vm(workload, config=config,
                           scale=request.get("scale"), budget=budget)

    async def _run(self, request):
        loop = asyncio.get_running_loop()
        cid = f"r{next(self._cids)}"
        accepted = loop.time()
        try:
            point = self._point_from(request)
        except (ValueError, TypeError) as exc:
            self.counters["bad_requests"] += 1
            self._lifecycle("failed", {"cid": cid, "error": str(exc)})
            return {"ok": False, "cid": cid, "error": str(exc)}
        self.counters[f"workload.{point.workload}"] += 1
        self._lifecycle("accepted", {"cid": cid,
                                     "workload": point.workload,
                                     "budget": point.budget,
                                     "label": point.label()})
        self._log("request", cid=cid, op="run", workload=point.workload,
                  budget=point.budget)
        try:
            summary = await self._submit(point, cid, accepted)
        except Exception as exc:   # surface run failures as responses
            self.counters["run_failures"] += 1
            error = f"{type(exc).__name__}: {exc}"
            self._lifecycle("failed", {"cid": cid,
                                       "workload": point.workload,
                                       "error": error})
            self._log("run_failed", cid=cid, workload=point.workload,
                      error=error)
            return {"ok": False, "op": "run", "cid": cid, "error": error}
        total = loop.time() - accepted
        self.metrics.histogram("serve.total_seconds",
                               LATENCY_BUCKETS).observe(total)
        self.counters["runs_completed"] += 1
        self._lifecycle("completed", {
            "cid": cid, "workload": point.workload,
            "total_seconds": round(total, 6),
            "committed": summary.get("committed"),
            "halted": summary.get("halted")})
        self._log("run_completed", cid=cid, workload=point.workload,
                  seconds=round(total, 6))
        return {"ok": True, "op": "run", "cid": cid, "summary": summary}

    async def _submit(self, point, cid, accepted):
        """Submission-time dedup: join in-flight identical work."""
        identity = point.identity()
        inflight = self._inflight.get(identity)
        if inflight is not None:
            future, primary = inflight
            self.counters["dedup_joined"] += 1
            self._lifecycle("joined", {"cid": cid, "primary": primary,
                                       "workload": point.workload})
            self._log("dedup_joined", cid=cid, primary=primary)
            return await future
        future = asyncio.get_running_loop().create_future()
        self._inflight[identity] = (future, cid)
        await self._queue.put((point, future, cid, accepted))
        return await future

    async def _batcher(self):
        """The single consumer of the submission queue.

        Being the only task that calls ``runner.run`` serialises batches
        without a lock; batching itself is a wall-clock window, so one
        straggler cannot hold the whole queue hostage past it.
        """
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            deadline = loop.time() + self.batch_window
            while len(batch) < self.max_batch:
                timeout = deadline - loop.time()
                if timeout <= 0:
                    break
                try:
                    batch.append(await asyncio.wait_for(
                        self._queue.get(), timeout))
                except asyncio.TimeoutError:
                    break
            self.counters["batches"] += 1
            dispatched = loop.time()
            queue_wait = self.metrics.histogram("serve.queue_wait_seconds",
                                                LATENCY_BUCKETS)
            for _point, _future, cid, accepted in batch:
                queue_wait.observe(dispatched - accepted)
            self._log("batch", size=len(batch),
                      cids=[cid for _p, _f, cid, _a in batch])
            points = [point for point, _future, _cid, _accepted in batch]
            try:
                summaries = await loop.run_in_executor(
                    None, self.runner.run, points)
            except Exception as exc:
                for point, future, _cid, _accepted in batch:
                    self._inflight.pop(point.identity(), None)
                    if not future.done():
                        future.set_exception(exc)
                continue
            run_seconds = self.metrics.histogram("serve.run_seconds",
                                                 LATENCY_BUCKETS)
            for (point, future, cid, accepted), summary in zip(batch,
                                                               summaries):
                self._inflight.pop(point.identity(), None)
                self._note_persist(summary)
                run_seconds.observe(summary.get("elapsed", 0.0))
                self._lifecycle("executed", self._executed_record(
                    point, summary, cid,
                    queue_wait_seconds=round(dispatched - accepted, 6)))
                if not future.done():
                    future.set_result(summary)

    def _executed_record(self, point, summary, cid, queue_wait_seconds):
        """The ``lifecycle/executed`` frame payload for one run point:
        latencies plus the run highlights a dashboard wants (hot
        fragments, jit promotions, persist activity, faults)."""
        telemetry = summary.get("telemetry") or {}
        counters = telemetry.get("counters", {})
        record = {
            "cid": cid,
            "workload": point.workload,
            "label": point.label(),
            "queue_wait_seconds": queue_wait_seconds,
            "run_seconds": round(summary.get("elapsed", 0.0), 6),
            "committed": summary.get("committed"),
            "jit_promotions": counters.get("jit.promotions", 0),
            "hot_fragments": [
                {"fid": record["fid"], "entry_vpc": record["entry_vpc"],
                 "entries": record["entries"]}
                for record in telemetry.get(
                    "hot_fragments", [])[:EXECUTED_FRAME_HOT_FRAGMENTS]],
        }
        persist = (summary.get("telemetry_host") or {}).get("persist")
        if persist:
            record["persist"] = {name: value
                                 for name, value in persist.items()
                                 if value}
        faults = {name: value
                  for name, value in (summary.get("resilience")
                                      or {}).items() if value}
        if faults:
            record["faults"] = faults
        return record

    def _note_persist(self, summary):
        persist = summary.get("telemetry_host", {}).get("persist")
        if persist:
            for name, value in persist.items():
                self.persist_totals[name] += value

    def __repr__(self):
        return (f"FragmentServer({self.socket_path!r}, "
                f"window={self.batch_window}, "
                f"max_batch={self.max_batch})")
