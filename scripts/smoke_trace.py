#!/usr/bin/env python
"""Smoke-test span tracing end to end.

Runs one workload with ``VMConfig.trace`` on and checks the acceptance
properties: the export passes the Chrome trace-event schema check and
survives a JSON round-trip, the run-loop phases all produced spans, the
nesting chain ``vm.run ⊃ vm.capture ⊃ translate ⊃ translate.codegen``
holds positionally, the flame summary renders, and — against a second
tracing-off run — ``VMStats`` and the architected state are
bit-identical (the no-op parity contract).  Then it traces fig9 on gcc
through a 2-worker pool and checks that every run span sits on a
``worker-N`` track with its ``eval.ildp_ipc`` spans inside it (the
runner's own track when no pool can be started).  Exits non-zero on
any failure.

Usage: PYTHONPATH=src python scripts/smoke_trace.py [workload] [budget]
"""

import json
import sys

from repro.harness.experiments import fig9
from repro.harness.parallel import PointRunner
from repro.harness.runner import run_vm
from repro.obs.trace import Tracer, span_contains, validate_chrome_trace
from repro.vm.config import VMConfig


def check_pooled_spans(failures):
    """Trace fig9 on gcc with two pool workers; returns a summary line."""
    tracer = Tracer()
    runner = PointRunner(workers=2, tracer=tracer)
    fig9.run(workloads=["gcc"], budget=5_000, runner=runner)
    doc = json.loads(json.dumps(tracer.to_chrome()))
    try:
        completes = validate_chrome_trace(doc)
    except ValueError as exc:
        failures.append(f"pooled export failed schema validation: {exc}")
        return ""
    tracks = {event["tid"]: event["args"]["name"]
              for event in doc["traceEvents"]
              if event["ph"] == "M" and event["name"] == "thread_name"}
    runs = [event for event in completes
            if event["name"].startswith("gcc (")]
    evals = [event for event in completes
             if event["name"] == "eval.ildp_ipc"]
    if not runs or not evals:
        failures.append("pooled fig9 recorded no run or eval spans")
    pooled = not runner.report.pool_failures
    for run in runs:
        track = tracks.get(run["tid"], "")
        if pooled and not track.startswith("worker-"):
            failures.append(f"pooled run {run['name']!r} on track "
                            f"{run['tid']} ({track!r}), not a worker's")
        if not pooled and run["tid"] != tracer.tid:
            failures.append(f"serial run {run['name']!r} off the "
                            f"runner's track")
    for evaluation in evals:
        if sum(span_contains(run, evaluation) for run in runs) != 1:
            failures.append(f"eval span at {evaluation['ts']:.0f}us on "
                            f"track {evaluation['tid']} is not inside "
                            f"exactly one run span")
    where = "worker tracks" if pooled else \
        "the runner's track (pool unavailable, ran serially)"
    return (f"{len(runs)} fig9 runs on {where}, each "
            f"eval.ildp_ipc span inside its run")


def main(argv):
    workload = argv[1] if len(argv) > 1 else "gzip"
    budget = int(argv[2]) if len(argv) > 2 else 100_000

    on = run_vm(workload, VMConfig(trace=True), budget=budget,
                collect_trace=False)
    off = run_vm(workload, VMConfig(), budget=budget, collect_trace=False)
    tracer = on.vm.tracer

    failures = []
    if not tracer.enabled:
        failures.append("tracer is the null object")

    doc = json.loads(json.dumps(tracer.to_chrome()))
    try:
        completes = validate_chrome_trace(doc)
    except ValueError as exc:
        failures.append(f"export failed schema validation: {exc}")
        completes = []

    by_name = {}
    for event in completes:
        by_name.setdefault(event["name"], []).append(event)
    for name in ("vm.run", "vm.interpret", "vm.capture", "vm.translated",
                 "translate", "translate.codegen"):
        if name not in by_name:
            failures.append(f"no {name} spans recorded")

    if not failures:
        run = by_name["vm.run"][0]
        capture = by_name["vm.capture"][0]
        translate = by_name["translate"][0]
        codegen = by_name["translate.codegen"][0]
        if not span_contains(run, capture):
            failures.append("vm.capture not nested inside vm.run")
        if not span_contains(capture, translate):
            failures.append("translate not nested inside vm.capture")
        if not span_contains(translate, codegen):
            failures.append("translate.codegen not nested inside "
                            "translate")

    flame = tracer.flame_lines()
    if len(flame) < 2:
        failures.append("flame summary is empty")

    if vars(on.stats) != vars(off.stats):
        failures.append("VMStats differ between tracing on and off")
    if on.vm.state.regs != off.vm.state.regs or \
            on.vm.state.pc != off.vm.state.pc:
        failures.append("architected state differs between tracing "
                        "on and off")

    pooled = check_pooled_spans(failures)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1

    print(f"ok: traced {workload} — {len(completes)} spans "
          f"({tracer.dropped} dropped), nesting "
          f"vm.run > vm.capture > translate > translate.codegen holds, "
          f"stats identical with tracing off")
    print(f"ok: {pooled}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
