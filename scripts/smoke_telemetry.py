#!/usr/bin/env python
"""Smoke-test the always-on repro.obs telemetry.

Runs one workload under the default config and checks end to end that
its telemetry summary is JSON-able and carries the counters and gauge
per-layer benchmarks read, that the VM, translator and jit timers
recorded, and that the ``repro profile`` hot-fragment table reports each
fragment's ``execution_count`` (the run is deterministic, so the CLI's
own run matches this one).  Exits non-zero on any failure.

Usage: PYTHONPATH=src python scripts/smoke_telemetry.py [workload] [budget]
"""

import io
import json
import sys

from repro.cli import main as cli_main
from repro.harness.runner import run_vm
from repro.vm.config import VMConfig

#: Counters and gauge that per-layer benchmark tooling reads by name.
COUNTERS = ("exec.fragment_entries", "jit.promotions", "jit.deopts",
            "jit.compile_failures")
GAUGES = ("tcache.invalidations",)
TIMERS = ("phase.vm.interpret", "phase.vm.translated", "phase.vm.capture",
          "phase.translate.codegen", "jit.compile")


def main(argv):
    workload = argv[1] if len(argv) > 1 else "gzip"
    budget = int(argv[2]) if len(argv) > 2 else 200_000

    result = run_vm(workload, VMConfig(), budget=budget,
                    collect_trace=False)
    telemetry = result.vm.telemetry
    summary = json.loads(json.dumps(telemetry.summary()))
    timers = json.loads(json.dumps(telemetry.host_summary()))["timers"]

    failures = []
    for name in COUNTERS:
        if name not in summary["counters"]:
            failures.append(f"summary lacks counter {name}")
    for name in GAUGES:
        if name not in summary["gauges"]:
            failures.append(f"summary lacks gauge {name}")
    if not summary["counters"].get("exec.fragment_entries"):
        failures.append("no fragment entries counted")
    for name in TIMERS:
        if not timers.get(name, {}).get("count"):
            failures.append(f"timer {name} recorded nothing")

    fragments = {fragment.fid: fragment
                 for fragment in result.tcache.fragments}
    out = io.StringIO()
    cli_main(["profile", workload, "--budget", str(budget),
              "--top", str(len(fragments))], out=out)
    lines = out.getvalue().splitlines()
    start = next(index for index, line in enumerate(lines)
                 if line.startswith("hot fragments"))
    rows = [line.split() for line in lines[start + 2:] if line.strip()]
    if len(rows) != len(fragments):
        failures.append(f"profile table has {len(rows)} rows for "
                        f"{len(fragments)} live fragments")
    for row in rows:
        fid, execs = int(row[0]), int(row[2])
        fragment = fragments.get(fid)
        if fragment is None or fragment.execution_count != execs:
            failures.append(f"profile row for f{fid} reports {execs} "
                            f"executions")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1

    print(f"ok: telemetry on {workload} — "
          f"{summary['counters']['exec.fragment_entries']} fragment "
          f"entries, {summary['counters']['jit.promotions']} jit "
          f"promotions, {len(timers)} timers, {len(rows)} profile rows "
          f"matching execution counts")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
