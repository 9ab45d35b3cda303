"""One pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts one of these per pass, from the checkout root::

    python e2ebench/worker.py --src SRC --workload fig8 \\
        --programs gcc,mcf,twolf,vpr [--trace] [--setup-only]

The calibrated clock starts before anything else is imported, so the
pass's set-up time (interpreter start plus imports, up to the first run
point) is measured on it too.  Every run point executes serially with the
result cache off; the clock is sampled at each point boundary and the
point's interval is read in reference seconds.  Afterwards the experiment
rows and the architected results are checked against ``references.json``.
The last line of stdout is one JSON object describing the pass.
"""

import calib

CLOCK = calib.RefClock()
CLOCK.start()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="directory holding the repro package")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.EXPERIMENTS))
    parser.add_argument("--programs", required=True,
                        help="comma-separated guest programs")
    parser.add_argument("--trace", action="store_true",
                        help="record per-layer spans")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first run point")
    return parser.parse_args(argv)


#: Summary fields the checks and the end-to-end metrics read.
KEPT = ("kind", "workload", "halted", "state", "console", "committed")


class PointLog:
    """A ``repro.harness.parallel.RunObserver`` that times every run point
    between two clock samples and keeps what the checks read of its
    summary.

    ``PointRunner`` calls ``on_point_start`` right before executing a
    point; the first ``on_point_done`` after a batch follows the batch's
    last execution.  One sample serves as one point's end and the next
    point's start.  The rest of a summary is dropped when its point is
    done, so that the pass's peak resident set is the program's, not the
    benchmark's; ``figures``, unless None, extracts what the per-layer
    metrics read from a VM point's summary.
    """

    def __init__(self, clock, figures):
        self.clock = clock
        self.figures = figures
        self.experiment = None
        self.setup = None       # reference seconds at the first point
        self.points = []        # one dict per executed point, in order
        self._open = None
        self._done = 0

    def _boundary(self):
        ref = self.clock.sample()
        cpu = self.clock.cpu()
        if self._open is not None:
            point = self._open
            point["ref_s"] = ref - point.pop("ref_start")
            point["cpu_s"] = cpu - point.pop("cpu_start")
            self._open = None
        return ref, cpu

    def on_point_start(self, point):
        ref, cpu = self._boundary()
        if self.setup is None:
            self.setup = ref
        self._open = {"experiment": self.experiment,
                      "program": point.workload, "kind": point.kind,
                      "ref_start": ref, "cpu_start": cpu, "summary": None,
                      "error": None}
        self.points.append(self._open)

    def on_point_done(self, point, summary):
        if self._open is not None:
            self._boundary()
        kept = {key: summary.get(key) for key in KEPT}
        if self.figures is not None and summary["kind"] == "vm":
            kept["figures"] = self.figures(summary)
        self.points[self._done]["summary"] = kept
        self._done += 1

    def abort(self, message):
        """The pass raised: fail the open point, or else every point of
        the experiment whose table could not be built."""
        if self._open is not None:
            failed = [self._open]
            self._boundary()
        else:
            failed = [point for point in self.points
                      if point["experiment"] == self.experiment]
        for point in failed:
            point["error"] = message
        self._done = len(self.points)


def import_program(src):
    """Import the program's modules from ``src`` (set-up work)."""
    import repro

    location = Path(repro.__file__).resolve()
    if Path(src).resolve() not in location.parents:
        raise SystemExit(f"repro imported from {location}, not {src}")
    from repro.harness.parallel import PointRunner
    from repro.workloads import WORKLOAD_NAMES

    if tuple(WORKLOAD_NAMES) != workloads.PROGRAMS:
        raise SystemExit(f"guest programs changed: {WORKLOAD_NAMES}")
    return PointRunner


def run_pass(args, clock):
    PointRunner = import_program(args.src)
    modules = {name: importlib.import_module(
        f"repro.harness.experiments.{name}")
        for name in workloads.EXPERIMENTS[args.workload]}
    recorder = None
    figures = None
    if args.trace:
        import layers

        recorder = layers.SpanRecorder(clock)
        layers.install(recorder)
        figures = layers.vm_figures

    if args.setup_only:
        return {"setup_ref_s": clock.sample()}
    log = PointLog(clock, figures)
    runner = PointRunner(workers=1, cache=None, observer=log)
    programs = args.programs.split(",")
    results = {}
    errors = []
    try:
        for name, module in modules.items():
            log.experiment = name
            results[name] = module.run(workloads=programs,
                                       budget=workloads.BUDGET,
                                       runner=runner)
    except Exception:
        message = traceback.format_exc(limit=4)
        log.abort(message)
        errors.append(message)
    clock.stop()
    return summarize(args, log, results, errors, runner, recorder, programs)


def summarize(args, log, results, errors, runner, recorder, programs):
    references = workloads.load_references()
    # output checks: a mismatching row fails every point of its program
    # in that experiment; an "Avg." mismatch fails the whole experiment
    bad_rows = set()
    for name, result in results.items():
        for label, message in checks.row_mismatches(
                name, programs, result.rows(), references):
            bad_rows.add((name, label))
            errors.append(message)
    failed = 0
    for point in log.points:
        summary = point["summary"]
        problem = point["error"]
        if problem is None and summary is None:
            problem = "no summary"
        if problem is None and point["kind"] == "vm":
            problem = checks.arch_mismatch(summary, references)
            if problem is not None:
                errors.append(problem)
        key = point["experiment"]
        if (key, point["program"]) in bad_rows or (key, "Avg.") in \
                bad_rows or (key, "*") in bad_rows:
            problem = problem or "row mismatch"
        point["failed"] = problem is not None
        failed += point["failed"]
    if errors and not failed:
        failed = 1      # the pass raised before its first run point
    summaries = [p["summary"] for p in log.points if p["summary"]]
    ref_cpu_s = sum(p.get("ref_s", 0.0) for p in log.points)
    cpu_s = sum(p.get("cpu_s", 0.0) for p in log.points)
    committed = sum(s["committed"] for s in summaries)
    out = {
        "workload": args.workload,
        "programs": programs,
        "attempted": max(len(log.points), failed),
        "failed": failed,
        "errors": errors,
        "ref_cpu_s": ref_cpu_s,
        "cpu_s": cpu_s,
        "committed": committed,
        "setup_ref_s": log.setup,
        "peak_rss_kb": peak_rss_kb(),
        "calibration": {"samples": CLOCK.samples,
                        "mean_factor": ref_cpu_s / cpu_s if cpu_s else None,
                        "min_factor": CLOCK.min_factor,
                        "max_factor": CLOCK.max_factor},
        "points": [{"experiment": p["experiment"], "program": p["program"],
                    "kind": p["kind"], "ref_s": p.get("ref_s"),
                    "failed": p["failed"],
                    "committed": (p["summary"] or {}).get("committed")}
                   for p in log.points],
    }
    if recorder is not None:
        import layers

        factor = ref_cpu_s / cpu_s if cpu_s else 1.0
        out["layers"] = layers.layer_metrics(
            recorder, [s["figures"] for s in summaries if "figures" in s],
            runner.report, factor)
        out["spans"] = [span.to_json() for span in recorder.spans]
    return out


def peak_rss_kb():
    """This process's peak resident set in KiB.

    ``VmHWM`` belongs to the process image, so unlike ``ru_maxrss`` it
    does not inherit the spawning process's peak across ``exec``.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        result = run_pass(args, CLOCK)
    finally:
        CLOCK.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
