"""End-to-end benchmark of the co-designed VM's experiments.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload fig8 --seed 1 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` and ``e2ebench/README.md``):

* ``fig8``      Fig. 8 over four seeded programs (traced VM, original-ISA
                interpreter, superscalar and ILDP models);
* ``fig9``      Fig. 9 over the same four programs (ILDP model sweep);
* ``untraced``  fig5 + fig7 + table2 + overhead over all twelve programs
                (untraced VM through interpret, translate and the jit).

With ``--trace 0`` the run repeats whole passes of the workload, each in a
fresh interpreter (``worker.py``), until ``--seconds`` is used up, and
reports medians over passes:

* ``ref_cpu_s``    summed CPU seconds of the run points, rescaled to a
                   reference-speed host (``calib.py``);
* ``kips``         committed V-ISA instructions / ``ref_cpu_s`` / 1000;
* ``setup_s``      calibrated interpreter start plus imports, up to the
                   first run point (median of every pass and
                   ``SETUP_SAMPLES`` extra start-ups);
* ``peak_rss_mb``  peak resident set of the measuring process.

With ``--trace 1`` it runs one plain pass and one pass with per-layer spans
(``layers.py``), and reports every per-layer metric plus the tracing
overhead.  Every run point is one operation; a point that raises or whose
output differs from ``references.json`` fails, and the exit code is then 1.
The last line of stdout is the JSON result.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Extra fresh start-ups timed per run for ``setup_s``.
SETUP_SAMPLES = 5
#: A pass that runs longer than this is killed and counted as failed.
PASS_TIMEOUT_S = 150


class PassFailed(Exception):
    """A worker process exited abnormally."""


def run_worker(root, workload, programs, trace=False, setup_only=False):
    """Run one ``worker.py`` pass; returns its JSON result."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--src", str(root / "src"), "--workload", workload,
               "--programs", ",".join(programs)]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    try:
        done = subprocess.run(command, cwd=root, env=env,
                              capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass timed out after {exc.timeout}s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise PassFailed(f"worker exited {done.returncode}: "
                         f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def build(root):
    """Byte-compile the program and the benchmark, so every start-up
    reads cached bytecode (the state a user's installed copy is in)."""
    for directory in (root / "src", HERE):
        if not compileall.compile_dir(str(directory), quiet=1):
            raise PassFailed(f"cannot compile {directory}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _num(value):
    """``value`` to 3 decimals, or "-" for a figure a failed pass lacks."""
    return "-" if value is None else f"{value:.3f}"


def describe(index, result):
    cal = result["calibration"]
    print(f"pass {index}: ref_cpu_s {_num(result['ref_cpu_s'])} "
          f"(cpu {_num(result['cpu_s'])} s, calibration factor "
          f"{_num(cal['mean_factor'])}, min {_num(cal['min_factor'])}, "
          f"max {_num(cal['max_factor'])}, {cal['samples']} samples), "
          f"setup {_num(result['setup_ref_s'])} s, "
          f"peak rss {result['peak_rss_kb'] / 1024:.1f} MB, "
          f"{result['failed']}/{result['attempted']} failed", flush=True)
    for error in result["errors"]:
        print(f"  error: {error.strip()}", flush=True)


def outcome(passes, crashed, metrics):
    """The JSON result; a crashed worker counts as one failed operation."""
    failed = sum(r["failed"] for r in passes) + crashed
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in passes) + crashed,
            "failed": failed, "metrics": metrics or {}}


def measure(root, workload, programs, seconds):
    """Passes until ``seconds`` are used; returns the end-to-end result."""
    setups = []
    passes = []
    try:
        for _ in range(SETUP_SAMPLES):
            setups.append(run_worker(root, workload, programs,
                                     setup_only=True)["setup_ref_s"])
        started = time.perf_counter()
        while True:
            passes.append(run_worker(root, workload, programs))
            describe(len(passes), passes[-1])
            elapsed = time.perf_counter() - started
            if passes[-1]["failed"] or \
                    elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    except PassFailed as exc:
        print(f"error: {exc}", flush=True)
        return outcome(passes, 1, None)
    if passes[-1]["failed"]:
        return outcome(passes, 0, None)
    setups += [r["setup_ref_s"] for r in passes]
    return outcome(passes, 0, {
        "ref_cpu_s": _metric(statistics.median(
            r["ref_cpu_s"] for r in passes), "s"),
        "kips": _metric(statistics.median(
            r["committed"] / r["ref_cpu_s"] / 1000 for r in passes),
            "kinsn/s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(statistics.median(
            r["peak_rss_kb"] / 1024 for r in passes), "MB"),
    })


#: The per-layer self times; together they cover every traced
#: ``PointRunner.run`` call.
SELF_TIMES = ("harness.s", "asm.s", "interp.s", "vm.s", "translator.s",
              "uarch.ildp_s", "uarch.superscalar_s")


def _layer_unit(name):
    """Unit of a per-layer metric ``layers.layer_metrics`` returns."""
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def trace(root, workload, programs, out_dir):
    """One plain and one traced pass; returns the per-layer result."""
    passes = []
    try:
        for traced in (False, True):
            passes.append(run_worker(root, workload, programs,
                                     trace=traced))
            describe(len(passes), passes[-1])
    except PassFailed as exc:
        print(f"error: {exc}", flush=True)
        return outcome(passes, 1, None)
    plain, traced = passes
    if plain["failed"] or traced["failed"]:
        return outcome(passes, 0, None)
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_file = out_dir / f"spans-{workload}.json"
    with open(spans_file, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "programs": programs,
                   "spans": traced["spans"]}, handle)
    print(f"spans written to {spans_file.relative_to(root)}")
    layers = traced["layers"]
    self_times = {name: layers[name] for name in SELF_TIMES}
    total = sum(self_times.values())
    for name, seconds in self_times.items():
        print(f"  {name:20s} {seconds:8.3f} s  {100 * seconds / total:5.1f}%")
    metrics = {name: _metric(value, _layer_unit(name))
               for name, value in layers.items()}
    metrics["trace.ref_cpu_s"] = _metric(traced["ref_cpu_s"], "s")
    metrics["trace.untraced_ref_cpu_s"] = _metric(plain["ref_cpu_s"], "s")
    metrics["trace.overhead_s"] = _metric(
        traced["ref_cpu_s"] - plain["ref_cpu_s"], "s")
    return outcome(passes, 0, metrics)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the co-designed VM's "
                    "experiments.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.EXPERIMENTS))
    parser.add_argument("--seed", type=int, default=0,
                        help="draws fig8/fig9's four programs")
    parser.add_argument("--seconds", type=float, default=40,
                        help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer traced run")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    try:
        build(root)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    programs = workloads.programs_for(args.workload, args.seed,
                                      workloads.load_references())
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{', '.join(programs)}", flush=True)
    if args.trace:
        result = trace(root, args.workload, programs,
                       root / ".e2ebench")
    else:
        result = measure(root, args.workload, programs, args.seconds)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"run points: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
