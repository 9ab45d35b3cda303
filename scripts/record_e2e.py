"""Record the end-to-end benchmark (``e2ebench/``) as one gateable file.

Run from anywhere; it runs in the checkout that holds it::

    python3 scripts/record_e2e.py                      # BENCH_e2e.json
    python3 scripts/record_e2e.py --output /tmp/fresh.json

It runs ``python3 e2ebench/run.py`` at seed 0 for fig8, fig9 and
untraced with ``--trace 0`` (end-to-end metrics, each for
BENCHMARK.json's ``run_seconds``) and for fig8 and fig9 with ``--trace 1``
(per-layer metrics, one pass).  The record holds the seed, the host's
``machine_metadata()``, each run's ``attempted``, ``failed`` and
``metrics`` as e2ebench reports them, and BENCHMARK.json's
``end_to_end`` rules.  ``repro bench-compare BENCH_e2e.json <fresh>``
gates a fresh record by those rules (see :mod:`repro.obs.regress`).
Takes about four minutes.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.regress import E2E_BENCHMARK, machine_metadata  # noqa: E402

#: The seed that draws fig8's and fig9's programs in every record.
SEED = 0
#: (label, workload, --trace) of every e2ebench run a record holds
RUNS = (
    ("fig8", "fig8", 0),
    ("fig9", "fig9", 0),
    ("untraced", "untraced", 0),
    ("fig8-trace", "fig8", 1),
    ("fig9-trace", "fig9", 1),
)


def run_e2ebench(workload, trace, seconds):
    """One ``e2ebench/run.py`` run; returns its JSON result."""
    command = [sys.executable, "e2ebench/run.py", "--workload", workload,
               "--seed", str(SEED), "--trace", str(trace),
               "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{' '.join(command)} exited {done.returncode} "
                         f"without a result: {done.stderr.strip()[-2000:]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--output", default=str(ROOT / "BENCH_e2e.json"),
                        help="where to write the record")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"benchmark": E2E_BENCHMARK, "seed": SEED,
              "machine": machine_metadata(),
              "end_to_end": spec["end_to_end"],
              "runs": {}}
    for label, workload, trace in RUNS:
        result = run_e2ebench(workload, trace, spec["run_seconds"])
        record["runs"][label] = {key: result[key] for key in
                                 ("attempted", "failed", "metrics")}
        print(f"{label}: {result['attempted']} attempted, "
              f"{result['failed']} failed", flush=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"record written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
