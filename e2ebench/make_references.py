"""Regenerate ``references.json``: expected rows, architected results and
the balanced program sets the seed draws from.

Run from the root of a checkout, on the commit whose outputs are the
reference::

    PYTHONPATH=src python3 e2ebench/make_references.py

It recomputes ``rows`` and ``arch`` and keeps the existing file's
``costs`` and ``draws``, so that every seed keeps drawing the same
programs.  Without a file, or when the budget changed, it measures them
too, which takes about fifteen minutes.

* ``rows``: every experiment a workload runs, over all twelve programs,
  as ``rows[experiment][program]`` (a row as the experiment returns it);
* ``arch``: each program's architected result under the original-ISA
  interpreter at the benchmark's budget (halted, pc, regs, console);
* ``costs``: per program and drawn workload, the median reference CPU
  seconds over ``COST_PASSES`` passes and the committed V-instructions;
* ``draws``: the four-program sets the seed chooses among, with their
  measured peak resident set (see :func:`balanced_draws`).
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Passes whose per-program costs are medianed.
COST_PASSES = 3
#: A drawn set's summed cost, and its instructions per cost, lie within
#: this share of the mean over all four-program sets ...
WORK_TOLERANCE = 0.03
#: ... and its peak resident set within this share of the other drawn
#: sets', on fig8 and on fig9.
RSS_TOLERANCE = 0.02
DRAW_SIZE = 4


def reference_rows():
    import importlib

    from repro.harness.parallel import PointRunner

    rows = {}
    for experiments in workloads.EXPERIMENTS.values():
        for name in experiments:
            module = importlib.import_module(
                f"repro.harness.experiments.{name}")
            result = module.run(workloads=list(workloads.PROGRAMS),
                                budget=workloads.BUDGET,
                                runner=PointRunner(workers=1, cache=None))
            rows[name] = {row[0]: row for row in result.rows()
                          if row[0] in workloads.PROGRAMS}
            print(f"rows: {name}", flush=True)
    return rows


def reference_arch():
    from repro.interp.interpreter import Interpreter
    from repro.workloads import get_workload

    arch = {}
    for name in workloads.PROGRAMS:
        interpreter = Interpreter(get_workload(name).program())
        executed = interpreter.run(max_instructions=workloads.BUDGET)
        arch[name] = {"halted": executed < workloads.BUDGET,
                      "pc": interpreter.state.pc,
                      "regs": list(interpreter.state.regs),
                      "console": interpreter.console_text()}
    return arch


def reference_costs(root):
    from run import run_worker

    costs = {name: {} for name in workloads.PROGRAMS}
    for workload in workloads.DRAWN:
        samples = {name: [] for name in workloads.PROGRAMS}
        for _ in range(COST_PASSES):
            result = run_worker(root, workload, workloads.PROGRAMS)
            if result["failed"]:
                raise SystemExit(f"{workload} pass failed: "
                                 f"{result['errors']}")
            seconds = dict.fromkeys(workloads.PROGRAMS, 0.0)
            committed = dict.fromkeys(workloads.PROGRAMS, 0)
            for point in result["points"]:
                seconds[point["program"]] += point["ref_s"]
                committed[point["program"]] += point["committed"]
            for name in workloads.PROGRAMS:
                samples[name].append(seconds[name])
        for name in workloads.PROGRAMS:
            costs[name][workload] = {
                "ref_s": round(statistics.median(samples[name]), 4),
                "insns": committed[name]}
        print(f"costs: {workload}", flush=True)
    return costs


def work_balanced(costs):
    """The four-program sets that do the average set's work.

    On both fig8 and fig9, a set's summed reference cost and its
    instructions per reference second must each lie within
    ``WORK_TOLERANCE`` of the mean over all sets.
    """
    import itertools

    def total(names, workload, key):
        return sum(costs[name][workload][key] for name in names)

    sets = list(itertools.combinations(workloads.PROGRAMS, DRAW_SIZE))
    mean_cost = {w: statistics.mean(total(s, w, "ref_s") for s in sets)
                 for w in workloads.DRAWN}
    mean_rate = {w: statistics.mean(total(s, w, "insns")
                                    / total(s, w, "ref_s") for s in sets)
                 for w in workloads.DRAWN}
    return [list(names) for names in sets
            if all(abs(total(names, w, "ref_s") / mean_cost[w] - 1)
                   <= WORK_TOLERANCE
                   and abs(total(names, w, "insns") / total(names, w, "ref_s")
                           / mean_rate[w] - 1) <= WORK_TOLERANCE
                   for w in workloads.DRAWN)]


def balanced_draws(root, costs):
    """The work-balanced sets whose peak resident sets also agree.

    The peak is measured (one pass per set and workload) because it
    depends on the order the programs' traces were freed in, not only on
    the largest one.
    """
    from run import run_worker

    candidates = work_balanced(costs)
    rss = [{w: run_worker(root, w, names)["peak_rss_kb"]
            for w in workloads.DRAWN} for names in candidates]
    return rss_group(candidates, rss)


def rss_group(candidates, rss):
    """The largest group of ``candidates`` whose peaks (``rss[i]``, per
    workload) all lie within ``RSS_TOLERANCE`` of one member's peaks."""
    def near(centre):
        return [i for i, peaks in enumerate(rss)
                if all(abs(peaks[w] / centre[w] - 1) <= RSS_TOLERANCE
                       for w in workloads.DRAWN)]

    group = max((near(centre) for centre in rss), key=len)
    print(f"draws: {len(group)} of {len(candidates)} work-balanced sets",
          flush=True)
    return [{"programs": candidates[i], "peak_rss_kb": rss[i]}
            for i in group]


def main():
    path = workloads.REFERENCES
    old = workloads.load_references() if path.exists() else {}
    references = {"budget": workloads.BUDGET,
                  "rows": reference_rows(),
                  "arch": reference_arch()}
    if old.get("budget") == workloads.BUDGET:
        references.update(costs=old["costs"], draws=old["draws"])
    # the cost passes check their rows against this file, so write the
    # expected outputs first
    path.write_text(json.dumps(references, indent=1) + "\n")
    if "draws" not in references:
        root = Path.cwd()
        references["costs"] = reference_costs(root)
        references["draws"] = balanced_draws(root, references["costs"])
        path.write_text(json.dumps(references, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
