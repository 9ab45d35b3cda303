"""The benchmark's own checks.  Run from the root of a checkout::

    python3 -m pytest e2ebench -q

The count test runs one traced pass of every workload twice (about a
minute).
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import make_references  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REFERENCES = workloads.load_references()

#: Per-layer metrics that are counts: they must repeat exactly.
COUNTS = ("asm.calls", "interp.records", "vm.v_insns", "vm.interpreted",
          "vm.i_insns", "vm.trace_records", "vm.fragment_entries",
          "vm.jit_promotions", "vm.jit_deopts", "vm.jit_compile_failures",
          "vm.translated_share", "translator.calls", "translator.failures",
          "tcache.fragments", "tcache.code_bytes", "tcache.invalidations",
          "uarch.ildp_records", "uarch.superscalar_records",
          "harness.points", "harness.cache_hits")


def test_draw_is_seeded_among_balanced_sets():
    draws = {seed: workloads.draw(seed, REFERENCES) for seed in range(20)}
    assert draws == {seed: workloads.draw(seed, REFERENCES)
                     for seed in range(20)}
    balanced = [sorted(draw["programs"]) for draw in REFERENCES["draws"]]
    assert all(names in balanced for names in draws.values())
    assert len({tuple(names) for names in draws.values()}) > 1


def test_balanced_sets_do_equal_work():
    work_balanced = make_references.work_balanced(REFERENCES["costs"])
    for draw in REFERENCES["draws"]:
        assert len(set(draw["programs"])) == make_references.DRAW_SIZE
        assert draw["programs"] in work_balanced


def test_untraced_workload_runs_every_program():
    assert workloads.programs_for("untraced", 7, REFERENCES) == \
        list(workloads.PROGRAMS)


def test_row_check_flags_a_changed_cell():
    programs = ["gcc", "mcf"]
    rows = [list(row) for row in checks.expected_rows("fig9", programs,
                                                      REFERENCES)]
    assert checks.row_mismatches("fig9", programs, rows, REFERENCES) == []
    rows[1][2] *= 1.001
    labels = [label for label, _ in
              checks.row_mismatches("fig9", programs, rows, REFERENCES)]
    assert labels == ["mcf"]


def test_average_row_sums_overhead_counts():
    programs = ["bzip2", "gap"]
    average = checks.expected_rows("overhead", programs, REFERENCES)[-1]
    table = REFERENCES["rows"]["overhead"]
    assert average[5] == table["bzip2"][5] + table["gap"][5]
    assert average[1] == (table["bzip2"][1] + table["gap"][1]) / 2


def test_arch_check():
    reference = REFERENCES["arch"]["mcf"]
    summary = {"workload": "mcf", "halted": True,
               "state": {"pc": reference["pc"],
                         "regs": list(reference["regs"])},
               "console": reference["console"]}
    assert checks.arch_mismatch(summary, REFERENCES) is None
    wrong = copy.deepcopy(summary)
    wrong["state"]["regs"][1] ^= 1
    assert "regs" in checks.arch_mismatch(wrong, REFERENCES)
    assert "did not halt" in checks.arch_mismatch(
        dict(summary, halted=False), REFERENCES)


def test_eleven_programs_halt_within_the_budget():
    halted = [name for name, arch in REFERENCES["arch"].items()
              if arch["halted"]]
    assert sorted(set(workloads.PROGRAMS) - set(halted)) == ["gzip"]


@pytest.mark.parametrize("workload", sorted(workloads.EXPERIMENTS))
def test_counts_repeat_exactly(workload):
    programs = workloads.programs_for(workload, 0, REFERENCES)
    first, second = (run.run_worker(ROOT, workload, programs, trace=True)
                     for _ in range(2))
    for result in (first, second):
        assert result["failed"] == 0, result["errors"]
    assert {name: first["layers"][name] for name in COUNTS} == \
        {name: second["layers"][name] for name in COUNTS}
    assert first["layers"]["harness.cache_hits"] == 0
    assert first["layers"]["harness.points"] == first["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "fig8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
