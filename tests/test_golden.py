"""Golden-output gate: every experiment table of the report, byte for byte,
and every run summary behind those tables.

``tests/golden/report-5k.md`` is the output of ``python -m repro report
--budget 5000 --no-cache``.  ``tests/golden/summaries-5k.json`` maps each
run point of that report, keyed by ``resultcache.point_key``, to the
SHA-256 of its summary's canonical JSON (sorted keys, no spaces) minus
the process-local ``elapsed`` and ``telemetry_host`` entries.  One report
pass checks both: a :class:`RunObserver` digests every summary as its
point finishes.

A change that claims to be behaviour-neutral (an engine rewrite, a faster
timing model) must leave both files unchanged.  A change that is meant to
move a table or a summary (an engine change that moves the deterministic
``jit.*`` counters, say) regenerates both in the same commit::

    PYTHONPATH=src python -m tests.test_golden
"""

import difflib
import hashlib
import json
import pathlib

import pytest

from repro.harness.parallel import PointRunner, RunObserver
from repro.harness.report import generate_report
from repro.harness.resultcache import point_key

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "report-5k.md"
GOLDEN_SUMMARIES = GOLDEN_DIR / "summaries-5k.json"
BUDGET = 5000

#: Summary entries that are process-local by construction (wall clock).
HOST_FIELDS = ("elapsed", "telemetry_host")


def summary_digest(summary):
    """SHA-256 of a summary's canonical JSON, host fields left out."""
    kept = {key: value for key, value in summary.items()
            if key not in HOST_FIELDS}
    canonical = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SummaryDigests(RunObserver):
    """Digests every executed run point's summary, keyed by point key.

    The report runs without a result cache, so a point requested by
    several experiments executes once per experiment; every execution
    must produce the same digest, and ``unstable`` lists the labels of
    points whose executions disagreed.
    """

    def __init__(self):
        self.digests = {}
        self.labels = {}
        self.unstable = []

    def on_point_done(self, point, summary):
        key = point_key(point)
        digest = summary_digest(summary)
        if self.digests.setdefault(key, digest) != digest:
            self.unstable.append(point.label())
        self.labels[key] = point.label()


def run_report():
    """One ``budget=5000`` report pass: (markdown text, SummaryDigests)."""
    digests = SummaryDigests()
    text = generate_report(budget=BUDGET,
                           runner=PointRunner(observer=digests))
    return text, digests


@pytest.fixture(scope="module")
def report_pass():
    return run_report()


def test_report_matches_golden(report_pass):
    text, _digests = report_pass
    if text.encode("utf-8") != GOLDEN.read_bytes():
        diff = difflib.unified_diff(
            GOLDEN.read_text().splitlines(), text.splitlines(),
            "golden", "fresh", lineterm="", n=1)
        pytest.fail(f"report differs from {GOLDEN.name}:\n"
                    + "\n".join(list(diff)[:60]))


def test_summaries_match_golden(report_pass):
    _text, digests = report_pass
    assert not digests.unstable, \
        f"run points with nondeterministic summaries: {digests.unstable}"
    golden = json.loads(GOLDEN_SUMMARIES.read_text())
    fresh = digests.digests
    changed = sorted(digests.labels[key] for key in fresh
                     if key in golden and golden[key] != fresh[key])
    added = sorted(digests.labels[key] for key in fresh.keys() - golden)
    missing = len(golden.keys() - fresh.keys())
    assert not (changed or added or missing), (
        f"run summaries differ from {GOLDEN_SUMMARIES.name}: "
        f"{len(changed)} changed {changed[:20]}, {len(added)} new "
        f"{added[:20]}, {missing} golden points not run")


def main():
    """Regenerate both golden files from the current tree."""
    text, digests = run_report()
    GOLDEN.write_text(text)
    GOLDEN_SUMMARIES.write_text(
        json.dumps(digests.digests, sort_keys=True, indent=0) + "\n")
    print(f"wrote {GOLDEN} and {GOLDEN_SUMMARIES} "
          f"({len(digests.digests)} run points)")


if __name__ == "__main__":
    main()
