"""Fuzz campaigns: fan generated programs out over the harness.

``run_campaign`` builds one :class:`~repro.harness.runpoints.RunPoint`
per ``(seed, index)``, hands the batch to a
:class:`~repro.harness.parallel.PointRunner` (serial or process pool —
run points are pure functions, so both yield bit-identical summaries),
collects divergences as :class:`Finding` records, optionally shrinks
each finding to a minimal reproducer, and writes the deterministic
corpus.

The corpus is written by the *parent* process, regenerating each
program from its seed — then cross-checked against the ``text_sha256``
every worker reported.  A mismatch means generation is not reproducible
across processes, which is itself a campaign-fatal bug, so it raises.
"""

from collections import Counter

from repro.fuzz import corpus as corpus_mod
from repro.fuzz.gen import generate
from repro.fuzz.oracle import ORACLE_BUDGET, check_program
from repro.fuzz.shrink import shrink_words
from repro.harness.parallel import PointRunner
from repro.harness.runpoints import RunPoint


class CampaignError(RuntimeError):
    """Cross-process determinism violation during a campaign."""


class Finding:
    """One diverging program, with its (optional) shrunk reproducer."""

    __slots__ = ("program", "failures", "shrunk_words", "shrunk_failures",
                 "shrink_checks")

    def __init__(self, program, failures):
        self.program = program
        self.failures = list(failures)
        self.shrunk_words = None
        self.shrunk_failures = None
        self.shrink_checks = 0

    @property
    def stages(self):
        return sorted({failure["stage"] for failure in self.failures})

    def describe(self):
        lines = [f"{self.program.name}: "
                 f"{len(self.failures)} divergence(s) "
                 f"[{', '.join(self.stages)}]"]
        for failure in self.failures[:8]:
            lines.append(f"  {failure['stage']}: {failure['reason']}")
        if self.shrunk_words is not None:
            lines.append(f"  shrunk: {len(self.program.words)} -> "
                         f"{len(self.shrunk_words)} instructions "
                         f"({self.shrink_checks} oracle runs)")
        return lines


class FuzzCampaignResult:
    """Everything one campaign produced."""

    def __init__(self, count, seed, findings, shapes, inconclusive,
                 corpus_files, report):
        self.count = count
        self.seed = seed
        self.findings = findings
        self.shapes = shapes              # Counter of generated shapes
        self.inconclusive = inconclusive  # programs with skipped stages
        self.corpus_files = corpus_files
        self.report = report              # PointRunner report delta

    @property
    def ok(self):
        return not self.findings

    def render_lines(self):
        lines = [f"fuzz campaign: {self.count} programs, seed "
                 f"{self.seed}, {len(self.findings)} finding(s)"]
        if self.shapes:
            mix = ", ".join(f"{name}={count}" for name, count
                            in sorted(self.shapes.items()))
            lines.append(f"  shape mix: {mix}")
        if self.inconclusive:
            lines.append(f"  {self.inconclusive} program(s) had "
                         "budget-inconclusive stages")
        for finding in self.findings:
            lines.extend(finding.describe())
        return lines


def _shrink_finding(finding, budget):
    """Shrink a finding's text while the same stages still diverge."""
    program = finding.program
    stages = tuple(finding.stages)

    def still_diverges(words):
        report = check_program(program.with_words(words), budget=budget,
                               stages=stages)
        return bool(report["failures"])

    shrunk, checks = shrink_words(program.words, still_diverges)
    finding.shrunk_words = shrunk
    finding.shrink_checks = checks
    report = check_program(program.with_words(shrunk), budget=budget,
                           stages=stages)
    finding.shrunk_failures = report["failures"]


def run_campaign(count, seed, max_insns=60, chaos=False, shrink=False,
                 workers=1, budget=ORACLE_BUDGET, corpus_dir=None,
                 runner=None, engines=None, hostile=False):
    """Run ``count`` seeded programs through the oracle stack.

    ``engines`` selects the oracle engine stage's comparison axis
    (``None`` uses the oracle default, currently naive + jit).
    ``hostile`` generates hostile-guest programs (self-modifying code,
    protection flips, syscalls) instead of tame ones.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    points = [RunPoint.fuzz(seed, index, max_insns=max_insns,
                            chaos=chaos, budget=budget, engines=engines,
                            hostile=hostile)
              for index in range(count)]
    if runner is None:
        runner = PointRunner(workers=workers, cache=None)
    summaries = runner.run(points)

    findings = []
    shapes = Counter()
    inconclusive = 0
    corpus_entries = []
    for summary in summaries:
        shapes.update(summary["shapes"])
        if summary["inconclusive"]:
            inconclusive += 1
        fprog = generate(summary["seed"], index=summary["index"],
                         max_insns=max_insns, hostile=hostile)
        # the worker hashed the program it generated; the parent's
        # regeneration must match bit for bit in any process
        entry = corpus_mod.entry_dict(fprog,
                                      failures=summary["failures"])
        if entry["text_sha256"] != summary["text_sha256"]:
            raise CampaignError(
                f"{fprog.name}: generator not reproducible across "
                f"processes ({entry['text_sha256']} != "
                f"{summary['text_sha256']})")
        if summary["failures"]:
            finding = Finding(fprog, summary["failures"])
            if shrink:
                _shrink_finding(finding, budget)
                entry = corpus_mod.entry_dict(
                    fprog, failures=summary["failures"],
                    shrunk_words=finding.shrunk_words)
            findings.append(finding)
        corpus_entries.append(entry)

    corpus_files = []
    if corpus_dir is not None:
        corpus_files = corpus_mod.write_corpus(corpus_dir, corpus_entries)

    return FuzzCampaignResult(count, seed, findings, shapes, inconclusive,
                              corpus_files, runner.last_report)
