"""The benchmark's workloads and its seeded draw of guest programs.

Stdlib-only: the orchestrating process imports this without importing
the program under test.
"""

import json
import random
from pathlib import Path

#: Every guest program of the suite (``repro.workloads.WORKLOAD_NAMES``;
#: the worker checks the two lists agree).
PROGRAMS = ("bzip2", "crafty", "eon", "gap", "gcc", "gzip", "mcf",
            "parser", "perlbmk", "twolf", "vortex", "vpr")

#: V-ISA instruction budget of every run point.
BUDGET = 60_000

#: workload -> the experiments one pass runs, in order.
EXPERIMENTS = {
    "fig8": ("fig8",),
    "fig9": ("fig9",),
    "untraced": ("fig5", "fig7", "table2", "overhead"),
}

#: Workloads whose programs the seed draws; the others run all twelve.
DRAWN = ("fig8", "fig9")

REFERENCES = Path(__file__).resolve().parent / "references.json"


def load_references():
    """``references.json``: expected outputs, costs and draws."""
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def draw(seed, references):
    """The four programs fig8 and fig9 run for ``seed``, sorted.

    A seeded uniform choice among the balanced four-program sets in
    ``references["draws"]`` (see ``make_references.balanced_draws``):
    sets of equal work, rate and memory, so that the seed picks the
    programs without moving the end-to-end figures.
    """
    return sorted(random.Random(seed).choice(references["draws"])
                  ["programs"])


def programs_for(workload, seed, references):
    """The guest programs ``workload`` runs for ``seed``."""
    if workload in DRAWN:
        return draw(seed, references)
    return list(PROGRAMS)
