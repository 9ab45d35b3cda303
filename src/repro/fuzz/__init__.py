"""Seeded Alpha-subset program fuzzer with differential oracles.

The fuzzer turns the repository's three independent execution semantics
(pure interpreter, naive VM engine, jit VM engine) plus the chaos layer
into a generative correctness harness: a deterministic seeded generator
emits structured random V-ISA programs, an oracle stack runs each one
through interpreter-vs-VM co-simulation, the jit-vs-naive engine
differential and (optionally) a seeded
fault schedule, and any divergence in architectural state, console
output, data memory, committed counts or ``VMStats`` is a finding.
Findings shrink to minimal reproducers and every program serialises to
a reproducible corpus record (seed + generator version + program
bytes).  See ``docs/testing.md``.
"""

from repro.fuzz.campaign import Finding, FuzzCampaignResult, run_campaign
from repro.fuzz.corpus import (
    CORPUS_FORMAT,
    entry_dict,
    load_corpus,
    load_entry,
    program_from_entry,
    write_corpus,
)
from repro.fuzz.gen import (
    GENERATOR_VERSION,
    FuzzProgram,
    generate,
    program_from_words,
    random_instruction,
)
from repro.fuzz.oracle import ORACLE_BUDGET, check_program, execute_fuzz_point
from repro.fuzz.shrink import shrink_words

__all__ = [
    "CORPUS_FORMAT",
    "Finding",
    "FuzzCampaignResult",
    "FuzzProgram",
    "GENERATOR_VERSION",
    "ORACLE_BUDGET",
    "check_program",
    "entry_dict",
    "execute_fuzz_point",
    "generate",
    "load_corpus",
    "load_entry",
    "program_from_entry",
    "program_from_words",
    "random_instruction",
    "run_campaign",
    "shrink_words",
    "write_corpus",
]
