"""Tier-1 replay of the checked-in regression corpus.

``tests/corpus/`` holds shrunk, behaviour-pinned fuzz programs (built
by ``scripts/build_corpus.py``) covering branch, memory-op and
trap-shape patterns.  Every entry must still agree across the cosim and
engine oracles — a divergence here means a translator/VM regression
against a program that once worked.
"""

import os

import pytest

from repro.fuzz.corpus import (
    CORPUS_FORMAT,
    load_corpus,
    load_entry,
    program_from_entry,
)
from repro.fuzz.oracle import check_program

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

ENTRIES = load_corpus(CORPUS_DIR)


def _entry_id(entry):
    return f"{entry['seed']:x}-{entry['index']}"


class TestCorpusContents:
    def test_corpus_is_populated(self):
        assert len(ENTRIES) >= 15

    def test_format_pinned(self):
        for entry in ENTRIES:
            assert entry["format"] == CORPUS_FORMAT

    def test_shape_coverage(self):
        shapes = set()
        for entry in ENTRIES:
            shapes.update(name for name, count in entry["shapes"].items()
                          if count)
        assert "branch" in shapes
        assert "mem" in shapes
        assert "loop" in shapes
        assert any(name == "guarded_trap" or name.startswith("trap_")
                   for name in shapes), "no trap shape in the corpus"

    def test_entries_are_shrunk(self):
        """Corpus records carry the behaviour-preserving shrunk text the
        replay runs (full text kept alongside for provenance)."""
        assert any("shrunk_text" in entry for entry in ENTRIES)


@pytest.mark.parametrize("entry", ENTRIES, ids=_entry_id)
def test_corpus_entry_replays_clean(entry):
    """Every corpus program must agree across the naive interpreter and
    both VM engines (the jit compiles every fragment on first entry, so
    generated code executes during replay)."""
    fprog = program_from_entry(entry, shrunk=True)
    report = check_program(fprog, stages=("cosim", "engine"),
                           engines=("naive", "jit"))
    assert report["failures"] == [], \
        f"corpus regression: {report['failures']}"
    assert report["inconclusive"] == []


def test_load_entry_rejects_tampered_text(tmp_path):
    import json

    source = os.path.join(CORPUS_DIR,
                          sorted(os.listdir(CORPUS_DIR))[0])
    if source.endswith("MANIFEST.json"):
        pytest.skip("no corpus entries")
    with open(source) as handle:
        entry = json.load(handle)
    entry["text"] = "1f04ff47" + entry["text"][8:]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(entry))
    with pytest.raises(ValueError, match="hash mismatch"):
        load_entry(str(path))
