"""Determinism: identical inputs must produce identical results everywhere.

The whole evaluation depends on run-to-run reproducibility — no wall-clock,
no global random state, no dict-order sensitivity.
"""

import pytest

from repro.harness.runner import run_vm
from repro.ildp_isa.opcodes import IFormat
from repro.uarch.config import ildp_config, SUPERSCALAR
from repro.uarch.ildp import ILDPModel
from repro.uarch.ildp_cycle import CycleILDPModel
from repro.uarch.superscalar import SuperscalarModel
from repro.vm.config import VMConfig
from tests.conftest import assert_traces_equal


def _run(fmt=IFormat.MODIFIED):
    return run_vm("gzip", VMConfig(fmt=fmt), budget=15_000)


class TestDeterminism:
    def test_vm_runs_identical(self):
        a = _run()
        b = _run()
        assert a.stats.summary() == b.stats.summary()
        assert len(a.trace) == len(b.trace) > 0
        assert_traces_equal(a.trace, b.trace)

    def test_fragment_layout_identical(self):
        a = _run(IFormat.BASIC)
        b = _run(IFormat.BASIC)
        assert [f.base_address for f in a.tcache.fragments] == \
            [f.base_address for f in b.tcache.fragments]
        assert [f.byte_size for f in a.tcache.fragments] == \
            [f.byte_size for f in b.tcache.fragments]

    def test_timing_models_deterministic(self):
        trace = _run().trace
        assert ILDPModel(ildp_config(8, 0)).run(trace).cycles == \
            ILDPModel(ildp_config(8, 0)).run(trace).cycles
        assert CycleILDPModel(ildp_config(8, 0)).run(trace).cycles == \
            CycleILDPModel(ildp_config(8, 0)).run(trace).cycles
        assert SuperscalarModel(SUPERSCALAR).run(trace).cycles == \
            SuperscalarModel(SUPERSCALAR).run(trace).cycles

    def test_cost_model_deterministic(self):
        a = _run()
        b = _run()
        assert a.vm.cost_model.total == b.vm.cost_model.total
        assert dict(a.vm.cost_model.by_phase) == \
            dict(b.vm.cost_model.by_phase)


def _corpus_digest(directory):
    import hashlib
    import os

    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            digest.update(name.encode())
            digest.update(handle.read())
    return digest.hexdigest()


class TestFuzzSeedStability:
    """Identical seed + generator version → byte-identical fuzz corpus,
    across calls, across processes, and regardless of worker count."""

    def test_generate_identical_across_calls(self):
        from repro.fuzz.gen import generate

        a = generate(5, 3)
        b = generate(5, 3)
        assert a.words == b.words
        assert a.data == b.data
        assert a.to_bytes() == b.to_bytes()

    def test_corpus_identical_across_processes(self, tmp_path):
        import os
        import subprocess
        import sys

        from repro.fuzz.campaign import run_campaign

        local = tmp_path / "local"
        result = run_campaign(3, 11, corpus_dir=str(local))
        assert result.ok

        remote = tmp_path / "remote"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(__file__), "..", "src")
        script = ("from repro.fuzz.campaign import run_campaign; "
                  f"run_campaign(3, 11, corpus_dir={str(remote)!r})")
        subprocess.run([sys.executable, "-c", script], check=True,
                       env=env, timeout=300)
        assert _corpus_digest(local) == _corpus_digest(remote)

    def test_corpus_identical_across_worker_counts(self, tmp_path):
        from repro.fuzz.campaign import run_campaign

        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        run_campaign(4, 13, corpus_dir=str(serial), workers=1)
        run_campaign(4, 13, corpus_dir=str(parallel), workers=4)
        assert _corpus_digest(serial) == _corpus_digest(parallel)
