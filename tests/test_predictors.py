"""Branch predictor model tests."""

import pytest

from repro.uarch.predictors import (
    BranchTargetBuffer,
    BranchUnit,
    GShare,
    ReturnAddressStack,
)

# ``BranchUnit.process`` arguments (pc, btype, taken, target, ras_hit)
# for one control transfer of each kind


def cond(pc, taken, target=None):
    return (pc, "cond", taken, target if taken else None, None)


def ret(pc, target, ras_hit=None):
    return (pc, "ret", True, target, ras_hit)


def call(pc, target):
    return (pc, "call", True, target, None)


def indirect(pc, target):
    return (pc, "indirect", True, target, None)


class TestGShare:
    def test_learns_always_taken(self):
        predictor = GShare(entries=1024, history_bits=8)
        for _ in range(8):
            predictor.update(0x1000, True)
        assert predictor.predict(0x1000)

    def test_learns_alternating_pattern(self):
        predictor = GShare(entries=4096, history_bits=8)
        outcomes = [True, False] * 200
        wrong = 0
        for taken in outcomes:
            if predictor.predict(0x2000) != taken:
                wrong += 1
            predictor.update(0x2000, taken)
        assert wrong < 20  # history makes the pattern learnable

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GShare(entries=1000)


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(entries=64, assoc=4)
        assert btb.lookup(0x1000) is None
        btb.update(0x1000, 0x2000)
        assert btb.lookup(0x1000) == 0x2000

    def test_capacity_eviction(self):
        btb = BranchTargetBuffer(entries=4, assoc=4)  # one set
        for i in range(5):
            btb.update(i * 4, 0x1000 + i)
        assert btb.lookup(0) is None          # LRU victim
        assert btb.lookup(16) == 0x1004

    def test_lru_refresh_on_lookup(self):
        btb = BranchTargetBuffer(entries=4, assoc=4)
        for i in range(4):
            btb.update(i * 4, i)
        btb.lookup(0)                  # refresh the oldest entry
        btb.update(16, 99)             # evicts pc=4 instead
        assert btb.lookup(0) == 0
        assert btb.lookup(4) is None


class TestRAS:
    def test_lifo(self):
        ras = ReturnAddressStack(depth=4)
        ras.push(1)
        ras.push(2)
        assert ras.pop() == 2
        assert ras.pop() == 1
        assert ras.pop() is None

    def test_depth_limit_drops_oldest(self):
        ras = ReturnAddressStack(depth=2)
        for value in (1, 2, 3):
            ras.push(value)
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None


class TestBranchUnit:
    def _unit(self, **overrides):
        return BranchUnit(**overrides)

    def test_cond_misprediction_counted(self):
        unit = self._unit()
        # a never-taken branch first predicted taken (counters start weak)
        mispredicted = unit.process(*cond(0x1000, False))
        assert mispredicted
        assert unit.stats.cond_mispredictions == 1

    def test_call_ret_pairs_predicted(self):
        unit = self._unit()
        for i in range(20):
            call_pc = 0x1000 + i * 32
            unit.process(*call(call_pc, 0x8000))
            assert not unit.process(*ret(0x8004, call_pc + 4))
        assert unit.stats.ras_mispredictions == 0

    def test_ret_without_ras_uses_btb(self):
        unit = self._unit(use_conventional_ras=False)
        unit.process(*call(0x1000, 0x8000))
        unit.process(*call(0x2000, 0x8000))
        # returns alternate: BTB-predicted returns must miss
        assert unit.process(*ret(0x8004, 0x2004))
        assert unit.process(*ret(0x8004, 0x1004))

    def test_dual_ras_outcome_honoured(self):
        unit = self._unit()
        assert not unit.process(*ret(0x1000, 0x2000, ras_hit=True))
        assert unit.process(*ret(0x1000, 0x2000, ras_hit=False))
        assert unit.stats.ras_mispredictions == 1

    def test_indirect_target_mispredict(self):
        unit = self._unit()
        assert unit.process(*indirect(0x1000, 0x2000))  # cold BTB
        assert not unit.process(*indirect(0x1000, 0x2000))  # learned
        assert unit.process(*indirect(0x1000, 0x3000))  # target changed

    def test_shared_dispatch_jump_thrashes(self):
        """The paper's no_pred pathology: one jump address serving many
        targets mispredicts almost always."""
        unit = self._unit()
        targets = [0x2000, 0x3000, 0x4000, 0x5000]
        missed = sum(unit.process(*indirect(0x1000, targets[i % 4]))
                     for i in range(100))
        assert missed > 90

    def test_per_kilo_normalisation(self):
        unit = self._unit()
        unit.note_instruction(500)
        unit.process(*ret(0x1000, 0x2000, ras_hit=False))
        assert unit.stats.per_kilo_instructions() == pytest.approx(2.0)
