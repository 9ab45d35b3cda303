"""Fault-injection framework: spec grammar, injector, config plumbing."""

import pytest

from repro.faults.inject import (
    NULL_INJECTOR,
    FaultInjector,
    make_injector,
)
from repro.faults.plan import (
    KNOWN_SITES,
    FaultPlan,
    FaultSite,
    FaultSpec,
    parse_fault_spec,
)
from repro.vm.config import VMConfig


class TestSpecGrammar:
    def test_bare_site(self):
        spec = parse_fault_spec("translate")
        assert spec.site == FaultSite.TRANSLATE
        assert spec.vpc is None and spec.count is None
        assert spec.every is None and spec.after == 0
        assert spec.p is None and spec.times is None

    def test_all_selectors(self):
        spec = parse_fault_spec(
            "translate@vpc=0x2000,every=2,after=4,times=3")
        assert spec.vpc == 0x2000
        assert spec.every == 2
        assert spec.after == 4
        assert spec.times == 3

    def test_decimal_and_hex_vpc_agree(self):
        assert parse_fault_spec("corrupt@vpc=0x1200").vpc == \
            parse_fault_spec("corrupt@vpc=4608").vpc

    def test_probability(self):
        assert parse_fault_spec("corrupt@p=0.25").p == 0.25

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            parse_fault_spec("meteor_strike")

    def test_unknown_selector_rejected(self):
        with pytest.raises(ValueError, match="unknown fault selector"):
            parse_fault_spec("translate@frequency=2")

    def test_missing_value_rejected(self):
        with pytest.raises(ValueError, match="malformed fault selector"):
            parse_fault_spec("translate@vpc")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="empty fault spec"):
            parse_fault_spec("   ")

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError, match="probability"):
            parse_fault_spec("translate@p=1.5")

    def test_positive_selectors_validated(self):
        for bad in ("count=0", "every=0", "times=0", "after=-1"):
            with pytest.raises(ValueError):
                parse_fault_spec(f"translate@{bad}")

    def test_render_round_trips(self):
        spec = FaultSpec(FaultSite.CORRUPT, vpc=0x1200, every=3, times=2)
        assert parse_fault_spec(spec.text) == spec

    def test_known_sites_cover_constants(self):
        assert KNOWN_SITES == {
            "translate", "tcache_full", "corrupt", "smc", "protect"}


class TestPlanParsing:
    def test_semicolon_separated(self):
        plan = FaultPlan.parse("translate@count=1; corrupt@count=2")
        assert [spec.site for spec in plan.specs] == \
            ["translate", "corrupt"]

    def test_iterable_of_specs(self):
        plan = FaultPlan.parse(["translate@count=1", "corrupt@count=2"])
        assert len(plan.specs) == 2

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="no specs"):
            FaultPlan.parse(" ; ; ")

    def test_spec_text_canonical(self):
        plan = FaultPlan.parse("translate@count=1;corrupt")
        assert plan.spec_text() == "translate@count=1;corrupt"

    def test_sites(self):
        plan = FaultPlan.parse("translate;translate@count=2;corrupt")
        assert plan.sites() == {"translate", "corrupt"}

    def test_plans_compare_by_specs_and_seed(self):
        assert FaultPlan.parse("translate", seed=1) == \
            FaultPlan.parse("translate", seed=1)
        assert FaultPlan.parse("translate", seed=1) != \
            FaultPlan.parse("translate", seed=2)


class TestSpecMatching:
    def _matches(self, text, occurrence, **attrs):
        spec = parse_fault_spec(text)
        return spec.matches(occurrence, attrs, lambda: 0.0)

    def test_bare_site_matches_everything(self):
        assert all(self._matches("translate", n) for n in (1, 2, 7))

    def test_count_is_exact(self):
        hits = [n for n in range(1, 8)
                if self._matches("translate@count=3", n)]
        assert hits == [3]

    def test_every_with_after_offset(self):
        hits = [n for n in range(1, 11)
                if self._matches("translate@every=3,after=1", n)]
        assert hits == [4, 7, 10]

    def test_after_skips_prefix(self):
        hits = [n for n in range(1, 6)
                if self._matches("translate@after=3", n)]
        assert hits == [4, 5]

    def test_vpc_filter(self):
        spec = parse_fault_spec("translate@vpc=0x2000")
        assert spec.matches(1, {"vpc": 0x2000}, lambda: 0.0)
        assert not spec.matches(1, {"vpc": 0x2004}, lambda: 0.0)

    def test_probability_consults_draw(self):
        spec = parse_fault_spec("translate@p=0.5")
        assert spec.matches(1, {}, lambda: 0.4)
        assert not spec.matches(1, {}, lambda: 0.6)


class TestInjector:
    def _fire_n(self, injector, site, n):
        return [injector.fire(site) for _ in range(n)]

    def test_every_schedule(self):
        injector = FaultInjector(FaultPlan.parse("translate@every=2"))
        assert self._fire_n(injector, "translate", 6) == \
            [False, True, False, True, False, True]

    def test_times_caps_injections(self):
        injector = FaultInjector(FaultPlan.parse("translate@times=2"))
        assert self._fire_n(injector, "translate", 5) == \
            [True, True, False, False, False]
        assert injector.total_injected() == 2

    def test_sites_counted_independently(self):
        injector = FaultInjector(
            FaultPlan.parse("translate@count=2;corrupt@count=1"))
        assert not injector.fire("translate")
        assert injector.fire("corrupt")
        assert injector.fire("translate")
        assert injector.occurrences == {"translate": 2, "corrupt": 1}
        assert injector.injected == {"translate": 1, "corrupt": 1}

    def test_unplanned_site_never_fires(self):
        injector = FaultInjector(FaultPlan.parse("translate"))
        assert not any(self._fire_n(injector, "corrupt", 4))

    def test_probabilistic_schedule_deterministic_per_seed(self):
        def schedule(seed):
            injector = FaultInjector(
                FaultPlan.parse("translate@p=0.3", seed=seed))
            return self._fire_n(injector, "translate", 200)

        first = schedule(42)
        assert first == schedule(42)
        assert 0 < sum(first) < 200     # neither all-fire nor never-fire
        assert first != schedule(43)

    def test_attrs_matched_against_selectors(self):
        injector = FaultInjector(FaultPlan.parse("translate@vpc=0x2000"))
        assert not injector.fire("translate", vpc=0x1000)
        assert injector.fire("translate", vpc=0x2000)

    def test_summary(self):
        injector = FaultInjector(
            FaultPlan.parse("translate@count=1", seed=9))
        injector.fire("translate")
        summary = injector.summary()
        assert summary["plan"] == "translate@count=1"
        assert summary["seed"] == 9
        assert summary["occurrences"] == {"translate": 1}
        assert summary["injected"] == {"translate": 1}

    def test_telemetry_records_injections(self):
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry()
        injector = FaultInjector(FaultPlan.parse("translate@count=1"),
                                 telemetry=telemetry)
        injector.fire("translate", vpc=0x1200)
        counter = telemetry.registry.counter("faults.injected.translate")
        assert counter.value == 1


class TestNullInjector:
    def test_never_fires(self):
        assert not NULL_INJECTOR.fire("translate", vpc=0x2000)
        assert NULL_INJECTOR.total_injected() == 0
        assert not NULL_INJECTOR.enabled

    def test_empty_summary(self):
        assert NULL_INJECTOR.summary()["plan"] is None

    def test_selected_when_faults_unset(self):
        assert make_injector(VMConfig()) is NULL_INJECTOR

    def test_real_injector_when_faults_set(self):
        config = VMConfig(faults="translate@count=1", fault_seed=5)
        injector = make_injector(config)
        assert injector.enabled
        assert injector.plan.seed == 5
        assert injector.plan.spec_text() == "translate@count=1"


class TestConfigPlumbing:
    def test_list_of_specs_normalised(self):
        config = VMConfig(faults=["translate@count=1", "corrupt@count=2"])
        assert config.faults == "translate@count=1;corrupt@count=2"

    def test_bad_spec_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            VMConfig(faults="bogus_site")

    def test_empty_faults_normalised_to_none(self):
        assert VMConfig(faults="").faults is None

    def test_degradation_knobs_validated(self):
        with pytest.raises(ValueError):
            VMConfig(tcache_capacity_bytes=0)
        with pytest.raises(ValueError):
            VMConfig(max_host_steps=0)
        with pytest.raises(ValueError):
            VMConfig(translation_retry_limit=0)
        with pytest.raises(ValueError):
            VMConfig(flush_storm_window=-1)

    def test_verify_defaults_follow_plan(self):
        assert VMConfig().resolve_verify_fragments() is False
        assert VMConfig(faults="corrupt@count=1") \
            .resolve_verify_fragments() is True
        assert VMConfig(faults="translate@count=1") \
            .resolve_verify_fragments() is False

    def test_verify_explicit_wins(self):
        config = VMConfig(faults="corrupt@count=1", verify_fragments=False)
        assert config.resolve_verify_fragments() is False
        assert VMConfig(verify_fragments=True) \
            .resolve_verify_fragments() is True

    def test_fault_fields_excluded_from_cache_key(self):
        chaotic = VMConfig(faults="corrupt@count=1", fault_seed=77,
                           verify_fragments=True)
        assert chaotic.key_fields() == VMConfig().key_fields()

    def test_degradation_knobs_stay_in_cache_key(self):
        bounded = VMConfig(tcache_capacity_bytes=4096)
        assert bounded.key_fields() != VMConfig().key_fields()
        assert VMConfig(max_host_steps=10_000).key_fields() != \
            VMConfig().key_fields()

    def test_to_dict_round_trips_fault_fields(self):
        config = VMConfig(faults="translate@every=2", fault_seed=3,
                          tcache_capacity_bytes=2048, max_host_steps=500,
                          translation_retry_limit=2, flush_storm_window=9,
                          verify_fragments=True)
        rebuilt = VMConfig.from_dict(config.to_dict())
        assert rebuilt.to_dict() == config.to_dict()

    def test_copy_carries_fault_fields(self):
        config = VMConfig().copy(faults="corrupt@count=1", fault_seed=4)
        assert config.faults == "corrupt@count=1"
        assert config.fault_seed == 4
