"""Deterministic fault injection for chaos-testing the DBT stack.

The co-designed VM's resilience story (precise traps, flushable
translation cache, interpretation as the always-correct fallback) is only
trustworthy if it is exercised.  This package provides the machinery to
exercise it *deterministically*: a :class:`FaultPlan` parsed from a small
spec grammar names the sites where faults should strike (translation
failure, translation-cache exhaustion, fragment corruption, spurious SMC
and protect invalidation) and a seeded :class:`FaultInjector` fires them
at exactly the same occurrences on every run.

``VMConfig`` parses ``faults`` once into ``VMConfig.fault_plan``, and the
VM builds one injector from it.  A fault-free run's plan is empty, so
its injector never fires and the run stays bit-identical to one
without fault injection.  See ``docs/robustness.md`` for the spec
grammar and the degradation paths each site drives.
"""

from repro.faults.plan import FaultPlan, FaultSite, FaultSpec, parse_fault_spec
from repro.faults.inject import FaultInjector

__all__ = [
    "FaultPlan",
    "FaultSite",
    "FaultSpec",
    "parse_fault_spec",
    "FaultInjector",
]
