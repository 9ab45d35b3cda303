"""Deterministic fault injection for chaos-testing the DBT stack.

The co-designed VM's resilience story (precise traps, flushable
translation cache, interpretation as the always-correct fallback) is only
trustworthy if it is exercised.  This package provides the machinery to
exercise it *deterministically*: a :class:`FaultPlan` parsed from a small
spec grammar names the sites where faults should strike (translation
failure, translation-cache exhaustion, fragment corruption, spurious SMC
and protect invalidation) and a seeded :class:`FaultInjector` fires them
at exactly the same occurrences on every run.

``VMConfig.faults`` selects between a live injector and the shared
:data:`NULL_INJECTOR` no-op twin — the same pattern as
``repro.obs.trace`` — so the fault-free paths stay bit-identical to a
build without this package.  See
``docs/robustness.md`` for the spec grammar and the degradation paths
each site drives.
"""

from repro.faults.plan import FaultPlan, FaultSite, FaultSpec, parse_fault_spec
from repro.faults.inject import (
    FaultInjector,
    NULL_INJECTOR,
    NullFaultInjector,
    make_injector,
)

__all__ = [
    "FaultPlan",
    "FaultSite",
    "FaultSpec",
    "parse_fault_spec",
    "FaultInjector",
    "NullFaultInjector",
    "NULL_INJECTOR",
    "make_injector",
]
