"""The fault injector the stack consults at its named sites.

Each site calls :meth:`FaultInjector.fire` once per occurrence; the
injector walks the plan's specs for that site, applies the selectors, and
answers whether a fault strikes *this* occurrence.  All decisions are
deterministic: occurrence counters are plain per-site counts and
probabilistic specs draw from a :class:`~repro.utils.rng.Xorshift64`
seeded from the plan, so the same plan + seed produces the same fault
schedule on every run — the property the differential chaos suite and
the result-cache exclusion both rely on.

A fault-free VM holds an injector over the empty plan
(``VMConfig.fault_plan``), whose ``fire`` only counts the occurrence:
the fault-free paths pay one call per *site occurrence* — translation,
cache installation and invalidation, never per instruction.
"""

from collections import Counter

from repro.obs.telemetry import Telemetry
from repro.obs.trace import NULL_TRACER
from repro.utils.bitops import MASK64
from repro.utils.rng import Xorshift64


class FaultInjector:
    """Fires a :class:`~repro.faults.plan.FaultPlan`'s faults on demand."""

    def __init__(self, plan, telemetry=None, tracer=None):
        self.plan = plan
        self.telemetry = telemetry if telemetry is not None \
            else Telemetry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: site -> how many times the site was consulted
        self.occurrences = Counter()
        #: site -> how many consultations faulted
        self.injected = Counter()
        self._spec_hits = [0] * len(plan.specs)
        # (seed << 1) | 1 is injective over the seed range and never
        # zero, which Xorshift64 rejects
        self._rng = Xorshift64(((plan.seed << 1) | 1) & MASK64)

    def _draw(self):
        """One deterministic float in [0, 1) for probabilistic specs."""
        return self._rng.next_u64() / 2**64

    def fire(self, site, **attrs):
        """Consult the plan at ``site``; True when a fault strikes now.

        ``attrs`` are the site's details (``vpc``, ``fid``) matched
        against spec selectors and recorded on the trace instant when a
        fault fires; the ``faults.injected.<site>`` counter counts it.
        """
        occurrence = self.occurrences[site] + 1
        self.occurrences[site] = occurrence
        for index, spec in enumerate(self.plan.specs):
            if spec.site != site:
                continue
            if spec.times is not None and \
                    self._spec_hits[index] >= spec.times:
                continue
            if not spec.matches(occurrence, attrs, self._draw):
                continue
            self._spec_hits[index] += 1
            self.injected[site] += 1
            self.telemetry.registry.counter(f"faults.injected.{site}").inc()
            self.tracer.instant(f"fault.{site}", cat="faults",
                                occurrence=occurrence, **attrs)
            return True
        return False

    def total_injected(self):
        """Faults injected across all sites."""
        return sum(self.injected.values())

    def summary(self):
        """Per-site occurrence/injection totals as a JSON-able dict."""
        return {
            "plan": self.plan.spec_text(),
            "seed": self.plan.seed,
            "occurrences": dict(sorted(self.occurrences.items())),
            "injected": dict(sorted(self.injected.items())),
        }

    def __repr__(self):
        return (f"FaultInjector({self.plan.spec_text()!r}, "
                f"{self.total_injected()} injected)")
