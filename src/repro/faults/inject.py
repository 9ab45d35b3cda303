"""The fault injector the stack consults at its named sites.

Each site calls :meth:`FaultInjector.fire` once per occurrence; the
injector walks the plan's specs for that site, applies the selectors, and
answers whether a fault strikes *this* occurrence.  All decisions are
deterministic: occurrence counters are plain per-site counts and
probabilistic specs draw from a :class:`~repro.utils.rng.Xorshift64`
seeded from the plan, so the same plan + seed produces the same fault
schedule on every run — the property the differential chaos suite and
the result-cache exclusion both rely on.

With ``VMConfig.faults`` unset the stack holds the shared
:data:`NULL_INJECTOR`, whose ``fire`` is a constant ``False``: the
fault-free hot paths pay one attribute load and (at most) one branch per
*site occurrence* — translation, cache installation and invalidation,
never per instruction.
"""

from collections import Counter

from repro.faults.plan import FaultPlan
from repro.obs.events import EventKind
from repro.obs.telemetry import NULL_TELEMETRY
from repro.obs.trace import NULL_TRACER
from repro.utils.bitops import MASK64
from repro.utils.rng import Xorshift64


class FaultInjector:
    """Fires a :class:`~repro.faults.plan.FaultPlan`'s faults on demand."""

    enabled = True

    def __init__(self, plan, telemetry=None, tracer=None):
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        self.plan = plan
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
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

        ``attrs`` are the site's details (``vpc``, ``fid``)
        matched against spec selectors and recorded on the telemetry
        event when a fault fires.
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
            self.telemetry.events.emit(
                EventKind.FAULT_INJECTED, site=site, occurrence=occurrence,
                spec=spec.text, **attrs)
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


class NullFaultInjector:
    """Fault injection disabled: the same surface, ``fire`` always False."""

    enabled = False
    occurrences = {}
    injected = {}

    def fire(self, site, **attrs):
        """Never faults."""
        return False

    def total_injected(self):
        """Always zero."""
        return 0

    def summary(self):
        """An empty summary."""
        return {"plan": None, "seed": 0, "occurrences": {}, "injected": {}}

    def __repr__(self):
        return "NullFaultInjector()"


NULL_INJECTOR = NullFaultInjector()


def make_injector(config, telemetry=None, tracer=None):
    """The injector ``config`` asks for.

    ``VMConfig.faults`` truthy (a spec string) builds a fresh
    :class:`FaultInjector` seeded with ``config.fault_seed``; anything
    else returns the shared :data:`NULL_INJECTOR`.
    """
    spec = getattr(config, "faults", None)
    if spec:
        plan = FaultPlan.parse(spec, seed=getattr(config, "fault_seed", 0))
        return FaultInjector(plan, telemetry=telemetry, tracer=tracer)
    return NULL_INJECTOR
