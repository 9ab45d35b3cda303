"""Fault plans: which faults strike where, parsed from a tiny grammar.

A plan is a seed plus a list of specs.  Each spec names an injection
*site* and an optional set of selectors restricting which occurrences of
that site actually fault::

    spec   := site [ "@" match { "," match } ]
    plan   := spec { ";" spec }
    match  := key "=" value

Sites (see ``docs/robustness.md`` for the degradation path each drives):

``translate``
    the translator aborts with a ``TranslationError`` before producing a
    fragment;
``tcache_full``
    ``TranslationCache.add`` raises ``TCacheFull`` as if the capacity
    bound were hit;
``corrupt``
    a freshly installed fragment's body is silently corrupted (detected
    by the entry checksum when verification is on);
``worker_crash`` / ``worker_timeout``
    a harness pool worker dies / stalls before returning its chunk;
``smc``
    a guest store that hit translated code invalidates *every* fragment
    on the written page instead of just the overlapping ones (spurious
    widening — behaviour-neutral, the victims retranslate);
``protect``
    a guest ``protect`` PAL call spuriously invalidates every fragment
    in the affected range even when execute permission survives.

Selector keys (all optional; a bare site faults on every occurrence):

``vpc=0x1200``   only when the site reports this V-PC;
``count=3``      only the 3rd occurrence of the site;
``every=4``      every 4th occurrence;
``after=10``     skip the first 10 occurrences;
``p=0.25``       fault with probability 0.25, drawn from the plan's
                 seeded generator (deterministic per seed);
``times=2``      stop after this spec has injected twice;
``worker=0``     only pool worker 0 (harness sites).

Examples: ``translate@vpc=0x2000``, ``translate@every=2,times=4``,
``corrupt@count=3``, ``worker_crash@worker=0,times=1``.
"""


class FaultSite:
    """Names of the injection sites the stack consults (plain strings)."""

    TRANSLATE = "translate"
    TCACHE_FULL = "tcache_full"
    CORRUPT = "corrupt"
    WORKER_CRASH = "worker_crash"
    WORKER_TIMEOUT = "worker_timeout"
    SMC = "smc"
    PROTECT = "protect"


#: Every site a spec may name — parsing rejects anything else.
KNOWN_SITES = frozenset(
    value for name, value in vars(FaultSite).items()
    if not name.startswith("_"))

#: Default chaos schedule (``repro chaos`` and the fuzz oracle's chaos
#: stage): every degradation path fires at least once on any workload
#: hot enough to translate a handful of superblocks.
DEFAULT_CHAOS_SPECS = (
    "translate@every=2,times=4",
    "corrupt@every=3,times=3",
    "tcache_full@count=5,times=1",
)

#: Extra specs for hostile-guest chaos (``repro chaos --hostile`` and the
#: hostile fuzz oracle): spurious SMC widening and protect invalidation.
#: Both are behaviour-neutral degradations — architected results must
#: still converge to the fault-free interpreter reference.
HOSTILE_CHAOS_SPECS = (
    "smc@every=2",
    "protect@every=2",
)

_INT_KEYS = ("vpc", "count", "every", "after", "times", "worker")


class FaultSpec:
    """One parsed spec: a site plus the selectors restricting it."""

    __slots__ = ("site", "vpc", "count", "every", "after", "p", "times",
                 "worker", "text")

    def __init__(self, site, vpc=None, count=None, every=None, after=0,
                 p=None, times=None, worker=None, text=None):
        if site not in KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {site!r} "
                f"(expected one of {', '.join(sorted(KNOWN_SITES))})")
        if p is not None and not 0.0 <= p <= 1.0:
            raise ValueError(f"fault probability must be in [0, 1], "
                             f"got {p}")
        for name, value in (("count", count), ("every", every),
                            ("times", times)):
            if value is not None and value < 1:
                raise ValueError(f"fault selector {name}= must be >= 1, "
                                 f"got {value}")
        if after < 0:
            raise ValueError(f"fault selector after= must be >= 0, "
                             f"got {after}")
        self.site = site
        self.vpc = vpc
        self.count = count
        self.every = every
        self.after = after
        self.p = p
        self.times = times
        self.worker = worker
        self.text = text if text is not None else self._render()

    def _render(self):
        matches = []
        for key in ("vpc", "count", "every", "after", "p", "times",
                    "worker"):
            value = getattr(self, key)
            if value is None or (key == "after" and value == 0):
                continue
            matches.append(f"{key}={value:#x}" if key == "vpc"
                           else f"{key}={value}")
        return self.site + ("@" + ",".join(matches) if matches else "")

    def matches(self, occurrence, attrs, draw):
        """Whether this spec fires on the given site occurrence.

        ``occurrence`` is 1-based per site; ``attrs`` are the site's
        keyword details (``vpc``, ``worker``...); ``draw`` supplies a
        deterministic float in ``[0, 1)`` for probabilistic specs and is
        only consulted when ``p=`` is set.
        """
        if occurrence <= self.after:
            return False
        if self.count is not None and occurrence != self.count:
            return False
        if self.every is not None and \
                (occurrence - self.after) % self.every != 0:
            return False
        if self.vpc is not None and attrs.get("vpc") != self.vpc:
            return False
        if self.worker is not None and attrs.get("worker") != self.worker:
            return False
        if self.p is not None and draw() >= self.p:
            return False
        return True

    def __eq__(self, other):
        return isinstance(other, FaultSpec) and self.text == other.text

    def __repr__(self):
        return f"FaultSpec({self.text!r})"


def parse_fault_spec(text):
    """Parse one ``site@key=value,...`` spec into a :class:`FaultSpec`."""
    text = text.strip()
    if not text:
        raise ValueError("empty fault spec")
    site, _sep, tail = text.partition("@")
    kwargs = {}
    if tail:
        for match in tail.split(","):
            key, sep, value = match.partition("=")
            key = key.strip()
            if not sep or not value.strip():
                raise ValueError(
                    f"malformed fault selector {match!r} in {text!r} "
                    "(expected key=value)")
            if key == "p":
                kwargs["p"] = float(value)
            elif key in _INT_KEYS:
                # int(value, 0) accepts 0x-prefixed V-PCs
                kwargs[key] = int(value.strip(), 0)
            else:
                raise ValueError(
                    f"unknown fault selector {key!r} in {text!r} "
                    f"(expected one of p, {', '.join(_INT_KEYS)})")
    return FaultSpec(site.strip(), text=text, **kwargs)


class FaultPlan:
    """A seed plus the parsed specs — plain, picklable schedule data."""

    __slots__ = ("specs", "seed")

    def __init__(self, specs, seed=0):
        self.specs = tuple(specs)
        self.seed = seed

    @classmethod
    def parse(cls, text, seed=0):
        """Parse a ``;``-separated plan string (or an iterable of spec
        strings) into a :class:`FaultPlan`."""
        if isinstance(text, str):
            parts = text.split(";")
        else:
            parts = list(text)
        specs = [parse_fault_spec(part) for part in parts if part.strip()]
        if not specs:
            raise ValueError("fault plan contains no specs")
        return cls(specs, seed=seed)

    def spec_text(self):
        """The canonical ``;``-joined plan string (``VMConfig.faults``)."""
        return ";".join(spec.text for spec in self.specs)

    def sites(self):
        """The set of sites this plan can strike."""
        return {spec.site for spec in self.specs}

    def __eq__(self, other):
        return isinstance(other, FaultPlan) and \
            (self.specs, self.seed) == (other.specs, other.seed)

    def __repr__(self):
        return f"FaultPlan({self.spec_text()!r}, seed={self.seed})"
