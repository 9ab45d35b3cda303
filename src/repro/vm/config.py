"""Configuration for the co-designed VM."""

from repro.faults.plan import FaultPlan
from repro.ildp_isa.opcodes import IFormat
from repro.translator.chaining import ChainingPolicy

#: Paper Section 4.1: maximum superblock size 200, hot threshold 50.
DEFAULT_MAX_SUPERBLOCK = 200
DEFAULT_THRESHOLD = 50


class VMConfig:
    """The settable knobs of the DBT system and its functional machine.

    Defaults follow the paper's baseline: modified I-ISA, software
    prediction with the dual-address RAS, four logical accumulators, hot
    threshold 50.  The rest of the paper's fixed parameters are
    constants: superblocks of at most :data:`DEFAULT_MAX_SUPERBLOCK`
    instructions, the executor's 16-entry dual-address RAS
    (``repro.vm.executor.RAS_DEPTH``) and the translation retry limit
    (``repro.vm.system.TRANSLATION_RETRY_LIMIT``).  Superblock capture
    always stops at existing translated code, and the modified format
    always checks that no operationally stale GPR is read.
    """

    #: Every field, in constructor order; ``to_dict``, ``copy`` and
    #: ``key_fields`` all read this one list.
    FIELDS = ("fmt", "policy", "n_accumulators", "threshold", "fuse_memory",
              "collect_trace", "exec_engine", "trace", "faults",
              "fault_seed", "tcache_capacity_bytes", "max_host_steps",
              "flush_storm_window")

    #: Fields the result-cache key leaves out (see :meth:`key_fields`).
    UNKEYED = ("collect_trace", "exec_engine", "trace", "faults",
               "fault_seed")

    def __init__(self, fmt=IFormat.MODIFIED,
                 policy=ChainingPolicy.SW_PRED_RAS,
                 n_accumulators=4,
                 threshold=DEFAULT_THRESHOLD,
                 fuse_memory=False,
                 collect_trace=False,
                 exec_engine="jit",
                 trace=False,
                 faults=None,
                 fault_seed=0,
                 tcache_capacity_bytes=None,
                 max_host_steps=None,
                 flush_storm_window=1_000):
        # a value string selects its member; anything else raises
        # ValueError here rather than running with a format no engine
        # matches
        fmt = IFormat(fmt)
        policy = ChainingPolicy(policy)
        if n_accumulators < 1:
            raise ValueError("need at least one accumulator")
        if threshold < 1:
            raise ValueError("hot threshold must be positive")
        if exec_engine not in ("jit", "naive"):
            raise ValueError(
                f"unknown exec engine {exec_engine!r} "
                "(expected 'jit' or 'naive')")
        if tcache_capacity_bytes is not None and tcache_capacity_bytes < 1:
            raise ValueError("tcache capacity must be positive")
        if max_host_steps is not None and max_host_steps < 1:
            raise ValueError("host step budget must be positive")
        if flush_storm_window < 0:
            raise ValueError("flush storm window must be non-negative")
        if faults is not None and not isinstance(faults, str):
            # accept a list of spec strings for convenience, normalised
            # to the canonical ";"-joined form so configs stay JSON-able
            faults = ";".join(faults)
        if faults:
            # fail at configuration time, not mid-run
            plan = FaultPlan.parse(faults, seed=fault_seed)
        else:
            faults = None
            plan = FaultPlan((), seed=fault_seed)
        self.fmt = fmt
        self.policy = policy
        self.n_accumulators = n_accumulators
        self.threshold = threshold
        self.fuse_memory = fuse_memory
        self.collect_trace = collect_trace
        #: How translated fragments run (the interpreter has one step
        #: for both): ``"jit"`` (the default) compiles each fragment to
        #: generated Python source on its first entry
        #: (:mod:`repro.vm.jit`); ``"naive"`` walks each fragment body
        #: through the executor's reference dispatch.  The two are
        #: observationally identical (the differential suites assert
        #: full ``VMStats`` equality); the naive engine is kept as the
        #: readable reference.
        self.exec_engine = exec_engine
        #: Enable span tracing (:mod:`repro.obs.trace`): the VM run loop,
        #: translator phases and tcache lifecycle record a hierarchical
        #: timeline exportable as Chrome trace-event JSON.  Off by
        #: default: the disabled tracer is a shared no-op object.
        self.trace = trace
        #: Fault-injection plan (``site@key=value;...`` spec string, see
        #: :mod:`repro.faults`); ``None`` for a fault-free run.
        self.faults = faults
        #: Seed for the plan's deterministic probabilistic selectors.
        self.fault_seed = fault_seed
        #: ``faults`` parsed once: the :class:`~repro.faults.plan.FaultPlan`
        #: the VM's injector fires, empty when the run is fault-free.
        #: Fragment checksums are verified exactly when it names the
        #: ``corrupt`` site.
        self.fault_plan = plan
        #: Bound on the translation cache's estimated code size; ``add``
        #: raises ``TCacheFull`` past it, driving flush + retranslate.
        #: ``None`` leaves the cache unbounded (the paper's model).
        self.tcache_capacity_bytes = tcache_capacity_bytes
        #: Fuel watchdog: a hard ceiling on host dispatch steps per run;
        #: crossing it raises ``BudgetExceeded`` carrying partial stats
        #: instead of hanging.  ``None`` disables the watchdog.
        self.max_host_steps = max_host_steps
        #: Flush-storm guard: a capacity flush within this many committed
        #: V-ISA instructions of the previous one is suppressed and the
        #: translation treated as a plain failure (backoff) instead.
        self.flush_storm_window = flush_storm_window

    def copy(self, **overrides):
        """A copy of this config with keyword overrides applied."""
        fields = {name: getattr(self, name) for name in self.FIELDS}
        fields.update(overrides)
        return VMConfig(**fields)

    def to_dict(self):
        """All fields as JSON-able primitives (enums become their values)."""
        fields = {name: getattr(self, name) for name in self.FIELDS}
        fields["fmt"] = self.fmt.value
        fields["policy"] = self.policy.value
        return fields

    def key_fields(self):
        """The fields that identify a run for result caching.

        :data:`UNKEYED` lists the fields left out.  ``collect_trace``,
        ``exec_engine`` and ``trace`` are observational: trace
        collection, the engine (both produce bit-identical results) and
        span tracing cannot change the architected run or any derived
        metric, so cached summaries are shared across them.

        ``faults`` and ``fault_seed`` are excluded by design:
        fault-injected runs must never pollute (or be served from) the
        result cache, so harness run points are always reconstructed
        fault-free and the chaos suites drive the VM directly.  The
        degradation *knobs* (``tcache_capacity_bytes``,
        ``max_host_steps``, ``flush_storm_window``) stay in the key —
        they change flush counts and other cached metrics.
        """
        return {name: value for name, value in self.to_dict().items()
                if name not in self.UNKEYED}

    @classmethod
    def from_dict(cls, fields):
        """Rebuild a config from :meth:`to_dict` output."""
        return cls(**fields)

    def __repr__(self):
        return (f"VMConfig({self.fmt.value}, {self.policy.value}, "
                f"accs={self.n_accumulators}, thr={self.threshold})")
