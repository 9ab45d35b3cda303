"""Configuration for the co-designed VM."""

from repro.ildp_isa.opcodes import IFormat
from repro.translator.chaining import ChainingPolicy

#: Paper Section 4.1: maximum superblock size 200, hot threshold 50.
DEFAULT_MAX_SUPERBLOCK = 200
DEFAULT_THRESHOLD = 50


class VMConfig:
    """All the knobs of the DBT system and its functional machine.

    Defaults follow the paper's baseline: modified I-ISA, software
    prediction with the dual-address RAS, four logical accumulators, hot
    threshold 50, superblocks of up to 200 instructions.
    """

    def __init__(self, fmt=IFormat.MODIFIED,
                 policy=ChainingPolicy.SW_PRED_RAS,
                 n_accumulators=4,
                 threshold=DEFAULT_THRESHOLD,
                 max_superblock=DEFAULT_MAX_SUPERBLOCK,
                 fuse_memory=False,
                 ras_depth=16,
                 strict_modified=True,
                 collect_trace=False,
                 stop_at_existing_fragment=True,
                 flush_on_phase_change=False,
                 flush_window=5_000,
                 flush_rate_factor=4.0,
                 exec_engine="jit",
                 trace=False,
                 faults=None,
                 fault_seed=0,
                 tcache_capacity_bytes=None,
                 max_host_steps=None,
                 translation_retry_limit=3,
                 flush_storm_window=1_000,
                 verify_fragments=None):
        if n_accumulators < 1:
            raise ValueError("need at least one accumulator")
        if threshold < 1:
            raise ValueError("hot threshold must be positive")
        if max_superblock < 1:
            raise ValueError("superblock size must be positive")
        if exec_engine not in ("jit", "naive"):
            raise ValueError(
                f"unknown exec engine {exec_engine!r} "
                "(expected 'jit' or 'naive')")
        if tcache_capacity_bytes is not None and tcache_capacity_bytes < 1:
            raise ValueError("tcache capacity must be positive")
        if max_host_steps is not None and max_host_steps < 1:
            raise ValueError("host step budget must be positive")
        if translation_retry_limit < 1:
            raise ValueError("translation retry limit must be positive")
        if flush_storm_window < 0:
            raise ValueError("flush storm window must be non-negative")
        if faults is not None and not isinstance(faults, str):
            # accept a list of spec strings for convenience, normalised
            # to the canonical ";"-joined form so configs stay JSON-able
            faults = ";".join(faults)
        if faults:
            # fail at configuration time, not mid-run: parse eagerly and
            # throw the plan away (the VM builds its own injector)
            from repro.faults.plan import FaultPlan
            FaultPlan.parse(faults, seed=fault_seed)
        else:
            faults = None
        self.fmt = fmt
        self.policy = policy
        self.n_accumulators = n_accumulators
        self.threshold = threshold
        self.max_superblock = max_superblock
        self.fuse_memory = fuse_memory
        self.ras_depth = ras_depth
        #: Assert that the modified format never reads a register whose
        #: operational copy is stale (validates the usage analysis).
        self.strict_modified = strict_modified
        self.collect_trace = collect_trace
        #: End superblock capture when the path reaches translated code.
        self.stop_at_existing_fragment = stop_at_existing_fragment
        #: Dynamo-style phase-change flushing (paper Section 4.1): when the
        #: fragment-creation rate over the last ``flush_window`` V-ISA
        #: instructions jumps by more than ``flush_rate_factor`` over the
        #: previous window's rate, the translation cache is flushed so new
        #: (better) fragments can form.
        self.flush_on_phase_change = flush_on_phase_change
        self.flush_window = flush_window
        self.flush_rate_factor = flush_rate_factor
        #: How the interpreter and fragment executor run instructions:
        #: ``"jit"`` (the default) interprets through pre-bound step
        #: closures (:mod:`repro.interp.specialize`) and compiles each
        #: fragment to generated Python source on its first entry
        #: (:mod:`repro.vm.jit`); ``"naive"`` re-dispatches each
        #: instruction through the reference if/elif chains.  The two
        #: are observationally identical (the differential suites
        #: assert full ``VMStats`` equality); the naive engine is kept
        #: as the readable reference.
        self.exec_engine = exec_engine
        #: Enable span tracing (:mod:`repro.obs.trace`): the VM run loop,
        #: translator phases and tcache lifecycle record a hierarchical
        #: timeline exportable as Chrome trace-event JSON.  Off by
        #: default: the disabled tracer is a shared no-op object.
        self.trace = trace
        #: Fault-injection plan (``site@key=value;...`` spec string, see
        #: :mod:`repro.faults`).  ``None`` selects the shared
        #: ``NULL_INJECTOR`` no-op twin, keeping the fault-free paths
        #: bit-identical to a build without fault injection.
        self.faults = faults
        #: Seed for the plan's deterministic probabilistic selectors.
        self.fault_seed = fault_seed
        #: Bound on the translation cache's estimated code size; ``add``
        #: raises ``TCacheFull`` past it, driving flush + retranslate.
        #: ``None`` leaves the cache unbounded (the paper's model).
        self.tcache_capacity_bytes = tcache_capacity_bytes
        #: Fuel watchdog: a hard ceiling on host dispatch steps per run;
        #: crossing it raises ``BudgetExceeded`` carrying partial stats
        #: instead of hanging.  ``None`` disables the watchdog.
        self.max_host_steps = max_host_steps
        #: How many times a failing superblock entry PC is retried before
        #: being blacklisted to interpretation for the rest of the run.
        self.translation_retry_limit = translation_retry_limit
        #: Flush-storm guard: a capacity flush within this many committed
        #: V-ISA instructions of the previous one is suppressed and the
        #: translation treated as a plain failure (backoff) instead.
        self.flush_storm_window = flush_storm_window
        #: Verify fragment body checksums at entry.  ``None`` means
        #: "only when a corruption fault site is planned" — see
        #: :meth:`resolve_verify_fragments`.
        self.verify_fragments = verify_fragments

    def resolve_verify_fragments(self):
        """Whether the executor should checksum-verify fragments.

        Explicit ``True``/``False`` wins; the ``None`` default enables
        verification exactly when the fault plan can corrupt fragments,
        so fault-free runs never pay for checksums.
        """
        if self.verify_fragments is not None:
            return self.verify_fragments
        if not self.faults:
            return False
        from repro.faults.plan import FaultPlan, FaultSite
        plan = FaultPlan.parse(self.faults, seed=self.fault_seed)
        return FaultSite.CORRUPT in plan.sites()

    def copy(self, **overrides):
        """A copy of this config with keyword overrides applied."""
        fields = self.to_dict()
        fields["fmt"] = self.fmt
        fields["policy"] = self.policy
        fields.update(overrides)
        return VMConfig(**fields)

    def to_dict(self):
        """All fields as JSON-able primitives (enums become their values)."""
        return dict(
            fmt=self.fmt.value, policy=self.policy.value,
            n_accumulators=self.n_accumulators, threshold=self.threshold,
            max_superblock=self.max_superblock, fuse_memory=self.fuse_memory,
            ras_depth=self.ras_depth, strict_modified=self.strict_modified,
            collect_trace=self.collect_trace,
            stop_at_existing_fragment=self.stop_at_existing_fragment,
            flush_on_phase_change=self.flush_on_phase_change,
            flush_window=self.flush_window,
            flush_rate_factor=self.flush_rate_factor,
            exec_engine=self.exec_engine,
            trace=self.trace,
            faults=self.faults,
            fault_seed=self.fault_seed,
            tcache_capacity_bytes=self.tcache_capacity_bytes,
            max_host_steps=self.max_host_steps,
            translation_retry_limit=self.translation_retry_limit,
            flush_storm_window=self.flush_storm_window,
            verify_fragments=self.verify_fragments)

    def key_fields(self):
        """The fields that identify a run for result caching.

        ``collect_trace`` is excluded: trace collection is observational
        and cannot change the architected run or any derived metric.
        ``exec_engine`` is excluded for the same reason: both engines
        produce bit-identical results, so cached summaries are shared.
        ``trace`` (span tracing) is observational wall-clock data and
        excluded for the same reason.

        ``faults``, ``fault_seed`` and ``verify_fragments`` are excluded
        by design: fault-injected runs must never pollute (or be served
        from) the result cache, so harness run points are always
        reconstructed fault-free and the chaos suites drive the VM
        directly.  The degradation *knobs* (``tcache_capacity_bytes``,
        ``max_host_steps``, retry/storm limits) stay in the key — they
        change flush counts and other cached metrics.
        """
        fields = self.to_dict()
        del fields["collect_trace"]
        del fields["exec_engine"]
        del fields["trace"]
        del fields["faults"]
        del fields["fault_seed"]
        del fields["verify_fragments"]
        return fields

    @classmethod
    def from_dict(cls, fields):
        """Rebuild a config from :meth:`to_dict` output."""
        fields = dict(fields)
        fields["fmt"] = IFormat(fields["fmt"])
        fields["policy"] = ChainingPolicy(fields["policy"])
        return cls(**fields)

    def __repr__(self):
        return (f"VMConfig({self.fmt.value}, {self.policy.value}, "
                f"accs={self.n_accumulators}, thr={self.threshold})")
