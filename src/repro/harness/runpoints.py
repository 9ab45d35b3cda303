"""Declarative run points: the unit of work the experiment harness runs.

Every figure/table experiment boils down to a set of independent
``(workload, config, budget)`` VM or pure-interpreter runs, each followed
by a handful of trace-derived measurements (timing-model IPC, predictor
statistics, instruction-mix counts).  Experiments declare these as
:class:`RunPoint` values — plain, hashable, picklable data — and hand them
to :class:`repro.harness.parallel.PointRunner`, which can execute them
serially, fan them out over a process pool, or answer them from the
persistent result cache.  Points that differ only in their evaluators
share one simulator run (:func:`execute_run`).

The contract that makes caching and parallelism safe is that
:func:`execute_point` is a *pure function* of the run point: the whole
simulator is deterministic (no wall clock, no global random state), so two
executions of the same point produce the same :class:`RunSummary` fields,
bit for bit — except the wall-clock ``elapsed`` and ``telemetry_host``
entries, which are process-local by construction.  Summaries carry only
JSON-able scalars and small dicts — never live VM objects or traces — so
a summary computed in a worker process, read back from the cache, or
computed inline is indistinguishable.
"""

import time

from repro.harness.runner import DEFAULT_BUDGET, run_original, run_vm
from repro.translator.usage import ValueClass
from repro.uarch.config import MachineConfig, ildp_config
from repro.uarch.ildp import ILDPModel
from repro.uarch.predictors import BranchUnit
from repro.uarch.superscalar import SuperscalarModel
from repro.vm.config import VMConfig

#: Bump when the summary layout or any run semantics change; part of every
#: cache key, so stale on-disk entries can never be returned.
#: 2: VM summaries grew the ``telemetry`` / ``telemetry_host`` blocks.
#: 3: VM summaries grew the ``resilience`` block (graceful-degradation
#: counters), and fault-injection fields joined ``VMConfig`` (excluded
#: from the key, but the bump guarantees no pre-faults entry survives).
#: 4: the default execution engine became the tier-2 jit.  Architected
#: results and ``VMStats`` are engine-identical (so ``exec_engine`` stays
#: out of the key), but the deterministic ``telemetry`` block now carries
#: ``jit.*`` counters and ``jit_promoted`` events that pre-jit cache
#: entries lack.
#: 5: the hostile-guest work grew ``VMStats.resilience()`` (smc/mmu
#: counters inside every cached summary's ``resilience`` block) and made
#: superblock digests content-aware; pre-MMU entries must not replay.
#: 6: the jit compiles every fragment on first entry instead of after a
#: visit threshold, so the cached ``jit.promotions`` counter and
#: ``jit_promoted`` events change; threshold-era entries must not replay.
#: 7: telemetry became always on with one level: the ``telemetry`` block
#: lost ``events``, ``fragments_profiled``, ``hot_fragments`` and the
#: ``exec.fragment_transitions`` counter.
#: 8: each number is recorded once: the ``telemetry`` block lost its
#: ``histograms`` and the gauges that repeated the ``stats``, ``tcache``
#: and ``resilience`` blocks, and ``scale`` left the point key and every
#: summary.
#: 9: traced runs execute jit-built steps, so traced VM summaries now
#: report ``jit.promotions`` (it was 0 on every traced run).
SCHEMA_VERSION = 9


class EvalSpec:
    """One named trace-derived measurement with frozen parameters."""

    __slots__ = ("name", "params")

    def __init__(self, name, **params):
        if name not in EVALUATORS:
            raise KeyError(f"unknown evaluator {name!r}")
        self.name = name
        self.params = tuple(sorted(params.items()))

    def key(self):
        """Stable string identity, used as the summary's ``evals`` key."""
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}({inner})"

    def __eq__(self, other):
        return isinstance(other, EvalSpec) and \
            (self.name, self.params) == (other.name, other.params)

    def __hash__(self):
        return hash((self.name, self.params))

    def __repr__(self):
        return f"EvalSpec({self.key()})"


def ildp_ipc(pes=8, comm=0, dcache_small=False, steering="dependence",
             perfect_bp=False, perfect_dcache=False):
    """ILDP timing model; yields ``{"ipc", "native_ipc"}``."""
    return EvalSpec("ildp_ipc", pes=pes, comm=comm,
                    dcache_small=dcache_small, steering=steering,
                    perfect_bp=perfect_bp, perfect_dcache=perfect_dcache)


def superscalar_ipc(use_ras=True):
    """Out-of-order superscalar timing model; yields the V-ISA IPC."""
    return EvalSpec("superscalar_ipc", use_ras=use_ras)


def mispredictions():
    """Branch-prediction stack alone; mispredictions per 1,000 V-ISA
    instructions (Fig. 4)."""
    return EvalSpec("mispredictions")


def instruction_mix():
    """Dynamic instruction-mix counts for the characterization table."""
    return EvalSpec("instruction_mix")


class RunPoint:
    """One independent harness run, as data.

    ``kind`` is ``"vm"`` (co-designed VM) or ``"original"`` (pure
    interpretation, the paper's unmodified-binary configuration).
    ``config`` is a tuple of sorted ``(field, value)`` pairs from
    :meth:`VMConfig.key_fields` — primitives only, so points hash, pickle
    and serialise to JSON without help.
    """

    __slots__ = ("kind", "workload", "budget", "config", "evals")

    def __init__(self, kind, workload, budget, config, evals):
        self.kind = kind
        self.workload = workload
        self.budget = budget
        self.config = config
        self.evals = tuple(evals)

    @classmethod
    def vm(cls, workload, config=None, budget=DEFAULT_BUDGET, evals=()):
        """A co-designed-VM run point."""
        config = config if config is not None else VMConfig()
        fields = tuple(sorted(config.key_fields().items()))
        return cls("vm", workload, budget, fields, evals)

    @classmethod
    def original(cls, workload, budget=DEFAULT_BUDGET, evals=()):
        """A pure-interpretation ("original binary") run point."""
        return cls("original", workload, budget, None, evals)

    @classmethod
    def fuzz(cls, seed, index, max_insns=60, chaos=False,
             budget=200_000, hostile=False):
        """One generated-program oracle run (see :mod:`repro.fuzz`).

        ``config`` reuses the sorted-pair convention but carries the
        generator parameters instead of ``VMConfig`` fields; the
        generator version keys the cache so corpus-affecting generator
        changes can never replay stale summaries.  The kind's key space
        is disjoint from ``"vm"``/``"original"``, so no schema bump is
        needed.
        """
        from repro.fuzz.gen import GENERATOR_VERSION

        fields = (("chaos", bool(chaos)), ("hostile", bool(hostile)),
                  ("index", index), ("max_insns", max_insns),
                  ("seed", seed), ("version", GENERATOR_VERSION))
        return cls("fuzz", f"fuzz[{seed}/{index}]", budget, fields, ())

    def key_dict(self):
        """Canonical JSON-able identity (the cache key's preimage)."""
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "workload": self.workload,
            "budget": self.budget,
            "config": None if self.config is None else dict(self.config),
            "evals": [spec.key() for spec in self.evals],
        }

    def identity(self):
        """Hashable identity tuple (for de-duplication within a batch)."""
        return (self.kind, self.workload, self.budget, self.config,
                self.evals)

    def run_identity(self):
        """Hashable identity of the simulator run behind this point.

        Points that differ only in their evaluators share one run (see
        :func:`execute_run`).  A traced and an untraced run of one config
        stay apart: only the traced one collects the trace its
        evaluators read, and their summaries differ in ``trace_len``.
        """
        return (self.kind, self.workload, self.budget, self.config,
                bool(self.evals))

    def label(self):
        """Short human-readable identity (trace span names, logs)."""
        if self.kind == "original":
            return f"{self.workload} (original)"
        fields = dict(self.config)
        if self.kind == "fuzz":
            return self.workload + (" +chaos" if fields.get("chaos")
                                    else "")
        return (f"{self.workload} ({fields.get('fmt')}/"
                f"{fields.get('policy')})")

    def __eq__(self, other):
        return isinstance(other, RunPoint) and \
            self.identity() == other.identity()

    def __hash__(self):
        return hash(self.identity())

    def __repr__(self):
        return (f"RunPoint({self.kind}, {self.workload}, "
                f"budget={self.budget}, {len(self.evals)} evals)")


# -- trace evaluators ---------------------------------------------------------

def _eval_ildp_ipc(params, trace):
    machine = ildp_config(params["pes"], params["comm"],
                          dcache_small=params["dcache_small"],
                          steering=params["steering"],
                          perfect_prediction=params["perfect_bp"],
                          perfect_dcache=params["perfect_dcache"])
    result = ILDPModel(machine).run(trace)
    return {"ipc": result.ipc, "native_ipc": result.native_ipc}


def _eval_superscalar_ipc(params, trace):
    machine = MachineConfig("superscalar-ooo",
                            use_conventional_ras=params["use_ras"])
    return SuperscalarModel(machine).run(trace).ipc


def _eval_mispredictions(params, trace):
    return count_mispredictions(trace)


def _eval_instruction_mix(params, trace):
    counts = {"total": len(trace), "load": 0, "store": 0, "cond": 0,
              "callret": 0, "indirect": 0}
    for template in trace.column("templates"):
        op_class = template.op_class
        btype = template.btype
        if op_class == "load":
            counts["load"] += 1
        elif op_class == "store":
            counts["store"] += 1
        elif btype == "cond":
            counts["cond"] += 1
        elif btype in ("call", "ret"):
            counts["callret"] += 1
        elif btype in ("call_ind", "indirect"):
            counts["indirect"] += 1
    return counts


def count_mispredictions(trace):
    """Feed a trace through the branch-prediction stack alone; returns
    mispredictions per 1,000 V-ISA instructions.

    Normalising by V-ISA instructions (not machine instructions) keeps the
    comparison across chaining schemes apples-to-apples: ``no_pred``'s
    20-instruction dispatch bodies would otherwise dilute its own
    misprediction rate.
    """
    unit = BranchUnit()
    note_instruction = unit.note_instruction
    process = unit.process
    for template, taken, target, _mem_addr, ras_hit in trace:
        note_instruction(template.v_weight)
        btype = template.btype
        if btype is not None:
            process(template.address, btype, taken, target, ras_hit)
    return unit.stats.per_kilo_instructions()


EVALUATORS = {
    "ildp_ipc": _eval_ildp_ipc,
    "superscalar_ipc": _eval_superscalar_ipc,
    "mispredictions": _eval_mispredictions,
    "instruction_mix": _eval_instruction_mix,
}


# -- execution ----------------------------------------------------------------

def execute_point(point):
    """Run one point and distil it into a JSON-able summary dict."""
    return execute_run([point])[0]


def execute_run(points, spans=None):
    """Run the simulator once for ``points``; returns one summary each.

    The points share one :meth:`RunPoint.run_identity`.  The run calls
    the union of their evaluators once each, in first-seen order, and
    each summary keeps only its own point's evaluations, so it is what
    the point would get alone.  The host entries are the run's:
    ``telemetry_host`` gains a ``run.<kind>`` timer and an
    ``eval.<name>`` timer per evaluator, and ``elapsed`` is the run's
    seconds plus the point's own evaluations'.  When ``spans`` is a
    list, each evaluator call appends ``("eval.<name>", started,
    ended)`` to it, raw ``perf_counter`` readings a tracer can place on
    its timeline.
    """
    point = points[0]
    started = time.perf_counter()
    if point.kind == "original":
        summary, trace = _execute_original(point)
    elif point.kind == "vm":
        summary, trace = _execute_vm(point)
    elif point.kind == "fuzz":
        # lazy import: the fuzz subsystem is optional for ordinary
        # experiment runs and must not widen their import footprint
        from repro.fuzz.oracle import execute_fuzz_point
        summary, trace = execute_fuzz_point(point), None
    else:
        raise ValueError(f"unknown run-point kind {point.kind!r}")
    run_seconds = time.perf_counter() - started
    timers = summary.setdefault("telemetry_host", {"timers": {}})["timers"]
    timers[f"run.{point.kind}"] = {"seconds": run_seconds, "count": 1}

    results, seconds = {}, {}
    for spec in dict.fromkeys(spec for member in points
                              for spec in member.evals):
        started = time.perf_counter()
        results[spec] = EVALUATORS[spec.name](dict(spec.params), trace)
        ended = time.perf_counter()
        seconds[spec] = ended - started
        timer = timers.setdefault(f"eval.{spec.name}",
                                  {"seconds": 0.0, "count": 0})
        timer["seconds"] += seconds[spec]
        timer["count"] += 1
        if spans is not None:
            spans.append((f"eval.{spec.name}", started, ended))
    return [dict(summary,
                 evals={spec.key(): results[spec] for spec in member.evals},
                 elapsed=run_seconds + sum(seconds[spec]
                                           for spec in member.evals))
            for member in points]


def _base_summary(point):
    return {
        "kind": point.kind,
        "workload": point.workload,
        "budget": point.budget,
        "evals": {},
    }


def _execute_original(point):
    trace, interpreter = run_original(point.workload, budget=point.budget)
    summary = _base_summary(point)
    summary.update({
        "committed": len(trace),
        "committed_nonnop": sum(template.v_weight for template
                                in trace.column("templates")),
        "console": interpreter.console_text(),
        "state": {"pc": interpreter.state.pc,
                  "regs": list(interpreter.state.regs)},
        "trace_len": len(trace),
    })
    return summary, trace


def _execute_vm(point):
    config = VMConfig.from_dict(dict(point.config))
    needs_trace = bool(point.evals)
    result = run_vm(point.workload, config, budget=point.budget,
                    collect_trace=needs_trace)
    vm, stats, tcache = result.vm, result.stats, result.tcache
    cost = vm.cost_model
    fragments = tcache.fragments
    source_instrs = sum(f.source_instr_count for f in fragments)
    usage = stats.dynamic_usage_histogram(tcache)

    summary = _base_summary(point)
    summary.update({
        "committed": stats.total_v_instructions(),
        "committed_nonnop": stats.committed_v_instructions(),
        "console": vm.console_text(),
        "state": {"pc": vm.state.pc, "regs": list(vm.state.regs)},
        "halted": vm.halted,
        "trace_len": len(result.trace) if result.trace is not None else None,
        "stats": {
            "interpreted": stats.interpreted_instructions,
            "translated_v": stats.source_instructions_executed,
            "iinstructions": stats.iinstructions_executed,
            "dispatch_instructions": stats.dispatch_instructions,
            "dynamic_expansion": stats.dynamic_expansion(),
            "copy_pct": stats.copy_percentage(),
            "static_expansion": stats.static_expansion(tcache),
            "fragments": stats.fragments_created,
            "ras_hit_rate": stats.ras_hit_rate(),
            "premature_terminations": stats.premature_terminations,
            "interpretation_overhead": stats.interpretation_overhead(),
            "traps_delivered": stats.traps_delivered,
            "tcache_flushes": stats.tcache_flushes,
        },
        "tcache": {
            "fragments": len(fragments),
            "source_instructions": source_instrs,
            "code_bytes": tcache.total_code_bytes(),
            "avg_superblock": (source_instrs / len(fragments)
                               if fragments else 0.0),
        },
        # graceful-degradation counters; all zero here (run points are
        # reconstructed fault-free by design — see VMConfig.key_fields)
        # but the block keeps harness summaries uniform with chaos runs
        "resilience": stats.resilience(),
        "cost": {
            "per_translated_instruction": cost.per_translated_instruction(),
            "phase_fractions": {phase: cost.phase_fraction(phase)
                                for phase in sorted(cost.weights)},
            "fragments": cost.fragments,
        },
        "profiler_candidates": vm.profiler.candidate_count(),
        "usage": {vclass.value: usage[vclass] for vclass in ValueClass},
        # deterministic telemetry: part of the bit-identical contract
        "telemetry": vm.telemetry.summary(),
        # process-local wall-clock measurements: like "elapsed", outside it
        "telemetry_host": vm.telemetry.host_summary(),
    })
    return summary, result.trace
