"""The translation pipeline driver.

``Translator.translate(superblock)`` runs the full pipeline for the
configured target, charges the cost model, installs the fragment in the
translation cache (applying chaining patches), and returns the intermediate
analyses for statistics collection.
"""

from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, FaultSite
from repro.ildp_isa.opcodes import IFormat
from repro.obs.telemetry import Telemetry
from repro.obs.trace import NULL_TRACER, MultiSpan
from repro.translator.chaining import ChainingPolicy
from repro.translator.codegen import CodeGenerator
from repro.translator.copyrules import build_copy_plan
from repro.translator.cost import TranslationCostModel
from repro.translator.decompose import decompose
from repro.translator.strand import form_strands
from repro.translator.usage import analyze_usage


class TranslationError(Exception):
    """The translator failed to produce a fragment for a superblock.

    Raised before any translation-cache state is mutated.  The VM
    degrades gracefully: the superblock's entry PC falls back to
    interpretation, with retry/backoff and eventual blacklisting
    (``docs/robustness.md``).
    """

    def __init__(self, entry_vpc, reason):
        super().__init__(
            f"translation failed for V:{entry_vpc:#x}: {reason}")
        self.entry_vpc = entry_vpc
        self.reason = reason


class TranslationResult:
    """A freshly installed fragment plus its analyses (for statistics)."""

    __slots__ = ("fragment", "nodes", "usage", "strands", "plan")

    def __init__(self, fragment, nodes, usage=None, strands=None, plan=None):
        self.fragment = fragment
        self.nodes = nodes
        self.usage = usage
        self.strands = strands
        self.plan = plan


class Translator:
    """Translates superblocks into fragments for one target configuration."""

    def __init__(self, tcache, fmt=IFormat.MODIFIED,
                 policy=ChainingPolicy.SW_PRED_RAS, n_accumulators=4,
                 fuse_memory=False, cost_model=None, telemetry=None,
                 tracer=None, injector=None):
        self.tcache = tcache
        self.injector = injector if injector is not None \
            else FaultInjector(FaultPlan(()))
        self.fmt = fmt
        self.policy = policy
        self.n_accumulators = n_accumulators
        self.fuse_memory = fuse_memory
        self.cost = cost_model if cost_model is not None else \
            TranslationCostModel()
        self.telemetry = telemetry if telemetry is not None \
            else Telemetry()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def _phase(self, name):
        """A wall-clock span for one pipeline stage (paid once per stage
        per translated superblock, off the execution hot path).  With
        tracing on, the stage also lands on the span timeline."""
        timer = self.telemetry.registry.timer(
            f"phase.translate.{name}").time()
        if self.tracer.enabled:
            return MultiSpan(timer, self.tracer.span(
                f"translate.{name}", cat="translate"))
        return timer

    def translate(self, superblock):
        """Translate one superblock and install the fragment."""
        with self.tracer.span("translate", cat="translate",
                              entry_vpc=superblock.entry_vpc,
                              entries=len(superblock.entries)):
            return self._translate(superblock)

    def _translate(self, superblock):
        if self.injector.fire(FaultSite.TRANSLATE,
                              vpc=superblock.entry_vpc):
            # before any cache mutation or cost charge: an injected
            # failure must leave the stack exactly as it found it
            raise TranslationError(superblock.entry_vpc, "injected fault")
        cost = self.cost
        charge = cost.charge
        charge("fetch_decode", len(superblock.entries))

        if self.fmt is IFormat.ALPHA:
            with self._phase("decompose"):
                nodes = decompose(superblock, fuse_memory=True,
                                  split_cmov=False)
            usage = strands = plan = None
        else:
            with self._phase("decompose"):
                nodes = decompose(superblock, fuse_memory=self.fuse_memory)
            with self._phase("usage"):
                usage = analyze_usage(nodes)
            with self._phase("strand"):
                strands = form_strands(nodes, usage, self.n_accumulators)
            with self._phase("allocate"):
                plan = build_copy_plan(nodes, usage, strands)
            charge("usage", sum(len(v.uses) + 1 for v in usage.values))
            charge("classify", len(usage.values))
            charge("strand", len(strands.strands) + len(nodes))
        charge("decompose", len(nodes))

        with self._phase("codegen"):
            generator = CodeGenerator(
                superblock, nodes, self.fmt, self.policy, self.tcache,
                usage=usage, strands=strands, plan=plan,
                n_accumulators=self.n_accumulators)
            fragment = generator.generate()

        charge("codegen", len(fragment.body))
        charge("tcache_copy", len(fragment.body))
        charge("chaining", len(fragment.exits))
        cost.note_fragment(fragment.source_instr_count)

        with self._phase("chaining"):
            self.tcache.add(fragment)
        return TranslationResult(fragment, nodes, usage, strands, plan)
