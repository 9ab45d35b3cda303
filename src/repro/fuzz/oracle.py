"""Differential oracles for generated programs.

Every generated program is judged by agreement between independent
semantics, never by a hand-written expectation:

* **cosim** — the co-designed VM (naive engine) must reproduce the pure
  interpreter bit for bit: final PC, all 32 registers, console
  output, the data buffer, the committed-instruction count, and — on a
  trap — the trap kind and precise V-PC;
* **engine** — the VM run again under the jit must match the naive
  run, including every ``VMStats`` counter (``vars()`` equality); the
  jit compiles every fragment on first entry, so its generated code
  executes even on short fuzz loops.  A second jit run collects the
  committed-instruction trace: its outcome, its ``VMStats`` and its
  trace's five columns, row for row, must equal the naive run's, so
  both ways the jit engine runs a fragment (generated code untraced,
  prebuilt steps traced) stay under the oracle;
* **chaos** (optional) — the VM under a seeded fault schedule must still
  converge to the fault-free reference.

Budget exhaustion on either side makes a comparison *inconclusive*, not
a finding: generated programs terminate by construction, but shrinking
can manufacture infinite loops, and the shrink predicate must not chase
them.
"""

import hashlib

from repro.faults.plan import DEFAULT_CHAOS_SPECS, HOSTILE_CHAOS_SPECS
from repro.fuzz.gen import BUF_SIZE
from repro.interp.interpreter import Halted, Interpreter
from repro.isa.semantics import Trap
from repro.vm.config import VMConfig
from repro.vm.events import first_difference
from repro.vm.system import BudgetExceeded, CoDesignedVM
from repro.vm.traps import VMTrap

#: Generous default: generated programs run a few thousand dynamic
#: instructions, so hitting this means a shrink artifact, not slowness.
ORACLE_BUDGET = 200_000

#: Hot threshold for oracle runs.  The default (50) would leave short
#: fuzz loops interpreted forever; 8 guarantees the outer loop — and
#: usually the inner ones — actually reach translated code.
ORACLE_THRESHOLD = 8

#: Chaos-stage fault schedule (the same default ``repro chaos`` uses).
CHAOS_SPEC = ";".join(DEFAULT_CHAOS_SPECS)

#: Chaos-stage schedule for hostile programs: the defaults plus the
#: SMC-widening and spurious-protect-invalidation sites, which only have
#: something to bite when the guest actually self-modifies or calls
#: ``protect``.  Both are behaviour-neutral (they invalidate more than
#: strictly needed), so the fault-free reference still applies.
HOSTILE_CHAOS_SPEC = ";".join(DEFAULT_CHAOS_SPECS + HOSTILE_CHAOS_SPECS)

STAGES = ("cosim", "engine", "chaos")

#: The engine the oracle's VM runs use as the reference.
REFERENCE_ENGINE = "naive"


class Outcome:
    """What one execution of a program observably did."""

    __slots__ = ("status", "pc", "regs", "console", "mem", "committed",
                 "trap_kind", "trap_vpc", "insns")

    def __init__(self, status, pc, regs, console, mem, committed=None,
                 trap_kind=None, trap_vpc=None, insns=0):
        self.status = status          # "halted" | "trap" | "budget"
        self.pc = pc
        self.regs = list(regs)
        self.console = console
        self.mem = mem                # sha256 hex digest of the buffer
        self.committed = committed    # non-elided count (halt only)
        self.trap_kind = trap_kind
        self.trap_vpc = trap_vpc
        self.insns = insns            # total dynamic instructions

    def to_dict(self):
        return {
            "status": self.status, "pc": self.pc, "console": self.console,
            "mem": self.mem, "committed": self.committed,
            "trap_kind": self.trap_kind, "trap_vpc": self.trap_vpc,
            "insns": self.insns,
        }


def _mem_digest(program, fprog):
    data = program.memory.read_bytes(
        fprog.data_base, max(BUF_SIZE, len(fprog.data)))
    return hashlib.sha256(data).hexdigest()


def run_reference(fprog, budget=ORACLE_BUDGET):
    """Pure interpretation: the ground-truth outcome.

    A hand-written step loop (``Interpreter.run`` folds halt and budget
    exhaustion together) that also counts committed instructions the way
    the VM does: NOPs and plain unconditional branches are elided by
    translation, so they carry no commit weight.
    """
    program = fprog.to_program()
    interp = Interpreter(program)
    committed = 0
    steps = 0
    status = "budget"
    trap_kind = trap_vpc = None
    while steps < budget:
        try:
            instr = interp.step()[1]
        except Halted:
            # the halting CALL_PAL is not committed (matches the VM,
            # which drops it from interpreted_instructions too)
            status = "halted"
            break
        except Trap as trap:
            status = "trap"
            trap_kind = trap.kind.value
            trap_vpc = trap.vpc
            break
        if not instr.elided:
            committed += 1
        steps += 1
    return Outcome(status, interp.state.pc, interp.state.regs,
                   interp.console_text(), _mem_digest(program, fprog),
                   committed=committed if status == "halted" else None,
                   trap_kind=trap_kind, trap_vpc=trap_vpc, insns=steps)


def oracle_config(exec_engine=REFERENCE_ENGINE, faults=None, fault_seed=0,
                  trace=False, collect_trace=False):
    """The VM configuration oracle stages run under."""
    return VMConfig(threshold=ORACLE_THRESHOLD, collect_trace=collect_trace,
                    exec_engine=exec_engine, faults=faults,
                    fault_seed=fault_seed, trace=trace)


def run_vm_outcome(fprog, config, budget=ORACLE_BUDGET):
    """Run under the co-designed VM; returns ``(Outcome, vm)``."""
    program = fprog.to_program()
    vm = CoDesignedVM(program, config)
    trap_kind = trap_vpc = None
    pc = None
    regs = None
    try:
        vm.run(max_v_instructions=budget)
        # run() also returns when the V-instruction budget is spent
        status = "halted" if vm.halted else "budget"
    except VMTrap as exc:
        status = "trap"
        trap_kind = exc.trap.kind.value
        trap_vpc = exc.trap.vpc
        pc = exc.state.pc
        regs = exc.state.regs
    except BudgetExceeded:
        status = "budget"
    if pc is None:
        pc = vm.state.pc
        regs = vm.state.regs
    committed = vm.stats.committed_v_instructions() \
        if status == "halted" else None
    outcome = Outcome(status, pc, regs, vm.console_text(),
                      _mem_digest(program, fprog), committed=committed,
                      trap_kind=trap_kind, trap_vpc=trap_vpc,
                      insns=vm.stats.total_v_instructions())
    return outcome, vm


def compare_outcomes(expected, actual, check_committed=True):
    """Differences between two outcomes, as human-readable reasons.

    Returns ``None`` (inconclusive) when either side ran out of budget.
    """
    if expected.status == "budget" or actual.status == "budget":
        return None
    reasons = []
    if expected.status != actual.status:
        reasons.append(f"status: expected {expected.status}, "
                       f"got {actual.status}")
        return reasons
    if expected.status == "trap":
        if expected.trap_kind != actual.trap_kind:
            reasons.append(f"trap kind: expected {expected.trap_kind}, "
                           f"got {actual.trap_kind}")
        if expected.trap_vpc != actual.trap_vpc:
            reasons.append(
                f"trap vpc: expected {expected.trap_vpc:#x}, "
                f"got {actual.trap_vpc:#x}")
    if expected.pc != actual.pc:
        reasons.append(f"pc: expected {expected.pc:#x}, got {actual.pc:#x}")
    for index, (want, got) in enumerate(zip(expected.regs, actual.regs)):
        if want != got:
            reasons.append(f"r{index}: expected {want:#x}, got {got:#x}")
    if expected.console != actual.console:
        reasons.append(f"console: expected {expected.console!r}, "
                       f"got {actual.console!r}")
    if expected.mem != actual.mem:
        reasons.append("data buffer contents differ")
    if check_committed and expected.status == "halted" and \
            expected.committed != actual.committed:
        reasons.append(f"committed: expected {expected.committed}, "
                       f"got {actual.committed}")
    return reasons


def check_program(fprog, budget=ORACLE_BUDGET, chaos=False, stages=None,
                  chaos_seed=None):
    """Run the oracle stack over one program.

    The engine stage runs the jit against the naive reference with full
    ``VMStats`` equality, untraced and then trace-collecting (whose
    trace must also equal the naive run's).  Returns a report dict:
    ``failures`` is a list of ``{stage, reason}`` records (empty means
    the program agrees everywhere), ``inconclusive`` lists stages
    skipped for budget
    exhaustion, and ``telemetry``/``telemetry_host`` are the naive VM
    run's summaries when a cosim or engine stage made that run.
    """
    if stages is None:
        stages = ("cosim", "engine") + (("chaos",) if chaos else ())
    failures = []
    inconclusive = []

    reference = run_reference(fprog, budget=budget)
    naive = None
    naive_vm = None
    # the naive run is the engine stage's trace reference too
    naive_config = oracle_config(collect_trace="engine" in stages)

    if "cosim" in stages:
        naive, naive_vm = run_vm_outcome(fprog, naive_config,
                                         budget=budget)
        reasons = compare_outcomes(reference, naive)
        if reasons is None:
            inconclusive.append("cosim")
        else:
            failures.extend({"stage": "cosim", "reason": reason}
                            for reason in reasons)

    if "engine" in stages:
        if naive is None:
            naive, naive_vm = run_vm_outcome(fprog, naive_config,
                                             budget=budget)
        jit, jit_vm = run_vm_outcome(
            fprog, oracle_config(exec_engine="jit"), budget=budget)
        reasons = compare_outcomes(naive, jit)
        if reasons is None:
            inconclusive.append("engine")
        else:
            failures.extend({"stage": "engine", "reason": f"[jit] {reason}"}
                            for reason in reasons)
            if vars(jit_vm.stats) != vars(naive_vm.stats):
                diffs = _stats_diff(naive_vm.stats, jit_vm.stats)
                failures.extend({"stage": "engine",
                                 "reason": f"stats.{name}: naive "
                                           f"{a}, jit {b}"}
                                for name, a, b in diffs)
            traced, traced_vm = run_vm_outcome(
                fprog, oracle_config(exec_engine="jit", collect_trace=True),
                budget=budget)
            reasons = compare_outcomes(naive, traced) or []
            reasons += [f"stats.{name}: naive {a}, jit {b}"
                        for name, a, b in _stats_diff(naive_vm.stats,
                                                      traced_vm.stats)]
            difference = first_difference(traced_vm.trace, naive_vm.trace)
            if difference is not None:
                reasons.append(f"trace {difference}")
            failures.extend({"stage": "engine",
                             "reason": f"[jit traced] {reason}"}
                            for reason in reasons)

    if "chaos" in stages:
        seed = chaos_seed if chaos_seed is not None else \
            (fprog.seed * 1_000_003 + fprog.index + 1) & 0x7FFFFFFF
        spec = HOSTILE_CHAOS_SPEC if getattr(fprog, "hostile", False) \
            else CHAOS_SPEC
        chaotic, _chaos_vm = run_vm_outcome(
            fprog, oracle_config(faults=spec, fault_seed=seed),
            budget=budget)
        # faults change how the run gets there, never where it ends up:
        # stats are expected to differ, committed accounting is not
        reasons = compare_outcomes(reference, chaotic)
        if reasons is None:
            inconclusive.append("chaos")
        else:
            failures.extend({"stage": "chaos", "reason": reason}
                            for reason in reasons)

    report = {
        "seed": fprog.seed,
        "index": fprog.index,
        "generator_version": fprog.version,
        "outcome": reference.to_dict(),
        "failures": failures,
        "inconclusive": inconclusive,
    }
    if naive_vm is not None:
        report["telemetry"] = naive_vm.telemetry.summary()
        report["telemetry_host"] = naive_vm.telemetry.host_summary()
    return report


def _stats_diff(a, b):
    avars, bvars = vars(a), vars(b)
    return [(name, avars[name], bvars[name])
            for name in sorted(avars)
            if avars[name] != bvars.get(name)]


def execute_fuzz_point(point):
    """Harness entry: run one fuzz run point and summarise it.

    Pure function of the point (see ``repro.harness.runpoints``): the
    program is regenerated from ``(seed, index, max_insns)``, so the
    summary — including the program's text hash — is bit-identical in
    any process, which the campaign exploits as a built-in cross-process
    determinism check.
    """
    from repro.fuzz.gen import generate

    fields = dict(point.config)
    hostile = fields.get("hostile", False)
    fprog = generate(fields["seed"], index=fields["index"],
                     max_insns=fields["max_insns"], hostile=hostile)
    report = check_program(fprog, budget=point.budget,
                           chaos=fields["chaos"])
    text = fprog.to_bytes()
    summary = {
        "kind": "fuzz",
        "workload": fprog.name,
        "seed": fprog.seed,
        "index": fprog.index,
        "generator_version": fprog.version,
        "max_insns": fields["max_insns"],
        "chaos": fields["chaos"],
        "hostile": hostile,
        "budget": point.budget,
        "insns": len(fprog.words),
        "text_sha256": hashlib.sha256(text).hexdigest(),
        "shapes": dict(fprog.shapes),
        "outcome": report["outcome"],
        "failures": report["failures"],
        "inconclusive": report["inconclusive"],
        "evals": {},
    }
    for block in ("telemetry", "telemetry_host"):
        if block in report:
            summary[block] = report[block]
    return summary
