"""Command-line interface.

::

    python -m repro workloads                 # list the workload suite
    python -m repro run gzip --fmt modified   # run one workload in the VM
    python -m repro translate gzip            # dump the hottest fragment
    python -m repro profile gzip              # hot fragments + phase times
    python -m repro trace gzip -o trace.json  # span timeline (Perfetto)
    python -m repro experiment fig8 -w gzip -w mcf   # one paper experiment
    python -m repro bench-compare BENCH_exec.json fresh.json  # perf gate
"""

import argparse
import sys
import time

from repro.harness import experiments as experiment_modules
from repro.harness.runner import run_vm
from repro.ildp_isa.disasm import disassemble_iinstr
from repro.ildp_isa.opcodes import IFormat
from repro.translator.chaining import ChainingPolicy
from repro.vm.config import VMConfig
from repro.workloads import WORKLOAD_NAMES, all_workloads

_FORMATS = {fmt.value: fmt for fmt in IFormat}
_POLICIES = {policy.value: policy for policy in ChainingPolicy}
_EXPERIMENTS = {
    name: getattr(experiment_modules, name)
    for name in ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table2",
                 "overhead", "ablation_fusion", "ablation_steering",
                 "ablation_accumulators", "ablation_idealism",
                 "characterization")
}


def build_parser():
    """Construct the argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Co-designed VM reproduction (Kim & Smith, CGO 2003)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the synthetic workload suite")

    run_parser = sub.add_parser("run", help="run a workload under the VM")
    _add_vm_arguments(run_parser)
    run_parser.add_argument("--trace-out", default=None, metavar="PATH",
                            help="also span-trace the run and write a "
                                 "Chrome trace-event JSON file")

    translate_parser = sub.add_parser(
        "translate", help="show a workload's hottest translated fragment")
    _add_vm_arguments(translate_parser)

    profile_parser = sub.add_parser(
        "profile", help="run a workload and report the hottest "
                        "fragments and translation-phase times")
    _add_vm_arguments(profile_parser)
    profile_parser.add_argument("--top", type=_positive_int, default=10,
                                help="fragments to show (default 10)")

    trace_parser = sub.add_parser(
        "trace", help="run one workload with span tracing and export a "
                      "Chrome trace-event JSON timeline (load it in "
                      "Perfetto or chrome://tracing)")
    _add_vm_arguments(trace_parser)
    trace_parser.add_argument("-o", "--output", default="trace.json",
                              help="trace-event JSON path "
                                   "(default trace.json)")
    trace_parser.add_argument("--flame-top", type=_positive_int,
                              default=15, metavar="N",
                              help="span paths in the flame summary "
                                   "(default 15)")

    experiment_parser = sub.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures")
    experiment_parser.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment_parser.add_argument("-w", "--workload", action="append",
                                   choices=WORKLOAD_NAMES, dest="workloads",
                                   help="restrict to specific workloads")
    experiment_parser.add_argument("--budget", type=int, default=60_000)
    _add_runner_arguments(experiment_parser)

    compare_parser = sub.add_parser(
        "bench-compare",
        help="gate a fresh benchmark record against a baseline "
             "(exit 1 on regression)")
    compare_parser.add_argument("baseline",
                                help="baseline record, e.g. BENCH_exec.json")
    compare_parser.add_argument("current",
                                help="fresh record to gate")
    compare_parser.add_argument("--tolerance", type=float, default=None,
                                metavar="FRAC",
                                help="relative tolerance for wall-clock "
                                     "metrics (default 0.05)")
    compare_parser.add_argument("--slack", type=float, default=None,
                                metavar="SECONDS",
                                help="absolute slack for *_seconds metrics "
                                     "(default 0.005)")

    chaos_parser = sub.add_parser(
        "chaos", help="run a workload under a seeded fault schedule and "
                      "check convergence against the fault-free "
                      "interpreter (exit 1 on divergence)")
    _add_vm_arguments(chaos_parser)
    chaos_parser.add_argument("--fault-spec", action="append",
                              dest="fault_specs", metavar="SPEC",
                              help="fault spec (site[@key=value,...]); "
                                   "repeatable; default: a schedule "
                                   "covering translation failure, "
                                   "corruption and tcache exhaustion")
    chaos_parser.add_argument("--fault-seed", type=int, default=1234,
                              help="seed for probabilistic fault "
                                   "selectors (default 1234)")
    chaos_parser.add_argument("--tcache-capacity", type=_positive_int,
                              default=None, metavar="BYTES",
                              help="also bound the translation cache")
    chaos_parser.add_argument("--max-host-steps", type=_positive_int,
                              default=None, metavar="N",
                              help="fuel watchdog: abort cleanly after N "
                                   "host dispatch steps")
    chaos_parser.add_argument("--hostile", action="store_true",
                              help="extend the fault schedule with the "
                                   "hostile-guest sites (SMC widening, "
                                   "spurious protect invalidation)")

    fuzz_parser = sub.add_parser(
        "fuzz", help="run seeded random programs through the "
                     "differential oracle stack (exit 1 on divergence)")
    fuzz_parser.add_argument("--count", type=_positive_int, default=100,
                             help="programs to generate (default 100)")
    fuzz_parser.add_argument("--seed", type=int, default=1,
                             help="campaign seed (default 1)")
    fuzz_parser.add_argument("--max-insns", type=_positive_int,
                             default=60, metavar="N",
                             help="loop-body size bound per program "
                                  "(default 60)")
    fuzz_parser.add_argument("--budget", type=_positive_int,
                             default=200_000,
                             help="V-instruction budget per oracle run "
                                  "(default 200000)")
    fuzz_parser.add_argument("--chaos", action="store_true",
                             help="also run each program under a seeded "
                                  "fault schedule")
    fuzz_parser.add_argument("--hostile", action="store_true",
                             help="generate hostile-guest programs: "
                                  "self-modifying stores, page-"
                                  "protection flips and syscalls")
    fuzz_parser.add_argument("--shrink", action="store_true",
                             help="shrink each finding to a minimal "
                                  "reproducer")
    fuzz_parser.add_argument("--corpus-dir", default=None, metavar="DIR",
                             help="write the reproducible corpus "
                                  "(one JSON record per program)")
    fuzz_parser.add_argument("--workers", type=_positive_int, default=1,
                             help="worker processes (default 1)")
    fuzz_parser.add_argument("--telemetry", action="store_true",
                             help="print aggregate VM telemetry across "
                                  "the oracle's naive VM runs")
    fuzz_parser.add_argument("--trace-out", default=None, metavar="PATH",
                             help="span-trace the campaign and write "
                                  "Chrome trace-event JSON")

    map_parser = sub.add_parser(
        "map", help="show a workload's translation-cache fragment map")
    _add_vm_arguments(map_parser)

    report_parser = sub.add_parser(
        "report", help="run every experiment and write a markdown report")
    report_parser.add_argument("-o", "--output", default="results.md")
    report_parser.add_argument("-w", "--workload", action="append",
                               choices=WORKLOAD_NAMES, dest="workloads")
    report_parser.add_argument("--budget", type=int, default=60_000)
    _add_runner_arguments(report_parser)
    return parser


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_runner_arguments(parser):
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="worker processes for independent run points")
    parser.add_argument("--no-cache", action="store_true",
                        help="always execute; skip the on-disk result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache directory "
                             "(default: $REPRO_CACHE_DIR or "
                             "~/.cache/repro/runpoints)")
    parser.add_argument("--telemetry", action="store_true",
                        help="print the aggregate telemetry the harness "
                             "collected across all run points")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="span-trace the harness (each run point a "
                             "span, workers on their own tracks) and "
                             "write Chrome trace-event JSON")


def _runner_from(args):
    from repro.harness.parallel import PointRunner
    from repro.harness.resultcache import ResultCache
    from repro.obs.trace import Tracer

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    tracer = Tracer(thread_name="runner") \
        if getattr(args, "trace_out", None) else None
    return PointRunner(workers=args.workers, cache=cache, tracer=tracer)


def _finish_runner(args, runner, out):
    """Shared experiment/report epilogue: telemetry + trace output."""
    if getattr(args, "telemetry", False):
        from repro.obs.profile import phase_breakdown_lines

        print("", file=out)
        print("aggregate telemetry (all run points):", file=out)
        for line in phase_breakdown_lines(runner.telemetry):
            print(f"  {line}", file=out)
        counters = runner.telemetry.to_dict()["counters"]
        for name in sorted(counters):
            print(f"  {name:32s} {counters[name]}", file=out)
    if getattr(args, "trace_out", None):
        runner.tracer.write(args.trace_out)
        print(f"wrote {args.trace_out} "
              f"({len(runner.tracer.events)} trace events)", file=out)


def _add_vm_arguments(parser):
    parser.add_argument("workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--fmt", choices=sorted(_FORMATS),
                        default="modified")
    parser.add_argument("--policy", choices=sorted(_POLICIES),
                        default="sw_pred.ras")
    parser.add_argument("--accumulators", type=int, default=4)
    parser.add_argument("--budget", type=int, default=200_000)
    parser.add_argument("--fuse-memory", action="store_true")
    parser.add_argument("--exec-engine", choices=("jit", "naive"),
                        default="jit",
                        help="compile fragments to generated Python on "
                             "first entry (jit, the default) or walk them "
                             "through the reference dispatch (naive)")


def _config_from(args):
    return VMConfig(fmt=_FORMATS[args.fmt],
                    policy=_POLICIES[args.policy],
                    n_accumulators=args.accumulators,
                    fuse_memory=args.fuse_memory,
                    exec_engine=args.exec_engine)


def _command_workloads(_args, out):
    for workload in all_workloads():
        print(f"{workload.name:8s}  {workload.description}", file=out)
    return 0


def _command_run(args, out):
    config = _config_from(args)
    if args.trace_out is not None:
        config = config.copy(trace=True)
    result = run_vm(args.workload, config, budget=args.budget,
                    collect_trace=False)
    stats = result.stats
    print(f"workload : {args.workload}", file=out)
    print(f"target   : {args.fmt} / {args.policy}", file=out)
    print(f"console  : {result.vm.console_text()!r}", file=out)
    for line in stats.render_lines():
        print(line, file=out)
    cost = result.vm.cost_model
    print(f"translation cost: "
          f"{cost.per_translated_instruction():.0f} insts/translated inst",
          file=out)
    if args.trace_out is not None:
        result.vm.tracer.write(args.trace_out)
        print(f"wrote {args.trace_out} "
              f"({len(result.vm.tracer.events)} trace events)", file=out)
    return 0


def _command_trace(args, out):
    config = _config_from(args).copy(trace=True)
    result = run_vm(args.workload, config, budget=args.budget,
                    collect_trace=False)
    tracer = result.vm.tracer
    print(f"trace of {args.workload} "
          f"({args.fmt} / {args.policy}, budget {args.budget})", file=out)
    for line in tracer.flame_lines(top=args.flame_top):
        print(line, file=out)
    if tracer.dropped:
        print(f"warning: {tracer.dropped} spans dropped (buffer holds "
              f"{tracer.max_events}); the timeline is truncated", file=out)
    tracer.write(args.output)
    print(f"wrote {args.output} ({len(tracer.events)} trace events) — "
          f"load it in https://ui.perfetto.dev or chrome://tracing",
          file=out)
    return 0


def _command_bench_compare(args, out):
    import json

    from repro.obs import regress

    docs = []
    for path in (args.baseline, args.current):
        try:
            with open(path) as handle:
                docs.append(json.load(handle))
        except (OSError, ValueError) as exc:
            print(f"bench-compare: cannot read {path}: {exc}", file=out)
            return 2
    kwargs = {}
    if args.tolerance is not None:
        kwargs["time_tolerance"] = args.tolerance
    if args.slack is not None:
        kwargs["slack"] = args.slack
    comparison = regress.compare_benchmarks(docs[0], docs[1], **kwargs)
    print(f"bench-compare: {args.baseline} (baseline) vs "
          f"{args.current}", file=out)
    for line in comparison.render_lines():
        print(line, file=out)
    return 0 if comparison.ok else 1


def _command_profile(args, out):
    from repro.obs.profile import hot_fragment_table, phase_breakdown_lines
    from repro.tcache.dump import cache_totals_line

    result = run_vm(args.workload, _config_from(args), budget=args.budget,
                    collect_trace=False)
    registry = result.vm.telemetry.registry
    print(f"profile of {args.workload} "
          f"({args.fmt} / {args.policy}, budget {args.budget})", file=out)
    print(cache_totals_line(result.tcache), file=out)
    print("", file=out)
    for line in result.stats.render_lines():
        print(line, file=out)
    print("", file=out)
    for line in phase_breakdown_lines(registry):
        print(line, file=out)
    print("", file=out)
    for line in hot_fragment_table(result.tcache, top=args.top):
        print(line, file=out)
    return 0


def _command_translate(args, out):
    result = run_vm(args.workload, _config_from(args), budget=args.budget,
                    collect_trace=False)
    fragments = sorted(result.tcache.fragments,
                       key=lambda f: f.execution_count, reverse=True)
    if not fragments:
        print("nothing was hot enough to translate", file=out)
        return 1
    fragment = fragments[0]
    print(f"hottest fragment: V:{fragment.entry_vpc:#x}, "
          f"executed {fragment.execution_count} times, "
          f"{fragment.source_instr_count} source instructions -> "
          f"{len(fragment.body)} {args.fmt} instructions "
          f"({fragment.byte_size} bytes)", file=out)
    for instr in fragment.body:
        print(f"  {instr.address:#09x}  "
              f"{disassemble_iinstr(instr, fragment.fmt)}", file=out)
    return 0


def _command_experiment(args, out):
    module = _EXPERIMENTS[args.name]
    runner = _runner_from(args)
    started = time.perf_counter()
    result = module.run(workloads=args.workloads, budget=args.budget,
                        runner=runner)
    runner.tracer.add_complete(f"experiment.{args.name}", started,
                               time.perf_counter(), cat="report")
    print(result.render(), file=out)
    print(runner.report.render(), file=out)
    _finish_runner(args, runner, out)
    return 0


def _command_chaos(args, out):
    from repro.faults.plan import DEFAULT_CHAOS_SPECS, HOSTILE_CHAOS_SPECS
    from repro.harness.runner import run_original
    from repro.vm.system import BudgetExceeded

    specs = args.fault_specs if args.fault_specs else \
        list(DEFAULT_CHAOS_SPECS)
    if args.hostile:
        specs = specs + list(HOSTILE_CHAOS_SPECS)
    config = _config_from(args).copy(
        faults=";".join(specs), fault_seed=args.fault_seed,
        tcache_capacity_bytes=args.tcache_capacity,
        max_host_steps=args.max_host_steps)
    print(f"chaos run: {args.workload} under "
          f"{config.faults!r} (seed {args.fault_seed})", file=out)

    try:
        result = run_vm(args.workload, config, budget=args.budget,
                        collect_trace=False)
    except BudgetExceeded as exc:
        print(f"fuel watchdog tripped: {exc} "
              f"({exc.stats.total_v_instructions()} V-instructions "
              "committed before the abort)", file=out)
        return 1
    vm = result.vm

    injected = vm.injector.summary()
    print(f"faults injected: {injected['injected'] or 'none'} "
          f"(site occurrences {injected['occurrences']})", file=out)
    for name, value in vm.stats.resilience().items():
        if value:
            print(f"  {name:28s} {value}", file=out)

    trace, interp = run_original(args.workload, budget=args.budget)
    failures = []
    if not vm.halted:
        failures.append("VM did not reach halt")
    if vm.state.pc != interp.state.pc:
        failures.append(f"final PC {vm.state.pc:#x} != "
                        f"{interp.state.pc:#x}")
    if vm.state.regs != interp.state.regs:
        failures.append("final register state diverged")
    if vm.console_text() != interp.console_text():
        failures.append("console output diverged")
    expected = sum(template.v_weight
                   for template in trace.column("templates")
                   if template.btype != "uncond")
    committed = vm.stats.committed_v_instructions()
    if committed != expected:
        failures.append(f"committed count {committed} != {expected}")

    if failures:
        print("DIVERGED from the fault-free interpreter:", file=out)
        for failure in failures:
            print(f"  - {failure}", file=out)
        return 1
    print(f"converged: architected state and committed count "
          f"({committed}) bit-identical to the fault-free interpreter",
          file=out)
    return 0


def _command_fuzz(args, out):
    from repro.fuzz.campaign import run_campaign
    from repro.harness.parallel import PointRunner
    from repro.obs.trace import Tracer

    tracer = Tracer(thread_name="fuzz") if args.trace_out else None
    runner = PointRunner(workers=args.workers, cache=None, tracer=tracer)
    result = run_campaign(args.count, args.seed,
                          max_insns=args.max_insns, chaos=args.chaos,
                          shrink=args.shrink, workers=args.workers,
                          budget=args.budget, corpus_dir=args.corpus_dir,
                          runner=runner, hostile=args.hostile)
    for line in result.render_lines():
        print(line, file=out)
    if args.corpus_dir:
        print(f"wrote {len(result.corpus_files)} corpus records to "
              f"{args.corpus_dir}", file=out)
    print(runner.report.render(), file=out)
    _finish_runner(args, runner, out)
    return 0 if result.ok else 1


def _command_map(args, out):
    from repro.tcache.dump import print_fragment_map

    result = run_vm(args.workload, _config_from(args), budget=args.budget,
                    collect_trace=False)
    print_fragment_map(result.tcache, out=out)
    return 0


def _command_report(args, out):
    from repro.harness.report import generate_report

    runner = _runner_from(args)
    text = generate_report(workloads=args.workloads, budget=args.budget,
                           runner=runner)
    with open(args.output, "w") as handle:
        handle.write(text)
    print(runner.report.render(), file=out)
    print(f"wrote {args.output}", file=out)
    _finish_runner(args, runner, out)
    return 0


def main(argv=None, out=None):
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    handler = {
        "workloads": _command_workloads,
        "run": _command_run,
        "translate": _command_translate,
        "profile": _command_profile,
        "trace": _command_trace,
        "experiment": _command_experiment,
        "bench-compare": _command_bench_compare,
        "chaos": _command_chaos,
        "fuzz": _command_fuzz,
        "map": _command_map,
        "report": _command_report,
    }[args.command]
    return handler(args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
