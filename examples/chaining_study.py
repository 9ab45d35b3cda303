"""Fragment chaining study (paper Section 3.2 / Fig. 4).

Runs an indirect-jump-heavy workload (the perlbmk stand-in) under the three
chaining implementations and shows how software jump-target prediction and
the dual-address return address stack change dispatch traffic, dynamic
expansion and misprediction rates.

    python examples/chaining_study.py
"""

from repro.harness.runner import run_original, run_vm
from repro.harness.runpoints import count_mispredictions
from repro.ildp_isa.opcodes import IFormat
from repro.translator.chaining import ChainingPolicy
from repro.vm.config import VMConfig

WORKLOAD = "perlbmk"
BUDGET = 60_000


def main():
    trace, _interp = run_original(WORKLOAD, budget=BUDGET)
    print(f"workload: {WORKLOAD}")
    print(f"original binary: {count_mispredictions(trace):.2f} "
          "mispredictions / 1000 V-instructions\n")

    header = (f"{'policy':16s} {'misp/1k':>8s} {'expansion':>10s} "
              f"{'dispatch runs':>14s} {'RAS hit rate':>13s}")
    print(header)
    print("-" * len(header))
    for policy in ChainingPolicy:
        result = run_vm(WORKLOAD,
                        VMConfig(fmt=IFormat.ALPHA, policy=policy),
                        budget=BUDGET)
        stats = result.stats
        mispredictions = count_mispredictions(result.trace)
        ras = f"{stats.ras_hit_rate():.2f}" if policy.dual_address_ras \
            else "-"
        print(f"{policy.value:16s} {mispredictions:8.2f} "
              f"{stats.dynamic_expansion():10.3f} "
              f"{stats.dispatch_runs:14d} {ras:>13s}")

    print("\npaper shape: no_pred funnels every indirect transfer through"
          "\nthe shared dispatch code (one unpredictable jump serves all"
          "\ntargets); software prediction removes most dispatch runs; the"
          "\ndual-address RAS recovers return-address prediction that"
          "\ntrace-based DBT otherwise destroys.")


if __name__ == "__main__":
    main()
