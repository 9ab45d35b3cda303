"""IPC study (paper Figs. 8 and 9, condensed).

For one workload, compares the original binary on the idealised
out-of-order superscalar against the translated accumulator code on the
ILDP distributed machine, then sweeps the ILDP machine parameters.

    python examples/ipc_study.py [workload]
"""

import sys

from repro.harness.runner import run_original, run_vm
from repro.ildp_isa.opcodes import IFormat
from repro.uarch.config import SUPERSCALAR, ildp_config
from repro.uarch.ildp import ILDPModel
from repro.uarch.superscalar import SuperscalarModel
from repro.vm.config import VMConfig

BUDGET = 60_000


def main():
    workload = sys.argv[1] if len(sys.argv) > 1 else "gzip"
    print(f"workload: {workload}\n")

    trace, _interp = run_original(workload, budget=BUDGET)
    original = SuperscalarModel(SUPERSCALAR).run(trace)
    print(f"original Alpha on 4-wide OoO superscalar : "
          f"IPC {original.ipc:.3f}")

    runs = {}
    for fmt in (IFormat.BASIC, IFormat.MODIFIED):
        runs[fmt] = run_vm(workload, VMConfig(fmt=fmt), budget=BUDGET)
        result = ILDPModel(ildp_config(8, 0)).run(runs[fmt].trace)
        print(f"{fmt.value:8s} I-ISA on ILDP (8 PE, 0-cycle comm) : "
              f"V-IPC {result.ipc:.3f}  native I-IPC "
              f"{result.native_ipc:.3f}  "
              f"(x{runs[fmt].stats.dynamic_expansion():.2f} instructions)")

    print("\nILDP parameter sweep (modified I-ISA):")
    trace = runs[IFormat.MODIFIED].trace
    for label, pes, comm, small in (
        ("8 PEs, 0-cycle comm, 32KB D$", 8, 0, False),
        ("8 PEs, 0-cycle comm,  8KB D$", 8, 0, True),
        ("8 PEs, 2-cycle comm, 32KB D$", 8, 2, False),
        ("6 PEs, 0-cycle comm, 32KB D$", 6, 0, False),
        ("4 PEs, 0-cycle comm, 32KB D$", 4, 0, False),
    ):
        machine = ildp_config(pes, comm, dcache_small=small)
        result = ILDPModel(machine).run(trace)
        print(f"  {label} : IPC {result.ipc:.3f}")


if __name__ == "__main__":
    main()
