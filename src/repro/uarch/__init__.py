"""Trace-driven timing models (paper Table 1 and Section 4.5).

Two machines are modelled:

* an idealised 4-wide out-of-order superscalar (the "original" /
  "code-straightening-only" reference, SimpleScalar-like);
* the ILDP distributed microarchitecture: a pipelined front end steering
  instructions by accumulator number into parallel in-order PE FIFOs, with
  explicit inter-PE communication latency and replicated L1 data caches.

Each has a fast model, one loop over the trace, and a cycle-stepped
reference model that checks it.  All four share the branch predictors
(gshare + BTB + dual-address RAS) and the cache hierarchy.
"""

from repro.uarch.config import MachineConfig, SUPERSCALAR, ildp_config
from repro.uarch.predictors import BranchUnit, GShare, BranchTargetBuffer
from repro.uarch.cache import Cache, MemoryHierarchy
from repro.uarch.superscalar import SuperscalarModel
from repro.uarch.superscalar_cycle import CycleSuperscalarModel
from repro.uarch.ildp import ILDPModel
from repro.uarch.ildp_cycle import CycleILDPModel
from repro.uarch.trace_utils import interpreter_trace

__all__ = [
    "MachineConfig",
    "SUPERSCALAR",
    "ildp_config",
    "BranchUnit",
    "GShare",
    "BranchTargetBuffer",
    "Cache",
    "MemoryHierarchy",
    "SuperscalarModel",
    "CycleSuperscalarModel",
    "ILDPModel",
    "CycleILDPModel",
    "interpreter_trace",
]
