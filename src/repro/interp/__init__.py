"""V-ISA interpretation: architected state, the Alpha interpreter and the
MRET (Most Recently Executed Tail) hot-path profiler."""

from repro.interp.state import ArchState
from repro.interp.interpreter import Interpreter, Halted
from repro.interp.profiler import HotnessProfiler, CandidateKind

__all__ = [
    "ArchState",
    "Interpreter",
    "Halted",
    "HotnessProfiler",
    "CandidateKind",
]
