"""The co-designed virtual machine (Fig. 1 of the paper).

``CoDesignedVM`` owns the interpreter, the MRET profiler, the translator,
the translation cache and the functional fragment executor, switching
between interpretation, translation and translated-code execution exactly
as Section 4.1 describes.
"""

from repro.vm.config import VMConfig
from repro.vm.events import Template, Trace
from repro.vm.executor import FragmentExecutor, ExecResult, ExitReason
from repro.vm.traps import VMTrap, reconstruct_state
from repro.vm.stats import VMStats
from repro.vm.system import CoDesignedVM

__all__ = [
    "VMConfig",
    "Template",
    "Trace",
    "FragmentExecutor",
    "ExecResult",
    "ExitReason",
    "VMTrap",
    "reconstruct_state",
    "VMStats",
    "CoDesignedVM",
]
