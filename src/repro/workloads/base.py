"""Workload descriptors."""

from repro.asm import assemble


class WorkloadError(ValueError):
    """Unknown workload name."""


class Workload:
    """A named synthetic benchmark.

    ``source()`` renders the assembly text; ``program()`` assembles a
    fresh image (programs mutate their data segments, so every run needs
    its own copy).
    """

    def __init__(self, name, description, builder):
        self.name = name
        self.description = description
        self._builder = builder

    def source(self):
        return self._builder()

    def program(self):
        return assemble(self.source(), source_name=self.name)

    def __repr__(self):
        return f"Workload({self.name!r})"
