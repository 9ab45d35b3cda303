"""Experiment harness: one driver per table/figure of the paper.

Each experiment module exposes ``run(workloads=None, scale=None,
budget=..., runner=None)`` returning an ``ExperimentResult`` whose
``rows()`` give the numbers and whose ``render()`` prints the same
table/series the paper reports.  ``run`` executes the module's
``points(...)`` as one batch and builds its ``table(...)`` from them;
pass a configured :class:`~repro.harness.parallel.PointRunner` as
``runner`` to execute them in parallel and/or against the persistent
result cache.
"""
