"""Observability: metrics registry, span tracing, regression gating.

``repro.obs`` is the VM's observability layer (see
``docs/observability.md`` for the catalogue and what every run pays):

* :mod:`repro.obs.registry` — named counters, gauges and wall-clock
  timers;
* :mod:`repro.obs.telemetry` — the per-VM facade every run carries;
* :mod:`repro.obs.profile` — the ``repro profile`` report renderers;
* :mod:`repro.obs.trace` — hierarchical span tracing with Chrome
  trace-event export (``VMConfig.trace``; default the no-op
  :data:`~repro.obs.trace.NULL_TRACER`);
* :mod:`repro.obs.regress` — the benchmark-regression sentinel behind
  ``repro bench-compare``.
"""
