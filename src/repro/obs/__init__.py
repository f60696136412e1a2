"""Unified observability layer: metrics, tracing, structured logging.

Three stdlib-only pillars, importable independently:

* :mod:`repro.obs.metrics` — process-wide registry of counters, gauges
  and fixed-bucket histograms with deterministic ``snapshot()`` and
  Prometheus text rendering.  Every instrument is always live
  (several back CI gates).
* :mod:`repro.obs.trace` — span-based wall-clock tracing exported as
  Chrome trace-event JSON (open in Perfetto), with the simulator's TELF
  cycle log merged onto a separate track.  Spans open at the cell,
  compile, lower, per-pass, simulate and noise boundaries, so they are
  where a sweep's time shows.
* :mod:`repro.obs.log` — structured key=value / JSON logging to stderr
  plus a flight-recorder ring dumped on worker failure.

The invariant the whole package is built around: traced or not, sweep
results are bit-identical (``results_sha256``) to a build that predates
this package (``tests/obs/test_invariance.py``), and an untraced hot
path pays at most a few flag checks.
"""

# No eager submodule imports: consumers import the pillar they need
# (``from repro.obs import metrics``), and ``python -m repro.obs.trace``
# must not execute trace twice via the package initializer.

__all__ = ["metrics", "trace", "log"]
