"""Bootstrap for the end-to-end benchmark's child processes.

    python benchmarks/e2e/child.py MODE RESULT MODULE [ARGS...]

Imports ``MODULE`` -- a repro command-line module with a ``main(argv)``
(``repro.harness.sweep``, ``repro.service.__main__``,
``repro.service.worker``) -- marks the process *ready*, then runs
``MODULE.main(ARGS)``: the same work as ``python -m MODULE ARGS``, with
the module kept under its own name so the ledger's wrappers apply to
the code that actually runs.  ``RESULT`` receives one JSON object:
``ready``/``end`` (``time.monotonic``, shared by every process on the
host), the exit code, and the mode's data.

MODE is one of

* ``plain``   -- the untraced run; its only hook times each sweep cell
  (two clock reads per cell) for the per-cell latency percentiles;
* ``ledger``  -- the traced run: every binding in ``layers.LAYERS`` is
  wrapped and the ledger document is written at exit;
* ``profile`` -- cProfile around every ``ControlSystem.run`` (one-off
  diagnosis, distorted by the profiler).
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time


def _time_cells(latencies):
    """Hook the sweep harness's cell entry point for per-cell latency."""
    from repro.harness import parallel

    run_cell_timed = parallel.run_cell_timed

    def timed(task):
        begin = time.monotonic()
        try:
            return run_cell_timed(task)
        finally:
            latencies.append(time.monotonic() - begin)

    parallel.run_cell_timed = timed


def _profile_runs(profiler):
    from repro.sim.system import ControlSystem

    run = ControlSystem.run

    def profiled(self, *args, **kwargs):
        profiler.enable()
        try:
            return run(self, *args, **kwargs)
        finally:
            profiler.disable()

    ControlSystem.run = profiled


def main() -> int:
    mode, result_path, module_name = sys.argv[1:4]
    argv = sys.argv[4:]
    module = importlib.import_module(module_name)
    latencies = []
    ledger = None
    profiler = None
    if mode == "plain":
        _time_cells(latencies)
    elif mode == "ledger":
        import layers

        role = argv[0] if module_name.endswith("__main__") \
            else module_name.rsplit(".", 1)[-1]
        ledger = layers.install("{}:{}".format(role, os.getpid()))
    elif mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        _profile_runs(profiler)
    else:
        raise SystemExit("unknown mode {!r}".format(mode))
    doc = {"ready": time.monotonic(), "cell_s": latencies}
    # A long-lived child (a service process) is waited on while it runs,
    # so readiness is also published on its own, atomically.
    with open(result_path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(doc["ready"], handle)
    os.replace(result_path + ".tmp", result_path + ".ready")
    if ledger is not None:
        ledger.start()
    try:
        code = module.main(argv) or 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    doc["end"] = time.monotonic()
    doc["exit"] = code
    if ledger is not None:
        doc["ledger"] = ledger.finish()
        doc["ledger"]["counts"].update(layers.process_counts())
    if profiler is not None:
        doc["profile"] = _profile_by_package(profiler)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return code


def _profile_by_package(profiler) -> dict:
    """tottime grouped by ``repro.<package>``; C builtins and all other
    code are grouped as ``builtins`` and ``other``."""
    import pstats

    stats = pstats.Stats(profiler)
    shares = {}
    for (filename, _, _), (_, _, tottime, _, _) in stats.stats.items():
        parts = filename.replace(os.sep, "/").split("/")
        if "repro" in parts and parts.index("repro") + 1 < len(parts):
            package = parts[parts.index("repro") + 1]
            group = "repro." + package.rsplit(".py", 1)[0]
        elif filename == "~":
            group = "builtins"
        else:
            group = "other"
        shares[group] = shares.get(group, 0.0) + tottime
    return shares


if __name__ == "__main__":
    raise SystemExit(main())
