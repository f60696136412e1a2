"""Shared benchmark configuration.

``REPRO_SCALE`` (default 0.15) scales the Figure-15 workload sizes so the
benchmark suite completes in minutes; set ``REPRO_SCALE=1.0`` to run the
paper's full sizes (adder_n1153, qft_n300, ... — a few minutes per
workload).  Results are printed so the regenerated tables/figures appear
in the benchmark log.

``REPRO_PROCESSES`` caps the worker count of the process-pool
benchmarks (default: every core); ``REPRO_PARALLEL=1`` routes the
serial Figure-15 benchmark through the process pool too.

Every benchmark module records its headline numbers through the
``bench_recorder`` fixture, which writes a schema-validated
``BENCH_<module>.json`` into ``REPRO_BENCH_DIR`` (default:
``bench-artifacts/``) at module teardown — the machine-readable twin of
the printed tables, for CI to archive and regression-gate.

The reference implementations the fast paths are measured against live
next to their tests; :func:`load_test_reference` loads them by file
path and :func:`interpreter` installs the stepwise HISQ core.
"""

import contextlib
import importlib.util
import os
from pathlib import Path
from typing import Optional

import pytest

TESTS_DIR = Path(__file__).resolve().parents[1] / "tests"


def repro_scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "0.15"))


def bench_dir() -> str:
    return os.environ.get("REPRO_BENCH_DIR", "bench-artifacts")


class BenchRecorder:
    """Collects flat result rows; rows become the artifact's ``results``."""

    def __init__(self):
        self.rows = []
        self.volatile = {}
        #: BENCH document kind; bench_service.py sets "service" so its
        #: rows validate against the v3 service-counter row family.
        self.kind = "benchmark"

    def add(self, label: str, **metrics) -> None:
        """Record one row (at least one metric must be numeric)."""
        self.rows.append(dict({"label": label}, **metrics))

    def add_rows(self, rows) -> None:
        self.rows.extend(dict(row) for row in rows)

    def note_volatile(self, **values) -> None:
        """Record non-deterministic extras (wall-clock etc.)."""
        self.volatile.update(values)


@pytest.fixture(scope="module")
def bench_recorder(request):
    """Per-module BENCH artifact recorder (written on module teardown)."""
    from repro.harness.benchjson import make_bench, write_bench

    recorder = BenchRecorder()
    yield recorder
    if recorder.rows:
        name = request.module.__name__.rsplit(".", 1)[-1]
        if name.startswith("bench_"):
            name = name[len("bench_"):]
        write_bench(bench_dir(), make_bench(
            name, recorder.rows, kind=recorder.kind,
            volatile=recorder.volatile or None))


def repro_processes() -> Optional[int]:
    value = os.environ.get("REPRO_PROCESSES", "")
    return int(value) if value else None


def repro_parallel() -> bool:
    return os.environ.get("REPRO_PARALLEL", "") == "1"


def fig15_outcomes(scale: float, processes: Optional[int] = None,
                   cache_dir: Optional[str] = None):
    """Figure-15 outcomes (paper workloads x {bisp, lockstep} at
    ``scale``) through ``run_sweep``, one per workload."""
    from repro.harness import SweepSpec, outcomes_from_rows, run_sweep

    schemes = ("bisp", "lockstep")
    spec = SweepSpec(tags=("paper",), schemes=schemes, scales=(scale,))
    rows, _ = run_sweep(spec, processes=processes, cache_dir=cache_dir)
    return outcomes_from_rows(rows, schemes)


@pytest.fixture(scope="session")
def scale():
    return repro_scale()


def load_test_reference(relpath: str, name: str):
    """Attribute ``name`` of ``tests/<relpath>``, loaded by file path
    (the tests tree is not a package)."""
    path = TESTS_DIR / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, name)


@contextlib.contextmanager
def interpreter(tier: str):
    """Build every ControlSystem in the block on ``tier``'s HISQ core:
    ``legacy`` is the stepwise ``ReferenceCore`` from
    ``tests/core/reference_core.py``, any other tier the fast path."""
    import repro.sim.system as system

    saved = system.HISQCore
    if tier == "legacy":
        system.HISQCore = load_test_reference("core/reference_core.py",
                                              "ReferenceCore")
    try:
        yield
    finally:
        system.HISQCore = saved
