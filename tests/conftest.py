"""Shared fixture library for the whole test tree.

Hosts what the per-package test modules used to set up for themselves:

* an ``src`` import-path fallback, so a bare ``pytest`` works even when
  the ``pythonpath`` ini option is unavailable;
* ``tests/core`` on the import path, so every suite imports the
  stepwise ``ReferenceCore`` as ``reference_core``;
* the ``--update-golden`` option for the codegen snapshot tests;
* deterministic RNG seeding, canned topologies, and the (session-cached)
  serial outcomes of a tiny Figure-15 sweep.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
_CORE_TESTS = os.path.join(os.path.dirname(__file__), "core")
if _CORE_TESTS not in sys.path:
    sys.path.append(_CORE_TESTS)

import numpy as np
import pytest

from repro.harness import SweepSpec, outcomes_from_rows, run_sweep
from repro.network.topology import build_topology
from repro.sim.config import SimulationConfig

#: One fixed seed for every deterministic test in the tree.
TEST_SEED = 20260730


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the golden codegen snapshots instead of comparing")


@pytest.fixture
def update_golden(request) -> bool:
    """True when the run should rewrite golden snapshots."""
    return request.config.getoption("--update-golden")


@pytest.fixture
def rng_seed() -> int:
    """The tree-wide deterministic seed."""
    return TEST_SEED


@pytest.fixture
def rng(rng_seed):
    """A deterministic numpy Generator."""
    return np.random.default_rng(rng_seed)


@pytest.fixture
def default_config() -> SimulationConfig:
    """A fresh paper-default SimulationConfig."""
    return SimulationConfig()


@pytest.fixture
def line_topology():
    """Factory for an n-controller line-mesh topology."""
    def build(num_controllers: int, **kwargs):
        return build_topology(num_controllers, mesh_kind="line", **kwargs)
    return build


@pytest.fixture(scope="session")
def tiny_outcomes():
    """Serial per-workload outcomes of the tiny Figure-15 grid (paper
    workloads x {bisp, lockstep} at scale 0.02: seconds, not minutes),
    computed once per session."""
    schemes = ("bisp", "lockstep")
    rows, _ = run_sweep(SweepSpec(tags=("paper",), schemes=schemes,
                                  scales=(0.02,)), processes=1)
    return outcomes_from_rows(rows, schemes)
