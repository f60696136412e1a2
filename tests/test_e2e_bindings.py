"""Tier-1 guard for the end-to-end benchmark's bindings into ``repro``.

``benchmarks/e2e/run.py`` validates its layer table on every run, traced
or not, and its ledger reads process-wide counters through
``process_counts()``.  A refactor that drops one of those bindings
breaks every benchmark run while the rest of tier-1 stays green, so this
loads the ledger module by path and touches exactly what the benchmark
touches.
"""

import importlib.util
from pathlib import Path

from repro.isa import assemble
from repro.isa.decoded import decode_cache_stats
from repro.network.sync_plan import sync_plan_totals
from repro.sim import ControlSystem

LAYERS_PATH = (Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
               / "layers.py")

#: Counter names the benchmark's ``expected.json`` records.
PROCESS_COUNTS = {
    "decode.calls", "decode.misses", "replay.vector_batches",
    "replay.vector_items", "replay.block_fallbacks", "sync_plan.resolved",
    "sync_plan.fallback", "lanes.fastforward", "lanes.replayed",
    "compile_cache.hits", "compile_cache.misses",
}

#: Ledger rows of the retired fast-block replay counters.
REPLAY_COUNTS = ("replay.vector_batches", "replay.vector_items",
                 "replay.block_fallbacks")


def _load_layers():
    spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _region_sync(epochs: int) -> None:
    """Two members on different leaf routers region-sync ``epochs``
    times."""
    system = ControlSystem(20, mesh_kind="line", record_telf=False,
                           record_gate_log=False)
    members = (0, 19)
    system.register_sync_group(40, members)
    for address in members:
        system.load_program(
            address, assemble("sync 40,1\nwaiti 1\n" * epochs + "halt"))
    system.run()


def test_layer_table_resolves():
    _load_layers().validate()


def test_process_counts_keys():
    counts = _load_layers().process_counts()
    assert set(counts) == PROCESS_COUNTS
    assert all(isinstance(value, int) for value in counts.values())


def test_region_sync_epochs_counted():
    layers = _load_layers()
    before, counts_before = sync_plan_totals(), layers.process_counts()
    _region_sync(epochs=3)
    after, counts_after = sync_plan_totals(), layers.process_counts()
    assert {key: after[key] - before[key] for key in after} == \
        {"resolved": 0, "fallback": 3}
    assert counts_after["sync_plan.fallback"] - \
        counts_before["sync_plan.fallback"] == 3
    assert counts_after["sync_plan.resolved"] == 0
    # The HISQ core replays no fast blocks: the replay rows stay 0.
    assert {name: counts_after[name] for name in REPLAY_COUNTS} == \
        dict.fromkeys(REPLAY_COUNTS, 0)
    # Nothing caches decodes: the retired pin and content-hit counts
    # that ``decode.calls`` still sums stay 0.
    stats = decode_cache_stats()
    assert stats["pin_hits"] == stats["content_hits"] == 0
