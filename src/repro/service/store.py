"""Shared content-addressed result store for the sweep service.

A counter-carrying :class:`~repro.diskcache.PickleDirStore`, the same
store the harness opens for ``run_tasks(cache_dir=)``: same directory
layout (``<sha256-cache-key>.pkl``, atomic temp-file + rename writes,
orphan-temp reclaim under a per-store advisory lock), same v3 content
keys (:meth:`~repro.harness.parallel.SweepTask.cache_key`).  That
compatibility is the point — a ``--cache-dir`` warmed by yesterday's
offline sweep is a warm service store today, and everything the service
computes accelerates tomorrow's offline runs.

The store is the service's *only* durable state.  Scheduler and workers
may die at any point; whatever reached the store stays valid (writes
are atomic) and whatever did not is recomputed on resubmission.
"""

from __future__ import annotations

import os
from typing import Optional

from ..diskcache import PickleDirStore
from ..harness.parallel import CellResult


class CellStore(PickleDirStore):
    """Content-addressed store of finished sweep cells, with counters.

    ``hits``/``misses``/``puts`` tally this process's traffic (they are
    observability, not state — the on-disk layout carries no counters).
    Multiple processes may open the same directory concurrently; opening
    reclaims orphaned temp files left by killed writers, single-flight
    across processes.
    """

    def __init__(self, directory: str):
        super().__init__(directory)
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def get(self, key: str) -> Optional[CellResult]:
        """Load a finished cell; unreadable or missing entries are a miss
        (the caller recomputes — the store never fails a lookup)."""
        cell = super().get(key)
        if cell is None:
            self.misses += 1
        else:
            self.hits += 1
        return cell

    def put(self, key: str, cell: CellResult) -> None:
        """Store a finished cell atomically.  Concurrent writers of the
        same key are harmless: the cell is a pure function of the key,
        so last-rename-wins replaces equal bytes with equal bytes."""
        super().put(key, cell)
        self.puts += 1

    def pending_tmps(self) -> int:
        """Number of in-flight/orphaned ``*.tmp`` files currently in the
        store directory (tests assert 0 after a crash-resume cycle)."""
        return sum(1 for name in os.listdir(self.directory)
                   if name.endswith(".tmp"))

    def counters(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "puts": self.puts, "entries": len(self)}
