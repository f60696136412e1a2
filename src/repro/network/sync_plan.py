"""Region-sync epoch counter read by the end-to-end benchmark ledger.

Every region sync books through the router cascade
(:mod:`repro.network.router`): :meth:`Router.receive_booking` ticks
``repro_sync_plan_fallback_total`` once per epoch, at the destination
router.  :func:`sync_plan_totals` keeps the ``{"resolved", "fallback"}``
shape ``benchmarks/e2e/layers.py`` imports; ``resolved`` is always 0.
"""

from __future__ import annotations

from typing import Dict

from ..obs import metrics as _metrics

SYNC_PLAN_FALLBACK = _metrics.counter(
    "repro_sync_plan_fallback_total",
    "region-sync epochs completed through the router cascade")


def sync_plan_totals() -> Dict[str, int]:
    """Region-sync epochs so far, in the benchmark ledger's shape."""
    return {"resolved": 0, "fallback": SYNC_PLAN_FALLBACK.value}
