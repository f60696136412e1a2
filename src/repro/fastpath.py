"""The simulator's one fast-path switch and the strict flag parser.

``REPRO_NO_FASTPATH=1`` (or ``true``/``yes``/``on``, any case, optional
surrounding whitespace) runs the HISQ interpreter on its reference
side: the pre-decoded interpreter (whose admitted fast-block slices
become lazily-drained :class:`~repro.core.queues.ReplayBatch` entries)
falls back to the per-instruction loop (:mod:`repro.core.node`).
Results are bit-identical either way — the escape hatch exists for
debugging and differential testing.  Every other fast path (the
bit-packed stabilizer tableau, lane fast-forward, batched multishot
sampling) has one implementation chosen by the program alone; its
reference lives next to the tests that compare against it.

The switch is read from the process environment when simulation
objects are built, so sweep pool workers (fork or spawn) follow the
environment they were started with.  Unrecognized values *raise*
instead of silently picking a default: a typo in an escape hatch
(``REPRO_NO_FASTPATH=on`` used to mean "fast path enabled") must never
silently run the wrong path while a differential check claims otherwise.
:func:`env_flag` is the one parser for boolean ``REPRO_*`` switches.
"""

from __future__ import annotations

import os

from .errors import ReproError

#: Spellings accepted for boolean fast-path environment switches.
_TRUTHY = frozenset(("1", "true", "yes", "on", "y", "t", "enabled"))
_FALSY = frozenset(("", "0", "false", "no", "off", "n", "f", "disabled"))


def env_flag(name: str) -> bool:
    """Parse boolean environment switch ``name`` (strict).

    Whitespace is stripped and case is ignored; unset or falsy spellings
    return False, truthy spellings return True, and anything else raises
    :class:`~repro.errors.ReproError` — an escape hatch that silently
    no-ops on ``=on`` or a stray trailing space is worse than a crash.
    """
    raw = os.environ.get(name, "")
    value = raw.strip().lower()
    if value in _TRUTHY:
        return True
    if value in _FALSY:
        return False
    raise ReproError(
        "unrecognized value {!r} for {} (truthy: {}; falsy: unset, {})".format(
            raw, name, "/".join(sorted(_TRUTHY)),
            "/".join(sorted(v for v in _FALSY if v))))


def fastpath_enabled() -> bool:
    """Whether fast-path implementations should be used.

    Read at object-creation/load time (not import time) so tests can
    flip it per run.
    """
    return not env_flag("REPRO_NO_FASTPATH")
