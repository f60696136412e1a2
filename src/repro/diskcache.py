"""Shared on-disk pickle-store machinery for content-addressed caches.

Both the sweep result store (:class:`PickleDirStore` itself for
``run_tasks(cache_dir=)``, :class:`repro.service.store.CellStore` in the
service — one pickle per finished cell) and the compile cache
(:class:`repro.compiler.cache.CompileCache`, one pickle per compiled
circuit) are directories of ``<sha256>.pkl`` files written by many
concurrent processes.  The invariants they need are identical and live
here once:

* **Atomic publication** — ``put`` writes to a ``tmp-<pid>-*.tmp`` file
  and ``os.replace``\\ s it into place, so readers never observe a torn
  entry, and a concurrent writer of the same key harmlessly wins or
  loses the whole file.
* **Orphan reclaim** — a writer killed between ``mkstemp`` and the
  rename leaves its temp file behind forever.  Opening a store sweeps
  temp files whose writer PID (encoded in the name) is dead, or — the
  backstop for PID reuse and foreign temp files — older than
  :data:`ORPHAN_TMP_SECONDS`.  The scan is single-flight per directory
  under a non-blocking advisory lock (``.reclaim.lock``); losers skip
  it, and every unlink tolerates a concurrent winner.
* **Corruption = loud miss** — every entry embeds a sha256 over its
  pickled payload (:data:`CHECKSUM_MARKER` envelope), verified on
  ``get``.  A mismatch, a missing envelope — or any unreadable pickle;
  bit rot raises far more than ``UnpicklingError`` — is logged through
  ``repro.obs.log`` with the key and exception class, counted in
  ``repro_diskcache_corrupt_total``, and the entry is quarantined to
  ``<key>.corrupt`` (an atomic rename: single-flight like orphan
  reclaim, so concurrent readers move it exactly once) instead of
  being silently re-read forever.  The caller still just sees a miss
  and recomputes.

When a chaos plan is active (:mod:`repro.chaos`), ``put`` is also an
injection site: ``enospc`` raises ``OSError(ENOSPC)`` before writing,
``torn_write`` plants a truncated orphan temp file with a dead writer
PID (so the *next* store open must reclaim it), and ``corrupt``
bit-flips the payload under a **good** checksum — simulating at-rest
bit rot that only the ``get``-side verification can catch.  The
``corrupt`` fault is guarded on the quarantine file's absence, so each
planned key rots exactly once and the recomputed entry lands clean.
"""

from __future__ import annotations

import errno
import hashlib
import os
import pickle
import tempfile
import time
from contextlib import contextmanager
from typing import Optional

from .errors import ReproError
from .obs import log as obs_log
from .obs import metrics as obs_metrics

#: A live ``put()`` holds its temp file for milliseconds; a temp file
#: older than this is an orphan from a killed worker (or a writer on a
#: pathologically slow filesystem, where re-writing the entry is cheap
#: compared to leaking the file forever).
ORPHAN_TMP_SECONDS = 300.0

#: First element of the checksummed on-disk envelope
#: ``(marker, sha256_hexdigest, payload_pickle_bytes)``.  ``put`` writes
#: it on every entry, so ``get`` treats an entry without it as corrupt.
CHECKSUM_MARKER = "repro-ck1"

_log = obs_log.get_logger("repro.diskcache")

_corrupt_total = obs_metrics.counter(
    "repro_diskcache_corrupt_total",
    "store entries that failed checksum/unpickle verification on get")


class StoreCorruption(ReproError):
    """A store entry has no checksum envelope, or its embedded sha256
    does not match its payload."""


def _chaos():
    # Lazy: the chaos package imports obs + noise.model; pulling it in
    # only when a put happens keeps this module a cheap leaf import.
    from .chaos import plan as chaos_plan
    return chaos_plan.active()


def _pid_of_tmp(name: str) -> Optional[int]:
    """Writer PID encoded in a ``tmp-<pid>-*.tmp`` cache temp file."""
    if not name.startswith("tmp-"):
        return None
    head = name[4:].split("-", 1)[0]
    return int(head) if head.isdigit() else None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


class PickleDirStore:
    """A directory of atomically written, key-addressed pickle files."""

    #: Lock-file name serializing the orphan scan per store directory.
    RECLAIM_LOCK_NAME = ".reclaim.lock"

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.sweep_orphan_tmps()

    @contextmanager
    def _reclaim_lock(self):
        """Yield True while holding the per-store advisory lock, False
        when another process holds it (skip the scan).  Platforms
        without ``fcntl`` fall back to lock-free scanning, which stays
        safe because every unlink tolerates a concurrent winner."""
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX fallback
            yield True
            return
        path = os.path.join(self.directory, self.RECLAIM_LOCK_NAME)
        try:
            handle = open(path, "ab")
        except OSError:  # pragma: no cover - unwritable store dir
            yield True
            return
        try:
            try:
                fcntl.flock(handle.fileno(),
                            fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                yield False
                return
            try:
                yield True
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()

    def sweep_orphan_tmps(self) -> int:
        """Delete orphaned ``*.tmp`` files (dead writer, or older than
        :data:`ORPHAN_TMP_SECONDS`); returns how many were removed (0
        when another process already holds the reclaim lock)."""
        with self._reclaim_lock() as acquired:
            if not acquired:
                return 0
            removed = 0
            now = time.time()
            for name in os.listdir(self.directory):
                if not name.endswith(".tmp"):
                    continue
                path = os.path.join(self.directory, name)
                try:
                    mtime = os.stat(path).st_mtime
                except OSError:
                    continue  # already gone (concurrent sweep or writer)
                pid = _pid_of_tmp(name)
                dead_writer = pid is not None and not _pid_alive(pid)
                if dead_writer or now - mtime > ORPHAN_TMP_SECONDS:
                    try:
                        os.unlink(path)
                        removed += 1
                    except OSError:
                        # FileNotFoundError included: a concurrent
                        # reclaimer got there first — their removal
                        # counts, ours does not.
                        pass
            return removed

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".pkl")

    def _corrupt_path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".corrupt")

    def has(self, key: str) -> bool:
        """True when a completed entry exists for ``key`` (cheap stat —
        callers probe many keys without deserializing any of them).

        A stat cannot see bit rot; callers that must *trust* the entry
        verify with ``get(key) is not None`` instead."""
        return os.path.exists(self._path(key))

    def get(self, key: str):
        """Load and verify an entry; missing returns None, corrupt is
        logged + counted + quarantined and returns None."""
        try:
            with open(self._path(key), "rb") as handle:
                envelope = pickle.load(handle)
            if not (isinstance(envelope, tuple) and len(envelope) == 3
                    and envelope[0] == CHECKSUM_MARKER):
                raise StoreCorruption(
                    "no checksum envelope for {}".format(key))
            _marker, digest, payload = envelope
            if hashlib.sha256(payload).hexdigest() != digest:
                raise StoreCorruption("sha256 mismatch for {}".format(key))
            return pickle.loads(payload)
        except FileNotFoundError:
            return None
        except Exception as exc:
            self._note_corrupt(key, exc)
            return None

    def _note_corrupt(self, key: str, exc: BaseException) -> None:
        _corrupt_total.inc()
        _log.warning("store_entry_corrupt", key=key,
                     error=type(exc).__name__, detail=str(exc)[:200],
                     store=self.directory)
        try:
            os.replace(self._path(key), self._corrupt_path(key))
        except OSError:
            # A concurrent reader quarantined (or a writer replaced)
            # the entry first — either way it is no longer ours to move.
            pass

    def corrupt_keys(self):
        """Keys currently quarantined as ``<key>.corrupt`` (sorted)."""
        return sorted(name[:-len(".corrupt")]
                      for name in os.listdir(self.directory)
                      if name.endswith(".corrupt"))

    def put(self, key: str, value) -> None:
        """Store an entry atomically (checksummed envelope, temp file +
        rename).

        The temp filename carries the writer's PID so a later store open
        can tell a killed writer's orphan from a live concurrent write
        (see :meth:`sweep_orphan_tmps`)."""
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        injector = _chaos()
        if injector is not None:
            payload = self._inject_put_faults(injector, key, payload)
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix="tmp-{}-".format(os.getpid()),
            suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump((CHECKSUM_MARKER, digest, payload), handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _inject_put_faults(self, injector, key: str,
                           payload: bytes) -> bytes:
        """Apply any active diskcache chaos faults to this put."""
        if injector.decide("diskcache", "enospc", key,
                           injector.seq("enospc", key)):
            raise OSError(errno.ENOSPC,
                          "no space left on device (chaos enospc)")
        if injector.decide("diskcache", "torn_write", key):
            # A killed writer's leftovers: a truncated temp file whose
            # PID is dead, which the next store open must reclaim.
            torn = os.path.join(
                self.directory, "tmp-999999999-chaos-{}.tmp".format(
                    key[:16]))
            with open(torn, "wb") as handle:
                handle.write(payload[:max(1, len(payload) // 2)])
        if len(payload) > 24 and \
                not os.path.exists(self._corrupt_path(key)) and \
                injector.decide("diskcache", "corrupt", key):
            # Bit rot: flip payload bytes but keep the good digest, so
            # only get-side verification can catch it.  Guarded on the
            # quarantine file so each planned key rots exactly once.
            payload = (payload[:8]
                       + bytes(b ^ 0xFF for b in payload[8:24])
                       + payload[24:])
        return payload

    def __len__(self):
        return sum(1 for name in os.listdir(self.directory)
                   if name.endswith(".pkl"))
