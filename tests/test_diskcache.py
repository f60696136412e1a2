"""Store integrity: checksum envelopes, quarantine, envelope-less entries
and the diskcache chaos faults (torn writes, bit rot, ENOSPC)."""

import errno
import os
import pickle

import pytest

from repro import diskcache
from repro.chaos import FaultPlan, FaultRule, activate, deactivate
from repro.diskcache import CHECKSUM_MARKER, PickleDirStore
from repro.obs import log as obs_log


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    deactivate()
    yield
    deactivate()


def corrupt_counter():
    return diskcache._corrupt_total.value


PAYLOAD = {"rows": list(range(64)), "label": "cell"}


class TestChecksum:
    def test_round_trip(self, tmp_path):
        store = PickleDirStore(str(tmp_path))
        store.put("k", PAYLOAD)
        assert store.get("k") == PAYLOAD

    def test_envelope_on_disk(self, tmp_path):
        store = PickleDirStore(str(tmp_path))
        store.put("k", PAYLOAD)
        envelope = pickle.loads((tmp_path / "k.pkl").read_bytes())
        assert envelope[0] == CHECKSUM_MARKER
        assert len(envelope) == 3

    def test_bit_rot_is_a_quarantined_miss(self, tmp_path):
        store = PickleDirStore(str(tmp_path))
        store.put("k", PAYLOAD)
        raw = bytearray((tmp_path / "k.pkl").read_bytes())
        raw[-10] ^= 0xFF
        (tmp_path / "k.pkl").write_bytes(bytes(raw))
        before = corrupt_counter()
        assert store.get("k") is None
        assert corrupt_counter() == before + 1
        assert not (tmp_path / "k.pkl").exists()
        assert (tmp_path / "k.corrupt").exists()
        assert store.corrupt_keys() == ["k"]

    def test_unpicklable_garbage_is_a_quarantined_miss(self, tmp_path):
        store = PickleDirStore(str(tmp_path))
        (tmp_path / "k.pkl").write_bytes(b"not a pickle at all")
        before = corrupt_counter()
        assert store.get("k") is None
        assert corrupt_counter() == before + 1
        assert store.corrupt_keys() == ["k"]

    def test_raw_pickle_without_envelope_is_a_quarantined_miss(
            self, tmp_path):
        """Every put writes the envelope, so a readable payload pickle
        without one is corrupt like any other unverifiable entry."""
        store = PickleDirStore(str(tmp_path))
        (tmp_path / "old.pkl").write_bytes(pickle.dumps(PAYLOAD))
        obs_log.clear_flight_recorder()
        before = corrupt_counter()
        assert store.get("old") is None
        assert corrupt_counter() == before + 1
        assert not (tmp_path / "old.pkl").exists()
        assert store.corrupt_keys() == ["old"]
        logged = [record[4] for record in obs_log.flight_records()
                  if record[3] == "store_entry_corrupt"]
        assert [(f["key"], f["error"]) for f in logged] == \
            [("old", "StoreCorruption")]

    def test_plain_miss_is_silent(self, tmp_path):
        store = PickleDirStore(str(tmp_path))
        before = corrupt_counter()
        assert store.get("absent") is None
        assert corrupt_counter() == before


class TestChaosFaults:
    def test_enospc_raises_oserror(self, tmp_path):
        activate(FaultPlan(seed=1, rules=(
            FaultRule(site="diskcache", fault="enospc",
                      max_injections=1),)))
        store = PickleDirStore(str(tmp_path))
        with pytest.raises(OSError) as excinfo:
            store.put("k", PAYLOAD)
        assert excinfo.value.errno == errno.ENOSPC
        # Budget exhausted: the retry lands.
        store.put("k", PAYLOAD)
        assert store.get("k") == PAYLOAD

    def test_torn_write_plants_reclaimable_orphan(self, tmp_path):
        activate(FaultPlan(seed=1, rules=(
            FaultRule(site="diskcache", fault="torn_write",
                      max_injections=1),)))
        store = PickleDirStore(str(tmp_path))
        store.put("k", PAYLOAD)
        orphans = [name for name in os.listdir(str(tmp_path))
                   if name.endswith(".tmp")]
        assert len(orphans) == 1
        assert diskcache._pid_of_tmp(orphans[0]) == 999999999
        # The entry itself still published atomically.
        assert store.get("k") == PAYLOAD
        # A fresh store open reclaims the dead writer's orphan.
        deactivate()
        PickleDirStore(str(tmp_path))
        assert not [name for name in os.listdir(str(tmp_path))
                    if name.endswith(".tmp")]

    def test_corrupt_rots_exactly_once(self, tmp_path):
        activate(FaultPlan(seed=1, rules=(
            FaultRule(site="diskcache", fault="corrupt"),)))
        store = PickleDirStore(str(tmp_path))
        store.put("rot", PAYLOAD)
        # The write carried a *good* checksum over rotted bytes: only
        # get-side verification can notice, and it quarantines.
        assert store.get("rot") is None
        assert store.corrupt_keys() == ["rot"]
        # The quarantine file guards the fault: the recompute's put
        # lands clean even with the plan still active.
        store.put("rot", PAYLOAD)
        assert store.get("rot") == PAYLOAD

    def test_no_plan_means_no_faults(self, tmp_path):
        store = PickleDirStore(str(tmp_path))
        for i in range(20):
            store.put("k{}".format(i), PAYLOAD)
        assert all(store.get("k{}".format(i)) == PAYLOAD
                   for i in range(20))
        assert store.corrupt_keys() == []
