"""Persistent compile cache: identity, integrity, cross-process sharing."""

import subprocess
import sys

import pytest

from repro.circuits import build_ghz
from repro.compiler import cache as compile_cache
from repro.compiler import compile_circuit, run_circuit
from repro.compiler import schemes as scheme_registry
from repro.compiler.cache import (COMPILE_CACHE_VERSION, CompileCache,
                                  cached_compile, compile_cache_totals,
                                  compile_key)
from repro.diskcache import PickleDirStore
from repro.harness import registry
from repro.isa import decoded
from repro.isa.program import Program
from repro.network.topology import build_topology
from repro.sim.config import SimulationConfig
from repro.testing import subprocess_env


def _delta(before):
    after = compile_cache_totals()
    return {k: after[k] - before[k] for k in after}


class TestCompileKey:
    def test_key_is_stable(self):
        circuit = build_ghz(4)
        assert compile_key(circuit) == compile_key(build_ghz(4))

    def test_key_varies_with_inputs(self):
        circuit = build_ghz(4)
        base = compile_key(circuit)
        assert compile_key(build_ghz(5)) != base
        assert compile_key(circuit, scheme="lockstep") != base
        assert compile_key(circuit, mesh_kind="interaction") != base
        assert compile_key(circuit, qubits_per_controller=2) != base
        assert compile_key(
            circuit, config=SimulationConfig(neighbor_link_cycles=9)) != base

    def test_salt_bump_changes_key(self, monkeypatch):
        circuit = build_ghz(4)
        base = compile_key(circuit)
        monkeypatch.setattr(compile_cache, "COMPILE_CACHE_VERSION",
                            COMPILE_CACHE_VERSION + 1)
        assert compile_key(circuit) != base


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        circuit = build_ghz(5)
        before = compile_cache_totals()
        first = cached_compile(circuit, cache=cache)
        assert _delta(before) == {"hits": 0, "misses": 1}
        assert len(cache) == 1
        second = cached_compile(circuit, cache=cache)
        assert _delta(before) == {"hits": 1, "misses": 1}
        assert second is not first  # a fresh deserialized object
        assert second.scheme == first.scheme
        assert sorted(second.programs) == sorted(first.programs)
        # The topology rides in ``meta`` as plain dicts, which compare by
        # content: the loaded one equals a fresh build of the same shape.
        config = second.config
        assert second.topology == build_topology(
            second.qmap.num_controllers, fanout=config.router_fanout,
            mesh_kind=second.mesh_kind,
            neighbor_link_cycles=config.neighbor_link_cycles,
            router_hop_cycles=config.router_hop_cycles)

    def test_no_cache_is_plain_compile(self):
        before = compile_cache_totals()
        result = cached_compile(build_ghz(3), cache=None)
        assert _delta(before) == {"hits": 0, "misses": 0}
        assert len(result.programs) == 3

    def test_cached_run_bit_identical(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        circuit = build_ghz(6)
        fresh = run_circuit(circuit, scheme="bisp", device_seed=7,
                            compilation=compile_circuit(circuit))
        cached_compile(circuit, cache=cache)  # publish
        warm = run_circuit(circuit, scheme="bisp", device_seed=7,
                           compilation=cached_compile(circuit, cache=cache))
        assert warm.makespan_cycles == fresh.makespan_cycles
        assert warm.stats.sync_stall_cycles == fresh.stats.sync_stall_cycles
        assert warm.system.device.lifetimes_ns() == \
            fresh.system.device.lifetimes_ns()


class TestPayloadLayout:
    def test_program_slices_tile_idx(self):
        """Each program stores its own body: the ``programs`` slices
        cover ``idx`` end to end, one per program in address order, even
        for two programs made of the same instruction objects."""
        result = compile_circuit(build_ghz(4))
        first = next(iter(result.programs.values()))
        result.programs[99] = Program("alias", first.instructions)
        payload = compile_cache._encode(result)
        pool, idx = payload["pool"], payload["idx"].tolist()
        assert list(payload["programs"]) == list(result.programs)
        edge = 0
        for address, (name, _labels, lo, hi) in payload["programs"].items():
            program = result.programs[address]
            assert (name, lo, hi) == \
                (program.name, edge, edge + len(program))
            assert [pool[j] for j in idx[lo:hi]] == [
                (i.mnemonic, i.rd, i.rs1, i.rs2, i.imm, i.imm2)
                for i in program.instructions]
            edge = hi
        assert edge == len(idx)


class TestWarmDecode:
    """A warm load rebuilds every program from the stored pool and index
    slices; each must decode exactly as the fresh compile's does."""

    @pytest.mark.parametrize("scheme", scheme_registry.scheme_names())
    @pytest.mark.parametrize("workload", ("bv_n400", "repetition_d25"))
    def test_decode_matches_fresh_decode(self, workload, scheme, tmp_path):
        spec = registry.get_workload(workload).spec(0.04, 0.25)
        circuit = spec.circuit()
        cache = CompileCache(str(tmp_path))
        fresh = cached_compile(circuit, scheme=scheme,
                               mesh_kind=spec.mesh_kind, cache=cache)
        before = compile_cache_totals()
        warm = cached_compile(circuit, scheme=scheme,
                              mesh_kind=spec.mesh_kind, cache=cache)
        assert _delta(before) == {"hits": 1, "misses": 0}
        assert sorted(warm.programs) == sorted(fresh.programs)
        recvs = 0
        for address, program in warm.programs.items():
            loaded = decoded.decode_program(program)
            compiled = decoded.decode_program(fresh.programs[address])
            assert (loaded.n, loaded.steps, loaded.has_recv) == \
                (compiled.n, compiled.steps, compiled.has_recv)
            recvs += loaded.has_recv
        assert recvs > 0


class TestIntegrity:
    def _warm(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        circuit = build_ghz(4)
        cached_compile(circuit, cache=cache)
        return cache, circuit

    def test_corrupt_entry_recompiles(self, tmp_path):
        cache, circuit = self._warm(tmp_path)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        before = compile_cache_totals()
        result = cached_compile(circuit, cache=cache)
        assert _delta(before) == {"hits": 0, "misses": 1}
        assert len(result.programs) == 4

    def test_truncated_entry_recompiles(self, tmp_path):
        cache, circuit = self._warm(tmp_path)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(path.read_bytes()[:40])
        before = compile_cache_totals()
        result = cached_compile(circuit, cache=cache)
        assert _delta(before) == {"hits": 0, "misses": 1}
        assert len(result.programs) == 4

    def test_wrong_payload_shape_is_miss(self, tmp_path):
        cache, circuit = self._warm(tmp_path)
        key = compile_key(circuit)
        # A valid envelope around the wrong shape: the payload check,
        # not the store's integrity check, must turn it into a miss.
        PickleDirStore(str(tmp_path)).put(key, ["unexpected", "shape"])
        assert cache.get(key) is None
        assert cache.corrupt_keys() == []

    def test_stale_version_is_miss(self, tmp_path):
        """An entry written under another format version never
        deserializes into a live compilation."""
        cache, circuit = self._warm(tmp_path)
        key = compile_key(circuit)
        # Round-trip through the plain base store so the rewritten entry
        # carries a *valid* checksum envelope — this must be a version
        # miss, not an integrity quarantine.
        raw_store = PickleDirStore(str(tmp_path))
        payload = raw_store.get(key)
        payload["version"] = COMPILE_CACHE_VERSION + 1
        raw_store.put(key, payload)
        assert cache.get(key) is None
        before = compile_cache_totals()
        cached_compile(circuit, cache=cache)
        assert _delta(before)["misses"] == 1

    def test_recompile_republishes(self, tmp_path):
        cache, circuit = self._warm(tmp_path)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"junk")
        cached_compile(circuit, cache=cache)
        before = compile_cache_totals()
        cached_compile(circuit, cache=cache)
        assert _delta(before) == {"hits": 1, "misses": 0}


_SUBPROCESS_SCRIPT = """
import sys
from repro.circuits import build_ghz
from repro.compiler import run_circuit
from repro.compiler.cache import (CompileCache, cached_compile,
                                  compile_cache_totals)

cache = CompileCache(sys.argv[1])
compilation = cached_compile(build_ghz(5), cache=cache)
result = run_circuit(build_ghz(5), scheme="bisp", device_seed=11,
                     compilation=compilation)
totals = compile_cache_totals()
print("{hits} {misses}".format(**totals), result.makespan_cycles)
"""


class TestSharedStore:
    def test_two_processes_share_one_store(self, tmp_path):
        """A store warmed by one fresh interpreter serves another: the
        second process compiles nothing and reproduces the same
        makespan (the cross-worker contract sweep and service workers
        rely on)."""
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", _SUBPROCESS_SCRIPT, str(tmp_path)],
                capture_output=True, text=True, timeout=120,
                env=subprocess_env())
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.split())
        (h1, m1, span1), (h2, m2, span2) = outputs
        assert (h1, m1) == ("0", "1")  # cold writer
        assert (h2, m2) == ("1", "0")  # warm reader, zero compiles
        assert span1 == span2
