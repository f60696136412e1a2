"""Pinned noisy draws, and the sampler's draw kernels vs their references.

The pins are the sha256 of ``sample_noisy``'s ``flips``,
``record_error``, ``survival`` and ``desynced`` bytes, for one small
circuit per sampling method under two presets.  A change to how the
sampler seeds, draws or injects errors that moves any sampled bit fails
here.  The kernel tests compare the bulk per-shot seeding and the sparse
error injection with the per-shot ``default_rng`` streams and the dense
all-shots injection in ``reference_sampler``.
"""

import hashlib

import numpy as np
import pytest

from repro.noise import idle_channels_from_lifetimes, preset, sample_noisy
from repro.noise.channels import (PauliChannel, depolarizing,
                                  measurement_flip, pauli_twirled_damping)
from repro.noise.sampler import (_apply_error_to_frames, _erring_shots,
                                 _error_site, _seed_words, _uniform_block,
                                 compile_noise_program)
from repro.quantum.circuit import Operation, QuantumCircuit
from repro.sim.config import SimulationConfig

from reference_sampler import apply_error_dense, shot_uniforms

SEED = 11


def frame_circuit():
    """Clifford, with Pauli and non-Pauli feedback: the frame path."""
    circuit = QuantumCircuit(6, 6)
    circuit.h(0)
    for q in range(5):
        circuit.cx(q, q + 1)
    circuit.s(2)
    circuit.cz(1, 4)
    circuit.swap(0, 5)
    circuit.measure(0, 0)
    circuit.x(1, condition=(0, 1))
    circuit.z(3, condition=(0, 1))
    circuit.cx(2, 3, condition=(0, 1))  # non-Pauli: diverging shots desync
    for q in range(1, 6):
        circuit.measure(q, q)
    return circuit


def approx_circuit():
    """Non-Clifford, run on the Pauli-transfer frame approximation."""
    circuit = QuantumCircuit(5, 5)
    for q in range(5):
        circuit.h(q)
    circuit.t(0)
    circuit.rx(0.3, 1)
    circuit.cp(0.7, 1, 2)
    circuit.cx(2, 3)
    circuit.tdg(4)
    circuit.cz(3, 4)
    circuit.measure(0, 0)
    circuit.x(4, condition=(0, 1))
    for q in range(1, 5):
        circuit.measure(q, q)
    return circuit


def statevector_circuit():
    """Non-Clifford with a conditional reset: the statevector path."""
    circuit = QuantumCircuit(4, 4)
    circuit.h(0)
    circuit.t(0)
    circuit.cx(0, 1)
    circuit.ry(0.4, 2)
    circuit.cx(1, 2)
    circuit.measure(0, 0)
    circuit.add(Operation("reset", (1,), condition=(0, 1)))
    circuit.x(3, condition=(0, 1))
    circuit.h(1)
    circuit.cz(1, 3)
    for q in range(1, 4):
        circuit.measure(q, q)
    return circuit


CIRCUITS = {
    "frame": (frame_circuit, 1500),
    "frame_approx": (approx_circuit, 1500),
    "statevector": (statevector_circuit, 400),
}


def sample_digest(sample):
    digest = hashlib.sha256()
    for field in ("flips", "record_error", "survival", "desynced"):
        digest.update(np.ascontiguousarray(getattr(sample, field)).tobytes())
    return digest.hexdigest()


def pinned_sample(method, model_name, **kwargs):
    build, shots = CIRCUITS[method]
    return sample_noisy(build(), preset(model_name), shots, seed=SEED,
                        method=method, **kwargs)


#: Recorded with the per-shot ``default_rng`` draws and the dense
#: all-shots injection; the fast sampler must reproduce them.
PINS = {
    ("frame", "depolarizing_1e3"):
        "facec6e9384707805ab4a2ded3420fc9b4fd08a6713aa0b025f32a8e35961b79",
    ("frame", "depolarizing_1e2"):
        "6d62ee69a91e2ef5e9f024cfb50cff0d9e380bd3fd381737d519618fd2e9c0ec",
    ("frame_approx", "depolarizing_1e3"):
        "5c55942a57ece3da5f1791c1b1fa4ea910072ece740ce3ef110c1df307c793f6",
    ("frame_approx", "depolarizing_1e2"):
        "88a2e72a8b7688408dc74202e66c0eb7ef4f8fbd63f29fefb401f5a684fc2e6f",
    ("statevector", "depolarizing_1e3"):
        "070430486da1d148a5348490c080d3ca7495fa6576bffa1e8ee84cf6be3c2244",
    ("statevector", "depolarizing_1e2"):
        "7238efbcaaa6d82184b62833b38767ccb100973fe3f97f72c1b06b4f07517aca",
}

#: Frame circuit under T1/T2 damping: idle channels plus per-slot sites.
DAMPING_PIN = (
    "f71e8a555c860d1a97e41dbe8fa09bf6c7ee695eba8f529d36dee0efcb27b3b8")


class TestPinnedDraws:
    @pytest.mark.parametrize("method,model_name", sorted(PINS))
    def test_digest(self, method, model_name):
        sample = pinned_sample(method, model_name)
        assert sample.method == method
        assert sample_digest(sample) == PINS[method, model_name]

    def test_chunked_frame_run(self, monkeypatch):
        import repro.noise.sampler as sampler_module
        monkeypatch.setattr(sampler_module, "_MAX_UNIFORM_ENTRIES", 500)
        sample = pinned_sample("frame", "depolarizing_1e2")
        assert sample_digest(sample) == \
            PINS["frame", "depolarizing_1e2"]

    def test_damping_digest(self):
        idle = idle_channels_from_lifetimes(
            {q: 20000.0 + 5000.0 * q for q in range(6)}, t1_us=150.0)
        sample = pinned_sample("frame", "damping_150us",
                               idle_channels=idle,
                               config=SimulationConfig())
        assert sample_digest(sample) == DAMPING_PIN


class TestBulkSeeding:
    def test_seed_words_match_seed_sequence(self):
        entropy = [0, 1, 2, 0xFFFFFFFF, 0x80000000] + \
            np.random.default_rng(SEED).integers(
                0, 1 << 32, 1000).tolist()
        words = _seed_words(np.array(entropy, dtype=np.uint64))
        assert words.shape == (len(entropy), 4)
        for e, row in zip(entropy, words):
            expected = np.random.SeedSequence(e).generate_state(4, np.uint64)
            assert np.array_equal(row, expected), e

    @pytest.mark.parametrize("num_sites", [1, 2000])
    @pytest.mark.parametrize("offset", [0, 17, 4096, 123457])
    def test_block_matches_per_shot_streams(self, offset, num_sites):
        shots = 9
        block = _uniform_block(SEED, offset, shots, num_sites)
        expected = np.stack([shot_uniforms(SEED, offset + s, num_sites)
                             for s in range(shots)])
        assert block.dtype == np.float64
        assert np.array_equal(block, expected)

    def test_rows_do_not_depend_on_chunking(self):
        whole = _uniform_block(3, 0, 40, 25)
        parts = np.concatenate([_uniform_block(3, offset, 8, 25)
                                for offset in range(0, 40, 8)])
        assert np.array_equal(whole, parts)

    def test_no_sites(self):
        assert _uniform_block(SEED, 5, 4, 0).shape == (4, 0)


#: One channel per kind the sampler injects, plus high-rate, certain
#: and empty ones.
CHANNELS = {
    "depolarizing_1q": ((2,), depolarizing(0.03, 1)),
    "depolarizing_2q": ((3, 1), depolarizing(0.15, 2)),
    "damping": ((0,), pauli_twirled_damping(900.0, 20.0, 15.0)),
    "readout_flip": ((4,), measurement_flip(0.02)),
    "high_rate_2q": ((0, 4), depolarizing(0.8, 2)),
    "certain_1q": ((3,), depolarizing(1.0, 1)),
    "no_terms": ((1,), PauliChannel(1, ())),
}


def edge_draws(channel, rng):
    """Draws on, just below and just above every bin bound, 0.0, the
    largest double below 1.0, and random fill."""
    bounds, _ = channel.cumulative()
    edges = [0.0, np.nextafter(1.0, 0.0)]
    for bound in bounds:
        edges += [bound, np.nextafter(bound, 0.0), np.nextafter(bound, 1.0)]
    draws = np.concatenate([edges, rng.random(200),
                            rng.random(200) * (bounds[-1] if bounds else 1)])
    return draws[(draws >= 0.0) & (draws < 1.0)]


class TestSparseInjection:
    @pytest.mark.parametrize("name", sorted(CHANNELS))
    def test_erring_shots_match_dense_bins(self, name):
        qubits, channel = CHANNELS[name]
        draws = edge_draws(channel, np.random.default_rng(SEED))
        bounds, _ = channel.cumulative()
        dense = np.searchsorted(bounds, draws, side="right")
        rows, terms = _erring_shots(_error_site(0, qubits, channel).table,
                                    draws)
        assert np.array_equal(rows, np.flatnonzero(dense < len(bounds)))
        assert np.array_equal(terms, dense[rows])

    @pytest.mark.parametrize("name", sorted(CHANNELS))
    def test_frames_match_dense_injection(self, name):
        qubits, channel = CHANNELS[name]
        rng = np.random.default_rng(SEED)
        draws = edge_draws(channel, rng)
        fx = rng.integers(0, 2, (len(draws), 5), dtype=np.uint8)
        fz = rng.integers(0, 2, (len(draws), 5), dtype=np.uint8)
        expected_x, expected_z = fx.copy(), fz.copy()
        site = _error_site(0, qubits, channel)
        apply_error_dense(site, draws, expected_x, expected_z)
        _apply_error_to_frames(site, draws, fx, fz)
        assert np.array_equal(fx, expected_x)
        assert np.array_equal(fz, expected_z)
        erred = _erring_shots(site.table, draws)[0].size
        assert erred > 0 if channel.terms else erred == 0


class TestSiteTables:
    def test_one_table_per_channel(self):
        circuit = frame_circuit()
        steps, _ = compile_noise_program(circuit, preset("depolarizing_1e2"))
        tables = {}
        for step in steps:
            for site in (step.error, step.flip_site):
                if site is not None:
                    tables.setdefault(site.channel, set()).add(id(site.table))
        assert len(tables) == 3   # 1q, 2q depolarizing and readout flip
        assert all(len(ids) == 1 for ids in tables.values())

    def test_depolarizing_is_built_once(self):
        assert depolarizing(0.004, 2) is depolarizing(0.004, 2)
