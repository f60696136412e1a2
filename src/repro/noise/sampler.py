"""Monte-Carlo noisy sampling: Pauli-frame propagation + statevector path.

Three execution methods share one *site* model — every scheduled
operation slot owns zero or more noise sites (depolarizing, per-slot
T1/T2 damping, readout flip), and shot ``s`` consumes one pre-drawn
uniform per site from a private crc32-seeded stream — so the methods
sample literally the same errors for the same ``(model, seed, shot)``:

* ``"frame"`` — the fast path for Clifford circuits: one noiseless
  stabilizer reference run, then per-shot Pauli frames (an (x, z) bit
  pair per qubit) conjugated through the Clifford gates; a measurement's
  noisy outcome is the reference outcome XOR the frame's X bit XOR the
  readout flip.  Classically conditioned Pauli gates are exact (a
  branch divergence *is* a Pauli, absorbed into the frame); conditioned
  non-Pauli Cliffords mark diverging shots ``desynced`` (such shots
  already have a recorded error, so fidelity estimates stay exact).
* ``"statevector"`` — the exact-for-everything fallback: two
  :class:`~repro.quantum.statevector.BatchedStatevectorBackend` runs
  (reference and noisy) with *identical* per-shot measurement RNG
  streams, errors applied to the noisy one.  With a zero-rate model the
  two runs are bit-for-bit identical to the noiseless backends.
* ``"frame_approx"`` — frames for non-Clifford circuits beyond
  statevector reach: non-Clifford gates propagate frames as identity
  (diagonal gates keep Z errors exact) — a Pauli-transfer
  approximation, labeled as such in the results.

Noise is attached to operation *slots*, not executed branches: a
conditionally-skipped gate still idles its qubits for the slot, so its
channel applies either way.  That choice is what lets the frame path
stay reference-free for error injection — and it is how the per-shot
stabilizer reference in ``tests/noise/reference_sampler.py`` behaves
too.

Determinism: shot ``s`` draws ``default_rng(derive_seed("noise", seed,
s)).random(num_sites)`` regardless of execution order or chunking, so
serial, parallel, and cache-replayed sweeps produce byte-identical shot
tables.

Cost model.  A cell's site draws are one ``(shots, num_sites)`` block.
:func:`_uniform_block` fills it without building a generator per shot:
it runs ``SeedSequence``'s entropy mixing for every shot of the chunk
as one vectorized pass (:func:`_seed_words`), derives each shot's PCG64
``(state, inc)`` the way numpy seeds it, and sets that on one reused
``PCG64`` before drawing the shot's row.  Error injection is sparse:
each site first selects the shots whose draw falls below the channel's
error bound, and only those rows are binned and XORed (frames) or masked
(statevector); a frame-path site costs a fixed handful of numpy calls
however many shots err.  Each distinct channel's inverse-sampling
tables are built once (:func:`_site_table`).
``tests/noise/reference_sampler.py`` keeps the per-shot
``default_rng`` draws and the dense all-shots injection as the
references the fast paths are tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from ..quantum.circuit import QuantumCircuit
from ..quantum.stabilizer import StabilizerBackend
from ..quantum.statevector import BatchedStatevectorBackend
from ..sim.config import SimulationConfig
from .channels import PAULI_BITS, PauliChannel, pauli_twirled_damping
from .model import NoiseModel, derive_seed

#: Gates whose conditional execution the frame formalism absorbs exactly.
_PAULI_GATES = frozenset(["x", "y", "z"])

#: Auto-mode ceiling for the batched-statevector fallback (two backends
#: of ``shots * 2**n`` amplitudes live at once).
SV_AUTO_MAX_QUBITS = 14

#: Chunk bound: at most this many (shot, site) uniforms live at once.
_MAX_UNIFORM_ENTRIES = 1 << 22


class NoiseSamplingError(ReproError):
    """Raised on unsupported circuits/methods for noisy sampling."""


# -- compiled noise program ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class _SiteTable:
    """Inverse-sampling tables of one channel, shared by all its sites.

    A draw ``u`` errs when ``u < error_bound`` (``bounds[-1]``, or 0.0
    for a channel without terms); its term is then
    ``searchsorted(bounds, u, side="right")``.  Row ``t`` of ``x``/``z``
    holds term ``t``'s X/Z bit per qubit position.
    """

    bounds: np.ndarray
    error_bound: float
    x: np.ndarray
    z: np.ndarray
    paulis: Tuple[str, ...]


@functools.lru_cache(maxsize=1024)
def _site_table(channel: PauliChannel) -> _SiteTable:
    bounds, paulis = channel.cumulative()
    bits = np.array([[PAULI_BITS[c] for c in p] for p in paulis],
                    dtype=np.uint8).reshape(len(paulis), channel.num_qubits,
                                            2)
    cumulative = np.array(bounds, dtype=np.float64)
    # Shared by every site and cell: read-only, like the channel itself.
    bits.flags.writeable = cumulative.flags.writeable = False
    return _SiteTable(bounds=cumulative,
                      error_bound=bounds[-1] if bounds else 0.0,
                      x=bits[:, :, 0], z=bits[:, :, 1], paulis=paulis)


@dataclass(frozen=True)
class _ErrorSite:
    """One noise-injection point: a channel on ``qubits`` at site index
    ``site`` (its column in the per-shot uniform table)."""

    site: int
    qubits: Tuple[int, ...]
    channel: PauliChannel
    table: _SiteTable


def _error_site(site: int, qubits: Tuple[int, ...],
                channel: PauliChannel) -> _ErrorSite:
    return _ErrorSite(site=site, qubits=qubits, channel=channel,
                      table=_site_table(channel))


@dataclass(frozen=True)
class _Step:
    """One entry of the compiled program.

    ``kind`` is ``"error"``, ``"gate"``, ``"measure"`` or ``"reset"``.
    ``error`` is set for error steps; ``flip_site`` for measure steps
    with a readout-flip channel.
    """

    kind: str
    qubits: Tuple[int, ...] = ()
    name: str = ""
    params: Tuple[float, ...] = ()
    condition: Optional[Tuple[int, int]] = None
    cbit: Optional[int] = None
    error: Optional[_ErrorSite] = None
    flip_site: Optional[_ErrorSite] = None


def _slot_duration_ns(op, config: Optional[SimulationConfig]
                      ) -> Optional[float]:
    """Wall-clock duration of one operation slot.

    ``config=None`` means "no per-slot damping anywhere" — including
    delays, whose duration lives in their params: callers pass None
    exactly when lifetime-integrated idle channels already cover every
    slot, and charging delay decay again would double-count.
    """
    if config is None:
        return None
    if op.name == "delay":
        return float(op.params[0]) if op.params else None
    if op.is_measurement:
        return config.measurement_ns
    if len(op.qubits) >= 2:
        return config.two_qubit_gate_ns
    return config.single_qubit_gate_ns


def compile_noise_program(circuit: QuantumCircuit, model: NoiseModel,
                          idle_channels: Optional[Dict[int, PauliChannel]]
                          = None,
                          config: Optional[SimulationConfig] = None
                          ) -> Tuple[List[_Step], int]:
    """Lower (circuit, model) to the shared step/site program.

    Returns ``(steps, num_sites)``.  Site indices are assigned in
    program order — the contract every sampling method relies on to
    consume identical draws.
    """
    steps: List[_Step] = []
    sites = 0

    def add_error(qubits: Tuple[int, ...], channel: PauliChannel):
        nonlocal sites
        site = _error_site(sites, qubits, channel)
        sites += 1
        steps.append(_Step(kind="error", qubits=qubits, error=site))
        return site

    for qubit in sorted(idle_channels or {}):
        add_error((qubit,), (idle_channels or {})[qubit])
    measure_channel = model.measure_channel()
    for op in circuit:
        if op.is_barrier:
            continue
        if op.is_measurement:
            duration = _slot_duration_ns(op, config)
            if model.t1_us is not None and duration:
                damping = pauli_twirled_damping(duration, model.t1_us,
                                                model.t2_us)
                if damping.error_probability > 0:
                    add_error((op.qubits[0],), damping)
            flip_site = None
            if measure_channel is not None:
                flip_site = _error_site(sites, (op.qubits[0],),
                                        measure_channel)
                sites += 1
            steps.append(_Step(kind="measure", qubits=op.qubits,
                               cbit=op.cbit, condition=op.condition,
                               flip_site=flip_site))
            continue
        if op.is_reset:
            steps.append(_Step(kind="reset", qubits=op.qubits,
                               condition=op.condition))
            continue
        steps.append(_Step(kind="gate", qubits=op.qubits, name=op.name,
                           params=op.params, condition=op.condition))
        for qubits, channel in model.gate_channels(
                op.name, op.qubits, _slot_duration_ns(op, config)):
            add_error(qubits, channel)
    return steps, sites


# -- per-shot draw streams ----------------------------------------------------
#
# ``default_rng(e)`` for a 32-bit int ``e`` is ``PCG64(SeedSequence(e))``.
# The constants below are SeedSequence's hash constants and PCG64's
# 128-bit multiplier.  The sequence of hash multipliers does not depend
# on the entropy, so the whole mixing runs as uint32 arithmetic over a
# vector of entropies (uint64 products of 32-bit factors, masked).

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_constants(init: int, mult: int, count: int) -> List[np.uint64]:
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    return [np.uint64(c) for c in constants]


#: ``hashmix`` call ``k`` XORs with entry ``k`` and multiplies by entry
#: ``k + 1``: 16 calls mix a 4-word pool, 8 generate the PCG64 seed.
_MIX_CONSTANTS = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_CONSTANTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L = np.uint64(0xCA01F9DD)
_MIX_MULT_R = np.uint64(0x4973F715)
_U32 = np.uint64(_MASK32)
_XSHIFT = np.uint64(16)


def _hashmix(value: np.ndarray, constants: List[np.uint64],
             call: int) -> np.ndarray:
    value = ((value ^ constants[call]) * constants[call + 1]) & _U32
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _U32
    return result ^ (result >> _XSHIFT)


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each 32-bit
    ``e`` in ``entropy``, as one ``(len(entropy), 4)`` uint64 array."""
    entropy = np.asarray(entropy, dtype=np.uint64)
    zero = np.zeros_like(entropy)
    # A one-word entropy fills pool word 0; the rest hash zeros.
    pool = [_hashmix(entropy, _MIX_CONSTANTS, 0)] + [
        _hashmix(zero, _MIX_CONSTANTS, call) for call in (1, 2, 3)]
    call = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst],
                                 _hashmix(pool[src], _MIX_CONSTANTS, call))
                call += 1
    words = [_hashmix(pool[i % 4], _STATE_CONSTANTS, i) for i in range(8)]
    # Little-endian pairs of uint32 words make each uint64.
    return np.stack([words[2 * i] | (words[2 * i + 1] << np.uint64(32))
                     for i in range(4)], axis=1)


def _uniform_block(seed: int, shot_offset: int, shots: int,
                   num_sites: int) -> np.ndarray:
    """Site draws of shots ``shot_offset .. shot_offset + shots - 1``.

    Row ``s`` equals ``default_rng(derive_seed("noise", seed,
    shot_offset + s)).random(num_sites)`` bit for bit: each shot's PCG64
    is seeded the way ``pcg64_set_seed`` seeds it from the
    SeedSequence words, on one reused generator.
    """
    block = np.empty((shots, num_sites), dtype=np.float64)
    if not num_sites:
        return block
    entropy = [derive_seed("noise", seed, shot_offset + s)
               for s in range(shots)]
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0,
             "uinteger": 0}
    for row, (seed_hi, seed_lo, inc_hi, inc_lo) in enumerate(
            _seed_words(entropy).tolist()):
        inc = (((inc_hi << 64) | inc_lo) << 1 | 1) & _MASK128
        pcg["inc"] = inc
        pcg["state"] = ((inc + ((seed_hi << 64) | seed_lo)) * _PCG64_MULT
                        + inc) & _MASK128
        bit_generator.state = state
        generator.random(out=block[row])
    return block


# -- results ------------------------------------------------------------------

@dataclass
class NoiseSample:
    """Outcome of a noisy multishot sampling run.

    ``flips`` is the final classical record XOR the noiseless reference
    record; ``record_error`` marks shots where *any* recorded
    measurement event disagreed with the reference (robust to classical
    bits being overwritten later); ``survival`` marks shots with no
    recorded deviation *and* no residual end-of-shot error (identity
    final frame, resp. unit overlap with the reference state) — the
    empirical twin of the Figure-16 survival proxy, meaningful even for
    workloads that never measure; ``desynced`` marks frame-path shots
    whose branch diverged at a non-Pauli conditional (their ``flips``
    rows are approximate — their ``record_error`` is already True).
    """

    method: str
    shots: int
    seed: int
    flips: np.ndarray
    record_error: np.ndarray
    survival: np.ndarray
    desynced: np.ndarray
    reference_bits: Optional[np.ndarray] = None
    noisy_bits: Optional[np.ndarray] = None

    @property
    def record_error_count(self) -> int:
        return int(np.count_nonzero(self.record_error))

    @property
    def survival_count(self) -> int:
        return int(np.count_nonzero(self.survival))


def _concat(samples: Sequence[NoiseSample], method: str, shots: int,
            seed: int) -> NoiseSample:
    if len(samples) == 1:
        return samples[0]

    def cat(field):
        parts = [getattr(s, field) for s in samples]
        return None if parts[0] is None else np.concatenate(parts)

    return NoiseSample(method=method, shots=shots, seed=seed,
                       flips=cat("flips"), record_error=cat("record_error"),
                       survival=cat("survival"), desynced=cat("desynced"),
                       reference_bits=cat("reference_bits"),
                       noisy_bits=cat("noisy_bits"))


# -- Pauli-frame propagation --------------------------------------------------

def _conjugate_frame(name: str, params, qubits, fx: np.ndarray,
                     fz: np.ndarray) -> bool:
    """Propagate frames through one gate in place.

    Returns True when the propagation is exact (Clifford rule applied);
    False means the gate was treated as identity (the documented
    Pauli-transfer approximation for non-Clifford gates).
    """
    if name in ("i", "x", "y", "z", "delay"):
        return True
    if name == "h":
        q = qubits[0]
        fx[:, q], fz[:, q] = fz[:, q].copy(), fx[:, q].copy()
        return True
    if name in ("s", "sdg"):
        q = qubits[0]
        fz[:, q] ^= fx[:, q]
        return True
    if name == "sx":
        q = qubits[0]
        fx[:, q] ^= fz[:, q]
        return True
    if name in ("rz", "u1"):
        (theta,) = params
        steps = theta / (math.pi / 2)
        k = round(steps)
        if abs(steps - k) > 1e-9:
            return False  # diagonal: Z frames exact, X frames approximate
        if k % 2:
            q = qubits[0]
            fz[:, q] ^= fx[:, q]
        return True
    if name in ("t", "tdg"):
        return False  # diagonal non-Clifford
    if name == "cx":
        c, t = qubits
        fx[:, t] ^= fx[:, c]
        fz[:, c] ^= fz[:, t]
        return True
    if name == "cz":
        a, b = qubits
        fz[:, a] ^= fx[:, b]
        fz[:, b] ^= fx[:, a]
        return True
    if name == "swap":
        a, b = qubits
        fx[:, a], fx[:, b] = fx[:, b].copy(), fx[:, a].copy()
        fz[:, a], fz[:, b] = fz[:, b].copy(), fz[:, a].copy()
        return True
    if name in ("cp", "crz"):
        (theta,) = params
        steps = theta / math.pi
        k = round(steps)
        if abs(steps - k) > 1e-9:
            return False
        if k % 2:
            a, b = qubits
            fz[:, a] ^= fx[:, b]
            fz[:, b] ^= fx[:, a]
        return True
    if name in ("rx", "ry"):
        return False
    raise NoiseSamplingError(
        "no frame propagation rule for gate {!r}".format(name))


def _erring_shots(table: _SiteTable, draws: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, terms): the shots whose draw errs and each one's term.

    Under ``side="right"`` a draw lands past the last bin (identity)
    exactly when it is not below ``bounds[-1]``, so only the erring rows
    are binned.
    """
    rows = np.flatnonzero(draws < table.error_bound)
    if not rows.size:
        return rows, rows  # both empty: most sites at low rates
    return rows, np.searchsorted(table.bounds, draws[rows], side="right")


def _apply_error_to_frames(site: _ErrorSite, draws: np.ndarray,
                           fx: np.ndarray, fz: np.ndarray) -> None:
    """XOR sampled Pauli errors into the frames of the erring shots."""
    rows, terms = _erring_shots(site.table, draws)
    if not rows.size:
        return
    cells = (rows[:, None], list(site.qubits))
    fx[cells] ^= site.table.x[terms]
    fz[cells] ^= site.table.z[terms]


def _reference_trace(circuit: QuantumCircuit, seed: int):
    """One noiseless stabilizer run, recording per-op branch decisions
    and the evolving classical record (the frame path's reference)."""
    backend = StabilizerBackend(circuit.num_qubits,
                                seed=derive_seed("noise-ref", seed))
    cbits = [0] * circuit.num_clbits
    taken: List[bool] = []
    for op in circuit:
        if op.is_barrier:
            taken.append(True)
            continue
        if op.is_conditional:
            bit, value = op.condition
            if cbits[bit] != value:
                taken.append(False)
                continue
        taken.append(True)
        if op.is_reset:
            backend.reset(op.qubits[0])
        elif op.is_measurement:
            outcome = backend.measure(op.qubits[0])
            if op.cbit is not None:
                cbits[op.cbit] = outcome
        else:
            backend.apply_gate(op.name, op.qubits, op.params)
    return np.asarray(cbits, dtype=np.int8), taken


def _sample_frames(circuit: QuantumCircuit, model: NoiseModel,
                   steps: List[_Step], num_sites: int,
                   shots: int, shot_offset: int, seed: int,
                   ref_taken: Optional[Dict[int, bool]],
                   exact: bool) -> NoiseSample:
    n, m = circuit.num_qubits, circuit.num_clbits
    uniforms = _uniform_block(seed, shot_offset, shots, num_sites)
    fx = np.zeros((shots, n), dtype=np.uint8)
    fz = np.zeros((shots, n), dtype=np.uint8)
    flips = np.zeros((shots, max(m, 1)), dtype=np.uint8)
    record_error = np.zeros(shots, dtype=bool)
    desynced = np.zeros(shots, dtype=bool)
    gate_index = 0
    for step in steps:
        if step.kind == "error":
            _apply_error_to_frames(step.error, uniforms[:, step.error.site],
                                   fx, fz)
            continue
        if step.kind == "reset":
            q = step.qubits[0]
            fx[:, q] = 0
            fz[:, q] = 0
            continue
        if step.kind == "measure":
            q = step.qubits[0]
            event = fx[:, q].copy()
            if step.flip_site is not None:
                draws = uniforms[:, step.flip_site.site]
                event ^= (draws <
                          step.flip_site.channel.error_probability
                          ).astype(np.uint8)
            fz[:, q] = 0  # Z errors are destroyed by Z-basis measurement
            if step.cbit is not None:
                flips[:, step.cbit] = event
                record_error |= event.astype(bool)
            continue
        # gate step
        index = gate_index
        gate_index += 1
        if step.condition is not None:
            bit, _ = step.condition
            diverged = flips[:, bit].astype(bool)
            if step.name in _PAULI_GATES:
                # Taken in exactly one of the runs: the difference IS the
                # Pauli — XOR it into the diverging shots' frames.
                xbit, zbit = PAULI_BITS[step.name.upper()]
                q = step.qubits[0]
                if xbit:
                    fx[diverged, q] ^= 1
                if zbit:
                    fz[diverged, q] ^= 1
                continue
            # Non-Pauli conditional: diverging shots leave the frame
            # formalism (they already carry a recorded error).
            desynced |= diverged
            taken = True if ref_taken is None else ref_taken.get(index, True)
            if taken:
                _conjugate_frame(step.name, step.params, step.qubits, fx, fz)
            continue
        _conjugate_frame(step.name, step.params, step.qubits, fx, fz)
    residual = fx.any(axis=1) | fz.any(axis=1)
    survival = ~(record_error | residual | desynced)
    return NoiseSample(method="frame" if exact else "frame_approx",
                       shots=shots, seed=seed,
                       flips=flips[:, :m], record_error=record_error,
                       survival=survival, desynced=desynced)


# -- statevector path ---------------------------------------------------------

def _sample_statevector(circuit: QuantumCircuit, model: NoiseModel,
                        steps: List[_Step], num_sites: int,
                        shots: int, shot_offset: int, seed: int
                        ) -> NoiseSample:
    n, m = circuit.num_qubits, circuit.num_clbits
    uniforms = _uniform_block(seed, shot_offset, shots, num_sites)
    # Identical per-shot measurement streams: zero noise => bit identity.
    reference = BatchedStatevectorBackend(n, shots, seed=seed)
    noisy = BatchedStatevectorBackend(n, shots, seed=seed)
    if shot_offset:
        # Chunked runs must reproduce the absolute shot's RNG stream.
        from ..quantum.statevector import _shot_seed
        reference.rngs = [np.random.default_rng(
            _shot_seed(seed, shot_offset + s)) for s in range(shots)]
        noisy.rngs = [np.random.default_rng(
            _shot_seed(seed, shot_offset + s)) for s in range(shots)]
    ref_cbits = np.zeros((shots, max(m, 1)), dtype=np.int8)
    noisy_cbits = np.zeros((shots, max(m, 1)), dtype=np.int8)
    record_error = np.zeros(shots, dtype=bool)
    for step in steps:
        if step.kind == "error":
            site = step.error
            rows, terms = _erring_shots(site.table, uniforms[:, site.site])
            for term in sorted(set(terms.tolist())):
                active = np.zeros(shots, dtype=bool)
                active[rows[terms == term]] = True
                noisy.apply_pauli(site.table.paulis[term], site.qubits,
                                  active=active)
            continue
        ref_active = noisy_active = None
        if step.condition is not None:
            bit, value = step.condition
            ref_active = ref_cbits[:, bit] == value
            noisy_active = noisy_cbits[:, bit] == value
        if step.kind == "reset":
            if ref_active is None or ref_active.any():
                reference.reset(step.qubits[0], active=ref_active)
            if noisy_active is None or noisy_active.any():
                noisy.reset(step.qubits[0], active=noisy_active)
            continue
        if step.kind == "measure":
            q = step.qubits[0]
            ref_out = reference.measure(q, active=ref_active)
            noisy_out = noisy.measure(q, active=noisy_active)
            record = noisy_out.copy()
            if step.flip_site is not None:
                draws = uniforms[:, step.flip_site.site]
                record ^= (draws <
                           step.flip_site.channel.error_probability
                           ).astype(np.int8)
            if step.cbit is not None:
                if ref_active is None:
                    ref_cbits[:, step.cbit] = ref_out
                    noisy_cbits[:, step.cbit] = record
                    record_error |= ref_out != record
                else:
                    ref_cbits[ref_active, step.cbit] = ref_out[ref_active]
                    noisy_cbits[noisy_active, step.cbit] = \
                        record[noisy_active]
                    both = ref_active & noisy_active
                    record_error |= both & (ref_out != record)
                    record_error |= ref_active != noisy_active
            continue
        # gate step
        if ref_active is None or ref_active.any():
            reference.apply_gate(step.name, step.qubits, step.params,
                                 active=ref_active)
        if noisy_active is None or noisy_active.any():
            noisy.apply_gate(step.name, step.qubits, step.params,
                             active=noisy_active)
    flips = (ref_cbits[:, :m] ^ noisy_cbits[:, :m]).astype(np.uint8)
    overlap = np.abs(np.sum(np.conj(reference.states) * noisy.states,
                            axis=1)) ** 2
    survival = ~record_error & (overlap > 1.0 - 1e-9)
    return NoiseSample(method="statevector", shots=shots, seed=seed,
                       flips=flips, record_error=record_error,
                       survival=survival,
                       desynced=np.zeros(shots, dtype=bool),
                       reference_bits=ref_cbits[:, :m],
                       noisy_bits=noisy_cbits[:, :m])


# -- entry point --------------------------------------------------------------

def _frame_compatible(circuit: QuantumCircuit) -> bool:
    """Frame paths cannot branch measurements/resets on noisy bits."""
    return not any(op.is_conditional and (op.is_measurement or op.is_reset)
                   for op in circuit)


def choose_method(circuit: QuantumCircuit) -> str:
    """The method ``sample_noisy`` picks under ``method="auto"``."""
    frame_ok = _frame_compatible(circuit)
    if circuit.is_clifford and frame_ok:
        return "frame"
    if circuit.num_qubits <= SV_AUTO_MAX_QUBITS:
        return "statevector"
    if frame_ok:
        return "frame_approx"
    raise NoiseSamplingError(
        "no sampling method covers a {}-qubit circuit with conditional "
        "measurements/resets (statevector reach ends at {} qubits)"
        .format(circuit.num_qubits, SV_AUTO_MAX_QUBITS))


def sample_noisy(circuit: QuantumCircuit, model: NoiseModel, shots: int,
                 seed: int = 0,
                 idle_channels: Optional[Dict[int, PauliChannel]] = None,
                 config: Optional[SimulationConfig] = None,
                 method: str = "auto") -> NoiseSample:
    """Sample ``shots`` noisy executions of ``circuit`` under ``model``.

    ``idle_channels`` adds one start-of-shot channel per qubit (see
    :func:`~repro.noise.channels.idle_channels_from_lifetimes`);
    ``config`` supplies slot durations for T1/T2 gate damping.
    ``method`` is ``"auto"`` (see :func:`choose_method`), ``"frame"``,
    ``"statevector"`` or ``"frame_approx"``.
    """
    if shots < 1:
        raise NoiseSamplingError("need at least one shot")
    if method == "auto":
        method = choose_method(circuit)
    steps, num_sites = compile_noise_program(circuit, model, idle_channels,
                                             config)
    if method in ("frame", "frame_approx"):
        if not _frame_compatible(circuit):
            raise NoiseSamplingError(
                "frame sampling does not support conditional "
                "measurements/resets; use method='statevector'")
        exact = method == "frame"
        ref_bits = None
        ref_taken: Optional[Dict[int, bool]] = None
        if exact:
            if not circuit.is_clifford:
                raise NoiseSamplingError(
                    "frame sampling is exact only for Clifford circuits; "
                    "use method='statevector' or 'frame_approx'")
            ref_bits, taken = _reference_trace(circuit, seed)
            # Branch decisions indexed the way the frame loop counts gate
            # steps: circuit order, barriers/measures/resets excluded.
            ref_taken = dict(enumerate(
                t for op, t in zip(circuit, taken)
                if not (op.is_barrier or op.is_measurement or op.is_reset)))
        chunk = max(1, _MAX_UNIFORM_ENTRIES // max(1, num_sites))
        parts = [_sample_frames(circuit, model, steps, num_sites,
                                min(chunk, shots - offset), offset, seed,
                                ref_taken, exact)
                 for offset in range(0, shots, chunk)]
        sample = _concat(parts, parts[0].method, shots, seed)
        if ref_bits is not None:
            sample.reference_bits = np.tile(ref_bits, (shots, 1))
            sample.noisy_bits = (sample.reference_bits ^
                                 sample.flips).astype(np.int8)
        return sample
    if method == "statevector":
        per_chunk_amplitudes = 1 << 24
        chunk = max(1, per_chunk_amplitudes >> circuit.num_qubits)
        parts = [_sample_statevector(circuit, model, steps, num_sites,
                                     min(chunk, shots - offset), offset,
                                     seed)
                 for offset in range(0, shots, chunk)]
        return _concat(parts, "statevector", shots, seed)
    raise NoiseSamplingError(
        "unknown sampling method {!r}; expected auto/frame/"
        "statevector/frame_approx".format(method))
