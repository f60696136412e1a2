"""Persistent content-addressed compile cache.

PR 6's per-process memo (`harness.parallel._CELL_COMPILATIONS`) already
makes warm repeats of a cell compile-free — *within one process*.  Every
fresh sweep worker, service worker and CI job still pays the full
lowering/emit pipeline for every cell it touches, and the ROADMAP
item-2 close-out measured exactly that as the cold-path bottleneck
("compile dominates cold runs").  This module makes the compile
artifact itself durable:

* One entry per compiled circuit, keyed by SHA-256 over (format-version
  salt, circuit content, scheme name + origin module,
  ``SimulationConfig`` fingerprint, qubits-per-controller, mesh kind) —
  everything :func:`~repro.compiler.driver.compile_circuit` is a pure
  function of.  Device seed, fast-path switch and noise model are
  deliberately absent: compilation does not depend on them.
* Storage is a :class:`repro.diskcache.PickleDirStore` — the exact
  directory discipline of the sweep result cache (atomic temp+rename
  puts, orphan-temp reclaim, corrupt entry = miss) — so many sweep
  workers, service workers and the offline CLI can share one warm
  compile store across processes and machines.

Payload layout — columnar, not an object-graph pickle
-----------------------------------------------------

A compiled cell is hundreds of programs sharing a few thousand interned
instructions; a naive pickle of ``CompilationResult`` spends longer
rebuilding that object graph than ``compile_circuit`` takes to produce
it, which would make the warm path pointless.  The payload therefore
stores the *unique* content once and the structure as flat integer
arrays:

* ``pool`` — one operand tuple per unique instruction.  Loads re-intern
  label-less entries (:func:`repro.isa.instructions.interned`), so
  repeated content shares objects across cells exactly like a fresh
  compile, and unknown mnemonics fail validation into a clean miss.
  Each instruction derives its own step tuple, so no decode is stored.
* ``idx`` — each unique program body is a slice of one uint32 index
  array into the pool (programs made of the same instruction objects
  store their body once).
* ``meta`` — the small remaining ``CompilationResult`` fields, pickled
  as-is.  The circuit itself is **not stored**: the key guarantees the
  caller's circuit is content-identical, so :meth:`CompileCache.get`
  reattaches it, saving the single slowest part of the old payload.

A stale or corrupt entry is *never* an error: the format-version salt
keys old layouts away, and any unreadable/implausible payload falls back
to a clean recompile (which re-publishes the entry).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from typing import Dict, Optional

import numpy as np

from ..diskcache import PickleDirStore
# Unused here; benchmarks/e2e/layers.py wraps this binding.
from ..isa.decoded import decode_program  # noqa: F401
from ..isa.instructions import Instruction, interned
from ..isa.program import Program
from ..obs import metrics as _metrics
from ..sim.config import SimulationConfig
from ..sim.device import (GateAction, MarkerAction, MeasureAction,
                          gate_action)
from .driver import CompilationResult, compile_circuit
from .schemes import get_scheme, origin_module

#: Bump whenever the payload layout, Program, Instruction or the
#: simulation semantics change incompatibly — old entries are keyed away
#: instead of deserialized wrongly (the salt is part of the hash key).
COMPILE_CACHE_VERSION = 4

COMPILE_CACHE_HITS = _metrics.counter(
    "repro_compile_cache_hits_total",
    "compilations served from the persistent compile cache")
COMPILE_CACHE_MISSES = _metrics.counter(
    "repro_compile_cache_misses_total",
    "compile-cache lookups that fell back to a real compile")

#: ``CompilationResult`` fields stored verbatim in the payload's
#: ``meta`` dict (everything except the reattached circuit, the
#: columnar-encoded programs and the pooled codeword tables).
_META_FIELDS = ("scheme", "config", "qmap", "topology",
                "sync_groups", "stats", "mesh_kind", "mesh_edges")


def compile_cache_totals() -> Dict[str, int]:
    """Copy of the process-wide compile-cache counters."""
    return {"hits": COMPILE_CACHE_HITS.value,
            "misses": COMPILE_CACHE_MISSES.value}


#: (id(circuit), op count) -> (circuit, fingerprint).  Sweep grids key
#: the same circuit object once per scheme; the pinned strong reference
#: keeps the id from being reused, and the operation count catches the
#: one public mutation idiom (appending gates) between calls.
_FINGERPRINT_MEMO: Dict[tuple, tuple] = {}
_FINGERPRINT_MEMO_LIMIT = 64


def _circuit_fingerprint(circuit) -> str:
    """Content string for ``circuit``: qubit/clbit counts plus every
    operation's field tuple (``Operation`` is a frozen dataclass of
    primitives, so the tuple is its content — and one ``repr`` of the
    whole nest is several times cheaper than a dataclass ``repr`` per
    operation, which matters because the warm path pays this hash per
    cell)."""
    operations = circuit.operations
    memo_key = (id(circuit), len(operations))
    entry = _FINGERPRINT_MEMO.get(memo_key)
    if entry is not None and entry[0] is circuit:
        return entry[1]
    fingerprint = repr((circuit.num_qubits, circuit.num_clbits,
                        tuple((op.name, op.qubits, op.params, op.cbit,
                               op.condition)
                              for op in operations)))
    if len(_FINGERPRINT_MEMO) >= _FINGERPRINT_MEMO_LIMIT:
        _FINGERPRINT_MEMO.clear()
    _FINGERPRINT_MEMO[memo_key] = (circuit, fingerprint)
    return fingerprint


def compile_key(circuit, scheme: str = "bisp",
                config: Optional[SimulationConfig] = None,
                qubits_per_controller: int = 1,
                mesh_kind: str = "line") -> str:
    """Stable content hash identifying one compilation.

    The circuit contributes its full content via
    :func:`_circuit_fingerprint`.  The scheme contributes its resolved
    name *and* origin module, so two third-party schemes that reuse a
    name cannot alias each other's artifacts.  The *raw* config is
    hashed: ``compile_circuit`` applies ``scheme.effective_config``
    itself, so equal raw configs imply equal effective ones.
    """
    scheme_obj = get_scheme(scheme)
    config = config or SimulationConfig()
    payload = (
        ("compile_cache_version", COMPILE_CACHE_VERSION),
        ("circuit", _circuit_fingerprint(circuit)),
        ("scheme", (scheme_obj.name, origin_module(scheme_obj.name))),
        ("config", tuple(sorted(asdict(config).items()))),
        ("qubits_per_controller", qubits_per_controller),
        ("mesh_kind", mesh_kind),
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def _encode_codeword_tables(codeword_tables: Dict[int, dict]) -> tuple:
    """Pool the (heavily interned) actions behind the codeword tables.

    Gate/measure/marker actions become primitive tuples; anything else
    (a third-party scheme's action type) rides along as the object
    itself — correctness never depends on the fast encoding."""
    action_index: Dict[int, int] = {}
    action_pool = []
    tables = {}
    for address, table in codeword_tables.items():
        indices = []
        for action in table.values():
            j = action_index.get(id(action))
            if j is None:
                j = len(action_pool)
                action_index[id(action)] = j
                kind = type(action)
                if kind is GateAction:
                    action_pool.append((0, action.name, action.qubits,
                                        action.params, action.half,
                                        action.total_halves))
                elif kind is MeasureAction:
                    action_pool.append((1, action.qubit))
                elif kind is MarkerAction:
                    action_pool.append((2, action.tag))
                else:
                    action_pool.append((3, action))
            indices.append(j)
        tables[address] = (tuple(table.keys()), tuple(indices))
    return action_pool, tables


def _decode_codeword_tables(encoded: tuple) -> Dict[int, dict]:
    action_prims, tables = encoded
    actions = []
    for prims in action_prims:
        kind = prims[0]
        if kind == 0:
            actions.append(gate_action(*prims[1:]))
        elif kind == 1:
            actions.append(MeasureAction(prims[1]))
        elif kind == 2:
            actions.append(MarkerAction(prims[1]))
        else:
            actions.append(prims[1])
    get_action = actions.__getitem__
    return {address: dict(zip(keys, map(get_action, indices)))
            for address, (keys, indices) in tables.items()}


def _encode(result: CompilationResult) -> dict:
    """Columnar payload for ``result``."""
    pool_index: Dict[int, int] = {}
    pool = []
    pool_labels: Dict[int, str] = {}
    body_slices: Dict[tuple, tuple] = {}
    idx_chunks = []
    idx_total = 0

    def index_of(instr) -> int:
        j = pool_index.get(id(instr))
        if j is None:
            j = len(pool)
            pool_index[id(instr)] = j
            pool.append((instr.mnemonic, instr.rd, instr.rs1, instr.rs2,
                         instr.imm, instr.imm2))
            if instr.label:
                pool_labels[j] = instr.label
        return j

    programs = {}
    for address, program in result.programs.items():
        instructions = program.instructions
        # The programs are alive for the whole call, so instruction ids
        # cannot be reused while they key a body.
        body = tuple(map(id, instructions))
        lo_hi = body_slices.get(body)
        if lo_hi is None:
            n = len(instructions)
            idx_chunks.append(np.fromiter(map(index_of, instructions),
                                          dtype=np.uint32, count=n))
            lo_hi = body_slices[body] = (idx_total, idx_total + n)
            idx_total += n
        programs[address] = (program.name, program.labels) + lo_hi
    return {
        "version": COMPILE_CACHE_VERSION,
        "meta": {name: getattr(result, name) for name in _META_FIELDS},
        "codewords": _encode_codeword_tables(result.codeword_tables),
        "pool": pool,
        "pool_labels": pool_labels,
        "idx": (np.concatenate(idx_chunks) if idx_chunks
                else np.empty(0, dtype=np.uint32)),
        "programs": programs,
    }


def _decode(payload: dict, circuit) -> CompilationResult:
    """Rebuild a compilation from a payload.

    Raises on any malformed payload — :meth:`CompileCache.get` turns
    that into a miss."""
    pool_labels = payload["pool_labels"]
    instr_pool = []
    for j, operands in enumerate(payload["pool"]):
        label = pool_labels.get(j)
        if label:
            instr_pool.append(Instruction(*operands, label=label))
        else:
            instr_pool.append(interned(*operands))

    index_array = payload["idx"]
    get_instr = instr_pool.__getitem__
    programs = {}
    for address, (name, labels, lo, hi) in payload["programs"].items():
        programs[address] = Program(
            name=name,
            instructions=list(map(get_instr, index_array[lo:hi].tolist())),
            labels=dict(labels))
    return CompilationResult(
        circuit=circuit, programs=programs,
        codeword_tables=_decode_codeword_tables(payload["codewords"]),
        **payload["meta"])


class CompileCache(PickleDirStore):
    """On-disk store of compiled circuits.

    Lives in the same directory family as the sweep result cache —
    point it at e.g. ``<cache-dir>/compile`` next to the cell store, or
    anywhere else; keys are self-describing content hashes either way.
    """

    def get(self, key: str, circuit=None) -> Optional[CompilationResult]:
        """Load a cached compilation; anything unreadable returns None.

        ``circuit`` is reattached as ``result.circuit`` (the payload
        does not store it; ``key`` must have been derived from this
        circuit's content).  Beyond the pickle-level broad except of the
        base class, the payload shape and format version are checked
        explicitly and instruction operands re-validate through the
        interner — a payload that fails *any* of it (truncated file,
        stale salt written by a future layout that reuses keys,
        hand-edited store) is a miss, never a crash or a wrong program.
        """
        payload = super().get(key)
        try:
            if not isinstance(payload, dict):
                return None
            if payload.get("version") != COMPILE_CACHE_VERSION:
                return None
            return _decode(payload, circuit)
        except Exception:
            return None

    def put(self, key: str, result: CompilationResult) -> None:
        """Store a compilation.

        The columnar payload keeps the warm load several times cheaper
        than the compile it replaces."""
        super().put(key, _encode(result))


def cached_compile(circuit, scheme: str = "bisp",
                   config: Optional[SimulationConfig] = None,
                   qubits_per_controller: int = 1,
                   mesh_kind: str = "line",
                   cache: Optional[CompileCache] = None
                   ) -> CompilationResult:
    """``compile_circuit`` through the persistent cache.

    With ``cache=None`` this is exactly ``compile_circuit`` (callers can
    wire the cache through unconditionally).  Hits and misses land in
    the ``repro_compile_cache_*`` counters either way a lookup happens.
    """
    if cache is None:
        return compile_circuit(circuit, scheme=scheme, config=config,
                               qubits_per_controller=qubits_per_controller,
                               mesh_kind=mesh_kind)
    key = compile_key(circuit, scheme=scheme, config=config,
                      qubits_per_controller=qubits_per_controller,
                      mesh_kind=mesh_kind)
    result = cache.get(key, circuit)
    if result is not None:
        COMPILE_CACHE_HITS.value += 1
        return result
    COMPILE_CACHE_MISSES.value += 1
    result = compile_circuit(circuit, scheme=scheme, config=config,
                             qubits_per_controller=qubits_per_controller,
                             mesh_kind=mesh_kind)
    cache.put(key, result)
    return result
