"""Gate definitions: names, matrices, Clifford status, default durations.

The native set mirrors what superconducting control electronics implement
(paper section 2.2): single-qubit rotations (20 ns), one two-qubit
entangler — CZ/CNOT (40 ns) — and measurement (300 ns).
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, Tuple

import numpy as np

from ..errors import QuantumStateError

_SQ2 = 1.0 / math.sqrt(2.0)

#: Constant single-qubit matrices.
_MATRICES_1Q: Dict[str, np.ndarray] = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]],
                    dtype=complex),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
}

#: Two-qubit matrices (control = first qubit = most significant bit).
_MATRICES_2Q: Dict[str, np.ndarray] = {
    "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                   dtype=complex),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                     dtype=complex),
}

#: Gates expressible in the stabilizer formalism.
CLIFFORD_GATES = frozenset(["i", "x", "y", "z", "h", "s", "sdg", "sx", "cx",
                            "cz", "swap"])

#: Names of all known gates.
GATE_ARITY: Dict[str, int] = {}
GATE_ARITY.update({name: 1 for name in _MATRICES_1Q})
GATE_ARITY.update({name: 2 for name in _MATRICES_2Q})
GATE_ARITY.update({"rz": 1, "rx": 1, "ry": 1, "u1": 1, "cp": 2, "crz": 2})
#: "delay" is a timed identity (params = duration in ns): quantum no-op,
#: lowered by the compiler to a wait (used for decoder-latency modeling).
GATE_ARITY["delay"] = 1


def gate_matrix(name: str, params: Tuple[float, ...] = ()) -> np.ndarray:
    """Return the unitary matrix of gate ``name`` with ``params``."""
    name = name.lower()
    if name == "delay":
        return _MATRICES_1Q["i"]
    if name in _MATRICES_1Q:
        return _MATRICES_1Q[name]
    if name in _MATRICES_2Q:
        return _MATRICES_2Q[name]
    if name in ("rz", "u1"):
        (theta,) = params
        return np.diag([cmath.exp(-0.5j * theta),
                        cmath.exp(0.5j * theta)]).astype(complex)
    if name == "rx":
        (theta,) = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "ry":
        (theta,) = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name in ("cp", "crz"):
        (theta,) = params
        return np.diag([1, 1, 1, cmath.exp(1j * theta)]).astype(complex)
    raise QuantumStateError("unknown gate {!r}".format(name))


def gate_arity(name: str) -> int:
    """Number of qubits gate ``name`` acts on."""
    name = name.lower()
    if name in GATE_ARITY:
        return GATE_ARITY[name]
    raise QuantumStateError("unknown gate {!r}".format(name))


def is_clifford(name: str, params: Tuple[float, ...] = ()) -> bool:
    """True if the gate is a Clifford operation (stabilizer-simulable)."""
    name = name.lower()
    if name in CLIFFORD_GATES or name == "delay":
        return True
    if name in ("rz", "u1") and params:
        # Z rotations by multiples of pi/2 are Clifford (powers of S).
        ratio = params[0] / (math.pi / 2)
        return abs(ratio - round(ratio)) < 1e-12
    if name in ("cp", "crz") and params:
        # Controlled phases by multiples of pi are Clifford (powers of CZ);
        # CP(pi/2) = CS is *not* Clifford.
        ratio = params[0] / math.pi
        return abs(ratio - round(ratio)) < 1e-12
    return False
