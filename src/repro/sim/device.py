"""Quantum-device bridge: codewords in, gates/measurement results out.

Each board carries a *codeword table* mapping ``(port, codeword)`` to an
action — the hardware-configuration side of HISQ's "particular codewords to
particular ports" abstraction (Insight #3).  The same codeword can mean an
X gate on one board and a readout discrimination on another (section 6.1).

The device bridge

* applies gate actions to an attached quantum-state backend (statevector,
  stabilizer, or none for timing-only runs) in wall-clock order,
* matches the *halves* of multi-controller two-qubit gates and records
  their arrival skew (zero under correct synchronization — the end-to-end
  check that BISP works),
* samples measurement outcomes and delivers them back to the measuring
  board's message unit after the measurement duration, and
* tracks per-qubit activity windows for the decoherence/fidelity model.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.config import ACQ_ADDRESS
from ..errors import ExecutionError
from .config import SimulationConfig


@dataclass(frozen=True)
class GateAction:
    """Apply gate ``name`` on ``qubits``; multi-controller gates set
    ``total_halves`` > 1 and each controller's codeword carries one half."""

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = ()
    half: int = 0
    total_halves: int = 1


_GATE_ACTION_LIMIT = 1 << 15
_gate_actions: Dict[tuple, GateAction] = {}


def gate_action(name: str, qubits: Tuple[int, ...],
                params: Tuple[float, ...] = (), half: int = 0,
                total_halves: int = 1) -> GateAction:
    """A shared :class:`GateAction` (frozen, so identical ones can be
    interned — compilers emit the same action for every repeat of a gate
    on the same qubits)."""
    key = (name, qubits, params, half, total_halves)
    action = _gate_actions.get(key)
    if action is None:
        if len(_gate_actions) >= _GATE_ACTION_LIMIT:
            _gate_actions.clear()
        action = _gate_actions[key] = GateAction(name, qubits, params,
                                                 half, total_halves)
    return action


@dataclass(frozen=True)
class MeasureAction:
    """Trigger measurement of ``qubit``; the result returns to the board."""

    qubit: int


@dataclass(frozen=True)
class MarkerAction:
    """Raise a marker/trigger line (no quantum effect; shows up in TELF)."""

    tag: str = ""


@dataclass
class QubitActivity:
    """Wall-clock activity window of one qubit (cycles)."""

    first_start: Optional[int] = None
    last_end: int = 0
    gate_count: int = 0

    def note(self, start: int, duration: int) -> None:
        if self.first_start is None or start < self.first_start:
            self.first_start = start
        self.last_end = max(self.last_end, start + duration)
        self.gate_count += 1

    @property
    def lifetime(self) -> int:
        """Cycles from first operation start to last operation end."""
        if self.first_start is None:
            return 0
        return self.last_end - self.first_start


class QuantumDevice:
    """Shared device model attached to a control system."""

    def __init__(self, engine, telf, config: SimulationConfig,
                 backend=None, seed: int = 12345,
                 record_gate_log: bool = True):
        self.engine = engine
        self.telf = telf
        self.config = config
        self.backend = backend
        self.record_gate_log = record_gate_log
        self._single_qubit_gate_cycles = config.single_qubit_gate_cycles
        self._two_qubit_gate_cycles = config.two_qubit_gate_cycles
        self._measurement_cycles = config.measurement_cycles
        self.reset(seed)

    def reset(self, seed: int) -> None:
        """Reseed the measurement RNG and drop every run record:
        activity, gate log, unmatched halves, forced outcomes and
        tallies.  The backend, if any, is the caller's to reset."""
        self.rng = np.random.default_rng(seed)
        self.gate_log: List[Tuple[int, str, Tuple[int, ...]]] = []
        self.activity: Dict[int, QubitActivity] = defaultdict(QubitActivity)
        self._pending_halves: Dict[tuple, dict] = {}
        self._forced: Dict[int, deque] = defaultdict(deque)
        self.gate_skew_events = 0
        self.max_gate_skew = 0
        self.measurements = 0
        self.gates_applied = 0

    # -- configuration ---------------------------------------------------------

    def force_outcome(self, qubit: int, *outcomes: int) -> None:
        """Queue deterministic measurement outcomes for ``qubit`` (FIFO)."""
        self._forced[qubit].extend(int(o) for o in outcomes)

    # -- action handling -------------------------------------------------------

    def handle(self, core, action) -> None:
        """Process one decoded codeword action emitted by ``core``."""
        now = self.engine.now
        cls = action.__class__
        if cls is GateAction:
            if action.total_halves <= 1:
                self._apply_gate(action.name, action.qubits, action.params,
                                 now)
                return
            self._handle_half(action, now)
            return
        if cls is MeasureAction:
            self._handle_measure(core, action.qubit, now)
            return
        # Subclass fallbacks (the identity checks above cover the
        # built-in action types).
        if isinstance(action, MarkerAction):
            return
        if isinstance(action, MeasureAction):
            self._handle_measure(core, action.qubit, now)
            return
        if isinstance(action, GateAction):
            if action.total_halves <= 1:
                self._apply_gate(action.name, action.qubits, action.params,
                                 now)
                return
            self._handle_half(action, now)
            return
        raise ExecutionError("unknown codeword action {!r}".format(action))

    def _handle_half(self, action: GateAction, now: int) -> None:
        # Halves pair FIFO per (gate, qubits): repeated instances of the
        # same gate (e.g. on a shared ancilla bus) match in program order.
        # Nonzero arrival skew is a synchronization defect and is recorded;
        # under a correct scheme it is always zero (asserted by the tests).
        key = (action.name, action.qubits)
        entry = self._pending_halves.get(key)
        if entry is None:
            entry = self._pending_halves[key] = [
                deque() for _ in range(action.total_halves)]
        entry[action.half].append(now)
        if action.total_halves == 2:
            first, second = entry
            if not first or not second:
                return
            t0 = first.popleft()
            t1 = second.popleft()
            if not first and not second:
                del self._pending_halves[key]
            skew = t1 - t0 if t1 >= t0 else t0 - t1
        else:
            if not all(entry):
                return
            times = [half_queue.popleft() for half_queue in entry]
            if not any(entry):
                del self._pending_halves[key]
            skew = max(times) - min(times)
        if skew:
            self.gate_skew_events += 1
            self.max_gate_skew = max(self.max_gate_skew, skew)
            self.telf.log(now, "device", "skew", value=skew,
                          note="{} {}".format(action.name, action.qubits))
        self._apply_gate(action.name, action.qubits, action.params, now)

    def _apply_gate(self, name: str, qubits: Tuple[int, ...], params,
                    now: int) -> None:
        duration = (self._two_qubit_gate_cycles if len(qubits) >= 2
                    else self._single_qubit_gate_cycles)
        activity = self.activity
        end = now + duration
        for q in qubits:
            act = activity[q]
            first = act.first_start
            if first is None or now < first:
                act.first_start = now
            if end > act.last_end:
                act.last_end = end
            act.gate_count += 1
        self.gates_applied += 1
        if self.record_gate_log:
            self.gate_log.append((now, name, qubits))
        if self.backend is not None:
            self.backend.apply_gate(name, qubits, tuple(params))

    def _handle_measure(self, core, qubit: int, now: int) -> None:
        duration = self._measurement_cycles
        self.activity[qubit].note(now, duration)
        self.measurements += 1
        if self.record_gate_log:
            self.gate_log.append((now, "measure", (qubit,)))
        if self._forced[qubit]:
            outcome = self._forced[qubit].popleft()
            if self.backend is not None:
                outcome = self.backend.measure(qubit, forced=outcome)
        elif self.backend is not None:
            outcome = self.backend.measure(qubit)
        else:
            outcome = int(self.rng.integers(0, 2))
        self.telf.log(now, "device", "meas", port=qubit, value=outcome)
        self.engine.after(duration,
                          lambda: core.deliver_message(ACQ_ADDRESS, outcome))

    # -- reporting -----------------------------------------------------------

    @property
    def pending_half_count(self) -> int:
        """Unmatched two-qubit gate halves (should be 0 after a run)."""
        return sum(1 for entry in self._pending_halves.values()
                   for queue in entry if queue)

    def lifetimes_ns(self) -> Dict[int, float]:
        """Per-qubit activity window in nanoseconds."""
        return {q: self.config.ns(a.lifetime)
                for q, a in self.activity.items()}
