"""Readout-chain model: acquisition records and state discrimination."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .qubit_physics import QubitModel


@dataclass
class AcquisitionRecord:
    """One integrated acquisition: IQ point plus discriminated state.

    ``p_excited`` is the underlying excitation probability at acquisition
    time (ground truth available in simulation; real hardware only sees
    the IQ point and the discriminated state).
    """

    time_cycles: int
    channel: int
    iq: complex
    state: int
    p_excited: float = 0.0


class AcquisitionUnit:
    """Collects IQ points produced by measurement excitations."""

    def __init__(self, qubit: QubitModel,
                 rng: Optional[np.random.Generator] = None):
        self.qubit = qubit
        self.rng = rng or np.random.default_rng(7)
        self.records: List[AcquisitionRecord] = []

    def acquire(self, channel: int, time_cycles: int, p_excited: float,
                excitation_phase_rad: float,
                sample_state: bool = True) -> AcquisitionRecord:
        """Integrate one readout window against the qubit model."""
        iq, state = self.qubit.readout_iq(p_excited, excitation_phase_rad,
                                          rng=self.rng,
                                          sample_state=sample_state)
        record = AcquisitionRecord(time_cycles, channel, iq, state,
                                   p_excited=p_excited)
        self.records.append(record)
        return record
