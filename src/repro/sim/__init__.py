"""Transaction-level simulator (CACTUS-Light equivalent)."""

from .config import DEFAULT_CONFIG, SimulationConfig
from .device import (GateAction, MarkerAction, MeasureAction, QuantumDevice,
                     QubitActivity)
from .engine import Engine
from .system import ControlSystem
from .telf import ExecutionStats, TelfLog, TelfRecord

__all__ = [
    "ControlSystem", "DEFAULT_CONFIG", "Engine", "ExecutionStats",
    "GateAction", "MarkerAction", "MeasureAction", "QuantumDevice",
    "QubitActivity", "SimulationConfig", "TelfLog", "TelfRecord",
]
