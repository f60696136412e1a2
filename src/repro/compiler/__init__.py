"""Quantum software stack: circuit -> HISQ binaries (section 6.2)."""

from .codewords import CodewordAllocator, drive_port, measure_port
from .driver import CompilationResult, RunResult, compile_circuit, run_circuit
from .mapping import QubitMap
from .schemes import (LoweringPass, Scheme, SchemeRegistryError, all_schemes,
                      get_scheme, register_scheme, scheme_names)

__all__ = [
    "CodewordAllocator", "CompilationResult", "LoweringPass", "QubitMap",
    "RunResult", "Scheme", "SchemeRegistryError", "all_schemes",
    "compile_circuit", "drive_port", "get_scheme", "measure_port",
    "register_scheme", "run_circuit", "scheme_names",
]
