"""Evaluation harness: benchmark suites and table/figure reproduction."""

from .figures import (T1_SWEEP_US, figure5_nearby, figure7_overhead_sweep,
                      figure13_waveforms, figure14_depths, figure16_sweep)
from .registry import (Workload, WorkloadRegistryError, all_workloads,
                       get_workload, register_workload, workload_names)
from .runner import (BenchmarkOutcome, BenchmarkSpec, fig15_suite,
                     outcomes_from_rows, suite)
from .spec import SweepCell, SweepSpec, SweepSpecError

#: Lazily re-exported (PEP 562) so that ``python -m repro.harness.sweep``
#: does not import its module twice, and so the base harness import
#: stays light.
_LAZY_EXPORTS = {
    "CacheStats": "parallel", "CellResult": "parallel",
    "SweepCache": "parallel", "SweepExecutionError": "parallel",
    "SweepTask": "parallel", "run_cell": "parallel",
    "run_tasks": "parallel", "tasks_from_spec": "parallel",
    "run_sweep": "sweep", "sweep_rows": "sweep",
    "BenchSchemaError": "benchjson", "compare_benches": "benchjson",
    "load_bench": "benchjson", "make_bench": "benchjson",
    "validate_bench": "benchjson", "write_bench": "benchjson",
}


def __getattr__(name):
    if name in _LAZY_EXPORTS:
        import importlib
        module = importlib.import_module(
            "." + _LAZY_EXPORTS[name], __name__)
        return getattr(module, name)
    raise AttributeError(
        "module {!r} has no attribute {!r}".format(__name__, name))
from .tables import (ascii_bar_chart, format_table, render_figure15,
                     render_figure16, render_scheme_matrix, render_table1)

__all__ = [
    "BenchSchemaError", "BenchmarkOutcome", "BenchmarkSpec", "CacheStats",
    "CellResult", "SweepCache", "SweepCell", "SweepExecutionError",
    "SweepSpec", "SweepSpecError", "SweepTask", "T1_SWEEP_US", "Workload",
    "WorkloadRegistryError", "all_workloads", "ascii_bar_chart",
    "compare_benches", "fig15_suite", "figure13_waveforms",
    "figure14_depths", "figure16_sweep", "figure5_nearby",
    "figure7_overhead_sweep", "format_table", "get_workload", "load_bench",
    "make_bench", "outcomes_from_rows", "register_workload",
    "render_figure15", "render_figure16", "render_scheme_matrix",
    "render_table1", "run_cell", "run_sweep", "run_tasks", "suite",
    "sweep_rows", "tasks_from_spec", "validate_bench", "workload_names",
    "write_bench",
]
