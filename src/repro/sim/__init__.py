"""Simulation layer: system builder, runners, crash checker, reports."""

from .._lazy import lazy_exports

# Importing the package loads no submodule: a router or node process
# imports sim.parallel's point classes without the model behind them.
_LAZY = {
    "analytic": ("TraceProfile", "compare_with_simulation",
                 "predict_overhead_cycles", "predict_relative_performance"),
    "crash": ("CrashReport", "check_recovery", "crash_at_fractions",
              "crash_sweep", "expected_image", "measure_run_length",
              "run_with_crash"),
    "energy": ("EnergyBreakdown", "EnergyModel", "estimate_energy"),
    "parallel": ("CrashPoint", "ExperimentEngine", "ExperimentPoint",
                 "LitmusPoint", "ResultCache"),
    "report": ("figure6_ipc", "figure7_throughput", "figure8_llc_miss_rate",
               "figure9_write_traffic", "figure10_load_latency",
               "format_figure", "format_table1", "format_table2",
               "format_table3", "geomean", "normalized_rows"),
    "runner": ("SCHEME_ORDER", "SimulationResult", "collect_result",
               "make_mixed_traces", "make_traces", "run_comparison",
               "run_experiment", "run_grid"),
    "sweep": ("Sweep", "SweepOutcome", "llc_size_sweep", "tc_size_sweep"),
    "system": ("System",),
    "validate": ("ValidationReport", "validate_config", "validate_setup"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _LAZY)
