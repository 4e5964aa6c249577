"""Benchmark harness: the serial suite runner, solve records and reporting."""

from .report import (
    ascii_cumulative_plot,
    compile_summary_table,
    counterexample_table,
    format_table,
    hot_symbol_table,
    isaplanner_summary_table,
    normalizer_cache_table,
    phase_profile_table,
    portfolio_winner_table,
    strategy_summary_table,
    suite_cache_stats,
    tool_comparison_table,
    unsolved_classification,
    worker_utilisation_table,
)
from .runner import SolveRecord, SuiteResult, cumulative_curve, run_suite

__all__ = [
    "run_suite", "SuiteResult", "SolveRecord", "cumulative_curve",
    "format_table", "isaplanner_summary_table", "tool_comparison_table",
    "ascii_cumulative_plot", "unsolved_classification",
    "normalizer_cache_table", "suite_cache_stats",
    "worker_utilisation_table", "portfolio_winner_table", "strategy_summary_table",
    "compile_summary_table", "counterexample_table",
    "phase_profile_table", "hot_symbol_table",
]
