"""Evaluation: accuracy metrics, timed harness, grids, reporting."""

from repro.eval.grid import grid, pareto_frontier, sweep, time_at_recall
from repro.eval.harness import (
    EvalResult,
    evaluate,
    evaluate_service,
)
from repro.eval.metrics import overall_ratio, recall
from repro.eval.plotting import ascii_plot, plot_time_recall
from repro.eval.report import banner, format_curve, format_results, format_table

__all__ = [
    "EvalResult",
    "ascii_plot",
    "banner",
    "evaluate",
    "evaluate_service",
    "format_curve",
    "format_results",
    "format_table",
    "grid",
    "overall_ratio",
    "pareto_frontier",
    "plot_time_recall",
    "recall",
    "sweep",
    "time_at_recall",
]
