"""Evaluation: the paper's metrics, the experiment runner, table reports."""

from repro.eval.metrics import overall_ratio, recall
from repro.eval.report import format_table
from repro.eval.runner import (
    MethodResult,
    MutablePhaseResult,
    evaluate_method,
    evaluate_mutable_workload,
    evaluate_server,
    run_comparison,
)

__all__ = [
    "overall_ratio",
    "recall",
    "format_table",
    "MethodResult",
    "MutablePhaseResult",
    "evaluate_method",
    "evaluate_mutable_workload",
    "evaluate_server",
    "run_comparison",
]
