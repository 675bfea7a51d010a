"""Benchmark harness: the E1–E18 experiment registry, their claims and records."""

from .experiments import (
    PAPER_FIG2_LEFT,
    PAPER_ONLINE_THROUGHPUT,
    REGISTRY,
    run_ingestion,
)
from .harness import (
    ExperimentRegistry,
    ExperimentResult,
    Table,
    format_rate,
)

__all__ = [
    "ExperimentRegistry",
    "ExperimentResult",
    "PAPER_FIG2_LEFT",
    "PAPER_ONLINE_THROUGHPUT",
    "REGISTRY",
    "Table",
    "format_rate",
    "run_ingestion",
]
