"""Experiment harness: tables, results, the registry and the records.

Every experiment produces one or more :class:`Table` objects whose rows
mirror what the paper reports (plus a ``paper`` column with the
published value where one exists), so a bench run reads as a direct
side-by-side.  Beside the tables an :class:`ExperimentResult` carries
the run's deterministic ``numbers``, its wall-clock values, its
figures and its named claims.  A full-size run leaves one record,
``benchmarks/records/<id>.json``, that the tier-1 replay test checks
the quick form against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence

__all__ = [
    "ExperimentRegistry",
    "ExperimentResult",
    "RECORDS_DIR",
    "Table",
    "format_rate",
    "write_record",
]

#: Where full-size runs leave their records (and the figures beside them).
RECORDS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "records"


def format_rate(samples_per_second: float) -> str:
    """Human throughput formatting: ``399.0k/s`` / ``1.2M/s``."""
    if samples_per_second >= 1e6:
        return f"{samples_per_second / 1e6:.2f}M/s"
    if samples_per_second >= 1e3:
        return f"{samples_per_second / 1e3:.1f}k/s"
    return f"{samples_per_second:.0f}/s"


class Table:
    """A fixed-column ASCII table with aligned rendering."""

    def __init__(self, title: str, headers: Sequence[str]) -> None:
        if not headers:
            raise ValueError("a table needs at least one column")
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells) -> "Table":
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells; table has {len(self.headers)} columns"
            )
        self.rows.append([str(c) for c in cells])
        return self

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def column(self, header: str) -> List[str]:
        """One column's cells (for programmatic assertions in tests)."""
        try:
            idx = self.headers.index(header)
        except ValueError:
            raise KeyError(header) from None
        return [row[idx] for row in self.rows]


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    ``numbers`` are deterministic per seed and replay exactly;
    ``wall`` holds the wall-clock values, which vary run to run;
    ``figures`` maps a file name to SVG text; ``claims`` names every
    shape the experiment asserts, each ``True`` when it holds.
    """

    experiment_id: str
    description: str
    tables: List[Table]
    numbers: Dict[str, float]
    claims: Dict[str, bool]
    wall: Dict[str, float] = field(default_factory=dict)
    figures: Dict[str, str] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def failed_claims(self) -> List[str]:
        return [name for name, held in self.claims.items() if not held]

    def render(self) -> str:
        parts = [f"== {self.experiment_id}: {self.description} =="]
        for table in self.tables:
            parts.append(table.render())
        for note in self.notes:
            parts.append(f"note: {note}")
        parts.append(
            "claims:\n"
            + "\n".join(
                f"  {'ok  ' if held else 'FAIL'} {name}" for name, held in self.claims.items()
            )
        )
        return "\n\n".join(parts)

    def to_json(self) -> Dict[str, object]:
        """The run as JSON: numbers, wall-clock values, claims and tables."""
        return {
            "numbers": {k: float(v) for k, v in self.numbers.items()},
            "wall": {k: float(v) for k, v in self.wall.items()},
            "claims": {k: bool(v) for k, v in self.claims.items()},
            "figures": sorted(self.figures),
            "notes": list(self.notes),
            "tables": [
                {"title": t.title, "headers": list(t.headers), "rows": [list(r) for r in t.rows]}
                for t in self.tables
            ],
        }


def write_record(full: ExperimentResult, quick: ExperimentResult, directory: Path) -> Path:
    """Write ``<id>.json`` (and the full run's figures) into ``directory``.

    The record holds the full run and the quick run's deterministic
    numbers and claims: the replay test reruns the quick form and
    requires both to match.
    """
    directory.mkdir(parents=True, exist_ok=True)
    quick_json = quick.to_json()
    record = {
        "experiment_id": full.experiment_id,
        "description": full.description,
        "full": full.to_json(),
        "quick": {"numbers": quick_json["numbers"], "claims": quick_json["claims"]},
    }
    for name, svg in full.figures.items():
        (directory / name).write_text(svg)
    path = directory / f"{full.experiment_id.lower()}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


class ExperimentRegistry:
    """Name → experiment registry behind the CLI; every experiment takes only ``quick``."""

    def __init__(self) -> None:
        self._experiments: Dict[str, Callable[..., ExperimentResult]] = {}
        self._descriptions: Dict[str, str] = {}

    def register(self, experiment_id: str, description: str):
        def decorator(fn: Callable[..., ExperimentResult]):
            key = experiment_id.lower()
            if key in self._experiments:
                raise ValueError(f"duplicate experiment {experiment_id}")
            self._experiments[key] = fn
            self._descriptions[key] = description
            return fn

        return decorator

    def run(self, experiment_id: str, quick: bool = False) -> ExperimentResult:
        key = experiment_id.lower()
        if key not in self._experiments:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; available: {sorted(self._experiments)}"
            )
        return self._experiments[key](quick=quick)

    def available(self) -> Dict[str, str]:
        return dict(self._descriptions)
