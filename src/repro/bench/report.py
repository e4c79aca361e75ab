"""Reporting: the rows/series the paper's figures show, and gate files.

Every experiment renders to an ASCII table with a ``paper`` column next to
the simulated/measured one, so EXPERIMENTS.md (and CI logs) show the
comparison at a glance.  Gated benchmarks also save their measurements
as JSON (:func:`write_json`) at the path :func:`bench_path` picks.
"""

from __future__ import annotations

import json
import pathlib
from typing import List, Optional, Sequence

__all__ = [
    "format_table",
    "format_ratio",
    "Series",
    "bench_path",
    "to_json",
    "write_json",
]


class Series:
    """One labelled column of numbers."""

    def __init__(self, label: str, values: Sequence[float]):
        self.label = label
        self.values = list(values)

    def __len__(self) -> int:
        return len(self.values)


def _fmt(value, width: int) -> str:
    if value is None:
        return " " * (width - 1) + "-"
    if isinstance(value, float):
        if value >= 100:
            text = f"{value:,.0f}"
        elif value >= 1:
            text = f"{value:,.1f}"
        else:
            text = f"{value:.3f}"
    else:
        text = str(value)
    return text.rjust(width)


def format_table(
    title: str,
    row_labels: Sequence,
    columns: Sequence[Series],
    row_header: str = "",
) -> str:
    """Render labelled rows x labelled columns as a fixed-width table."""
    width = max(
        12, max((len(c.label) for c in columns), default=12) + 2
    )
    label_width = max(
        len(row_header), max((len(str(r)) for r in row_labels), default=8)
    ) + 2
    lines = [title, "=" * len(title)]
    header = row_header.ljust(label_width) + "".join(
        c.label.rjust(width) for c in columns
    )
    lines.append(header)
    lines.append("-" * len(header))
    for i, label in enumerate(row_labels):
        cells = []
        for column in columns:
            value = column.values[i] if i < len(column.values) else None
            cells.append(_fmt(value, width))
        lines.append(str(label).ljust(label_width) + "".join(cells))
    return "\n".join(lines)


def format_ratio(numerator: float, denominator: float) -> str:
    """Human-readable speedup like '8.3x'."""
    if denominator <= 0:
        return "inf"
    return f"{numerator / denominator:.1f}x"


def paper_column(values: Sequence[Optional[float]]) -> Series:
    """A column of the paper's reported numbers (None = unreadable)."""
    return Series("paper", list(values))


def to_json(result) -> str:
    """Indented, key-sorted JSON of a result's ``to_dict()`` (or a dict)."""
    data = result.to_dict() if hasattr(result, "to_dict") else result
    return json.dumps(data, indent=2, sort_keys=True)


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path``, creating its parent folders."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)


def write_json(result, path) -> None:
    """Write :func:`to_json` of ``result`` to ``path``, creating parents."""
    write_text(path, to_json(result) + "\n")


def bench_path(stem: str, quick: bool, out_dir=None) -> pathlib.Path:
    """Where a gated benchmark saves its measurements.

    A full run refreshes the committed ``BENCH_<stem>.json`` at the
    repository root; a quick run writes
    ``bench_reports/BENCH_<stem>_quick.json`` so it never clobbers the
    committed numbers.  ``out_dir`` redirects either file into it.
    """
    name = f"BENCH_{stem}_quick.json" if quick else f"BENCH_{stem}.json"
    if out_dir is not None:
        return pathlib.Path(out_dir) / name
    return pathlib.Path("bench_reports" if quick else ".") / name
