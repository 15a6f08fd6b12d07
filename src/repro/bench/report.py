"""Plain-text table rendering for experiment results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

Cell = Union[str, int, float]


@dataclass
class Table:
    """One experiment's result table.

    :ivar name: short id (``e1`` ... ``e12``, or a part such as ``e1a``).
    :ivar title: heading describing what the table shows.
    :ivar headers: column names.
    :ivar rows: row cells (numbers are formatted on render).
    :ivar notes: free-form footnotes (shape expectations, caveats).
    """

    name: str
    title: str
    headers: list[str]
    rows: list[list[Cell]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        formatted = [[_format(cell) for cell in row] for row in self.rows]
        widths = [
            max(len(self.headers[i]), *(len(row[i]) for row in formatted))
            if formatted
            else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        out = [f"== {self.name.upper()}: {self.title} =="]
        out.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers)))
        out.append("  ".join("-" * w for w in widths))
        for row in formatted:
            out.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out)

    def to_markdown(self) -> str:
        """The same table as GitHub-flavoured markdown (for EXPERIMENTS.md)."""
        out = [f"### {self.name.upper()} — {self.title}", ""]
        out.append("| " + " | ".join(self.headers) + " |")
        out.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            out.append("| " + " | ".join(_format(cell) for cell in row) + " |")
        for note in self.notes:
            out.append("")
            out.append(f"*{note}*")
        return "\n".join(out)


def _format(cell: Cell) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, int):
        return f"{cell:,}"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:,.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        if abs(cell) >= 0.001:
            return f"{cell:.4f}"
        return f"{cell:.2e}"
    return str(cell)


def seconds(value: float) -> float:
    """Round a wall-clock figure for table display."""
    return round(value, 6)
