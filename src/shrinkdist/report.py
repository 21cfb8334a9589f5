"""Tabular experiment output with deterministic CSV/JSON rendering."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["ExperimentReport"]


def _cell_format(t: type) -> str:
    """The %-format of a cell of type t: bools as 1/0, floats at 17 significant digits, else str."""
    return "%d" if issubclass(t, bool) else "%.17g" if issubclass(t, float) else "%s"


@dataclass
class ExperimentReport:
    columns: tuple
    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if set(map(len, self.rows)) - {len(self.columns)}:  # the error names the first bad row
            self._check_width(next(r for r in self.rows if len(r) != len(self.columns)))

    def _check_width(self, row) -> None:
        if len(row) != len(self.columns):
            raise ValueError(f"row width {len(row)} != {len(self.columns)} columns")

    def append(self, *row):
        self._check_width(row)
        self.rows.append(tuple(row))

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]

    def to_csv(self) -> str:
        """A `# {meta}` line if meta is nonempty, then one `%` per row, a format built per tuple of cell types."""
        lines = []
        if self.meta:
            lines.append("# " + json.dumps(self.meta, sort_keys=True))
        lines.append(",".join(self.columns))
        formats = {}
        for row in self.rows:
            types = tuple(map(type, row))
            fmt = formats.get(types)
            if fmt is None:
                fmt = formats[types] = ",".join(map(_cell_format, types))
            lines.append(fmt % tuple(row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv())
