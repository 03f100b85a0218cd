"""Result tables and deterministic serialization.

Complex columns are split into paired `<name>_re` / `<name>_im` float
columns on output.  Floats are written as their shortest round-trip
decimal (Python's repr), so identical inputs give byte-identical files.
CSV output follows RFC 4180 (header row, minimal quoting, CRLF); JSON
output is a single object with `metadata` and `rows`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

from .errors import DtScatterError, OutputError


@dataclass
class ResultTable:
    """Named columns of equal length plus run metadata.

    complex_columns marks columns to split re/im even when the table is
    empty (keeps the emitted header independent of the row count).
    """

    columns: dict = field(default_factory=dict)   # name -> list of values
    metadata: dict = field(default_factory=dict)
    complex_columns: frozenset = frozenset()

    @property
    def n_rows(self) -> int:
        for values in self.columns.values():
            return len(values)
        return 0

    def declare(self, names, complex_names=()):
        """Fix the column set (and the complex ones) ahead of any rows."""
        self.columns = {name: [] for name in names}
        self.complex_columns = frozenset(complex_names)

    def add_row(self, **kwargs):
        if self.columns and set(kwargs) != set(self.columns):
            raise DtScatterError(
                f"row keys {sorted(kwargs)} do not match table columns "
                f"{sorted(self.columns)}"
            )
        for name, value in kwargs.items():
            self.columns.setdefault(name, []).append(value)


def _flat_columns(table: ResultTable):
    """Output names and value columns, complex columns split re/im.

    A column is split when declared complex or when it holds a complex
    value; the split columns are generators, so nothing is copied.
    """
    names, cols = [], []
    for name, values in table.columns.items():
        if (name in table.complex_columns
                or any(isinstance(v, complex) for v in values)):
            names += [f"{name}_re", f"{name}_im"]
            cols += [(complex(v).real for v in values),
                     (complex(v).imag for v in values)]
        else:
            names.append(name)
            cols.append(values)
    return names, cols


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_csv(table: ResultTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL)
    names, cols = _flat_columns(table)
    writer.writerow(names)
    writer.writerows(zip(*(map(_format_cell, col) for col in cols)))
    return buf.getvalue()


def _json_value(v):
    """JSON-safe cell: NaN (a flagged row's numeric blank) becomes null."""
    if isinstance(v, bool) or isinstance(v, (int, str)) or v is None:
        return v
    if isinstance(v, float):
        return None if math.isnan(v) else v
    if isinstance(v, dict):
        return {key: _json_value(u) for key, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(u) for u in v]
    raise DtScatterError(f"unserializable cell {v!r}")


def render_json(table: ResultTable) -> str:
    names, cols = _flat_columns(table)
    rows = [dict(zip(names, map(_json_value, row))) for row in zip(*cols)]
    obj = {"metadata": _json_value(table.metadata), "rows": rows}
    return json.dumps(obj, indent=1, sort_keys=False, allow_nan=False) + "\n"


def emit(table: ResultTable, fmt: str, path: str) -> None:
    """Write the table; I/O failures are surfaced with the path attached."""
    if fmt == "csv":
        text = render_csv(table)
    elif fmt == "json":
        text = render_json(table)
    else:
        raise DtScatterError(f"unknown output format {fmt!r}")
    try:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def parse_json_table(text: str) -> ResultTable:
    """Inverse of render_json (column order from the first row)."""
    obj = json.loads(text)
    table = ResultTable(metadata=obj.get("metadata", {}))
    for row in obj.get("rows", []):
        table.add_row(**row)
    return table
