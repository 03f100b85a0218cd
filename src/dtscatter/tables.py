"""Result tables and deterministic serialization.

Complex columns are split into paired `<name>_re` / `<name>_im` float
columns on output.  Floats are written as their shortest round-trip
decimal (Python's repr), so identical inputs give byte-identical files.
CSV output follows RFC 4180 (header row, minimal quoting, CRLF); JSON
output is a single object with `metadata` and `rows`, laid out as
`json.dumps(indent=1)` lays it out.

Cells are formatted by column, not by cell, in blocks of rows so that
only one block's cell texts are alive at a time.  A column whose cells
are all exactly `float` or all exactly `int` takes one list repr per
block, split back into cells, so the per-cell loop runs in C; any other
column formats cell by cell.  Each block's rows are then joined (CSV) or
filled into one per-row template (JSON).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .errors import DtScatterError, OutputError


def _check_lengths(columns: dict) -> None:
    if len({len(values) for values in columns.values()}) > 1:
        raise DtScatterError("columns differ in length")


@dataclass
class ResultTable:
    """Named columns of equal length plus run metadata.

    complex_columns marks columns to split re/im even when the table is
    empty (keeps the emitted header independent of the row count).
    """

    columns: dict = field(default_factory=dict)   # str name -> list of values
    metadata: dict = field(default_factory=dict)
    complex_columns: frozenset = frozenset()

    def __post_init__(self):
        _check_lengths(self.columns)

    @property
    def n_rows(self) -> int:
        for values in self.columns.values():
            return len(values)
        return 0

    def declare(self, names, complex_names=()):
        """Fix the column set (and the complex ones) ahead of any rows."""
        self.columns = {name: [] for name in names}
        self.complex_columns = frozenset(complex_names)

    def add_rows(self, **columns):
        """Append rows given column-wise, one sequence per column."""
        if self.columns and set(columns) != set(self.columns):
            raise DtScatterError(
                f"row keys {sorted(columns)} do not match table columns "
                f"{sorted(self.columns)}"
            )
        _check_lengths(columns)
        for name, values in columns.items():
            self.columns.setdefault(name, []).extend(values)

    def add_row(self, **kwargs):
        self.add_rows(**{name: (value,) for name, value in kwargs.items()})


def _flat_columns(table: ResultTable):
    """Output names, value lists and typed flags, complex columns split.

    A column is split re/im when declared complex or when it holds a
    complex value (numpy complex scalars included).  It is typed when
    every cell is exactly `float` or every cell exactly `int`: their reprs
    never hold ", ", so one list repr splits back into cells.  Every
    column comes back as a list, so its block slices repr as lists.
    """
    names, cols, typed = [], [], []
    for name, values in table.columns.items():
        types = set(map(type, values))
        if (name in table.complex_columns
                or any(issubclass(t, complex) for t in types)):
            names += [f"{name}_re", f"{name}_im"]
            cols += [[complex(v).real for v in values],
                     [complex(v).imag for v in values]]
            typed += [True, True]
        else:
            names.append(name)
            cols.append(list(values))
            typed.append(types in ({float}, {int}))
    return names, cols, typed


def _reprs(col) -> list:
    return repr(col)[1:-1].split(", ")


_BLOCK_ROWS = 1024   # rows per formatting pass: bounds the cell texts alive


def _blocks(cols, n_rows: int):
    """The columns cut into aligned slices of at most _BLOCK_ROWS rows."""
    for start in range(0, n_rows, _BLOCK_ROWS):
        yield [col[start:start + _BLOCK_ROWS] for col in cols]


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


_needs_quotes = re.compile('[,"\r\n]').search


def _csv_field(text: str) -> str:
    """RFC 4180 minimal quoting, as `csv.writer` applies it."""
    if _needs_quotes(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_records(rows, one_field: bool) -> str:
    """CRLF-terminated records of already quoted fields."""
    lines = map(",".join, rows)
    if one_field:   # csv.writer quotes a record of one empty field
        lines = (line or '""' for line in lines)
    return "\r\n".join(lines) + "\r\n"


def render_csv(table: ResultTable) -> str:
    names, cols, typed = _flat_columns(table)
    one_field = len(names) == 1
    parts = [_csv_records([map(_csv_field, names)], one_field)]
    for block in _blocks(cols, table.n_rows):
        cells = [_reprs(col) if t
                 else [_csv_field(_format_cell(v)) for v in col]
                 for t, col in zip(typed, block)]
        parts.append(_csv_records(zip(*cells), one_field))
    return "".join(parts)


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


_ROW_INDENT = "\n   "   # a row's keys sit at depth 3 of the document
_dump_nested = json.JSONEncoder(indent=1, allow_nan=False).encode


def _json_text(v) -> str:
    """One `_json_value` result as JSON text at a row's depth."""
    if v is None or isinstance(v, bool):
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    return _dump_nested(v).replace("\n", _ROW_INDENT)


def _json_cells(typed: bool, values) -> list:
    """A column block's JSON texts: its reprs when typed, else per value."""
    if not typed:
        return list(map(_json_text, values))
    texts = _reprs(values)
    if "inf" in texts or "-inf" in texts:
        raise ValueError("Out of range float values are not JSON compliant")
    if "nan" in texts:
        return ["null" if t == "nan" else t for t in texts]
    return texts


def render_json(table: ResultTable) -> str:
    """`{"metadata": ..., "rows": [...]}`, as `json.dumps(indent=1)` lays
    it out."""
    names, cols, typed = _flat_columns(table)
    # a repeated name keeps its first place and its last column, as in a dict
    last = {name: i for i, name in enumerate(names)}
    # every unserializable cell raises before any out-of-range float
    values = [col if t else list(map(_json_value, col))
              for t, col in zip(typed, cols)]
    head = json.dumps({"metadata": _json_value(table.metadata), "rows": []},
                      indent=1, allow_nan=False)
    template = "  {" + ",".join(
        _ROW_INDENT + json.dumps(name).replace("%", "%%") + ": %s"
        for name in last) + "\n  }"
    blocks = []
    for block in _blocks([values[i] for i in last.values()], table.n_rows):
        cells = [_json_cells(typed[i], col)
                 for i, col in zip(last.values(), block)]
        blocks.append(",\n".join(template % row for row in zip(*cells)))
    if not blocks:
        return head + "\n"
    return "".join([head[:-len("[]\n}")], "[\n", ",\n".join(blocks),
                    "\n ]\n}\n"])


def emit(table: ResultTable, fmt: str, path: str) -> None:
    """Write the table; I/O failures are surfaced with the path attached."""
    if fmt == "csv":
        text = render_csv(table)
    elif fmt == "json":
        text = render_json(table)
    else:
        raise DtScatterError(f"unknown output format {fmt!r}")
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise OutputError(f"cannot write {path}: {exc}") from exc


def parse_json_table(text: str) -> ResultTable:
    """Inverse of render_json (column order from the first row)."""
    obj = json.loads(text)
    table = ResultTable(metadata=obj.get("metadata", {}))
    for row in obj.get("rows", []):
        table.add_row(**row)
    return table
