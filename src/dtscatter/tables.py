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
filled into one per-row template (JSON).  Both formats are laid out the
same way (`_Layout`): a head, the row blocks' texts joined by a
separator, and a tail.

`emit` renders a table of at least two full blocks on two CPUs when it
can: a helper process renders the later half of the blocks with the
same code and sends its text down a pipe while this one renders the
first half; the helper is always reaped before `emit` returns or
raises.  If it cannot be started or does not finish cleanly, this
process renders the missing half itself, so the bytes and any exception
are those of `render_csv` / `render_json`.  `_Helper` is the package's
one way to start, end and reap a second process; the snapshot writer
(`cli`) and the split leg (`splitleg`) use it too.  `write_text` is the
atomic temp-file-and-rename write that `emit` ends with.
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
    """Output names, value lists and cell type sets, complex columns split.

    A column is split re/im when declared complex or when it holds a
    complex value (numpy complex scalars included); its halves hold only
    `float`s.  A column is typed (`_TYPED`) when every cell is exactly
    `float` or every cell exactly `int`: their reprs never hold ", ", so
    one list repr splits back into cells.  Every column comes back as a
    list, so its block slices repr as lists.
    """
    names, cols, kinds = [], [], []
    for name, values in table.columns.items():
        types = set(map(type, values))
        if (name in table.complex_columns
                or any(issubclass(t, complex) for t in types)):
            names += [f"{name}_re", f"{name}_im"]
            if types <= {complex, float}:   # parts already exactly float
                cols += [[v.real for v in values], [v.imag for v in values]]
            else:
                cols += [[complex(v).real for v in values],
                         [complex(v).imag for v in values]]
            kinds += [{float}, {float}]
        else:
            names.append(name)
            cols.append(list(values))
            kinds.append(types)
    return names, cols, kinds


_TYPED = ({float}, {int})
_JSON_SAFE = ({bool}, {str})   # kinds whose cells _json_value returns as is


def _reprs(col) -> list:
    return repr(col)[1:-1].split(", ")


_BLOCK_ROWS = 1024   # rows per formatting pass: bounds the cell texts alive


def _blocks(cols, start: int, stop: int):
    """Rows start..stop of the columns, cut into aligned slices of at most
    _BLOCK_ROWS rows."""
    for lo in range(start, stop, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, stop)
        yield [col[lo:hi] for col in cols]


class _Layout:
    """A rendering in pieces: head, each row block's text joined by sep,
    then tail.  block_text turns one block of `cols` slices into text.
    (A plain class: a dataclass would cost the import a generated
    __init__.)"""

    def __init__(self, head: str, cols: list, n_rows: int, block_text,
                 sep: str = "", tail: str = ""):
        self.head, self.cols, self.n_rows = head, cols, n_rows
        self.block_text, self.sep, self.tail = block_text, sep, tail

    def rows_text(self, start: int, stop: int) -> str:
        return self.sep.join(map(self.block_text,
                                 _blocks(self.cols, start, stop)))

    def text(self) -> str:
        return "".join((self.head, self.rows_text(0, self.n_rows), self.tail))


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


def _csv_layout(table: ResultTable) -> _Layout:
    names, cols, kinds = _flat_columns(table)
    typed = [kind in _TYPED for kind in kinds]
    one_field = len(names) == 1

    def block_text(block) -> str:
        cells = [_reprs(col) if t
                 else [_csv_field(_format_cell(v)) for v in col]
                 for t, col in zip(typed, block)]
        return _csv_records(zip(*cells), one_field)

    return _Layout(_csv_records([map(_csv_field, names)], one_field), cols,
                   table.n_rows, block_text)


def render_csv(table: ResultTable) -> str:
    return _csv_layout(table).text()


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


def _json_layout(table: ResultTable) -> _Layout:
    names, cols, kinds = _flat_columns(table)
    typed = [kind in _TYPED for kind in kinds]
    # a repeated name keeps its first place and its last column, as in a dict
    kept = list({name: i for i, name in enumerate(names)}.items())
    # every unserializable cell raises before any out-of-range float
    values = [col if kind in _TYPED or kind in _JSON_SAFE
              else list(map(_json_value, col))
              for kind, col in zip(kinds, cols)]
    head = json.dumps({"metadata": _json_value(table.metadata), "rows": []},
                      indent=1, allow_nan=False)
    template = "  {" + ",".join(
        _ROW_INDENT + json.dumps(name).replace("%", "%%") + ": %s"
        for name, _ in kept) + "\n  }"

    def block_text(block) -> str:
        cells = [_json_cells(typed[i], col)
                 for (_, i), col in zip(kept, block)]
        return ",\n".join(template % row for row in zip(*cells))

    if not table.n_rows:
        return _Layout(head + "\n", [], 0, block_text)
    return _Layout(head[:-len("[]\n}")] + "[\n", [values[i] for _, i in kept],
                   table.n_rows, block_text, ",\n", "\n ]\n}\n")


def render_json(table: ResultTable) -> str:
    """`{"metadata": ..., "rows": [...]}`, as `json.dumps(indent=1)` lays
    it out."""
    return _json_layout(table).text()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _send(fd: int, data) -> None:
    """Write all of a buffer (bytes, or a contiguous array) to fd."""
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


class _Helper:
    """One forked helper process and a pipe each way.

    ``_Helper.start(work)`` forks a process that runs ``work(recv_fd,
    send_fd)`` on its ends of the pipes and leaves through ``os._exit``:
    0 when work returns, 1 when it raises (silently: the caller redoes the
    work or reports the code).  This process reads from ``recv`` what the
    helper sends and writes to ``send`` what the helper reads.  ``join``
    closes ``send``, so a helper still reading sees EOF, reads ``recv`` to
    EOF, reaps the helper and returns (exit code, the bytes not yet read).
    Every caller joins its helper on every path.
    """

    def __init__(self, pid: int, recv: int, send: int):
        self.pid, self.recv, self.send = pid, recv, send

    @classmethod
    def start(cls, work):
        """A started helper, or None, with no fd left open, when there is
        no ``os.fork``, fewer than two usable CPUs, or no pipe or process
        to spare."""
        fork = getattr(os, "fork", None)
        if fork is None or _usable_cpus() < 2:
            return None
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return None
        recv, helper_send, helper_recv, send = fds
        if pid == 0:
            code = 1
            try:
                os.close(recv)
                os.close(send)
                work(helper_recv, helper_send)
                code = 0
            finally:
                os._exit(code)   # never return into the caller's stack
        os.close(helper_send)
        os.close(helper_recv)
        return cls(pid, recv, send)

    def join(self) -> tuple:
        os.close(self.send)
        chunks = []
        try:
            while chunk := os.read(self.recv, 65536):
                chunks.append(chunk)
        finally:
            os.close(self.recv)
            _, status = os.waitpid(self.pid, 0)
        return os.waitstatus_to_exitcode(status), b"".join(chunks)


def _split_text(layout: _Layout) -> str:
    """The layout's text, its later half of row blocks rendered by a
    helper process when there are two full blocks and a helper starts.

    The helper sends its half as UTF-8.  If it does not exit 0, or none
    starts, this process renders that half itself, so bytes and exceptions
    are the serial path's.
    """
    n = layout.n_rows
    if n < 2 * _BLOCK_ROWS:
        return layout.text()
    cut = _BLOCK_ROWS * round(n / (2 * _BLOCK_ROWS))   # the seam nearest n/2
    helper = _Helper.start(
        lambda recv, send: _send(send, layout.rows_text(cut, n).encode()))
    if helper is None:
        return layout.text()
    try:
        mine = layout.rows_text(0, cut)
    finally:
        code, theirs = helper.join()
    theirs = theirs.decode() if code == 0 else layout.rows_text(cut, n)
    return "".join((layout.head, mine, layout.sep, theirs, layout.tail))


_LAYOUTS = {"csv": _csv_layout, "json": _json_layout}


def write_text(path: str, text: str) -> None:
    """Write text through a temp file and a rename; I/O failures are
    surfaced with the path attached."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise OutputError(f"cannot write {path}: {exc}") from exc


def emit(table: ResultTable, fmt: str, path: str) -> None:
    """Render the table (on two CPUs when it is large: _split_text) and
    write it with write_text."""
    if fmt not in _LAYOUTS:
        raise DtScatterError(f"unknown output format {fmt!r}")
    write_text(path, _split_text(_LAYOUTS[fmt](table)))

