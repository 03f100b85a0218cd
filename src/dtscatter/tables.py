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
block, split back into cells, so the per-cell loop runs in C, or one
repr per distinct object when its first block repeats objects (a grid
axis); a bool or str column formats each distinct value once, any other
column each cell.  Each block's rows are then joined (CSV) or filled
into one per-row template (JSON).  Both formats are laid out the same
way (`_Layout`): a head, the row blocks' texts split by a separator,
and a tail.

`emit` lays the table out, so an unserializable cell raises before
anything is written, then writes each piece to `<path>.tmp` as it is
rendered and renames it: no process holds the whole text or half of it.
With two full blocks and two CPUs, a helper process renders the later
half of the blocks with the same code into an unnamed spill file while
this one writes the first half, then appends it; the helper is always
reaped before `emit` returns or raises.  If it cannot be started or does
not finish cleanly, this process renders the missing half itself, so the
bytes and any exception are those of `render_csv` / `render_json`.
`_Helper` is the package's one way to start, end and reap a second
process; the snapshot writer (`cli`) and the split leg (`splitleg`) use
it too, and `write_text` is emit's atomic write for a text already whole.
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
_BY_VALUE = ({bool}, {str})   # kinds whose equal cells have equal texts


def _reprs(col) -> list:
    return repr(col)[1:-1].split(", ")


_BLOCK_ROWS = 1024   # rows per formatting pass: bounds the cell texts alive


def _column_texts(col, kind, one, reprs):
    """The function from a block slice of col to its cell texts: reprs of
    the slice for a typed column, one per cell for any other.  A typed
    column whose first block repeats a cell object, and a bool or str
    column, format each distinct object (keyed by id, so 0.0 and -0.0 or
    two NaNs stay apart) or value once."""
    if kind in _TYPED:
        first = col[:_BLOCK_ROWS]
        if len(set(map(id, first))) == len(first):
            return reprs
        distinct = dict(zip(map(id, col), col))
        memo = dict(zip(distinct, reprs(list(distinct.values()))))
        return lambda block: list(map(memo.__getitem__, map(id, block)))
    if kind in _BY_VALUE:
        memo = {v: one(v) for v in set(col)}
        return lambda block: list(map(memo.__getitem__, block))
    return lambda block: list(map(one, block))


class _Layout:
    """A rendering in pieces: head, the row blocks' texts split by sep,
    then tail.  block_text turns one block of `cols` slices into text.
    (A plain class: a dataclass would cost the import a generated
    __init__.)"""

    def __init__(self, head: str, cols: list, n_rows: int, block_text,
                 sep: str = "", tail: str = ""):
        self.head, self.cols, self.n_rows = head, cols, n_rows
        self.block_text, self.sep, self.tail = block_text, sep, tail

    def write_rows(self, write, start: int, stop: int) -> None:
        """Pass the texts of the row blocks from start (a block seam) to
        stop to write, one block at a time, each but row 0's after sep."""
        for lo in range(start, stop, _BLOCK_ROWS):
            if lo:
                write(self.sep)
            hi = min(lo + _BLOCK_ROWS, stop)
            write(self.block_text([col[lo:hi] for col in self.cols]))

    def text(self) -> str:
        parts = [self.head]
        self.write_rows(parts.append, 0, self.n_rows)
        return "".join(parts) + self.tail


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


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return _csv_field(repr(v) if isinstance(v, float) else str(v))


def _csv_layout(table: ResultTable) -> _Layout:
    names, cols, kinds = _flat_columns(table)
    texts = [_column_texts(col, kind, _csv_cell, _reprs)
             for col, kind in zip(cols, kinds)]
    one_field = len(names) == 1

    def block_text(block) -> str:
        return _csv_records(zip(*[f(col) for f, col in zip(texts, block)]),
                            one_field)

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


def _json_reprs(values) -> list:
    """A typed column's reprs as JSON: NaN as null, infinities refused."""
    texts = _reprs(values)
    if "inf" in texts or "-inf" in texts:
        raise ValueError("Out of range float values are not JSON compliant")
    if "nan" in texts:
        return ["null" if t == "nan" else t for t in texts]
    return texts


def _json_layout(table: ResultTable) -> _Layout:
    names, cols, kinds = _flat_columns(table)
    # a repeated name keeps its first place and its last column, as in a dict
    kept = list({name: i for i, name in enumerate(names)}.values())
    # every unserializable cell raises before any out-of-range float
    values = [col if kind in _TYPED or kind in _BY_VALUE
              else list(map(_json_value, col))
              for kind, col in zip(kinds, cols)]
    head = json.dumps({"metadata": _json_value(table.metadata), "rows": []},
                      indent=1, allow_nan=False)
    template = "  {" + ",".join(
        _ROW_INDENT + json.dumps(names[i]).replace("%", "%%") + ": %s"
        for i in kept) + "\n  }"
    if not table.n_rows:
        return _Layout(head + "\n", [], 0, None)
    texts = [_column_texts(values[i], kinds[i], _json_text, _json_reprs)
             for i in kept]

    def block_text(block) -> str:
        cells = [f(col) for f, col in zip(texts, block)]
        return ",\n".join(template % row for row in zip(*cells))

    return _Layout(head[:-len("[]\n}")] + "[\n", [values[i] for i in kept],
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


def _spill_rows(layout: _Layout, spill, cut: int) -> None:
    """The helper's work: the row blocks from cut on, as UTF-8, to spill."""
    layout.write_rows(lambda t: spill.write(t.encode()), cut, layout.n_rows)
    spill.flush()


def _write_body(layout: _Layout, write, fh, path: str) -> None:
    """The row blocks; with two full blocks, the later half rendered by a
    helper process into a spill file beside path, left with no name
    (tempfile.TemporaryFile), while this process writes the first half,
    then copied on.  If the spill or the helper cannot be had, or the
    helper does not exit 0, this process renders that half itself."""
    import shutil, tempfile   # loaded with numpy already
    n = layout.n_rows
    if n < 2 * _BLOCK_ROWS:
        return layout.write_rows(write, 0, n)
    cut = _BLOCK_ROWS * round(n / (2 * _BLOCK_ROWS))   # the seam nearest n/2
    try:
        spill = tempfile.TemporaryFile(dir=os.path.dirname(path) or ".")
    except OSError:
        return layout.write_rows(write, 0, n)
    with spill:
        helper = _Helper.start(lambda *fds: _spill_rows(layout, spill, cut))
        if helper is None:
            return layout.write_rows(write, 0, n)
        try:
            layout.write_rows(write, 0, cut)
        finally:
            code, _ = helper.join()
        if code != 0:
            return layout.write_rows(write, cut, n)
        spill.seek(0)
        shutil.copyfileobj(spill, fh)   # in 64 KiB reads


def _write_layout(layout: _Layout, fh, path: str) -> None:
    """Head, row blocks (_write_body) and tail into the binary file fh."""
    def write(text: str) -> None:
        fh.write(text.encode())

    write(layout.head)
    _write_body(layout, write, fh, path)
    write(layout.tail)


_LAYOUTS = {"csv": _csv_layout, "json": _json_layout}


def _write_atomic(path: str, write_to) -> None:
    """write_to(a binary file) on a temp file renamed to path; on failure
    the temp file goes, and I/O failures are raised with the path."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            write_to(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path}: {exc}") from exc
        raise


def write_text(path: str, text: str) -> None:
    """Write text as UTF-8 through a temp file and a rename."""
    _write_atomic(path, lambda fh: fh.write(text.encode()))


def emit(table: ResultTable, fmt: str, path: str) -> None:
    """Lay the table out, then write it piece by piece (_write_layout)
    through a temp file and a rename."""
    if fmt not in _LAYOUTS:
        raise DtScatterError(f"unknown output format {fmt!r}")
    layout = _LAYOUTS[fmt](table)
    _write_atomic(path, lambda fh: _write_layout(layout, fh, path))
