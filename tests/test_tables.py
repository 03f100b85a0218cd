"""Result tables: deterministic CSV/JSON rendering and round-trips."""

import ast
import json
import math
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from dtscatter.errors import DtScatterError, OutputError
from dtscatter import tables
from dtscatter.tables import ResultTable, emit, render_csv, render_json


def small_table():
    t = ResultTable(metadata={"command": "demo", "seed": 0})
    t.declare(("k", "coefficient", "flagged", "note"),
              complex_names=("coefficient",))
    t.add_row(k=0.5, coefficient=0.25 - 0.5j, flagged=False, note="")
    t.add_row(k=1.0, coefficient=-1.0 + 0.0j, flagged=True, note="it, quoted")
    return t


def test_csv_layout_and_quoting():
    text = render_csv(small_table())
    lines = text.split("\r\n")
    assert lines[0] == "k,coefficient_re,coefficient_im,flagged,note"
    assert lines[1] == "0.5,0.25,-0.5,false,"
    # RFC 4180: the comma-bearing note is quoted, booleans are lowercase
    assert lines[2] == '1.0,-1.0,0.0,true,"it, quoted"'
    assert lines[3] == "" and len(lines) == 4  # CRLF-terminated final row


def test_empty_table_keeps_header():
    t = ResultTable()
    t.declare(("k", "coefficient"), complex_names=("coefficient",))
    text = render_csv(t)
    assert text == "k,coefficient_re,coefficient_im\r\n"


def test_float_repr_is_shortest_roundtrip():
    t = ResultTable()
    t.declare(("x",))
    t.add_row(x=0.1)
    t.add_row(x=1.0 / 3.0)
    lines = render_csv(t).split("\r\n")
    assert lines[1] == "0.1"
    assert float(lines[2]) == 1.0 / 3.0


def test_json_rendering():
    doc = json.loads(render_json(small_table()))
    assert doc["metadata"] == {"command": "demo", "seed": 0}
    assert doc["rows"][0]["coefficient_re"] == 0.25
    assert doc["rows"][1]["flagged"] is True
    assert doc["rows"][1]["note"] == "it, quoted"


def test_json_nan_becomes_null():
    t = ResultTable()
    t.declare(("x", "c"), complex_names=("c",))
    t.add_row(x=float("nan"), c=complex(float("nan"), float("nan")))
    doc = json.loads(render_json(t))
    assert doc["rows"][0]["x"] is None
    assert doc["rows"][0]["c_re"] is None and doc["rows"][0]["c_im"] is None


def test_json_round_trip():
    t = small_table()
    back = json.loads(render_json(t))
    assert back["metadata"] == t.metadata
    assert list(back["rows"][0]) == ["k", "coefficient_re", "coefficient_im",
                                     "flagged", "note"]
    assert [row["coefficient_im"] for row in back["rows"]] == [-0.5, 0.0]
    assert len(back["rows"]) == 2


def test_rendering_is_byte_stable():
    a, b = small_table(), small_table()
    assert render_csv(a) == render_csv(b)
    assert render_json(a) == render_json(b)


def test_add_row_key_mismatch():
    t = ResultTable()
    t.declare(("a", "b"))
    with pytest.raises(DtScatterError, match="do not match table columns"):
        t.add_row(a=1.0)
    with pytest.raises(DtScatterError, match="do not match table columns"):
        t.add_row(a=1.0, b=2.0, c=3.0)


def test_add_rows_appends_columns():
    t = ResultTable()
    t.declare(("a", "b"))
    t.add_rows(a=[1.0, 2.0], b=["x", "y"])
    t.add_row(a=3.0, b="z")
    assert t.columns == {"a": [1.0, 2.0, 3.0], "b": ["x", "y", "z"]}
    with pytest.raises(DtScatterError, match="differ in length"):
        t.add_rows(a=[1.0], b=[])


def test_columns_of_unequal_length_are_refused():
    # n_rows reads the first column; a shorter one would drop rows silently
    with pytest.raises(DtScatterError, match="differ in length"):
        ResultTable(columns={"a": [1.0, 2.0], "b": [3.0]})


def test_emit_writes_atomically(tmp_path):
    path = tmp_path / "out.csv"
    emit(small_table(), "csv", str(path))
    assert path.read_bytes().decode() == render_csv(small_table())
    assert not (tmp_path / "out.csv.tmp").exists()
    jpath = tmp_path / "out.json"
    emit(small_table(), "json", str(jpath))
    assert json.loads(jpath.read_text())["rows"][0]["k"] == 0.5


def test_emit_unwritable_path_reports_target(tmp_path):
    target = str(tmp_path / "missing_dir" / "out.csv")
    with pytest.raises(DtScatterError, match="missing_dir"):
        emit(small_table(), "csv", target)


def test_undeclared_complex_column_is_split():
    # no declare(): the split comes from scanning the column's values
    t = ResultTable()
    t.add_row(k=0.5, c=1.0)
    t.add_row(k=1.0, c=0.25 - 0.5j)
    lines = render_csv(t).split("\r\n")
    assert lines[:3] == ["k,c_re,c_im", "0.5,1.0,0.0", "1.0,0.25,-0.5"]
    rows = json.loads(render_json(t))["rows"]
    assert rows[1] == {"k": 1.0, "c_re": 0.25, "c_im": -0.5}


def test_columns_table_renders_like_add_row_table():
    t = small_table()
    by_columns = ResultTable(columns={name: list(values)
                                      for name, values in t.columns.items()},
                             metadata=dict(t.metadata),
                             complex_columns=t.complex_columns)
    assert render_csv(by_columns) == render_csv(t)
    assert render_json(by_columns) == render_json(t)
    # the snapshot shape: no declare(), real columns only
    rows = ResultTable()
    rows.add_row(site=0, re=0.5)
    rows.add_row(site=1, re=-0.0)
    cols = ResultTable(columns={"site": [0, 1], "re": [0.5, -0.0]})
    assert render_csv(cols) == render_csv(rows)


def test_emit_failure_leaves_no_temp_file(tmp_path):
    # the rename fails when the target is a directory; the temp file it
    # wrote must not be left beside it
    target = tmp_path / "out.csv"
    target.mkdir()
    with pytest.raises(OutputError, match="out.csv"):
        emit(small_table(), "csv", str(target))
    assert not (tmp_path / "out.csv.tmp").exists()


def test_negative_zero_keeps_its_sign():
    t = ResultTable()
    t.declare(("x", "c"), complex_names=("c",))
    t.add_row(x=-0.0, c=complex(-0.0, -0.0))
    assert render_csv(t).split("\r\n")[1] == "-0.0,-0.0,-0.0"
    assert '"x": -0.0,' in render_json(t)
    assert '"c_im": -0.0\n' in render_json(t)


def test_single_empty_field_is_quoted():
    t = ResultTable(columns={"note": ["", "x", ""]})
    assert render_csv(t) == 'note\r\n""\r\nx\r\n""\r\n'


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_json_rejects_infinity(bad):
    t = ResultTable(columns={"x": [1.0, bad]})
    with pytest.raises(ValueError):
        render_json(t)


def test_json_without_rows_keeps_empty_list():
    t = ResultTable(metadata={"command": "demo"})
    t.declare(("k", "c"), complex_names=("c",))
    text = render_json(t)
    assert text == ('{\n "metadata": {\n  "command": "demo"\n },\n'
                    ' "rows": []\n}\n')
    assert json.loads(text)["rows"] == []


# cells chosen for the byte-level corners of both formats
_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                2.2250738585072e-308, 1e-310, 0.1, 1.0 / 3.0, -1.5, 1e16,
                1e22, 123456789.125]
_FLOATS = st.sampled_from(_EDGE_FLOATS) | st.floats(width=64)
_INTS = st.sampled_from([0, -1, 7, 2**63, -(2**70)]) | st.integers()
_TEXTS = st.text(st.sampled_from(list(',"\r\n %\\x é中\U0001F600')),
                 max_size=6)
_COMPLEXES = st.builds(complex, _FLOATS, _FLOATS)
_NESTED = st.recursive(
    st.none() | st.booleans() | _FLOATS | _INTS | _TEXTS,
    lambda inner: (st.lists(inner, max_size=2)
                   | st.tuples(inner, inner)
                   | st.dictionaries(_TEXTS, inner, max_size=2)),
    max_leaves=4)
_COLUMN_KINDS = {
    "float": _FLOATS, "int": _INTS, "bool": st.booleans(), "text": _TEXTS,
    "complex": _COMPLEXES, "nested": _NESTED,
    "mixed": (_FLOATS | _INTS | st.booleans() | _TEXTS | _COMPLEXES
              | st.none() | st.builds(np.float64, _FLOATS)),
    # numpy scalars that are not Python numbers and a cell JSON cannot
    # hold, beside a plain float
    "odd": st.sampled_from([np.int64(3), np.bool_(True), np.complex128(1 - 2j),
                            object(), 1.5]),
}
_NAMES = ["k", "c", "c_re", "x,y", 'q"t', "p%s", "é", ""]


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(0, 4))
    names = draw(st.lists(st.sampled_from(_NAMES), max_size=4, unique=True))
    columns, complex_names = {}, []
    for name in names:
        kind = draw(st.sampled_from(sorted(_COLUMN_KINDS)))
        values = draw(st.lists(_COLUMN_KINDS[kind], min_size=n_rows,
                               max_size=n_rows))
        columns[name] = tuple(values) if draw(st.booleans()) else values
        if kind in ("float", "complex", "mixed") and draw(st.booleans()):
            complex_names.append(name)
    metadata = draw(st.dictionaries(st.sampled_from(["command", "seed", "x"]),
                                    _FLOATS | _TEXTS | _INTS, max_size=2))
    return ResultTable(columns=columns, metadata=metadata,
                       complex_columns=frozenset(complex_names))


def _outcome(render, table):
    try:
        return render(table)
    except Exception as exc:   # the exception type is part of the contract
        return type(exc)


def _faults(render, table):
    """How many parts of the table (metadata, columns) fail on their own."""
    parts = [ResultTable(metadata=table.metadata)] + [
        ResultTable(columns={name: values},
                    complex_columns=table.complex_columns & {name})
        for name, values in table.columns.items()]
    return sum(isinstance(_outcome(render, part), type) for part in parts)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_tables())
# a split complex column whose name collides with a real column
@example(ResultTable(columns={"c": [1j, 2.0], "c_re": [0.5, -0.0]}))
def test_renderers_match_cell_by_cell_reference(table):
    for render, reference in ((render_csv, oracles.render_csv_reference),
                              (render_json, oracles.render_json_reference)):
        new, old = _outcome(render, table), _outcome(reference, table)
        if isinstance(old, type) and _faults(reference, table) > 1:
            # which of two independent faults is met first is evaluation
            # order (rows first in the reference, columns first here);
            # either way the table must be refused
            assert isinstance(new, type)
        else:
            assert new == old


def test_rows_across_blocks_render_like_reference():
    # more rows than one formatting block, with the special cells on and
    # around the block seams
    n = 2 * tables._BLOCK_ROWS + 3
    x = [i / 7.0 for i in range(n)]
    for i in (0, tables._BLOCK_ROWS - 1, tables._BLOCK_ROWS, n - 1):
        x[i] = (math.nan, -0.0, 5e-324, -1.5)[i % 4]
    note = ["" if i % 3 else "a, b" for i in range(n)]
    t = ResultTable(columns={"site": list(range(n)), "x": x,
                             "c": [complex(v, -v) for v in x],
                             "flagged": [i % 2 == 0 for i in range(n)],
                             "note": note})
    assert render_csv(t) == oracles.render_csv_reference(t)
    assert render_json(t) == oracles.render_json_reference(t)
    one = ResultTable(columns={"note": note})
    assert render_csv(one) == oracles.render_csv_reference(one)


# --- the split write: row blocks shared with one forked process ----------

_SEAM_ROWS = (1023, 1024, 1025, 2047, 2048, 2049)


def _open_fds() -> int:
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    return len(os.listdir(fd_dir))


def _emitted(fmt, table):
    """The text emit writes to a fresh directory.  Whether emit returns or
    raises, the directory keeps no temp or spill file and no fd is left
    open.  (The directory is removed without shutil.rmtree, which calls
    os.open: one test refuses that call.)"""
    before = _open_fds()
    tmp = tempfile.mkdtemp()
    path = os.path.join(tmp, f"out.{fmt}")
    try:
        try:
            emit(table, fmt, path)
        except Exception:
            assert os.listdir(tmp) == []
            raise
        finally:
            assert _open_fds() == before
        assert os.listdir(tmp) == [f"out.{fmt}"]
        return Path(path).read_bytes().decode()
    finally:
        for name in os.listdir(tmp):
            os.remove(os.path.join(tmp, name))
        os.rmdir(tmp)


def _serial(fmt, table):
    return {"csv": render_csv, "json": render_json}[fmt](table)


def _raised(render, table):
    """The rendered text, or the exception's type and message."""
    try:
        return render(table)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture
def two_cpus(monkeypatch):
    """Let emit split on any host, and count the renderers it forks."""
    monkeypatch.setattr(tables, "_usable_cpus", lambda: 2)
    forks, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    return forks


def _seam_table(n: int) -> ResultTable:
    """Float, int, bool, complex and quoted-text columns, with NaN and
    signed zeros on and around the block seams."""
    x = [i / 7.0 for i in range(n)]
    for j, i in enumerate((0, 1023, 1024, 2047, 2048, n - 1)):
        if i < n:
            x[i] = (math.nan, -0.0, 0.0, 5e-324, -1.5, 1e22)[j]
    return ResultTable(
        columns={"site": list(range(n)), "x": x,
                 "c": [complex(v, -v) for v in x],
                 "flagged": [i % 3 == 0 for i in range(n)],
                 "note": ["" if i % 5 else 'a, "b"' for i in range(n)]},
        metadata={"command": "demo", "rows": n},
        complex_columns=frozenset({"c"}))


@pytest.mark.parametrize("n", _SEAM_ROWS)
def test_split_render_at_block_seams(n, two_cpus):
    table = _seam_table(n)
    one = ResultTable(columns={"note": table.columns["note"]})
    for t in (table, one):
        for fmt, reference in (("csv", oracles.render_csv_reference),
                               ("json", oracles.render_json_reference)):
            text = _emitted(fmt, t)
            assert text == _serial(fmt, t) == reference(t)
    # a renderer is forked only for two full blocks, once per rendering
    assert len(two_cpus) == (4 if n >= 2 * tables._BLOCK_ROWS else 0)


_SPLIT_FLOATS = (st.sampled_from([0.0, -0.0, math.nan, 5e-324, 0.1, 1e16])
                 | st.floats(allow_infinity=False))
_SPLIT_CELLS = {
    "float": _SPLIT_FLOATS,
    "int": _INTS,
    "bool": st.booleans(),
    "complex": st.builds(complex, _SPLIT_FLOATS, _SPLIT_FLOATS),
    "text": _TEXTS,
    "mixed": _SPLIT_FLOATS | _INTS | st.booleans() | _TEXTS | st.none(),
}


@st.composite
def _aliased_floats(draw):
    """Float objects that print apart though equal (0.0 and -0.0) or are
    distinct though alike (several NaNs, float(repr(x)) copies), in a
    drawn order: repeated down a column, they tell a memo keyed by
    identity from one keyed by value."""
    xs = draw(st.lists(_SPLIT_FLOATS, min_size=1, max_size=3))
    return draw(st.permutations([0.0, -0.0, float("nan"), float("nan"), *xs,
                                 *(float(repr(x)) for x in xs)]))


@st.composite
def _long_tables(draw):
    """Up to 5 000 rows; each column repeats a short drawn pattern of cell
    objects, so drawing stays cheap at any length."""
    n_rows = draw(st.sampled_from(_SEAM_ROWS) | st.integers(0, 5000))
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4,
                          unique=True))
    columns, complex_names = {}, []
    for name in names:
        kind = draw(st.sampled_from(sorted(_SPLIT_CELLS) + ["aliased"]))
        pattern = draw(_aliased_floats() if kind == "aliased" else
                       st.lists(_SPLIT_CELLS[kind], min_size=1, max_size=5))
        columns[name] = [pattern[i % len(pattern)] for i in range(n_rows)]
        if kind in ("float", "complex", "aliased") and draw(st.booleans()):
            complex_names.append(name)
    return ResultTable(columns=columns, metadata={"rows": n_rows},
                       complex_columns=frozenset(complex_names))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_long_tables())
def test_split_render_matches_serial_and_reference(table):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tables, "_usable_cpus", lambda: 2)
        for fmt, reference in (("csv", oracles.render_csv_reference),
                               ("json", oracles.render_json_reference)):
            text = _emitted(fmt, table)
            assert text == _serial(fmt, table) == reference(table)


@pytest.mark.parametrize("at", ["first half", "second half"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, [1.0, math.inf],
                                 object()],
                         ids=["inf", "-inf", "nested-inf", "object"])
def test_split_render_raises_like_serial(bad, at, two_cpus):
    n = 3 * tables._BLOCK_ROWS + 5   # the split falls after the second block
    x = [i / 7.0 for i in range(n)]
    x[10 if at == "first half" else n - 3] = bad
    table = ResultTable(columns={"x": x, "flagged": [False] * n})
    before = _open_fds()
    for fmt in ("csv", "json"):
        got = _raised(lambda t: _emitted(fmt, t), table)
        assert got == _raised(lambda t: _serial(fmt, t), table)
        if fmt == "json":
            assert isinstance(got, tuple)   # a refusal, not a text
    assert _open_fds() == before   # the pipe is closed on every path
    # JSON refuses an unserializable cell before it forks a renderer (CSV
    # writes its str)
    assert len(two_cpus) == (2 if isinstance(bad, (float, list)) else 1)


def test_split_render_without_fork_or_second_cpu(monkeypatch):
    table = _seam_table(4000)
    want = {fmt: _serial(fmt, table) for fmt in ("csv", "json")}
    monkeypatch.setattr(tables, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
    assert {fmt: _emitted(fmt, table) for fmt in want} == want
    monkeypatch.setattr(tables, "_usable_cpus", lambda: 2)
    monkeypatch.delattr(os, "fork")
    assert {fmt: _emitted(fmt, table) for fmt in want} == want


def test_split_render_survives_a_failed_renderer(two_cpus, monkeypatch):
    table = _seam_table(4000)
    want = {fmt: _serial(fmt, table) for fmt in ("csv", "json")}
    # the renderer writes part of its half to the spill file, then exits
    # nonzero: this process renders the missing half itself
    def broken(layout, spill, cut):
        spill.write(b"partial")
        spill.flush()
        os._exit(1)

    monkeypatch.setattr(tables, "_spill_rows", broken)
    assert {fmt: _emitted(fmt, table) for fmt in want} == want
    assert len(two_cpus) == 2


@pytest.mark.parametrize("broken", ["pipe", "fork", "open"])
def test_split_render_without_pipe_or_process(broken, monkeypatch):
    # "open" refuses the spill file (the output is opened by io.open)
    def refuse(*args):
        raise OSError(11, "Resource temporarily unavailable")

    table = _seam_table(4000)
    want = {fmt: _serial(fmt, table) for fmt in ("csv", "json")}
    tempfile.gettempdir()   # found (with os.open) before os.open is refused
    monkeypatch.setattr(tables, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, broken, refuse)
    before = _open_fds()
    assert {fmt: _emitted(fmt, table) for fmt in want} == want
    assert _open_fds() == before


def test_emit_writes_the_split_rendering(two_cpus, tmp_path):
    table = _seam_table(2 * tables._BLOCK_ROWS + 1)
    for fmt in ("csv", "json"):
        path = tmp_path / f"out.{fmt}"
        emit(table, fmt, str(path))
        assert path.read_bytes() == _serial(fmt, table).encode()
    assert len(two_cpus) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.json"]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_holds_no_half_of_the_text(fmt, cpus, tmp_path, monkeypatch):
    # the memory emit allocates past its layout (whose column copies are
    # not counted) stays below half the text: it writes block by block
    n = 20_000
    table = ResultTable(columns={name: [i / 7.0 + j for i in range(n)]
                                 for j, name in enumerate("abcde")})
    half = len(_serial(fmt, table)) / 2
    monkeypatch.setattr(tables, "_usable_cpus", lambda: cpus)
    lay_out, laid_out = tables._LAYOUTS[fmt], []

    def measured(t):
        layout = lay_out(t)
        tracemalloc.reset_peak()
        laid_out.append(tracemalloc.get_traced_memory()[0])
        return layout

    monkeypatch.setitem(tables._LAYOUTS, fmt, measured)
    tracemalloc.start()
    try:
        emit(table, fmt, str(tmp_path / f"out.{fmt}"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / f"out.{fmt}").read_bytes() == _serial(fmt, table).encode()
    assert peak - laid_out[0] < half


# --- the helper process: the one place that forks, exits and reaps -------

def _send(fd: int, data: bytes) -> None:
    while data:
        data = data[os.write(fd, data):]


def _received(fd: int) -> bytes:
    data = b""
    while chunk := os.read(fd, 3):
        data += chunk
    return data


def _echo_reversed(recv, send):
    _send(send, _received(recv)[::-1])


def _send_then_raise(recv, send):
    _send(send, _received(recv))
    raise RuntimeError("the work failed")


def _exit_7(recv, send):
    _received(recv)
    os._exit(7)


@pytest.mark.parametrize("work, code, unread", [
    (_echo_reversed, 0, b"gnip"),
    (_send_then_raise, 1, b"ping"),
    (_exit_7, 7, b""),
], ids=["returns", "raises", "exits"])
def test_helper_exit_code_and_unread_bytes(work, code, unread, two_cpus,
                                           capfd):
    # each work reads to EOF first, so its exit cannot break the send
    before = _open_fds()
    helper = tables._Helper.start(work)
    _send(helper.send, b"ping")
    assert helper.join() == (code, unread)
    assert _open_fds() == before
    assert capfd.readouterr() == ("", "")   # a raising work prints nothing
    assert len(two_cpus) == 1


def test_only_the_helper_forks_exits_and_reaps():
    """os.fork, os._exit and os.waitpid, by attribute, getattr name or
    import, appear in the package only inside tables._Helper."""
    package = Path(tables.__file__).parent
    tree = ast.parse((package / "tables.py").read_text())
    helper = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "_Helper")
    inside, outside = set(), []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.value if isinstance(node, ast.Constant)
                    else node.name if isinstance(node, ast.alias) else None)
            if name not in ("fork", "_exit", "waitpid"):
                continue
            if (path.name == "tables.py"
                    and helper.lineno <= node.lineno <= helper.end_lineno):
                inside.add(name)
            else:
                outside.append(f"{path.name}:{node.lineno} {name}")
    assert outside == []
    assert inside == {"fork", "_exit", "waitpid"}


def test_only_the_split_leg_maps_shared_memory():
    """mmap, by name, attribute, string or import, appears in the package
    only in splitleg: the snapshot writer shares no memory."""
    package = Path(tables.__file__).parent
    seen = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.value if isinstance(node, ast.Constant)
                    else node.name if isinstance(node, ast.alias) else None)
            if name == "mmap":
                seen.add(path.name)
    assert seen == {"splitleg.py"}
