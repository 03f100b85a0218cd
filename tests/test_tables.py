"""Result tables: deterministic CSV/JSON rendering and round-trips."""

import json

import pytest

from dtscatter.errors import DtScatterError
from dtscatter.tables import ResultTable, emit, parse_json_table, render_csv, render_json


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
    back = parse_json_table(render_json(t))
    assert back.metadata == t.metadata
    assert list(back.columns) == ["k", "coefficient_re", "coefficient_im",
                                  "flagged", "note"]
    assert back.columns["coefficient_im"] == [-0.5, 0.0]
    assert back.n_rows == 2


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
