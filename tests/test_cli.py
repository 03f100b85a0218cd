"""End-to-end command-line runs against temporary configs."""

import contextlib
import io
import json
import math
import os
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dtscatter import cli, tables, thirring, wavepacket
from dtscatter.config import _SCHEMAS, COMMANDS, parse_config
from dtscatter.errors import DtScatterError, OutputError
from dtscatter.thirring import (
    ThirringParams,
    amplitude_pp,
    born_series_thirring,
    jacobian_pp,
)

GOLDEN = Path(__file__).parent / "golden"

DISPERSION_CFG = """\
[run]
command = dispersion
[params]
nu = 0.8
[grid]
k = 0.5, 1.0
[output]
path = {path}
"""

AMPLITUDE_CFG = """\
[run]
command = amplitude
seed = 1
[params]
nu = 0.8
chi = 1.0
p = 0.3
[grid]
k = 0.7
[output]
path = {path}
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_dispersion_run(tmp_path, capsys):
    out = tmp_path / "disp.json"
    cfg = write_cfg(tmp_path, DISPERSION_CFG.format(path=out))
    assert cli.main(["--config", cfg]) == 0
    assert "wrote" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["metadata"]["command"] == "dispersion"
    assert [r["k"] for r in doc["rows"]] == [0.5, 1.0]
    assert all(r["flagged"] is False for r in doc["rows"])
    assert {"omega", "omega_prime", "alpha_up", "alpha_dn"} <= set(doc["rows"][0])


def test_amplitude_run_matches_closed_form(tmp_path):
    out = tmp_path / "amp.json"
    cfg = write_cfg(tmp_path, AMPLITUDE_CFG.format(path=out))
    assert cli.main(["--config", cfg]) == 0
    row = json.loads(out.read_text())["rows"][0]
    # closed elastic coefficient at (0.8, 1.0, 0.3, 0.7)
    assert row["coefficient_re"] == pytest.approx(-0.10413883800323379, rel=1e-12)
    assert row["coefficient_im"] == pytest.approx(0.3054405677420241, rel=1e-12)
    assert row["born_gap"] < 1e-8
    assert row["converged"] is True


def test_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "amp.json"
    cfg = write_cfg(tmp_path, AMPLITUDE_CFG.format(path=out))
    assert cli.main(["--config", cfg]) == 0
    first = out.read_bytes()
    assert cli.main(["--config", cfg]) == 0
    assert out.read_bytes() == first


def test_set_overrides(tmp_path):
    out = tmp_path / "disp.json"
    other = tmp_path / "other.json"
    cfg = write_cfg(tmp_path, DISPERSION_CFG.format(path=out))
    assert cli.main(["--config", cfg, "--set", "k=0.25",
                     "--set", f"path={other}"]) == 0
    doc = json.loads(other.read_text())
    assert [r["k"] for r in doc["rows"]] == [0.25]
    assert not out.exists()


def test_empty_grid_is_header_only_success(tmp_path, capsys):
    out = tmp_path / "disp.csv"
    cfg = write_cfg(tmp_path, DISPERSION_CFG.format(path=out))
    assert cli.main(["--config", cfg, "--set", "grid.k="]) == 0
    assert "0 rows, 0 flagged" in capsys.readouterr().out
    text = out.read_bytes().decode()
    assert text.startswith("k,omega") and text.count("\r\n") == 1


def test_config_problems_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DISPERSION_CFG.format(path="x.json")
                    .replace("nu = 0.8", "nu = 1.8"))
    assert cli.main(["--config", cfg]) == 1
    assert "nu must lie in [0, 1]" in capsys.readouterr().err


def test_out_of_range_source_date_epoch_falls_back_to_zero(
        tmp_path, monkeypatch, capsys):
    out = tmp_path / "disp.json"
    cfg = write_cfg(tmp_path, DISPERSION_CFG.format(path=out))
    for epoch in ("99999999999999", "999999999999999999999"):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        assert cli.main(["--config", cfg]) == 0
        assert capsys.readouterr().err == ""
        generated = json.loads(out.read_text())["metadata"]["generated"]
        assert generated == "1970-01-01T00:00:00Z"


def test_usage_error_exit_1(capsys):
    assert cli.main([]) == 1
    assert cli.main(["--version"]) == 0
    assert "dtscatter" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["--config", "x", "--bogus"],
                                  ["--config", "x", "--set"]],
                         ids=["no-arguments", "unknown-flag", "bare-set"])
def test_usage_problems_are_one_error_line(argv, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert captured.out == ""


def test_help_goes_to_stdout(capsys):
    assert cli.main(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: dtscatter") and captured.err == ""


def test_missing_config_exit_3(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "nope.cfg")]) == 3
    assert "cannot read config" in capsys.readouterr().err


def test_unwritable_output_exit_3(tmp_path, capsys):
    target = tmp_path / "no_dir" / "out.csv"
    cfg = write_cfg(tmp_path, DISPERSION_CFG.format(path=target))
    assert cli.main(["--config", cfg]) == 3
    assert "no_dir" in capsys.readouterr().err


def test_unwritable_snapshot_prefix_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = ["--config", str(GOLDEN / "wavepacket.cfg"),
            "--set", "snapshot_every=240", "--set", "snapshot_prefix=nodir/snap_"]
    assert cli.main(args) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write nodir/snap_00000.csv")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not (tmp_path / "wavepacket.json").exists()


def test_snapshot_run_steps_the_interacting_leg_once(tmp_path, monkeypatch):
    # T = 240 in the golden config: one evolve of 2T = 480 steps, not one
    # leg per view
    legs, seen = [], []
    leg = wavepacket.evolve

    def counted(amps, model, t_steps, on_step=None):
        legs.append(t_steps)

        def observe(n, view):
            seen.append(n)
            on_step(n, view)

        return leg(amps, model, t_steps, on_step=observe)

    monkeypatch.setattr(wavepacket, "evolve", counted)
    monkeypatch.chdir(tmp_path)
    args = ["--config", str(GOLDEN / "wavepacket.cfg"),
            "--set", "snapshot_every=50", "--set", "snapshot_prefix=snap_"]
    assert cli.main(args) == 0
    assert legs == [480]
    assert seen == list(range(481))
    written = sorted(p.name for p in tmp_path.glob("snap_*.csv"))
    assert written == [f"snap_{n:05d}.csv" for n in (*range(0, 480, 50), 480)]


SNAPSHOT_ARGS = ["--config", str(GOLDEN / "wavepacket.cfg"),
                 "--set", "snapshot_every=50", "--set", "snapshot_prefix=snap_"]


@pytest.fixture
def forked(monkeypatch):
    """Hand every other snapshot to the writer process on any host."""
    monkeypatch.setattr(tables, "_usable_cpus", lambda: 2)


# steps 0 and 100 are written inline, 50 by the writer process; with 50
# and 100 both failing, the inline failure at 100 comes first in time
@pytest.mark.parametrize("bad,reported", [((0,), 0), ((50,), 50),
                                          ((100,), 100), ((50, 100), 50)])
def test_snapshot_failure_reports_the_earliest(
        bad, reported, forked, tmp_path, monkeypatch, capsys):
    real = cli.write_text

    def failing(path, text):
        if path in [f"snap_{n:05d}.csv" for n in bad]:
            raise OutputError(f"cannot write {path}: disk full")
        real(path, text)

    monkeypatch.setattr(cli, "write_text", failing)
    monkeypatch.chdir(tmp_path)
    assert cli.main(SNAPSHOT_ARGS) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write snap_{reported:05d}.csv: disk full\n"
    assert captured.out == ""
    assert not (tmp_path / "wavepacket.json").exists()
    written = {p.name for p in tmp_path.glob("snap_*.csv")}
    assert {f"snap_{n:05d}.csv" for n in range(0, reported, 50)} <= written


def test_snapshot_writer_death_names_its_snapshot(forked, tmp_path,
                                                  monkeypatch, capsys):
    real, parent = cli.write_text, os.getpid()

    def dying(path, text):
        if path == "snap_00150.csv" and os.getpid() != parent:
            os._exit(7)
        real(path, text)

    monkeypatch.setattr(cli, "write_text", dying)
    monkeypatch.chdir(tmp_path)
    assert cli.main(SNAPSHOT_ARGS) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write snap_00150.csv: ")
    assert "exit code 7" in err and err.count("\n") == 1
    assert not (tmp_path / "wavepacket.json").exists()


def test_snapshots_match_without_fork(forked, tmp_path, monkeypatch):
    files = {}
    for side in ("forked", "inline"):
        if side == "inline":
            monkeypatch.delattr(os, "fork")
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)
        assert cli.main(SNAPSHOT_ARGS) == 0
        files[side] = {p.name: p.read_bytes()
                       for p in (tmp_path / side).iterdir()}
    assert len(files["forked"]) == 12   # the table and 11 snapshots
    assert files["forked"] == files["inline"]


def test_inconclusive_leg_with_snapshots_is_a_flagged_row(
        forked, tmp_path, monkeypatch):
    leg = wavepacket.evolve

    def stuck(amps, model, t_steps, on_step=None):
        out = leg(amps, model, t_steps, on_step=on_step)
        out[model.center] = 1.0   # mass left on the interaction center
        return out

    monkeypatch.setattr(wavepacket, "evolve", stuck)
    monkeypatch.chdir(tmp_path)
    assert cli.main(SNAPSHOT_ARGS) == 2
    rows = json.loads((tmp_path / "wavepacket.json").read_text())["rows"]
    assert len(rows) == 1 and "has not traversed" in rows[0]["note"]
    assert len(list(tmp_path.glob("snap_*.csv"))) == 11


def test_all_rows_flagged_exit_2(tmp_path, capsys):
    # k = 0 degenerates the band-pair crossing, so the single row flags
    out = tmp_path / "amp.json"
    cfg = write_cfg(tmp_path, AMPLITUDE_CFG.format(path=out))
    assert cli.main(["--config", cfg, "--set", "grid.k=0"]) == 2
    assert "1 rows, 1 flagged" in capsys.readouterr().out
    rows = json.loads(out.read_text())["rows"]
    assert rows and all(r["flagged"] for r in rows)
    assert rows[0]["note"] != ""
    assert rows[0]["coefficient_re"] is None  # NaN -> null in JSON


def test_sweep_keeps_row_order_without_workers_key(tmp_path):
    sweep = """\
[run]
command = sweep
[params]
nu = 0.8
chi = 1.0
p = 0.3
[grid]
k = 0.9, 0.4, 1.2
[output]
path = {path}
"""
    out = tmp_path / "sweep.json"
    cfg = write_cfg(tmp_path, sweep.format(path=out))
    assert cli.main(["--config", cfg]) == 0
    doc = json.loads(out.read_text())
    assert "workers" not in doc["metadata"]
    assert [r["k"] for r in doc["rows"]] == [0.9, 0.4, 1.2]  # grid order


def test_batched_sweep_matches_pointwise_closed_form():
    # every flag kind: nu out of range, nu = 1, k < 0, k > pi/2, p on a
    # multiple of pi/2, and the resonance (lam+1)x + y = 0 at chi = pi, k = 0
    cfg = parse_config(f"""\
[run]
command = sweep
[grid]
nu = 0.8, 1.0, 1.5, 0.3
chi = 1.0, {math.pi!r}, -2.0
p = 0.0, {math.pi / 2!r}, 0.3, -0.4, 1.1
k = -0.2, 0.0, 0.35, 0.7, {math.pi / 2!r}, 2.0
[output]
path = unused.csv
""")
    cols = cli.run(cfg).columns
    notes = set()
    for i, point in enumerate(zip(cols["nu"], cols["chi"], cols["p"], cols["k"])):
        nu, chi, p, k = point
        try:
            want = amplitude_pp(ThirringParams(nu=nu, chi=chi), p, k).coefficient
            note = ""
        except DtScatterError as exc:
            want, note = None, str(exc)
        assert cols["note"][i] == note, point
        assert cols["flagged"][i] is (want is None), point
        got = cols["coefficient"][i]
        if want is None:
            assert math.isnan(got.real) and math.isnan(got.imag), point
        else:
            assert got == want, point
        notes.add(note.split(" ")[0])
    assert notes == {"", "nu", "xy", "relative", "total", "amplitude"}


def _amplitude_cfg(nu, chi, p, ks, born_n=12):
    grid = ", ".join(repr(float(k)) for k in ks)
    return parse_config(f"""\
[run]
command = amplitude
[params]
nu = {nu!r}
chi = {chi!r}
p = {p!r}
born_n = {born_n}
[grid]
k = {grid}
[output]
path = unused.csv
""")


def test_batched_amplitude_matches_pointwise_routes():
    # every note the command writes comes from the first failing pointwise
    # call: k > pi/2 (closed form), the resonance at chi = pi, k = 0 (closed
    # form), the flat (+,+) crossing at k = 0 and 1e-9 (Born route), and a
    # degenerate p; the grid spans more than one block of the crossing solve
    ks = [0.0, 1e-9, 1.6, math.pi / 2] + [0.05 * i for i in range(1, 40)]
    assert len(ks) > thirring.ROOT_BLOCK
    notes = set()
    for nu, chi, p in ((0.8, 1.0, 0.3), (0.5, 2.5, 1.1), (0.3, math.pi, -0.4),
                       (0.8, 1.0, 0.0)):
        params = ThirringParams(nu=nu, chi=chi)
        cols = cli.run(_amplitude_cfg(nu, chi, p, ks)).columns
        for i, k in enumerate(ks):
            try:
                c = amplitude_pp(params, p, k).coefficient
                series = born_series_thirring(params, p, k, 12)
                born = complex(series.partial_sums[-1] / jacobian_pp(params, p, k))
                want = (c, born, abs(born - c), series.converged, False, "")
            except DtScatterError as exc:
                nan = complex(math.nan, math.nan)
                want = (nan, nan, math.nan, False, True, str(exc))
            got = tuple(cols[name][i] for name in (
                "coefficient", "born", "born_gap", "converged", "flagged", "note"))
            assert repr(got) == repr(want), (nu, chi, p, k)
            notes.add(want[-1].split(" ")[0])
    assert notes == {"", "relative", "band", "amplitude", "total"}



def test_three_routes_agree_where_the_slope_is_negative(tmp_path, monkeypatch):
    # p = 2.4 > pi/2: jacobian_pp < 0 there; the Born and Dyson columns,
    # the wave packet and the closed form must give one amplitude
    monkeypatch.chdir(tmp_path)
    point = "nu = 0.8\nchi = 1.0\np = 2.4\n"
    runs = {
        "amplitude": "born_n = 60\n[grid]\nk = 0.3, 0.7, 1.2\n",
        "born": "k = 0.7\nn_max = 60\n",
        "dyson": "k = 0.7\n",
        "wavepacket": "k0 = 0.7\n",
    }
    out = {}
    for command, rest in runs.items():
        cfg = write_cfg(tmp_path, f"[run]\ncommand = {command}\n[params]\n"
                        f"{point}{rest}[output]\npath = {command}.json\n")
        assert cli.main(["--config", cfg]) == 0
        out[command] = json.loads((tmp_path / f"{command}.json").read_text())
    assert all(r["born_gap"] < 1e-12 for r in out["amplitude"]["rows"])
    assert out["born"]["rows"][-1]["closed_gap"] < 1e-12
    gaps = [r["abs_gap"] for r in out["dyson"]["rows"]]
    assert gaps[0] < 1e-12 and gaps[1] < 1e-6
    meta = out["wavepacket"]["metadata"]
    assert meta["diagonal_abs_error"] < 1e-4   # 1.2e-5 measured
    assert meta["closed_coefficient_im"] > 0.0   # the conjugate branch


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_amplitude_and_born_at_half_pi(p):
    # k = pi/2 puts the (+,+) crossing and its mirror at -pi/2 on omega = pi;
    # counting both once each used to leave a born_gap of 0.17 unflagged
    cols = cli.run(_amplitude_cfg(0.8, 1.0, p, [math.pi / 2], born_n=40)).columns
    assert cols["flagged"] == [False]
    assert cols["born_gap"][0] < 1e-8
    cfg = parse_config(f"[run]\ncommand = born\n[params]\nnu = 0.8\n"
                       f"chi = 1.0\np = {p!r}\nk = {math.pi / 2!r}\n"
                       "[output]\npath = unused.csv\n")
    cols = cli.run(cfg).columns
    assert not any(cols["flagged"])
    assert cols["closed_gap"][-1] < 1e-8


def test_amplitude_solves_crossings_once_per_block(monkeypatch):
    calls = []
    solve = thirring._band_pair_roots
    monkeypatch.setattr(thirring, "_band_pair_roots",
                        lambda d, p, ws: calls.append(len(ws)) or solve(d, p, ws))
    cli.run(_amplitude_cfg(0.8, 1.0, 0.3, [0.1 + 0.04 * i for i in range(32)]))
    assert sum(calls) == 32
    assert len(calls) <= -(-32 // thirring.ROOT_BLOCK)


def test_amplitude_working_set_is_bounded():
    cfg = _amplitude_cfg(0.8, 1.0, 0.3, [0.1 + 1.4 * i / 255 for i in range(256)],
                         born_n=40)
    tracemalloc.start()
    try:
        cli.run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_wavepacket_run_with_snapshots(tmp_path):
    wp = """\
[run]
command = wavepacket
[params]
nu = 0.8
chi = 1.0
p = 0.3
k0 = 0.7
sigma_x = 32
length = 2048
t_steps = 450
snapshot_every = 450
snapshot_prefix = {prefix}
[output]
path = {path}
"""
    out = tmp_path / "wp.json"
    prefix = str(tmp_path / "snap_")
    cfg = write_cfg(tmp_path, wp.format(path=out, prefix=prefix))
    assert cli.main(["--config", cfg]) == 0
    doc = json.loads(out.read_text())
    meta = doc["metadata"]
    assert meta["diagonal_abs_error"] < 5e-4
    labels = [r["band_pair"] for r in doc["rows"]]
    assert labels == ["++", "+-", "-+", "--"]
    # snapshots at interacting steps 0, 450, 900
    for t in (0, 450, 900):
        snap = tmp_path / f"snap_{t:05d}.csv"
        text = snap.read_bytes().decode()
        assert text.startswith("site,component,re,im\r\n")
        assert text.count("\r\n") == 2048 * 4 + 1


_BAD_INPUTS = [
    # the relative-coordinate reduction degenerates: flagged rows, not a crash
    ("dyson", ("p=0.0",), 2, "sits on a multiple of pi/2"),
    ("trotter", ("mode_index=200",), 1, "mode_index must lie in [0, n)"),
    ("trotter", ("mode_index=-5",), 1, "mode_index must lie in [0, n)"),
    ("trotter", ("eps_ref=0",), 1, "eps_ref must be positive"),
    # a legal eps_ref whose Born contraction gamma >= 1: no step certified
    ("trotter", ("eps_ref=1e-4",), 2, "no step is certified"),
    ("amplitude", ("chi=nan",), 1, "chi must be finite"),
    ("born", ("chi=nan",), 1, "chi must be finite"),
    ("dyson", ("chi=nan",), 1, "chi must be finite"),
    ("wavepacket", ("chi=nan",), 1, "chi must be finite"),
    ("wavepacket", ("snapshot_every=-5",), 1,
     "override: snapshot_every must be >= 0"),
]


@pytest.mark.parametrize("command,overrides,code,message", _BAD_INPUTS,
                         ids=[f"{c}-{o[0]}" for c, o, _, _ in _BAD_INPUTS])
def test_bad_inputs_end_in_flags_or_one_error_line(
        command, overrides, code, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = ["--config", str(GOLDEN / f"{command}.cfg"), "--set", "path=out.json"]
    for item in overrides:
        args += ["--set", item]
    assert cli.main(args) == code
    err = capsys.readouterr().err
    if code == 1:
        assert err.startswith("error: ") and message in err
    else:
        assert err == ""
        rows = json.loads((tmp_path / "out.json").read_text())["rows"]
        assert rows and all(r["flagged"] and message in r["note"] for r in rows)


EDGE_FLOATS = (0.0, math.pi / 2, 1.0, -1.0, -0.3, math.nan, math.inf,
               -math.inf)
EDGE_INTS = (-5, -1, 0, 40)

# valid range per parameter; sizes capped to keep each example short
_RANGES = {
    "nu": (0.0, 1.0), "chi": (-4.0, 4.0), "p": (0.05, 1.5), "k": (0.0, 1.5),
    "k0": (0.05, 1.5), "omega_max": (0.5, 3.0), "eps_ref": (0.05, 0.5),
    "sigma_x": (8.0, 32.0), "tau": (0.01, 0.5),
    "born_n": (1, 12), "n_max": (1, 12), "quad_n": (16, 1024), "n": (1, 32),
    "mode_index": (0, 31), "length": (16, 256), "t_steps": (1, 64),
    "snapshot_every": (0, 64),
}


def _values(name, edges):
    lo, hi = _RANGES[name]
    if isinstance(lo, int):
        valid, edge = st.integers(lo, hi), st.sampled_from(EDGE_INTS)
    else:
        valid, edge = st.floats(lo, hi), st.sampled_from(EDGE_FLOATS)
    return st.one_of(valid, edge) if edges else valid


@st.composite
def _configs(draw):
    """(command, params, grids); half the draws mix in edge values."""
    command = draw(st.sampled_from(COMMANDS))
    edges = draw(st.booleans())
    required, optional, allowed_grids, _ = _SCHEMAS[command]
    grids = {}
    for name in allowed_grids:
        if name == "tau":
            # geometric, as convergence_sweep requires
            tau0 = draw(_values("tau", edges))
            grids[name] = [tau0 * 0.5 ** j for j in range(draw(st.integers(0, 4)))]
        elif name == "k" or draw(st.booleans()):
            grids[name] = draw(st.lists(_values(name, edges), max_size=4))
    params = {name: draw(_values(name, edges))
              for name in (*required, *optional)
              if name in _RANGES and name not in grids}
    if "mode_index" in params and not edges:
        params["mode_index"] = draw(st.integers(0, params["n"] - 1))
    return command, params, grids


@settings(max_examples=60, deadline=None)
@given(_configs())
def test_generated_configs_keep_the_cli_contract(drawn):
    command, params, grids = drawn
    with tempfile.TemporaryDirectory() as tmp:
        lines = ["[run]", f"command = {command}", "[params]"]
        lines += [f"{name} = {value!r}" for name, value in params.items()]
        if command == "wavepacket":
            lines.append(f"snapshot_prefix = {tmp}/snap_")
        lines.append("[grid]")
        lines += [f"{name} = {', '.join(map(repr, values))}"
                  for name, values in grids.items()]
        lines += ["[output]", f"path = {tmp}/out.csv"]
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        err = io.StringIO()
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            code = cli.main(["--config", str(cfg)])
    assert code in (0, 1, 2, 3)
    report = err.getvalue()
    assert "Traceback" not in report
    # warnings may come first; then, on exit 1, "error: <message>" and one
    # indented line per config problem
    lines = [ln for ln in report.splitlines() if not ln.startswith("warning: ")]
    if code == 1:
        first, *problems = lines
        assert first.startswith("error: ")
        assert all(ln.startswith("  ") and ln.strip() for ln in problems)
    else:
        assert lines == []
