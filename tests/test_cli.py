"""End-to-end command-line runs against temporary configs."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    # T = 240 in the golden config: one evolve_odd of 2T = 480 steps, not
    # one leg per view
    legs, seen = [], []
    leg = wavepacket.evolve_odd

    def counted(amps, model, t_steps, on_step=None):
        legs.append(t_steps)

        def observe(n, view):
            seen.append(n)
            on_step(n, view)

        return leg(amps, model, t_steps, on_step=observe)

    monkeypatch.setattr(wavepacket, "evolve_odd", counted)
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
    """Start the snapshot writer process on any host."""
    monkeypatch.setattr(tables, "_usable_cpus", lambda: 2)


# the 11 snapshots: the helper writes 0 .. 250, this process 300 .. 480.
# Every helper failure comes before every failure here, so it is the one
# reported, also when this process failed first in time (100 and 300).
@pytest.mark.parametrize("bad,reported", [((0,), 0), ((50,), 50),
                                          ((100,), 100), ((50, 100), 50),
                                          ((150, 200), 150), ((300,), 300),
                                          ((100, 300), 100)])
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
    writers = []

    class Recorded(cli._SnapshotWriter):
        def __init__(self, *args):
            super().__init__(*args)
            writers.append(self)

    monkeypatch.setattr(cli, "_SnapshotWriter", Recorded)

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
    assert 150 in writers[0].theirs   # step 150 is the helper's


def _snapshot_files(tmp_path, monkeypatch, side: str, every: int) -> dict:
    """Every file a golden-config snapshot run writes, by name."""
    (tmp_path / side).mkdir()
    monkeypatch.chdir(tmp_path / side)
    args = [*SNAPSHOT_ARGS, "--set", f"snapshot_every={every}"]
    assert cli.main(args) == 0
    return {p.name: p.read_bytes() for p in (tmp_path / side).iterdir()}


def test_snapshots_match_without_fork(forked, tmp_path, monkeypatch):
    # 11 snapshots, and 6: the writer's extra one and an even count
    counts = {50: 11, 100: 6}
    forked_files = {every: _snapshot_files(tmp_path, monkeypatch,
                                           f"forked{every}", every)
                    for every in counts}
    monkeypatch.delattr(os, "fork")
    for every, count in counts.items():
        inline_files = _snapshot_files(tmp_path, monkeypatch,
                                       f"inline{every}", every)
        assert len(inline_files) == count + 1   # the table and the snapshots
        assert forked_files[every] == inline_files


@pytest.mark.parametrize("count", [2, 3, 6, 11, 19])
def test_writer_takes_the_first_and_the_main_process_the_last(
        count, forked, tmp_path, monkeypatch):
    # each snapshot file holds the pid of the process that wrote it
    monkeypatch.setattr(cli, "write_text",
                        lambda path, text: Path(path).write_text(str(os.getpid())))
    model = wavepacket.thirring_com_model(ThirringParams(nu=0.8, chi=1.0), 0.3,
                                          length=256)
    state = np.zeros((256, model.ncomp), dtype=complex)
    state[128, 1] = 1.0
    steps = list(range(0, 2 * count, 2))
    with cli._SnapshotWriter(f"{tmp_path}/snap_", steps, model) as writer:
        wavepacket.evolve_odd(wavepacket.fold_odd(model, state), model,
                              steps[-1], on_step=writer)
    pids = [int((tmp_path / f"snap_{n:05d}.csv").read_text()) for n in steps]
    # the helper: the first half, so the extra one when odd; here: the rest
    half = (count + 1) // 2
    assert writer.theirs == steps[:half]
    assert len(set(pids[:half])) == 1 and os.getpid() not in pids[:half]
    assert pids[half:] == [os.getpid()] * (count - half)


def test_helper_steps_the_leg_to_its_last_snapshot(forked, tmp_path,
                                                   monkeypatch):
    # the helper's evolve_odd is a leg of theirs[-1] = 250 steps; this
    # process steps all 2T = 480 (test_snapshot_run_steps_the_interacting_leg_once)
    legs, leg, parent = tmp_path / "legs", cli.evolve_odd, os.getpid()

    def recorded(amps, model, t_steps, on_step=None):
        with open(legs, "a") as fh:
            fh.write(f"{os.getpid() != parent} {t_steps}\n")
        return leg(amps, model, t_steps, on_step=on_step)

    monkeypatch.setattr(cli, "evolve_odd", recorded)
    monkeypatch.chdir(tmp_path)
    assert cli.main(SNAPSHOT_ARGS) == 0
    assert legs.read_text() == "True 250\n"
    assert len(list(tmp_path.glob("snap_*.csv"))) == 11


def test_leakage_warning_is_printed_once(tmp_path):
    # T = 700 on the golden ring leaks after 192 steps, inside the helper's
    # leg (0 .. 700) too.  Fresh interpreters, so that a line the helper
    # printed would reach the same stderr.
    src = str(Path(cli.__file__).parents[1])
    code = ("import os, sys\n"
            "from dtscatter import cli, tables\n"
            "tables._usable_cpus = lambda: 2\n"
            "if sys.argv[1] == 'inline':\n"
            "    del os.fork\n"
            "sys.exit(cli.main(sys.argv[2:]))\n")
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    args = [*SNAPSHOT_ARGS, "--set", "t_steps=700", "--set", "snapshot_every=100"]
    reports = []
    for side in ("forked", "inline"):
        (tmp_path / side).mkdir()
        run = subprocess.run([sys.executable, "-c", code, side, *args],
                             cwd=tmp_path / side, env=env, capture_output=True,
                             text=True)
        assert run.returncode == 0, run.stderr
        assert len(list((tmp_path / side).glob("snap_*.csv"))) == 15
        reports.append(run.stderr)
    assert reports[0] == reports[1]
    assert reports[0].startswith("warning: BoundaryLeakageWarning: ")
    assert reports[0].count("\n") == 1


_SNAPSHOT_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225e-308, -1.5e-310,
                     1e-300, -1e300, 1e300, 0.1, -2.5, math.inf, -math.inf,
                     math.nan]),
    st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
              st.floats(-9.999, 9.999), st.integers(-300, 299)),
    st.floats(),
)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(half_length=st.integers(1, 20), data=st.data())
def test_snapshot_text_is_the_rendered_table(half_length, data):
    # a snapshot is rendered from the half of an exchange-odd ring that
    # the leg steps: its text is that of the whole ring's table
    length = 2 * half_length
    parts = data.draw(st.lists(_SNAPSHOT_FLOATS, min_size=8 * (half_length + 1),
                               max_size=8 * (half_length + 1)))
    half = np.array(parts).view(complex).reshape(half_length + 1, 4)
    ring = np.empty((length, 4), dtype=complex)
    for site in range(length):   # site center - r holds -swap(half[r])
        r = (site - half_length) % length
        ring[site] = (half[r] if r <= half_length
                      else -half[length - r][[0, 2, 1, 3]])
    expected = tables.render_csv(
        tables.ResultTable(columns=wavepacket.snapshot_columns(ring)))
    layout = cli._snapshot_layout(length)
    assert cli._snapshot_text(layout, half) == expected
    # the leg's half is a read-only component-major view
    view = np.ascontiguousarray(half.T).T
    view.flags.writeable = False
    assert cli._snapshot_text(layout, view) == expected


def test_cli_import_loads_no_writer_or_split_leg_modules():
    # modules only a snapshot writer needs are loaded where it starts:
    # importing them with cli would cost every command's start
    src = str(Path(cli.__file__).parents[1])
    code = ("import sys, dtscatter.cli; print(sorted({'mmap', 'select'} "
            "& set(sys.modules))); "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'dtscatter'))")
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    forbidden, package = out.splitlines()
    assert forbidden == "[]"
    # and no module that no command runs comes back onto every start
    assert package == str(["dtscatter"] + [f"dtscatter.{m}" for m in (
        "cli", "config", "dyson", "errors", "spectral", "tables", "thirring",
        "trotter", "wavepacket")])


def test_default_wavepacket_run_starts_no_helper(forked, tmp_path,
                                                monkeypatch):
    # without snapshots the leg runs in this process, also on a ring of
    # 2 048 sites, and a four-row table is written whole
    monkeypatch.setattr(tables._Helper, "start",
                        lambda work: pytest.fail("a helper was started"))
    monkeypatch.chdir(tmp_path)
    args = ["--config", str(GOLDEN / "wavepacket.cfg"),
            "--set", "length=2048", "--set", "snapshot_every=0"]
    assert cli.main(args) == 0
    assert len(json.loads((tmp_path / "wavepacket.json").read_text())["rows"]) == 4


def test_main_freezes_the_start_up_heap_once(tmp_path):
    # importing the package freezes nothing; main freezes what is alive
    # when it starts, so the collections left walk only what it made
    src = str(Path(cli.__file__).parents[1])
    code = ("import gc, sys, dtscatter.cli as cli\n"
            "imported = gc.get_freeze_count()\n"
            "before = len(gc.get_objects())\n"
            "codes = [cli.main(['--config', sys.argv[1]])]\n"
            "after, frozen = len(gc.get_objects()), gc.get_freeze_count()\n"
            "codes.append(cli.main(['--config', sys.argv[1]]))\n"
            "print(imported, before, after, frozen, gc.get_freeze_count(), "
            "*codes)\n")
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", code, str(GOLDEN / "born.cfg")],
                         cwd=tmp_path, env=env, check=True,
                         capture_output=True, text=True).stdout
    imported, before, after, frozen, again, *codes = map(
        int, out.splitlines()[-1].split())
    assert imported == 0 and codes == [0, 0]
    assert after < 0.05 * before   # 21 988 -> 240 measured
    assert frozen > 0 and again == frozen


def test_inconclusive_leg_with_snapshots_is_a_flagged_row(
        forked, tmp_path, monkeypatch):
    leg = wavepacket.evolve_odd

    def stuck(amps, model, t_steps, on_step=None):
        out = leg(amps, model, t_steps, on_step=on_step)
        out[model.center] = 1.0   # mass left on the interaction center
        return out

    monkeypatch.setattr(wavepacket, "evolve_odd", stuck)
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


# |lam| = 1.995 at chi = 3: lam ** (n + 1) leaves the float range from
# order 1 028, while at chi = 2 (|lam| = 1.683) n_max = 1200 stays inside it
_OVERFLOWING = {
    "born": ("nu=0.5", "chi=3.0", "p=1.1", "k=0.7", "n_max=1200"),
    "amplitude": ("nu=0.5", "chi=3.0", "p=1.1", "grid.k=0.3,0.7",
                  "born_n=1200"),
}


def test_born_overflow_is_a_flagged_row(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, overrides in _OVERFLOWING.items():
        args = ["--config", str(GOLDEN / f"{command}.cfg"),
                "--set", "path=out.json"]
        for item in overrides:
            args += ["--set", item]
        assert cli.main(args) == 2
        assert capsys.readouterr().err == ""
        rows = json.loads((tmp_path / "out.json").read_text())["rows"]
        assert len(rows) == (1 if command == "born" else 2)
        assert all(r["flagged"] and "Born term of order 1028 overflows"
                   in r["note"] for r in rows)
    args = ["--config", str(GOLDEN / "born.cfg"), "--set", "path=out.json"]
    for item in ("nu=0.5", "chi=2.0", "p=1.1", "k=0.7", "n_max=1200"):
        args += ["--set", item]
    assert cli.main(args) == 0
    rows = json.loads((tmp_path / "out.json").read_text())["rows"]
    assert len(rows) == 1201 and not any(r["flagged"] for r in rows)


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


def test_batched_amplitude_matches_pointwise_routes(monkeypatch):
    # every note the command writes comes from the first failing pointwise
    # call: k < 0 and k > pi/2 (closed form), the resonance at chi = pi,
    # k = 0 (closed form), the flat (+,+) crossing at k = 0 and 1e-9 (Born
    # route), and a degenerate p; p = 2.4 has a negative slope jacobian_pp;
    # the grid spans more than one block of the crossing solve
    ks = [0.0, 1e-9, -0.3, 1.6, math.pi / 2] + [0.05 * i for i in range(1, 40)]
    assert len(ks) > thirring.BORN_BLOCK
    scalar_calls = []
    monkeypatch.setattr(cli, "amplitude_pp", lambda *args: scalar_calls.append(
        args[1:]) or amplitude_pp(*args))
    notes = set()
    for nu, chi, p in ((0.8, 1.0, 0.3), (0.5, 2.5, 1.1), (0.3, math.pi, -0.4),
                       (0.8, 1.0, 0.0), (0.8, 1.0, 2.4)):
        params = ThirringParams(nu=nu, chi=chi)
        scalar_calls.clear()
        cols = cli.run(_amplitude_cfg(nu, chi, p, ks)).columns
        closed_open = []
        for i, k in enumerate(ks):
            try:
                try:
                    c = amplitude_pp(params, p, k).coefficient
                except DtScatterError:
                    closed_open.append((p, k))
                    raise
                series = born_series_thirring(params, p, k, 12)
                born = complex(series.partial_sums[-1]
                               / abs(jacobian_pp(params, p, k)))
                want = (c, born, abs(born - c), series.converged, False, "")
            except DtScatterError as exc:
                nan = complex(math.nan, math.nan)
                want = (nan, nan, math.nan, False, True, str(exc))
            got = tuple(cols[name][i] for name in (
                "coefficient", "born", "born_gap", "converged", "flagged", "note"))
            assert repr(got) == repr(want), (nu, chi, p, k)
            notes.add(want[-1].split(" ")[0])
        # the closed column is one array pass; only the points it leaves
        # open go through the scalar call, for their typed error
        assert scalar_calls == closed_open
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


def test_amplitude_solves_crossings_once_per_call(monkeypatch):
    # one crossing solve for the whole grid, more than one Born block
    calls = []
    solve = thirring._band_pair_roots
    monkeypatch.setattr(thirring, "_band_pair_roots",
                        lambda d, p, ws: calls.append(len(ws)) or solve(d, p, ws))
    n = thirring.BORN_BLOCK + 8
    cli.run(_amplitude_cfg(0.8, 1.0, 0.3, [0.1 + 1.2 * i / n for i in range(n)]))
    assert calls == [n]


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


def test_trotter_runs_a_large_ring(tmp_path, monkeypatch, capsys):
    # the ring model is built from its O(r n) factors; a dense n x n
    # plane-wave basis would need 64 GiB at this size
    monkeypatch.chdir(tmp_path)
    args = ["--config", str(GOLDEN / "trotter.cfg"), "--set", "path=out.json",
            "--set", "n=65536", "--set", "mode_index=16384"]
    assert cli.main(args) == 0
    assert capsys.readouterr().err == ""
    rows = json.loads((tmp_path / "out.json").read_text())["rows"]
    assert len(rows) == 5
    assert not any(r["flagged"] for r in rows)


def test_trotter_rejects_a_ring_too_large_to_build(tmp_path, monkeypatch,
                                                   capsys):
    # about 320 bytes per site: n = 10^8 would need some 32 GB; the config
    # check stops it before anything is built
    def no_build(**kwargs):
        raise AssertionError("the ring model was built")

    monkeypatch.setattr(cli, "hopping_ring_model", no_build)
    monkeypatch.chdir(tmp_path)
    args = ["--config", str(GOLDEN / "trotter.cfg"), "--set", "path=out.json",
            "--set", "n=100000000"]
    tracemalloc.start()
    try:
        code = cli.main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == (
        "error: config validation failed: "
        "override: n must be <= 1048576, got 100000000\n")
    assert peak < 1e6
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("overrides,problem", [
    # 10^9 points: some 8 GB of array and 32 GB of floats if it were built
    (("k=0:1:1000000000",),
     "override: range count must be <= 1048576, got 1000000000"),
    (("p=0:1:2048", "k=0:1:1024"),
     "override: a sweep runs at most 1048576 points, got 2097152 "
     "(2048 p x 1024 k)"),
], ids=["range", "sweep"])
def test_grids_too_large_to_build_are_config_errors(tmp_path, monkeypatch,
                                                    capsys, overrides,
                                                    problem):
    def no_run(cfg):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "run", no_run)
    monkeypatch.chdir(tmp_path)
    args = ["--config", str(GOLDEN / "sweep.cfg"), "--set", "path=out.csv"]
    for item in overrides:
        args += ["--set", item]
    tracemalloc.start()
    try:
        code = cli.main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: config validation failed: {problem}\n")
    assert peak < 1e6
    assert not (tmp_path / "out.csv").exists()


# (command, the largest accepted sizes, sizes one step past them, problem);
# the golden amplitude config has four k points, so born_n = 262 143 sums
# 4 x 262 144 = 2^20 Born terms
_SIZE_BOUNDS = [
    ("born", ("n_max=1048575",), ("n_max=10000000000000",),
     "override: n_max must be <= 1048575, got 10000000000000"),
    ("born", ("n_max=1048575",), ("n_max=1048576",),
     "override: n_max must be <= 1048575, got 1048576"),
    ("amplitude", ("born_n=262143",), ("born_n=262144",),
     "line 8, override: an amplitude run sums at most 1048576 Born terms, "
     "got 1048580 (4 k x 262145 orders)"),
    ("dyson", ("quad_n=1048576",), ("quad_n=10000000000000",),
     "override: quad_n must be <= 1048576, got 10000000000000"),
    ("wavepacket", ("length=1048576",), ("length=10000000000000",),
     "override: length must be <= 1048576, got 10000000000000"),
    ("wavepacket", ("t_steps=1048575", "snapshot_every=2"),
     ("t_steps=10000000000000", "snapshot_every=1"),
     "override: a wavepacket run writes at most 1048576 snapshots, got "
     "20000000000001 (t_steps = 10000000000000, snapshot_every = 1)"),
]


@pytest.mark.parametrize("command,at_bound,past_bound,problem", _SIZE_BOUNDS,
                         ids=["n_max", "n_max+1", "born_n", "quad_n",
                              "length", "snapshots"])
def test_sizes_too_large_to_run_are_config_errors(tmp_path, monkeypatch,
                                                  capsys, command, at_bound,
                                                  past_bound, problem):
    # each size past its bound used to end in numpy's _ArrayMemoryError
    # traceback (or a list of 2 x 10^13 snapshot steps)
    text = (GOLDEN / f"{command}.cfg").read_text()
    parse_config(text, overrides=at_bound)

    def no_run(cfg):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "run", no_run)
    monkeypatch.chdir(tmp_path)
    args = ["--config", str(GOLDEN / f"{command}.cfg"), "--set", "path=out.csv"]
    for item in past_bound:
        args += ["--set", item]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == (
        f"error: config validation failed: {problem}\n")
    assert not (tmp_path / "out.csv").exists()


def test_output_format_key_is_rejected(tmp_path, capsys):
    out = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path, DISPERSION_CFG.format(path=out) + "format = json\n")
    assert cli.main(["--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "line 9: unknown key 'format' in [output]" in err
    assert not out.exists()


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
@example(("born", {"nu": 0.5, "chi": 3.0, "p": 1.1, "k": 0.7, "n_max": 1200},
          {}))
@example(("amplitude", {"nu": 0.5, "chi": 3.0, "p": 1.1, "born_n": 1200},
          {"k": [0.3, 0.7]}))
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
    # warnings may come first; then, on exit 1, one "error: <message>" line
    lines = [ln for ln in report.splitlines() if not ln.startswith("warning: ")]
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert lines == []
