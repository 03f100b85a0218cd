"""Every CLI command's table, byte for byte, against a committed output.

``tests/golden/<command>.cfg`` is a small config that writes to a relative
path; the file of that name beside it is the output the CLI produced with
SOURCE_DATE_EPOCH=0.  A refactor that claims to leave the numbers alone
must keep these files unchanged.  After an intended output change,
regenerate them from inside ``tests/golden`` with
``SOURCE_DATE_EPOCH=0 dtscatter --config <command>.cfg`` when the package
is installed, or in a checkout with
``SOURCE_DATE_EPOCH=0 PYTHONPATH=../../src python -m dtscatter.cli --config <command>.cfg``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dtscatter import cli, tables
from dtscatter.config import COMMANDS, parse_config

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(command, tmp_path, monkeypatch):
    cfg = GOLDEN / f"{command}.cfg"
    out_name = parse_config(cfg.read_text()).output_path
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert cli.main(["--config", str(cfg)]) == 0
    assert (tmp_path / out_name).read_bytes() == (GOLDEN / out_name).read_bytes()


# sha256 of the snapshot files as the half-ring leg and the two-process
# snapshot writer wrote them; the one-process writer must reproduce them
# byte for byte (test_cli.test_snapshots_match_without_fork)
SNAPSHOT_SHA256 = {
    "snap_00000.csv": "c2f330c78ec2fa52a82e62b99c08390e35b388a0bb291580eb4000505f836246",
    "snap_00240.csv": "96ef8544288378b1eb01d8e316fdf2c14183b32542597badedde4afa91b16e08",
    "snap_00480.csv": "8d2e3353bd1c3d096e11148245f2d84ac03b1fd2606e2a7380fb41d248fcbc0d",
}


def test_wavepacket_snapshots_match_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    args = ["--config", str(GOLDEN / "wavepacket.cfg"),
            "--set", "snapshot_every=240", "--set", "snapshot_prefix=snap_"]
    assert cli.main(args) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.glob("snap_*.csv")}
    assert digests == SNAPSHOT_SHA256


# sha256 of the `wavepacket` table at the default ring and run length
# (sigma_x = 64, length = 4096, t_steps = 900), where the golden config's
# length = 1024 leaves last-bit drift in the longer run unseen
DEFAULT_WAVEPACKET_SHA256 = (
    "5dd4aedd456d84466796d4f96df95d8e8b79113cf5cb43f8c5b7adc3e1485662")


DEFAULT_WAVEPACKET_CFG = ("[run]\ncommand = wavepacket\n"
                          "[params]\nnu = 0.8\nchi = 1.0\np = 0.3\nk0 = 0.7\n"
                          "[output]\npath = wavepacket.json\n")


def test_wavepacket_default_config_matches_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    cfg = tmp_path / "default.cfg"
    cfg.write_text(DEFAULT_WAVEPACKET_CFG)
    assert cli.main(["--config", str(cfg)]) == 0
    digest = hashlib.sha256((tmp_path / "wavepacket.json").read_bytes())
    assert digest.hexdigest() == DEFAULT_WAVEPACKET_SHA256


def test_wavepacket_default_config_matches_digest_in_one_process(
        tmp_path, monkeypatch):
    # without os.fork no helper process can start; the table is the same
    monkeypatch.delattr(os, "fork")
    test_wavepacket_default_config_matches_digest(tmp_path, monkeypatch)


def test_wavepacket_default_config_digest_with_one_blas_thread(tmp_path):
    # at L = 4096 a BLAS dot product is long enough for OpenBLAS to split
    # it between threads, which sums in another order; the packet's norm
    # and overlap are numpy reductions, so the table must not depend on
    # the BLAS thread count.  A fresh interpreter, since OpenBLAS reads
    # the variable when it is loaded.
    (tmp_path / "default.cfg").write_text(DEFAULT_WAVEPACKET_CFG)
    src = str(Path(cli.__file__).parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path),
           "OPENBLAS_NUM_THREADS": "1", "SOURCE_DATE_EPOCH": "0"}
    run = subprocess.run([sys.executable, "-m", "dtscatter.cli",
                          "--config", "default.cfg"],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    digest = hashlib.sha256((tmp_path / "wavepacket.json").read_bytes())
    assert digest.hexdigest() == DEFAULT_WAVEPACKET_SHA256


# sha256 of perfbench's seed-0 `series` amplitude tables (32 k points each,
# more than the golden config's 4), as the closed-form crossing solve
# wrote them, within 1.1e-14 of the scan-and-bisect solve's cells
SERIES_AMPLITUDE_SHA256 = {
    "amplitude_ref.csv": (
        "8ef38d5407205bc58d1026d61e8c3b320e522dd3726083f0a7a92fcbf4b3f6bf",
        "nu = 0.8\nchi = 1.0\np = 0.3\nborn_n = 40\n"),
    "amplitude_slow.json": (
        "20b5083ebf232e3e971af148047439334f9a7fcc2a9cc0d713c19f0e5e76d3ef",
        "nu = 0.5\nchi = 2.5\np = 1.1\n"),
}


@pytest.mark.parametrize("name", sorted(SERIES_AMPLITUDE_SHA256))
def test_series_amplitude_tables_match_digests(name, tmp_path, monkeypatch):
    digest, params = SERIES_AMPLITUDE_SHA256[name]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    cfg = tmp_path / "series.cfg"
    cfg.write_text(f"[run]\ncommand = amplitude\n\n[params]\n{params}\n"
                   f"[grid]\nk = 0.1:1.5:32\n\n[output]\npath = {name}\n")
    assert cli.main(["--config", str(cfg)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# sha256 of three tables of 4 096 to 5 000 rows, as the one-process
# renderer wrote them; they are large enough for emit to split the row
# blocks between this process and a forked renderer
LARGE_TABLE_SHA256 = {
    "sweep_k.csv": (
        "424fa3ce079f2b1c20491a199f0d4b6f14d795db99bf09c92b52a4af3b37d5bf",
        "command = sweep\n\n[params]\nnu = 0.8\nchi = 1.0\np = 0.3\n\n"
        "[grid]\nk = 0.0:1.6:4096\n"),
    "sweep_pk.json": (
        "964233f4ac24bc6618e7b3a886942af4151b939b9826ba740b5936c5d1c7b8d3",
        "command = sweep\n\n[params]\nnu = 0.5\nchi = 2.5\n\n"
        "[grid]\np = 0.0:1.5707963267948966:64\nk = 0.0:1.6:64\n"),
    "dispersion.csv": (
        "450a947d29ef27b08cb0de995acabf8e23c4c717a7365813859a9023ebd24598",
        "command = dispersion\n\n[params]\nnu = 0.8\n\n"
        "[grid]\nk = -3.141592653589793:3.141592653589793:5000\n"),
}


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "one-process"])
@pytest.mark.parametrize("name", sorted(LARGE_TABLE_SHA256))
def test_large_tables_match_digests(name, fork, tmp_path, monkeypatch):
    digest, body = LARGE_TABLE_SHA256[name]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    monkeypatch.setattr(tables, "_usable_cpus", lambda: 2)
    forks = []
    if fork:
        real = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    else:
        monkeypatch.delattr(os, "fork")
    cfg = tmp_path / "large.cfg"
    cfg.write_text(f"[run]\n{body}\n[output]\npath = {name}\n")
    assert cli.main(["--config", str(cfg)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
    assert len(forks) == fork   # one renderer, and only on the forked side
