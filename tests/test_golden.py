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
from pathlib import Path

import pytest

from dtscatter import cli
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


# sha256 of the snapshot files as the two-leg snapshot writer wrote them;
# the one-leg writer must reproduce them byte for byte
SNAPSHOT_SHA256 = {
    "snap_00000.csv": "381bf88617e3c845bfe5157df616941b885027fb774150c5487b15652d1524af",
    "snap_00240.csv": "2f2d567a97a24b4cb6d4a11f6e5d825aff2142387663ea6322633bfb27c9e127",
    "snap_00480.csv": "5f9c6a12fcc9b020e7da0b90c6f282550f507d298bf628b05fdb883261c90849",
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
    "e5e4a2bdc8ecd57fa7c80610db4ba14e0f0dd866366d69cf24572a09aef07ad6")


def test_wavepacket_default_config_matches_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    cfg = tmp_path / "default.cfg"
    cfg.write_text("[run]\ncommand = wavepacket\n"
                   "[params]\nnu = 0.8\nchi = 1.0\np = 0.3\nk0 = 0.7\n"
                   "[output]\npath = wavepacket.json\n")
    assert cli.main(["--config", str(cfg)]) == 0
    digest = hashlib.sha256((tmp_path / "wavepacket.json").read_bytes())
    assert digest.hexdigest() == DEFAULT_WAVEPACKET_SHA256


# sha256 of perfbench's seed-0 `series` amplitude tables (32 k points each,
# more than the golden config's 4), as the per-point crossing solve wrote
# them; the batched solve must reproduce them byte for byte
SERIES_AMPLITUDE_SHA256 = {
    "amplitude_ref.csv": (
        "7d89e387911eac591199530eaf7872891b344bc268197486e79a1b3bad706a42",
        "nu = 0.8\nchi = 1.0\np = 0.3\nborn_n = 40\n"),
    "amplitude_slow.json": (
        "46e7df067d09573bbd4e9565bbfb804f26f0c7cba4d598d68d7049bb191c2379",
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
