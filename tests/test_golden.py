"""Every CLI command's table, byte for byte, against a committed output.

``tests/golden/<command>.cfg`` is a small config that writes to a relative
path; the file of that name beside it is the output the CLI produced with
SOURCE_DATE_EPOCH=0.  A refactor that claims to leave the numbers alone
must keep these files unchanged.  After an intended output change,
regenerate them from inside ``tests/golden`` with
``SOURCE_DATE_EPOCH=0 dtscatter --config <command>.cfg``.
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
