"""Every CLI command's table, byte for byte, against a committed output.

``tests/golden/<command>.cfg`` is a small config that writes to a relative
path; the file of that name beside it is the output the CLI produced with
SOURCE_DATE_EPOCH=0.  A refactor that claims to leave the numbers alone
must keep these files unchanged.  After an intended output change,
regenerate them from inside ``tests/golden`` with
``SOURCE_DATE_EPOCH=0 dtscatter --config <command>.cfg``.
"""

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
