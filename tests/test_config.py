"""Run-configuration parsing: schemas, grids, overrides, collected problems."""

import numpy as np
import pytest

from dtscatter.config import MAX_GRID_POINTS, RunConfig, parse_config
from dtscatter.errors import ConfigError

AMPLITUDE_CFG = """\
[run]
command = amplitude
[params]
nu = 0.8
chi = 1.0
p = 0.3
[grid]
k = 0.2, 0.7, 1.3
[output]
path = out.json
"""


def test_minimal_amplitude_config():
    cfg = parse_config(AMPLITUDE_CFG)
    assert isinstance(cfg, RunConfig)
    assert cfg.command == "amplitude"
    assert cfg.params["nu"] == 0.8
    assert cfg.params["born_n"] == 12          # schema default merged in
    assert cfg.grids["k"] == [0.2, 0.7, 1.3]
    assert cfg.output_path == "out.json"
    assert cfg.output_format == "json"         # inferred from the suffix
    assert cfg.seed == 0


def test_format_inference_and_override():
    # the path's suffix is the only say in the format: no key overrides it
    cfg = parse_config(AMPLITUDE_CFG.replace("path = out.json",
                                             "path = out.csv"))
    assert cfg.output_format == "csv"
    with pytest.raises(ConfigError, match="line 11: unknown key 'format' in "
                                          r"\[output\]"):
        parse_config(AMPLITUDE_CFG + "format = csv\n")


def test_range_grid_is_inclusive():
    cfg = parse_config(AMPLITUDE_CFG.replace("k = 0.2, 0.7, 1.3",
                                             "k = 0:1:5"))
    np.testing.assert_allclose(cfg.grids["k"], [0.0, 0.25, 0.5, 0.75, 1.0])


def test_empty_grid_is_legal():
    cfg = parse_config(AMPLITUDE_CFG.replace("k = 0.2, 0.7, 1.3", "k ="))
    assert cfg.grids["k"] == []


def test_duplicate_key_reports_both_lines():
    bad = AMPLITUDE_CFG + "[params]\nnu = 0.9\n"
    # re-opening the section hits the duplicate check on `nu`
    with pytest.raises(ConfigError, match=r"lines 4 and \d+: duplicate key 'nu'"):
        parse_config(bad)


def test_problems_are_collected_not_first_fail():
    bad = """\
[run]
command = dispersion
seed = abc
[params]
nu = 1.2
wibble = 3
[grid]
k = 0.1, frog
[wrong]
"""
    with pytest.raises(ConfigError) as excinfo:
        parse_config(bad)
    msgs = excinfo.value.problems
    assert len(msgs) >= 5
    joined = "\n".join(msgs)
    assert "seed must be an integer" in joined
    assert "nu must lie in [0, 1]" in joined and "line 6" in joined
    assert "unknown key 'wibble' for command 'dispersion'" in joined
    assert "grid entry 'frog' is not a number" in joined
    assert "unknown section [wrong]" in joined


def test_bad_command_short_circuits_schema_checks():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("[run]\ncommand = warp\n")
    assert any("unknown command 'warp'" in p for p in excinfo.value.problems)


def test_syntax_problems():
    with pytest.raises(ConfigError, match="expected `key = value`"):
        parse_config("[run]\ncommand = dispersion\nbogus line\n[params]\n"
                     "nu = 0.8\n[grid]\nk = 0.1\n")
    with pytest.raises(ConfigError, match="assignment outside any section"):
        parse_config("command = dispersion\n")
    with pytest.raises(ConfigError, match="missing required key `command`"):
        parse_config("[params]\nnu = 0.8\n")


def test_schema_rejects_stray_keys_and_grids():
    with pytest.raises(ConfigError, match="unknown key 'sigma_x' for command"):
        parse_config(AMPLITUDE_CFG.replace("p = 0.3", "p = 0.3\nsigma_x = 32"))
    born = """\
[run]
command = born
[params]
nu = 0.8
chi = 1.0
p = 0.3
k = 0.7
[grid]
k = 0.1, 0.2
[output]
path = b.csv
"""
    with pytest.raises(ConfigError, match="'k' cannot be swept for command 'born'"):
        parse_config(born)


def test_missing_required_parts():
    with pytest.raises(ConfigError, match="missing required parameter 'chi'"):
        parse_config(AMPLITUDE_CFG.replace("chi = 1.0\n", ""))
    with pytest.raises(ConfigError, match="missing required grid 'k'"):
        parse_config(AMPLITUDE_CFG.replace("k = 0.2, 0.7, 1.3\n", ""))


def test_scalar_and_grid_conflict():
    sweep = """\
[run]
command = sweep
[params]
nu = 0.8
chi = 1.0
p = 0.3
[grid]
nu = 0.5, 0.8
k = 0.7
[output]
path = s.csv
"""
    with pytest.raises(ConfigError,
                       match="'nu' is given both as a scalar .* and as a grid"):
        parse_config(sweep)


def test_run_section_validation():
    cfg = parse_config(AMPLITUDE_CFG + "[run]\nseed = 7\n")
    assert cfg.seed == 7
    with pytest.raises(ConfigError, match="unknown key 'threads' in \\[run\\]"):
        parse_config(AMPLITUDE_CFG + "[run]\nthreads = 3\n")
    with pytest.raises(ConfigError, match="unknown key 'verbose' in \\[run\\]"):
        parse_config(AMPLITUDE_CFG + "[run]\nverbose = 1\n")


def test_integer_and_string_params():
    wp = """\
[run]
command = wavepacket
[params]
nu = 0.8
chi = 1.0
p = 0.3
k0 = 0.7
snapshot_prefix = dump_
[output]
path = w.json
"""
    cfg = parse_config(wp)
    assert cfg.params["snapshot_prefix"] == "dump_"
    assert cfg.params["t_steps"] == 900        # default, integer
    def with_param(extra):
        return wp.replace("k0 = 0.7", f"k0 = 0.7\n{extra}")

    with pytest.raises(ConfigError, match="t_steps must be an integer"):
        parse_config(with_param("t_steps = 12.5"))
    with pytest.raises(ConfigError, match="sigma_x must be >= 8"):
        parse_config(with_param("sigma_x = 4"))
    with pytest.raises(ConfigError, match="length must be positive"):
        parse_config(with_param("length = -16"))


def test_overrides_dotted_and_bare():
    cfg = parse_config(AMPLITUDE_CFG, overrides=("params.chi=2.5",))
    assert cfg.params["chi"] == 2.5
    # bare keys: fixed [run]/[output] names, then existing sections, then schema
    cfg = parse_config(AMPLITUDE_CFG, overrides=("seed=9", "path=x.csv",
                                                 "nu=0.5", "k=0.1,0.9"))
    assert cfg.seed == 9
    assert cfg.output_path == "x.csv" and cfg.output_format == "csv"
    assert cfg.params["nu"] == 0.5
    assert cfg.grids["k"] == [0.1, 0.9]        # routed to [grid], not [params]
    # overrides replace file values without tripping the duplicate-key check
    assert "line" not in repr(cfg.source_lines.get("nu", ""))


def test_override_validation():
    with pytest.raises(ConfigError, match="override 'chi': expected key=value"):
        parse_config(AMPLITUDE_CFG, overrides=("chi",))
    with pytest.raises(ConfigError, match="unknown section 'blorp'"):
        parse_config(AMPLITUDE_CFG, overrides=("blorp.x=1",))
    # a bad value through an override is located as 'override', not a line
    with pytest.raises(ConfigError, match="override: chi must be a number"):
        parse_config(AMPLITUDE_CFG, overrides=("params.chi=hot",))


SWEEP_CFG = """\
[run]
command = sweep
[params]
nu = 0.8
chi = 1.0
[grid]
p = 0:1:1024
k = 0:1:1024
[output]
path = out.csv
"""


def test_grid_sizes_are_bounded():
    # the bound is on the product of the swept axes; scalar axes count once
    assert MAX_GRID_POINTS == 1024 * 1024
    cfg = parse_config(SWEEP_CFG)
    assert len(cfg.grids["p"]) * len(cfg.grids["k"]) == MAX_GRID_POINTS
    with pytest.raises(ConfigError) as excinfo:
        parse_config(SWEEP_CFG.replace("p = 0:1:1024", "p = 0:1:1025"))
    assert excinfo.value.problems == [
        "line 7, line 8: a sweep runs at most 1048576 points, got 1049600 "
        "(1025 p x 1024 k)"]
    with pytest.raises(ConfigError) as excinfo:
        parse_config(SWEEP_CFG.replace("chi = 1.0\n", ""),
                     overrides=("grid.chi=0.5,1.0",))
    assert excinfo.value.problems == [
        "override, line 6, line 7: a sweep runs at most 1048576 points, "
        "got 2097152 (2 chi x 1024 p x 1024 k)"]
    # one grid: a range count, or a comma list's entries
    with pytest.raises(ConfigError) as excinfo:
        parse_config(AMPLITUDE_CFG.replace("k = 0.2, 0.7, 1.3",
                                           "k = 0:1:1048577"))
    assert excinfo.value.problems == [
        "line 8: range count must be <= 1048576, got 1048577"]
    with pytest.raises(ConfigError) as excinfo:
        parse_config(AMPLITUDE_CFG.replace("k = 0.2, 0.7, 1.3",
                                           "k = " + "0," * MAX_GRID_POINTS))
    assert excinfo.value.problems == [
        "line 8: a grid holds at most 1048576 entries, got 1048577"]
