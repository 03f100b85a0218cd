"""Line-oriented run configuration: `key = value` under `[section]` headers.

Sections: [run] (command, seed), [params] (scalar physics
parameters), [grid] (swept variables; values are comma lists or
inclusive ranges `lo:hi:count`), [output] (path; a `.json` suffix
writes JSON, any other CSV).  Comments start with `#`; blank lines are
ignored.  Parsing collects every problem (with line numbers) before
failing, and reports them all in one line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

COMMANDS = ("dispersion", "amplitude", "born", "dyson", "trotter",
            "wavepacket", "sweep")

# command -> (required params, optional params with defaults, allowed grids,
#             required grids)
_SCHEMAS = {
    "dispersion": (("nu",), {}, ("k",), ("k",)),
    "amplitude": (("nu", "chi", "p"), {"born_n": 12}, ("k",), ("k",)),
    "born": (("nu", "chi", "p", "k"), {"n_max": 40}, (), ()),
    "dyson": (("nu", "chi", "p", "k"), {"quad_n": 32768}, (), ()),
    "trotter": ((), {"n": 128, "omega_max": 2.0, "mode_index": 32,
                     "eps_ref": 0.2}, ("tau",), ("tau",)),
    "wavepacket": (("nu", "chi", "p", "k0"),
                   {"sigma_x": 64.0, "length": 4096, "t_steps": 900,
                    "snapshot_every": 0, "snapshot_prefix": ""},
                   (), ()),
    "sweep": (("nu", "chi", "p"), {}, ("nu", "chi", "p", "k"), ("k",)),
}

# an optional parameter's default fixes its type
_DEFAULTS = {key: v for schema in _SCHEMAS.values()
             for key, v in schema[1].items()}
_INT_PARAMS = {key for key, v in _DEFAULTS.items() if isinstance(v, int)}
_STR_PARAMS = {key for key, v in _DEFAULTS.items() if isinstance(v, str)}
# largest ring: a trotter model and sweep hold about 320 bytes per site,
# a wavepacket run about 450
MAX_RING_SITES = 1 << 20
# most entries of one grid, of the points a sweep runs over, of a dyson
# run's quadrature nodes and of the snapshots a wavepacket run writes
MAX_GRID_POINTS = 1 << 20
# most Born terms one run sums, each held as a partial sum and a ratio:
# n_max + 1 for born, (k points) x (born_n + 1) for amplitude
MAX_BORN_TERMS = 1 << 20


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict
    grids: dict
    output_path: str
    output_format: str
    seed: int = 0
    source_lines: dict = field(default_factory=dict, compare=False)


def _loc(lineno: int) -> str:
    """Human label for where a value came from (0 = --set override)."""
    return f"line {lineno}" if lineno else "override"


def _parse_scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_grid_value(text: str, lineno: int, problems: list):
    text = text.strip()
    if not text:
        return []  # an empty grid is legal: zero rows, successful run
    if ":" in text and "," not in text:
        parts = text.split(":")
        if len(parts) != 3:
            problems.append(f"{_loc(lineno)}: range syntax is lo:hi:count, "
                            f"got {text!r}")
            return []
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            problems.append(f"{_loc(lineno)}: malformed range {text!r}")
            return []
        if count < 1:
            problems.append(f"{_loc(lineno)}: range count must be >= 1")
            return []
        if count > MAX_GRID_POINTS:
            problems.append(f"{_loc(lineno)}: range count must be <= "
                            f"{MAX_GRID_POINTS}, got {count}")
            return []
        return [float(v) for v in np.linspace(lo, hi, count)]
    pieces = text.split(",")
    if len(pieces) > MAX_GRID_POINTS:
        problems.append(f"{_loc(lineno)}: a grid holds at most "
                        f"{MAX_GRID_POINTS} entries, got {len(pieces)}")
        return []
    out = []
    for piece in pieces:
        v = _parse_scalar(piece)
        if isinstance(v, str):
            problems.append(f"{_loc(lineno)}: grid entry {piece.strip()!r} "
                            f"is not a number")
            return []
        out.append(float(v))
    return out


def _scan(text: str):
    """Raw pass: ({section: {key: (value_text, lineno)}}, problems)."""
    sections: dict = {}
    problems: list = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in ("run", "params", "grid", "output"):
                problems.append(f"line {lineno}: unknown section [{current}]")
                current = None
            else:
                sections.setdefault(current, {})
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected `key = value`, "
                            f"got {line!r}")
            continue
        if current is None:
            problems.append(f"line {lineno}: assignment outside any section")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key in sections[current]:
            first = sections[current][key][1]
            problems.append(f"lines {first} and {lineno}: duplicate key "
                            f"{key!r} in [{current}]")
            continue
        sections[current][key] = (value, lineno)
    return sections, problems


_RUN_KEYS = ("command", "seed")
_OUTPUT_KEYS = ("path",)


def _apply_overrides(sections: dict, overrides, problems: list) -> None:
    """Apply `--set key=value` pairs on top of the scanned file.

    A dotted key (`grid.k=0.1,0.2`) names its section explicitly; a bare
    key is routed to [run]/[output] when it is one of their fixed keys,
    to whichever section already defines it, and otherwise by the active
    command's schema (scalar parameter first, grid name second).
    Overrides replace file values instead of tripping the duplicate-key
    check, and carry pseudo line number 0.
    """
    for item in overrides:
        if "=" not in item:
            problems.append(f"override {item!r}: expected key=value")
            continue
        key, value = (part.strip() for part in item.split("=", 1))
        section = None
        if "." in key:
            section, key = (part.strip() for part in key.split(".", 1))
            if section not in ("run", "params", "grid", "output"):
                problems.append(f"override {item!r}: unknown section "
                                f"{section!r}")
                continue
        elif key in _RUN_KEYS:
            section = "run"
        elif key in _OUTPUT_KEYS:
            section = "output"
        else:
            hits = [s for s in ("params", "grid") if key in sections.get(s, {})]
            if len(hits) == 1:
                section = hits[0]
            else:
                command = sections.get("run", {}).get("command", (None,))[0]
                schema = _SCHEMAS.get(command)
                if (schema is not None
                        and key not in set(schema[0]) | set(schema[1])
                        and key in schema[2]):
                    section = "grid"
                else:
                    section = "params"
        sections.setdefault(section, {})[key] = (value, 0)


def _check_physics(params: dict, lines: dict, problems: list):
    def line_of(*keys):
        locs = ", ".join(dict.fromkeys(_loc(lines[key]) for key in keys
                                       if key in lines))
        return f"{locs}: " if locs else ""

    bad = {key for key, v in params.items()
           if isinstance(v, float) and not np.isfinite(v)}
    for key in sorted(bad):
        problems.append(f"{line_of(key)}{key} must be finite, "
                        f"got {params[key]}")
    params = {key: v for key, v in params.items() if key not in bad}
    nu = params.get("nu")
    if nu is not None and not 0.0 <= nu <= 1.0:
        problems.append(f"{line_of('nu')}nu must lie in [0, 1], got {nu}")
    sigma = params.get("sigma_x")
    if sigma is not None and sigma < 8.0:
        problems.append(f"{line_of('sigma_x')}sigma_x must be >= 8, "
                        f"got {sigma}")
    for key in ("length", "t_steps", "n", "quad_n", "n_max", "born_n",
                "omega_max", "eps_ref"):
        v = params.get(key)
        if v is not None and v <= 0:
            problems.append(f"{line_of(key)}{key} must be positive, got {v}")
    every = params.get("snapshot_every")
    if every is not None and every < 0:
        problems.append(f"{line_of('snapshot_every')}snapshot_every must be "
                        f">= 0, got {every}")
    for key, bound in (("n", MAX_RING_SITES), ("length", MAX_RING_SITES),
                       ("quad_n", MAX_GRID_POINTS),
                       ("n_max", MAX_BORN_TERMS - 1)):
        v = params.get(key)
        if v is not None and v > bound:
            problems.append(f"{line_of(key)}{key} must be <= {bound}, "
                            f"got {v}")
    t_steps = params.get("t_steps")
    if t_steps is not None and t_steps > 0 and every is not None and every > 0:
        count = -(-2 * t_steps // every) + 1   # cli._snapshot_steps
        if count > MAX_GRID_POINTS:
            problems.append(f"{line_of('t_steps', 'snapshot_every')}a "
                            f"wavepacket run writes at most {MAX_GRID_POINTS} "
                            f"snapshots, got {count} (t_steps = {t_steps}, "
                            f"snapshot_every = {every})")
    mode_index, n = params.get("mode_index"), params.get("n")
    if mode_index is not None and n is not None and not 0 <= mode_index < n:
        problems.append(f"{line_of('mode_index')}mode_index must lie in "
                        f"[0, n) = [0, {n}), got {mode_index}")


def parse_config(text: str, overrides=()) -> RunConfig:
    """Parse and fully validate; raises one error listing every problem."""
    sections, problems = _scan(text)
    _apply_overrides(sections, overrides, problems)
    run = sections.get("run", {})
    params_raw = sections.get("params", {})
    grid_raw = sections.get("grid", {})
    output = sections.get("output", {})

    command = None
    if "command" not in run:
        problems.append("missing required key `command` in [run]")
    else:
        command = run["command"][0]
        if command not in COMMANDS:
            problems.append(f"{_loc(run['command'][1])}: unknown command "
                            f"{command!r} (choose from {', '.join(COMMANDS)})")
            command = None

    seed = 0
    if "seed" in run:
        v = _parse_scalar(run["seed"][0])
        if not isinstance(v, int):
            problems.append(f"{_loc(run['seed'][1])}: seed must be an integer")
        else:
            seed = v
    for key in run:
        if key not in _RUN_KEYS:
            problems.append(f"{_loc(run[key][1])}: unknown key {key!r} in [run]")

    out_path = output.get("path", ("results.csv",))[0]
    for key in output:
        if key not in _OUTPUT_KEYS:
            problems.append(f"{_loc(output[key][1])}: unknown key {key!r} "
                            f"in [output]")

    params: dict = {}
    lines: dict = {}
    grids: dict = {}
    if command is not None:
        required, optional, allowed_grids, required_grids = _SCHEMAS[command]
        known = set(required) | set(optional)
        for key, (value, lineno) in params_raw.items():
            if key not in known:
                problems.append(f"{_loc(lineno)}: unknown key {key!r} for "
                                f"command {command!r}")
                continue
            v = _parse_scalar(value)
            lines[key] = lineno
            if key in _STR_PARAMS:
                params[key] = str(v)
            elif key in _INT_PARAMS:
                if not isinstance(v, int):
                    problems.append(f"{_loc(lineno)}: {key} must be an "
                                    f"integer, got {value!r}")
                else:
                    params[key] = v
            else:
                if isinstance(v, str):
                    problems.append(f"{_loc(lineno)}: {key} must be a number, "
                                    f"got {value!r}")
                else:
                    params[key] = float(v)
        for key, (value, lineno) in grid_raw.items():
            if key not in allowed_grids:
                problems.append(f"{_loc(lineno)}: {key!r} cannot be swept for "
                                f"command {command!r}")
                continue
            vals = _parse_grid_value(value, lineno, problems)
            if not np.all(np.isfinite(vals)):
                problems.append(f"{_loc(lineno)}: grid {key!r} must hold "
                                f"finite values only")
            grids[key] = vals
        if command == "sweep":
            # one row per point of the product; a scalar axis counts once
            axes = [key for key in allowed_grids if key in grids]
            total = 1
            for key in axes:
                total *= len(grids[key])
            if total > MAX_GRID_POINTS:
                where = ", ".join(dict.fromkeys(_loc(grid_raw[key][1])
                                                for key in axes))
                sizes = " x ".join(f"{len(grids[key])} {key}" for key in axes)
                problems.append(f"{where}: a sweep runs at most "
                                f"{MAX_GRID_POINTS} points, got {total} "
                                f"({sizes})")
        for key in sorted(set(params) & set(grids)):
            problems.append(f"{key!r} is given both as a scalar in [params] "
                            f"and as a grid in [grid]")
        for key in required:
            if key not in params and key not in grids:
                problems.append(f"missing required parameter {key!r} for "
                                f"command {command!r}")
        for key in required_grids:
            if key not in grids:
                problems.append(f"missing required grid {key!r} for "
                                f"command {command!r}")
        for key, default in optional.items():
            params.setdefault(key, default)
        _check_physics(params, lines, problems)
        if command == "amplitude" and "k" in grids and params["born_n"] > 0:
            # every point's series is held until the table is built
            total = len(grids["k"]) * (params["born_n"] + 1)
            if total > MAX_BORN_TERMS:
                where = ", ".join(dict.fromkeys(
                    _loc(n) for n in (grid_raw["k"][1], lines.get("born_n"))
                    if n is not None))
                problems.append(f"{where}: an amplitude run sums at most "
                                f"{MAX_BORN_TERMS} Born terms, got {total} "
                                f"({len(grids['k'])} k x "
                                f"{params['born_n'] + 1} orders)")

    if problems:
        raise ConfigError("config validation failed: " + "; ".join(problems),
                          problems=problems)
    return RunConfig(
        command=command,
        params=params,
        grids=grids,
        output_path=out_path,
        output_format="json" if out_path.endswith(".json") else "csv",
        seed=seed,
        source_lines=lines,
    )
