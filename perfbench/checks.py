"""Correctness gate: every CLI invocation is checked after it exits.

An operation fails on an exit code other than 0 or on an output table
that breaks a check.  Two kinds of check:

* invariants that hold for any seed (closed-form unitarity, flag
  placement in sweeps, Dyson-vs-series agreement, packet channel weights
  and snapshot norms, decreasing Trotter gaps, unit eigenvectors);
* for seed 0 and for the seed-independent probes, agreement with the
  reference tables in ``reference/seed0.json``: row counts, boolean
  columns and snapshot counts exactly, numeric cells at sampled rows to
  within ``|a - b| <= ABS_TOL + REL_TOL * |b|``.  The ``note`` column is
  free text and is not compared.

The deliberately failing targets of the acceptance suite (the
second-order coefficient target and the linear Trotter slope) are never
asserted here.
"""

from __future__ import annotations

import csv
import glob
import json
import math
import os

from workloads import HALF_PI, Op

REL_TOL = 1e-7
ABS_TOL = 1e-10
UNITARITY_TOL = 1e-9      # |1+c|^2 + |c|^2 = 1
DYSON_GAP_TOL = 1e-9      # time-ordered vs series coefficient, same order
WEIGHT_TOL = 1e-9         # packet channel weights and snapshot norms
DEGENERATE_P_TOL = 1e-12  # as in dtscatter.thirring
SAMPLE_ROWS = 64


def _cell(value):
    """CSV text or JSON value -> bool, float (NaN for blanks) or str."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return value == "true" if value in ("true", "false") else value
    if value is None:
        return math.nan
    return value if isinstance(value, bool) else float(value)


def load_table(path: str) -> tuple[list[dict], dict]:
    """(rows, metadata) of a CSV or JSON table written by the CLI."""
    with open(path, encoding="utf-8", newline="") as fh:
        if path.endswith(".json"):
            obj = json.load(fh)
            rows = [{k: _cell(v) for k, v in row.items()} for row in obj["rows"]]
            return rows, obj.get("metadata", {})
        reader = csv.reader(fh)
        header = next(reader)
        return [dict(zip(header, map(_cell, row))) for row in reader], {}


def snapshot_paths(op: Op) -> list[str]:
    if not op.snapshot_prefix:
        return []
    return sorted(glob.glob(f"{glob.escape(op.snapshot_prefix)}[0-9]*.csv"))


def _grid_size(text: str) -> int:
    text = text.strip()
    if ":" in text and "," not in text:
        return int(text.split(":")[2])
    return len(text.split(","))


def expected_rows(op: Op) -> int | None:
    """Row count fixed by the config, where the command defines one."""
    if op.command in ("sweep", "amplitude", "dispersion", "trotter"):
        n = 1
        for text in op.grid.values():
            n *= _grid_size(text)
        return n
    if op.command == "born":
        return op.params["n_max"] + 1
    if op.command == "dyson":
        return 2
    if op.command == "wavepacket":
        return 4
    return None


def _degenerate_p(p: float) -> bool:
    return abs(p - HALF_PI * round(p / HALF_PI)) < DEGENERATE_P_TOL


def _unitarity(rows, name="coefficient"):
    for i, r in enumerate(rows):
        if r["flagged"]:
            continue
        c = complex(r[f"{name}_re"], r[f"{name}_im"])
        err = abs(abs(1.0 + c) ** 2 + abs(c) ** 2 - 1.0)
        if not err <= UNITARITY_TOL:
            yield f"row {i}: |1+c|^2+|c|^2-1 = {err:.3e}"


def _check_sweep(op, rows, snaps):
    yield from _unitarity(rows)
    for i, r in enumerate(rows):
        want = _degenerate_p(r["p"]) or not 0.0 <= r["k"] <= HALF_PI
        if r["flagged"] != want:
            yield (f"row {i} (p={r['p']!r}, k={r['k']!r}): flagged="
                   f"{r['flagged']}, expected {want}")


def _check_dispersion(op, rows, snaps):
    for i, r in enumerate(rows):
        err = abs(r["alpha_up"] ** 2 + r["alpha_dn"] ** 2 - 1.0)
        if r["flagged"] or not err <= UNITARITY_TOL:
            yield f"row {i}: flagged={r['flagged']}, |alpha|^2-1 = {err:.3e}"


def _check_dyson(op, rows, snaps):
    for r in rows:
        if not r["flagged"] and not r["abs_gap"] <= DYSON_GAP_TOL:
            yield f"order {r['order']:.0f}: dyson-series gap {r['abs_gap']:.3e}"


def _check_wavepacket(op, rows, snaps):
    if any(r["flagged"] for r in rows):
        yield "flagged channel rows"
        return
    total = sum(r["weight"] for r in rows)
    if not abs(total - 1.0) <= WEIGHT_TOL:
        yield f"channel weights sum to {total!r}"
    if len(snaps) != op.expected_snapshots:
        yield f"{len(snaps)} snapshot files, expected {op.expected_snapshots}"
    for path, snap in snaps:
        norm = sum(r["re"] ** 2 + r["im"] ** 2 for r in snap)
        if not abs(norm - 1.0) <= WEIGHT_TOL or len(snap) != 4 * op.params["length"]:
            yield f"{path}: {len(snap)} rows, norm {norm!r}"


def _check_trotter(op, rows, snaps):
    gaps = [r["gap"] for r in rows]
    if any(r["flagged"] for r in rows) or not all(g > 0.0 for g in gaps):
        yield f"flagged or non-positive gaps {gaps}"
    elif any(b >= a for a, b in zip(gaps, gaps[1:])):
        yield f"gaps do not decrease with the step: {gaps}"


_INVARIANTS = {
    "sweep": _check_sweep,
    "amplitude": lambda op, rows, snaps: _unitarity(rows),
    "dispersion": _check_dispersion,
    "dyson": _check_dyson,
    "wavepacket": _check_wavepacket,
    "trotter": _check_trotter,
}


def _sample_indices(n: int) -> list[int]:
    if n <= SAMPLE_ROWS:
        return list(range(n))
    return sorted({round(i * (n - 1) / (SAMPLE_ROWS - 1))
                   for i in range(SAMPLE_ROWS)})


def _digest(rows: list[dict]) -> dict:
    """Reference digest of one table: counts, boolean columns, samples."""
    columns = list(rows[0]) if rows else []
    booleans = [c for c in columns if isinstance(rows[0][c], bool)]
    return {
        "rows": len(rows),
        "true_rows": {c: [i for i, r in enumerate(rows) if r[c]]
                      for c in booleans},
        "samples": {str(i): {c: _json_safe(v) for c, v in rows[i].items()
                             if c != "note" and c not in booleans}
                    for i in _sample_indices(len(rows))},
    }


def _json_safe(v):
    return None if isinstance(v, float) and math.isnan(v) else v


def reference_entry(op: Op) -> dict:
    """Digest of the output ``op`` just wrote, for reference/seed0.json."""
    return {"table": _digest(load_table(op.output)[0]),
            "snapshots": [_digest(load_table(p)[0]) for p in snapshot_paths(op)]}


def _close(got, want) -> bool:
    if want is None:
        return isinstance(got, float) and math.isnan(got)
    if isinstance(want, str):
        return got == want
    return (isinstance(got, float)
            and abs(got - want) <= ABS_TOL + REL_TOL * abs(want))


def _compare(where: str, rows: list[dict], ref: dict):
    if len(rows) != ref["rows"]:
        yield f"{where}: {len(rows)} rows, reference {ref['rows']}"
        return
    for col, want in ref["true_rows"].items():
        got = [i for i, r in enumerate(rows) if r.get(col) is True]
        if got != want:
            yield f"{where}: column {col!r} differs from the reference"
    for i, cells in ref["samples"].items():
        row = rows[int(i)]
        for col, want in cells.items():
            if not _close(row.get(col), want):
                yield f"{where}: row {i} {col} = {row.get(col)!r}, reference {want!r}"


def check(op: Op, exit_code: int, reference: dict | None) -> tuple[list[str], dict]:
    """Problems found in one invocation's output (empty list = passed),
    plus the table's metadata.  Reads files relative to the working
    directory."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    if not os.path.exists(op.output):
        return [f"no output {op.output}"], {}
    rows, metadata = load_table(op.output)
    snaps = [(path, load_table(path)[0]) for path in snapshot_paths(op)]
    problems = []
    want = expected_rows(op)
    if want is not None and len(rows) != want:
        problems.append(f"{len(rows)} rows, expected {want}")
    elif op.command in _INVARIANTS:
        problems.extend(_INVARIANTS[op.command](op, rows, snaps))
    if reference is not None:
        problems.extend(_compare(op.output, rows, reference["table"]))
        if len(snaps) != len(reference["snapshots"]):
            problems.append(f"{len(snaps)} snapshots, reference "
                            f"{len(reference['snapshots'])}")
        else:
            for (path, snap), ref in zip(snaps, reference["snapshots"]):
                problems.extend(_compare(path, snap, ref))
    return problems, metadata


def remove_outputs(op: Op) -> None:
    for path in [op.output, *snapshot_paths(op)]:
        if os.path.exists(path):
            os.remove(path)
