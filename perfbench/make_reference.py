#!/usr/bin/env python3
"""Regenerate reference/seed0.json from the current checkout.

    python3 perfbench/make_reference.py

Runs every seed-0 pass command of every workload, and every probe, once;
checks each output against the seed-independent invariants; and stores a
digest of each table (see checks.py).  Regenerate only when a change to
the program's output is intended, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import HERE, REFERENCE, child_env, spawn
import checks
from workloads import WORKLOADS, pass_ops, probe_ops


def main() -> int:
    ops = {}
    for workload in WORKLOADS:
        for op in pass_ops(workload, 0) + probe_ops(workload):
            ops[op.label] = op
    workdir = HERE / "_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    entries = {}
    try:
        env = child_env()
        for label, op in sorted(ops.items()):
            with open(f"{label}.cfg", "w", encoding="utf-8") as fh:
                fh.write(op.config_text())
            rec = spawn(["0", f"{label}.cfg"], label, env)
            problems, _ = checks.check(op, rec.get("exit", rec["child_exit"]), None)
            if rec["child_exit"] != 0 or problems:
                print(f"{label}: {problems or 'child failed'}", file=sys.stderr)
                return 1
            entries[label] = checks.reference_entry(op)
            print(f"{label}: {entries[label]['table']['rows']} rows, "
                  f"{len(entries[label]['snapshots'])} snapshots")
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.parent.mkdir(exist_ok=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
