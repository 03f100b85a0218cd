#!/usr/bin/env python3
"""dtscatter CLI benchmark: one command per fresh interpreter.

    python3 perfbench/run.py --workload {closed,series,packet} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  run.py generates the workload's configs from the
seed, then repeats rounds for about S seconds.  One process (this one) runs
every command sequentially, keeping the program's default threading (no
``threads`` key, ``DTSCATTER_THREADS`` removed from the environment).

``--trace 0``: a round is one pass over the workload's commands with the
workload's extra invocations (probes of the commands the pass does not
run, repeats of its short commands; workloads.extra_ops) spread between
them.  Rounds repeat until the next invocation would end past S seconds.
Reported: every end-to-end metric of BENCHMARK.json, built from each
config's median over its invocations (untraced_values).  Times are scaled
to a reference host speed by each child's calibration loops
(CALIBRATE_REF_S); the values as measured are printed beside them.  The
record lists every invocation.

``--trace 1``: a round is one untraced pass, then one traced pass whose
children wrap dtscatter's public functions (tracer.py).  Reported: every
per-layer metric, as the median over traced passes; trace.overhead_s is
traced minus untraced median pass time.

Every invocation is checked (checks.py) and counts as failed on a bad exit
code or table.  The last line of standard output is the JSON result; the
lines before it give each metric with its sample count and the run record
(commit, seed, versions, thread counts).  The record is also written to
perfbench/_out/, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import (WORKLOADS, Op, extra_ops, pass_ops, probe_ops,  # noqa: E402
                       round_schedule)

ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = HERE / "_out"
REFERENCE = HERE / "reference" / "seed0.json"
CHILD_TIMEOUT_S = 60
# Time of child.calibrate() on a 2.1 GHz Xeon vCPU when the host is not
# slowing it.  An untraced invocation's times are multiplied by its speed,
# CALIBRATE_REF_S over the mean of its two calibration loops, so every
# end-to-end time is in seconds at that reference speed (README.md, "Host
# speed").
CALIBRATE_REF_S = 0.0065


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DTSCATTER_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["SOURCE_DATE_EPOCH"] = "0"
    return env


def spawn(args: list[str], tag: str, env: dict) -> dict:
    """Run ``child.py args...`` in the working directory and wait for it.

    Returns the child's own record plus wall time (spawn to exit), exit
    status, CPU seconds and max RSS from wait4's rusage.
    """
    record_path = f"{tag}.record.json"
    log = os.open(f"{tag}.log", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        actions = [(os.POSIX_SPAWN_DUP2, log, 1), (os.POSIX_SPAWN_DUP2, log, 2)]
        start = time.monotonic()
        pid = os.posix_spawn(sys.executable,
                             [sys.executable, str(CHILD), repr(start),
                              record_path, *args],
                             env, file_actions=actions)
    finally:
        os.close(log)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except ChildTimeout:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise RuntimeError(f"{tag}: no exit within {CHILD_TIMEOUT_S} s")
    finally:
        signal.alarm(0)
    wall = time.monotonic() - start
    code = os.waitstatus_to_exitcode(status)
    record = {}
    if code == 0 and os.path.exists(record_path):
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
        os.remove(record_path)
    record.update(spawn_t=start, wall_s=wall, child_exit=code,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  maxrss_mb=usage.ru_maxrss / 1024.0)
    return record


def _log_tail(tag: str) -> str:
    try:
        with open(f"{tag}.log", encoding="utf-8", errors="replace") as fh:
            return fh.read()[-2000:]
    except OSError:
        return ""


class Runner:
    """Runs and checks invocations inside one work directory."""

    def __init__(self, workload: str, seed: int, references: dict):
        self.env = child_env()
        self.references = references
        self.use_seed_reference = seed == 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sweep_workers = None
        self.invocations = 0
        self.ops = pass_ops(workload, seed)
        self.probes = probe_ops(workload)
        self.extra = extra_ops(workload, seed)
        for op in self.ops + self.probes:
            with open(f"{op.label}.cfg", "w", encoding="utf-8") as fh:
                fh.write(op.config_text())

    def environment(self) -> dict:
        rec = spawn(["0"], "environment", self.env)
        if rec["child_exit"] != 0:
            raise RuntimeError("cannot import dtscatter.cli from "
                               f"{SRC}:\n{_log_tail('environment')}")
        return rec["environment"]

    def invoke(self, op: Op, trace: bool, probe: bool) -> dict:
        checks.remove_outputs(op)
        self.invocations += 1
        tag = f"{op.label}.{self.invocations}"
        rec = spawn(["1" if trace else "0", f"{op.label}.cfg"], tag, self.env)
        if rec["child_exit"] != 0:
            raise RuntimeError(f"{tag}: benchmark child failed "
                               f"(exit {rec['child_exit']}):\n{_log_tail(tag)}")
        reference = None
        if self.use_seed_reference or probe:
            reference = self.references.get(op.label)
            if reference is None:
                raise RuntimeError(f"no reference for {op.label} in {REFERENCE}")
        problems, metadata = checks.check(op, rec["exit"], reference)
        if "workers" in metadata:
            self.sweep_workers = metadata["workers"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op.label}: {p}" for p in problems[:5])
            if rec["exit"] != 0:
                self.problems.append(f"{op.label}: {_log_tail(tag)[-500:]}")
        checks.remove_outputs(op)
        os.remove(f"{tag}.log")
        rec["invocation"] = tag
        return rec


def median(values):
    return statistics.median(values) if values else 0.0


def sample_summary(values) -> dict:
    """Median, count and values, plus the highest of p90/p99 that has at
    least ten samples beyond it."""
    out = {"median": median(values), "n": len(values), "values": values}
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
            break
    return out


def config_samples(log: list[dict], scaled: bool) -> dict[str, list]:
    """Per config, the invocations' ``cmd_s`` and wall times (less the
    calibration loops), under ``<label>.cmd_s`` and ``<label>.wall_s``,
    plus every invocation's ``setup_s``.  With ``scaled`` each time is
    multiplied by its invocation's ``speed``."""
    out: dict[str, list] = {"setup_s": []}
    for e in log:
        k = e["speed"] if scaled else 1.0
        out["setup_s"].append(e["setup_s"] * k)
        out.setdefault(f"{e['label']}.cmd_s", []).append(e["cmd_s"] * k)
        out.setdefault(f"{e['label']}.wall_s", []).append(
            (e["wall_s"] - sum(e["calibrate_s"])) * k)
    return out


def untraced_values(log: list[dict], pass_labels: list[str], scaled: bool):
    """Every end-to-end metric of an untraced run, and the fewest samples
    behind each.

    Each config's median is taken over all its invocations, in the pass or
    not.  ``pass_s`` sums the median wall times of the pass's configs,
    ``cmd_s.<command>`` the median ``cli.main`` times of the command's
    configs, and ``peak_rss_mb`` is the largest max-RSS of any invocation
    of a pass config.  ``setup_s`` is the median over all invocations."""
    samples = config_samples(log, scaled)
    values = {"setup_s": median(samples["setup_s"]),
              "pass_s": sum(median(samples[f"{label}.wall_s"])
                            for label in pass_labels),
              "peak_rss_mb": max(e["maxrss_mb"] for e in log
                                 if e["label"] in pass_labels)}
    counts = {"setup_s": len(log),
              "pass_s": min(len(samples[f"{label}.wall_s"]) for label in pass_labels)}
    counts["peak_rss_mb"] = counts["pass_s"]
    commands = {e["label"]: e["command"] for e in log}
    for label, command in commands.items():
        key, times = f"cmd_s.{command}", samples[f"{label}.cmd_s"]
        values[key] = values.get(key, 0.0) + median(times)
        counts[key] = min(counts.get(key, len(times)), len(times))
    return values, counts


def run_untraced(runner: Runner, seconds: float) -> list[dict]:
    """Rounds of the pass with its extra invocations spread between the
    pass commands (round_schedule), for about ``seconds``: after the first
    round, the run stops before an invocation that would end past the
    deadline if it took as long as its config's last one.  Returns the log
    of every invocation."""
    log: list[dict] = []
    last_wall: dict[str, float] = {}
    start = time.monotonic()
    deadline = start + seconds
    rounds = 0
    while True:
        for op, in_pass in round_schedule(runner.ops, runner.extra, rounds):
            if rounds and time.monotonic() + last_wall[op.label] > deadline:
                return log
            rec = runner.invoke(op, False, op in runner.probes)
            last_wall[op.label] = rec["wall_s"]
            log.append({
                "round": rounds, "label": op.label, "command": op.command,
                "in_pass": in_pass, "t_s": rec["spawn_t"] - start,
                "wall_s": rec["wall_s"], "setup_s": rec["setup_s"],
                "cmd_s": rec["cmd_s"], "maxrss_mb": rec["maxrss_mb"],
                "calibrate_s": rec["calibrate_s"],
                "speed": CALIBRATE_REF_S / statistics.fmean(rec["calibrate_s"])})
        rounds += 1


def _zero_layer_metrics() -> dict:
    out = {}
    for module, attr in tracer.TARGETS:
        out[f"{module}.{attr}.calls"] = 0.0
        out[f"{module}.{attr}.busy_s"] = 0.0
    for name, (counter, _) in tracer.COUNTERS.items():
        out[f"{name}.{counter}"] = 0.0
    for layer in tracer.LAYERS:
        out[f"layer.{layer}.self_s"] = 0.0
    out["cli.self_s"] = 0.0
    return out


def _pass_layer_metrics(recs: list[dict]) -> dict:
    out = _zero_layer_metrics()
    for rec in recs:
        summary = tracer.summarize(rec["trace"])
        for name, n in summary["calls"].items():
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0.0) + n
        for name, t in summary["busy"].items():
            out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + t
        for key, n in summary["counters"].items():
            out[key] += n
        for layer, t in summary["layer_self"].items():
            out[f"layer.{layer}.self_s"] += t
        out["cli.self_s"] += summary["self"].get(tracer.ROOT, 0.0)
    born_calls = out["thirring.born_series_thirring.calls"]
    out["thirring.born_series_thirring.converged_frac"] = (
        out.pop("thirring.born_series_thirring.converged") / born_calls
        if born_calls else 0.0)
    return out


def run_traced(runner: Runner, seconds: float):
    ops = runner.ops
    untraced, traced, cpu = [], [], []
    per_pass: list[dict] = []
    spans = []
    start = time.monotonic()
    deadline = start + seconds
    while True:
        recs = [runner.invoke(op, False, False) for op in ops]
        untraced.append(sum(r["wall_s"] - sum(r["calibrate_s"]) for r in recs))
        cpu.append(sum(r["cpu_s"] for r in recs))
        recs = [runner.invoke(op, True, False) for op in ops]
        traced.append(sum(r["wall_s"] for r in recs))
        per_pass.append(_pass_layer_metrics(recs))
        spans.extend({"invocation": r["invocation"], **r["trace"]} for r in recs)
        now = time.monotonic()
        if now + (now - start) / len(traced) > deadline:
            break
    samples = {key: [m[key] for m in per_pass] for key in per_pass[0]}
    samples["proc.cpu_s"] = cpu
    samples["proc.untraced_pass_s"] = untraced
    samples["proc.traced_pass_s"] = traced
    overhead = median(traced) - median(untraced)
    return samples, overhead, spans


def commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dtscatter" / "cli.py").is_file():
        print(f"error: no dtscatter sources at {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    with open(REFERENCE, encoding="utf-8") as fh:
        references = json.load(fh)

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        runner = Runner(args.workload, args.seed, references)
        environment = runner.environment()
        spans = log = measured = None
        if args.trace:
            samples, overhead, spans = run_traced(runner, args.seconds)
            values = {key: median(v) for key, v in samples.items()}
            values["trace.overhead_s"] = overhead
            counts = {key: len(v) for key, v in samples.items()}
        else:
            log = run_untraced(runner, args.seconds)
            pass_labels = [op.label for op in runner.ops]
            values, counts = untraced_values(log, pass_labels, True)
            measured, _ = untraced_values(log, pass_labels, False)
            samples = config_samples(log, True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    environment.update(sweep_pool_width=runner.sweep_workers)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit(),
        "environment": environment,
        "attempted": runner.attempted, "failed": runner.failed,
        "samples": {key: sample_summary(v) for key, v in samples.items()},
    }
    if log is not None:
        record["measured"] = {key: sample_summary(v) for key, v
                              in config_samples(log, False).items()}
        record["invocations"] = log
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(OUT / f"record-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with gzip.open(OUT / f"spans-{stem}.json.gz", "wt", compresslevel=1) as fh:
            json.dump(spans, fh)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, m in metrics.items():
        line = f"{name:48s} {m['value']:14.6g} {m['unit']:6s} (n={counts.get(name, 1)})"
        if measured is not None and m["unit"] == "s":
            line += f"  as measured {measured[name]:.6g}"
        print(line)
    print(f"operations: {runner.failed} failed of {runner.attempted} attempted")
    print("record: " + json.dumps({k: v for k, v in record.items()
                                   if k not in ("samples", "measured",
                                                "invocations")}))
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
