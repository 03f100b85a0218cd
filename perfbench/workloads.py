"""Workload definitions: the dtscatter configs each benchmark pass runs.

A workload is a fixed list of CLI invocations (``Op``).  ``pass_ops``
gives the commands of the workload's pass; ``probe_ops`` gives one small
invocation of every command the pass does not run, so that every
``cmd_s.<command>`` metric has a measured value on every workload without
adding the command to the pass.  ``extra_ops`` lists what each untraced
round adds to the pass: the probes, and repeats of the pass's short
commands.

Seed 0 yields exactly the configs documented in README.md.  Any other seed
jitters (nu, chi, p, k0) and the grid endpoints inside the same regime:
the packets still clear the interaction, the p x k sweep still holds
flagged points, and every operation still succeeds.  The program only
sees the generated config files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("closed", "series", "packet")
COMMANDS = ("dispersion", "sweep", "amplitude", "born", "dyson",
            "wavepacket", "trotter")

HALF_PI = 0.5 * math.pi
# Certified step threshold m* = min((sqrt(2 - gamma) - 1)/|V|, pi/omega_max)
# of the trotter command's reference ring model; with omega_max = 2 the
# second term (pi/2) is the smaller one for every n used here.
TROTTER_M_STAR = HALF_PI

REFERENCE = {"nu": 0.8, "chi": 1.0, "p": 0.3}   # the package's reference point
SLOW_BORN = {"nu": 0.5, "chi": 2.5, "p": 1.1}   # Born term ratio near 1


@dataclass(frozen=True)
class Op:
    """One CLI invocation: a config plus the files it is expected to write."""

    label: str                 # unique within a workload, e.g. "sweep_pk"
    command: str
    params: dict
    grid: dict = field(default_factory=dict)   # name -> config grid text
    output: str = ""
    snapshot_prefix: str = ""  # wavepacket snapshots, "" when none
    expected_snapshots: int = 0

    def config_text(self) -> str:
        lines = ["[run]", f"command = {self.command}", "", "[params]"]
        lines += [f"{k} = {_fmt(v)}" for k, v in self.params.items()]
        if self.snapshot_prefix:
            lines.append(f"snapshot_prefix = {self.snapshot_prefix}")
        if self.grid:
            lines += ["", "[grid]"]
            lines += [f"{k} = {v}" for k, v in self.grid.items()]
        lines += ["", "[output]", f"path = {self.output}", ""]
        return "\n".join(lines)


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _range(lo: float, hi: float, n: int) -> str:
    return f"{lo!r}:{hi!r}:{n}"


class _Jitter:
    """Uniform offsets from a seeded stream; seed 0 gives no offset."""

    def __init__(self, seed: int):
        self.zero = seed == 0
        self.rng = random.Random(seed)

    def __call__(self, value: float, half_width: float) -> float:
        if self.zero:
            return value
        return value + self.rng.uniform(-half_width, half_width)

    def point(self, base: dict) -> dict:
        return {"nu": self(base["nu"], 0.03), "chi": self(base["chi"], 0.1),
                "p": self(base["p"], 0.03)}


def _closed(j: _Jitter) -> list[Op]:
    ref = j.point(REFERENCE)
    k_lo, k_hi = abs(j(0.0, 0.03)), j(1.5, 0.05)
    # p endpoints stay on 0 and pi/2 (degenerate total momentum) and the k
    # range runs past pi/2, so the p x k grid always holds flagged points.
    pk_hi = j(1.6, 0.03)
    d_lim = j(math.pi, 0.02)
    return [
        Op("sweep_k", "sweep", dict(ref), {"k": _range(k_lo, k_hi, 20000)},
           output="sweep_k.csv"),
        Op("sweep_pk", "sweep", {"nu": ref["nu"], "chi": ref["chi"]},
           {"p": _range(0.0, HALF_PI, 100), "k": _range(0.0, pk_hi, 200)},
           output="sweep_pk.json"),
        Op("dispersion", "dispersion", {"nu": ref["nu"]},
           {"k": _range(-d_lim, d_lim, 20000)}, output="dispersion.csv"),
    ]


def _series(j: _Jitter) -> list[Op]:
    ref = j.point(REFERENCE)
    slow = j.point(SLOW_BORN)
    k = j(0.7, 0.05)
    a_lo, a_hi = j(0.1, 0.02), j(1.5, 0.03)
    return [
        Op("amplitude_ref", "amplitude", {**ref, "born_n": 40},
           {"k": _range(a_lo, a_hi, 32)}, output="amplitude_ref.csv"),
        Op("amplitude_slow", "amplitude", dict(slow),
           {"k": _range(a_lo, a_hi, 32)}, output="amplitude_slow.json"),
        Op("born", "born", {**ref, "k": k, "n_max": 40}, output="born.csv"),
        Op("dyson", "dyson", {**ref, "k": k, "quad_n": 32768},
           output="dyson.csv"),
    ]


def _taus(tau0: float, count: int = 5) -> str:
    return ", ".join(repr(tau0 * 0.5 ** i) for i in range(count))


def _packet(j: _Jitter) -> list[Op]:
    ref = j.point(REFERENCE)
    k0 = j(0.7, 0.05)
    tau0 = TROTTER_M_STAR * (1.0 - abs(j(0.0, 0.2)))  # within [0.8, 1] m*
    t_snap = 450
    return [
        Op("wavepacket", "wavepacket", {**ref, "k0": k0},
           output="wavepacket.csv"),
        Op("wavepacket_snap", "wavepacket",
           {**ref, "k0": k0, "length": 2048, "t_steps": t_snap,
            "sigma_x": 32.0, "snapshot_every": 50},
           output="wavepacket_snap.csv", snapshot_prefix="snap_",
           expected_snapshots=2 * t_snap // 50 + 1),
        Op("trotter", "trotter", {"n": 256, "mode_index": 64},
           {"tau": _taus(tau0)}, output="trotter.csv"),
    ]


_WORKLOAD_OPS = {"closed": _closed, "series": _series, "packet": _packet}

# A small invocation of each command that still runs its whole path
# (config, runner, kernels, writer), sized to about 0.05-0.15 s inside
# cli.main so that start-up jitter does not dominate it.  The sweep and
# trotter probes are larger (about 0.3 s and 0.2 s): their thread pools
# make short runs erratic.  Seed-independent.
_PROBES = {
    "dispersion": Op("probe_dispersion", "dispersion", {"nu": 0.8},
                     {"k": _range(-math.pi, math.pi, 5000)},
                     output="probe_dispersion.csv"),
    "sweep": Op("probe_sweep", "sweep", dict(REFERENCE),
                {"k": _range(0.0, 1.5, 6000)}, output="probe_sweep.json"),
    "amplitude": Op("probe_amplitude", "amplitude", dict(REFERENCE),
                    {"k": "0.2, 0.5, 0.8, 1.1"}, output="probe_amplitude.csv"),
    "born": Op("probe_born", "born", {**REFERENCE, "k": 0.7, "n_max": 40},
               output="probe_born.csv"),
    "dyson": Op("probe_dyson", "dyson",
                {**REFERENCE, "k": 0.7, "quad_n": 8192},
                output="probe_dyson.csv"),
    "wavepacket": Op("probe_wavepacket", "wavepacket",
                     {**REFERENCE, "k0": 0.7, "sigma_x": 16.0, "length": 1024,
                      "t_steps": 240}, output="probe_wavepacket.csv"),
    "trotter": Op("probe_trotter", "trotter", {"n": 256, "mode_index": 64},
                  {"tau": _taus(TROTTER_M_STAR)}, output="probe_trotter.csv"),
}


# Extra invocations per round of pass commands that run once in a pass and
# take about a second or less, so that their medians rest on more samples.
_REPEATS = {
    "closed": {"dispersion": 1},
    "series": {"born": 1, "dyson": 1},
    "packet": {"trotter": 2},
}
# Invocations of each probe per round.  The thread-pool commands (sweep,
# trotter) vary the most from one invocation to the next on a 2-vCPU host,
# so their medians get more samples.
PROBE_REPEATS = {"sweep": 3, "trotter": 3, "wavepacket": 2}


def pass_ops(workload: str, seed: int) -> list[Op]:
    """The commands one pass of ``workload`` runs, generated from ``seed``."""
    return _WORKLOAD_OPS[workload](_Jitter(seed))


def probe_ops(workload: str) -> list[Op]:
    """One probe for every command that the workload's pass does not run."""
    ran = {op.command for op in pass_ops(workload, 0)}
    return [_PROBES[c] for c in COMMANDS if c not in ran]


def extra_ops(workload: str, seed: int) -> list[Op]:
    """What one round runs besides the pass: repeats of short pass commands
    (same configs as in the pass) and every probe, PROBE_REPEATS times or
    once.  Invocations of one config are interleaved with the others."""
    counts = [(op, _REPEATS[workload].get(op.command, 0))
              for op in pass_ops(workload, seed)]
    counts += [(op, PROBE_REPEATS.get(op.command, 1)) for op in probe_ops(workload)]
    return [op for i in range(max(n for _, n in counts))
            for op, n in counts if n > i]


def round_schedule(ops: list[Op], extra: list[Op], index: int) -> list[tuple[Op, bool]]:
    """One round as (op, in_pass) pairs: the pass in order, with the extra
    invocations, rotated by the round index, spread evenly between and
    after the pass commands."""
    shift = index % len(extra) if extra else 0
    extra = extra[shift:] + extra[:shift]
    out: list[tuple[Op, bool]] = []
    for i, op in enumerate(ops):
        out.append((op, True))
        lo = i * len(extra) // len(ops)
        hi = (i + 1) * len(extra) // len(ops)
        out.extend((e, False) for e in extra[lo:hi])
    return out
