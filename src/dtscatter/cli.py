"""Command-line front end: parse a config file, run, write a table.

Usage: dtscatter --config run.cfg [--set key=value ...]

Exit codes: 0 success, 1 usage or config error (or any other failure
outside a grid point), 2 every computed row came out flagged, 3 I/O
failure (config unreadable, table or snapshot unwritable).  Grid points
that fail individually are recorded as flagged rows with the reason in
the `note` column; they never abort the rest of a sweep.  Errors and
warnings go to stderr, one line each.

The `generated` timestamp in the metadata comes from SOURCE_DATE_EPOCH
(seconds) when set and from epoch zero otherwise, so identical configs
produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import os
import sys
import warnings

import numpy as np

from . import __version__
from .config import RunConfig, parse_config
from .dyson import first_order_amplitude, lambda_chi_reconcile, second_order_amplitude
from .errors import DtScatterError, OutputError
from .spectral import make_dispersion
from .tables import ResultTable, _Helper, _send, emit, render_csv, write_text
from .thirring import (
    ROOT_BLOCK,
    ThirringParams,
    amplitude_pp,
    amplitude_pp_grid,
    born_series_grid,
    born_series_thirring,
    channel,
    jacobian_pp,
    on_shell_xy,
    xy_factors,
)
from .trotter import convergence_sweep, hopping_ring_model, tau_threshold
from .wavepacket import (
    GaussianPacketSpec,
    extract_smatrix,
    snapshot_columns,
    thirring_com_model,
)

_NAN = float("nan")
_CNAN = complex(_NAN, _NAN)


def _timestamp() -> str:
    # a SOURCE_DATE_EPOCH that is not an integer, or not a date the
    # platform can represent, falls back to epoch zero
    utc = datetime.timezone.utc
    try:
        epoch = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))
        stamp = datetime.datetime.fromtimestamp(epoch, utc)
    except (ValueError, OverflowError, OSError):
        stamp = datetime.datetime.fromtimestamp(0, utc)
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def _metadata(cfg: RunConfig) -> dict:
    return {
        "command": cfg.command,
        "version": __version__,
        "generated": _timestamp(),
        "seed": cfg.seed,
        "params": dict(cfg.params),
        "grids": {key: list(val) for key, val in cfg.grids.items()},
        "output": {"path": cfg.output_path, "format": cfg.output_format},
    }


def _band_label(label: tuple) -> str:
    return "".join("+" if s > 0 else "-" for s in label)


# ---------------------------------------------------------------------------
# command runners (each returns a ResultTable)
# ---------------------------------------------------------------------------

def _run_dispersion(cfg: RunConfig) -> ResultTable:
    d = make_dispersion(cfg.params["nu"])
    k = np.array(cfg.grids["k"], dtype=float)
    au, ad = d.alpha(+1, k)
    table = ResultTable(metadata=_metadata(cfg))
    table.declare(("k", "omega", "omega_prime", "alpha_up", "alpha_dn",
                   "flagged", "note"))
    table.add_rows(k=k.tolist(), omega=d.omega(k).tolist(),
                   omega_prime=d.omega_prime(k).tolist(),
                   alpha_up=au.tolist(), alpha_dn=ad.tolist(),
                   flagged=[False] * k.size, note=[""] * k.size)
    return table


def _run_amplitude(cfg: RunConfig) -> ResultTable:
    pr = cfg.params
    params = ThirringParams(nu=pr["nu"], chi=pr["chi"])
    p, born_n = pr["p"], pr["born_n"]
    table = ResultTable(metadata=_metadata(cfg))
    table.declare(("k", "coefficient", "born", "born_gap", "converged",
                   "flagged", "note"), complex_names=("coefficient", "born"))
    ks = [float(k) for k in cfg.grids["k"]]
    # each point's note comes from its first failing call: the closed form,
    # then the Born route (one crossing solve per block of points)
    rows: list = [None] * len(ks)
    for i, k in enumerate(ks):
        try:
            rows[i] = amplitude_pp(params, p, k).coefficient
        except DtScatterError as exc:
            rows[i] = exc
    todo = [i for i, c in enumerate(rows) if not isinstance(c, DtScatterError)]
    for start in range(0, len(todo), ROOT_BLOCK):
        block = todo[start:start + ROOT_BLOCK]
        grid = born_series_grid(params, p, [ks[i] for i in block], born_n)
        for i, series in zip(block, grid):
            if isinstance(series, DtScatterError):
                rows[i] = series
                continue
            c = rows[i]
            born_c = complex(series.partial_sums[-1]
                             / abs(jacobian_pp(params, p, ks[i])))
            rows[i] = (c, born_c, abs(born_c - c), series.converged)
    for k, row in zip(ks, rows):
        if isinstance(row, DtScatterError):
            table.add_row(k=k, coefficient=_CNAN, born=_CNAN, born_gap=_NAN,
                          converged=False, flagged=True, note=str(row))
        else:
            c, born_c, gap, converged = row
            table.add_row(k=k, coefficient=c, born=born_c, born_gap=gap,
                          converged=converged, flagged=False, note="")
    return table


def _run_born(cfg: RunConfig) -> ResultTable:
    pr = cfg.params
    params = ThirringParams(nu=pr["nu"], chi=pr["chi"])
    p, k, n_max = pr["p"], pr["k"], pr["n_max"]
    table = ResultTable(metadata=_metadata(cfg))
    table.declare(("order", "partial_sum", "coefficient", "closed_gap",
                   "term_ratio", "flagged", "note"),
                  complex_names=("partial_sum", "coefficient"))
    try:
        series = born_series_thirring(params, p, k, n_max)
        jac = jacobian_pp(params, p, k)
        closed = amplitude_pp(params, p, k).coefficient
        table.metadata["closed_coefficient_re"] = closed.real
        table.metadata["closed_coefficient_im"] = closed.imag
        table.metadata["jacobian"] = jac
        table.metadata["converged"] = series.converged
        ratios = series.term_ratios
        for n, sum_n in enumerate(series.partial_sums):
            cn = complex(sum_n / abs(jac))
            table.add_row(order=n + 1, partial_sum=complex(sum_n),
                          coefficient=cn, closed_gap=abs(cn - closed),
                          term_ratio=float(ratios[n]) if n < ratios.size else _NAN,
                          flagged=False, note="")
    except DtScatterError as exc:
        table.add_row(order=0, partial_sum=_CNAN, coefficient=_CNAN,
                      closed_gap=_NAN, term_ratio=_NAN, flagged=True,
                      note=str(exc))
    return table


def _run_dyson(cfg: RunConfig) -> ResultTable:
    pr = cfg.params
    params = ThirringParams(nu=pr["nu"], chi=pr["chi"])
    p, k, quad_n = pr["p"], pr["k"], pr["quad_n"]
    table = ResultTable(metadata=_metadata(cfg))
    table.declare(("order", "dyson", "series", "abs_gap", "flagged", "note"),
                  complex_names=("dyson", "series"))
    try:
        ch = channel(params, p, k, +1, +1)
        f = xy_factors(params, p, k)
    except DtScatterError as exc:
        for order in (1, 2):
            table.add_row(order=order, dyson=_CNAN, series=_CNAN,
                          abs_gap=_NAN, flagged=True, note=str(exc))
        return table
    x, y = on_shell_xy(f.x, f.y)
    lead = (y - x) / (2.0 * (x + y))
    lam_coeffs = [lead, lead * (-x / (x + y))]
    chi_coeffs = lambda_chi_reconcile(lam_coeffs, 2)
    measured = {}
    notes = {}
    try:
        measured[1] = first_order_amplitude(params, ch, ch)
    except DtScatterError as exc:
        notes[1] = str(exc)
    try:
        measured[2] = second_order_amplitude(params, ch, ch, quad_n=quad_n)
    except DtScatterError as exc:
        notes[2] = str(exc)
    for order in (1, 2):
        series = complex(chi_coeffs[order - 1] * params.chi ** order)
        if order in measured:
            value = measured[order]
            table.add_row(order=order, dyson=value, series=series,
                          abs_gap=abs(value - series), flagged=False, note="")
        else:
            table.add_row(order=order, dyson=_CNAN, series=series,
                          abs_gap=_NAN, flagged=True, note=notes[order])
    return table


def _run_trotter(cfg: RunConfig) -> ResultTable:
    pr = cfg.params
    table = ResultTable(metadata=_metadata(cfg))
    table.declare(("tau", "gap", "certified", "flagged", "note"))
    taus = [float(t) for t in cfg.grids["tau"]]
    try:
        model = hopping_ring_model(n=pr["n"], omega_max=pr["omega_max"],
                                   mode_index=pr["mode_index"],
                                   eps_ref=pr["eps_ref"])
        bound = tau_threshold(model)
    except DtScatterError as exc:
        for tau in taus:
            table.add_row(tau=tau, gap=_NAN, certified=False, flagged=True,
                          note=str(exc))
        return table
    table.metadata["m_star"] = bound.m_star
    table.metadata["gamma"] = bound.gamma
    try:
        report = convergence_sweep(model, taus)
        table.metadata["slope"] = report.slope
        table.metadata["intercept"] = report.intercept
        table.metadata["prefactor"] = report.prefactor
        table.metadata["predicted_prefactor"] = report.predicted_prefactor
        gap_of = {float(t): float(g) for t, g in zip(report.taus, report.gaps)}
        for tau in taus:
            if tau in gap_of:
                table.add_row(tau=tau, gap=gap_of[tau],
                              certified=tau <= bound.m_star,
                              flagged=False, note="")
            else:
                table.add_row(tau=tau, gap=_NAN,
                              certified=tau <= bound.m_star, flagged=True,
                              note="no valid stepped kernel at this step")
    except DtScatterError as exc:
        table.metadata["slope"] = None
        table.metadata["intercept"] = None
        table.metadata["prefactor"] = None
        table.metadata["predicted_prefactor"] = None
        for tau in taus:
            table.add_row(tau=tau, gap=_NAN, certified=tau <= bound.m_star,
                          flagged=True, note=str(exc))
    return table


def _snapshot_steps(t_steps: int, every: int) -> list:
    """Interacting-leg steps n = 0 .. 2T that write a snapshot."""
    return [*range(0, 2 * t_steps, every), 2 * t_steps] if every > 0 else []


def _write_snapshot(path: str, amps) -> None:
    # rendered serially: the snapshot writer helper has the other CPU
    write_text(path, render_csv(ResultTable(columns=snapshot_columns(amps))))


class _SnapshotWriter:
    """The interacting leg's on_step callback: writes the snapshots.

    With at least two snapshots, every other snapshot goes, as the raw
    complex128 bytes of its (sites, components) array, to one helper
    process (``tables._Helper``) that renders and writes it while this
    process keeps stepping; with no helper each is written inline.  The
    helper answers each snapshot: a zero byte once it is written, or a one
    byte and the error message, after which it exits.  A snapshot is sent
    only after the previous one was answered, so at most one is in flight
    and a helper failure stops the leg at the next hand-off.  Leaving the
    ``with`` block waits for the last answer, joins the helper and raises
    the OutputError of the earliest snapshot not written, whichever
    process was to write it.
    """

    def __init__(self, prefix: str, steps: list, shape: tuple):
        self.paths = {n: f"{prefix}{n:05d}.csv" for n in steps}
        self.failures: dict = {}   # step -> OutputError
        self.pending = None
        self.helper = None if len(steps) < 2 else _Helper.start(
            lambda *fds: self._serve(steps[1::2], shape, *fds))
        # the helper's steps; empty: none
        self.offloaded = frozenset(steps[1::2] if self.helper else ())

    def _serve(self, steps: list, shape: tuple, data_fd: int,
               status_fd: int) -> None:
        """The helper's loop: receive, write and answer its snapshots."""
        amps = np.empty(shape, dtype=complex)
        raw = memoryview(amps).cast("B")
        for n in steps:
            got = 0
            while got < len(raw):
                size = os.readv(data_fd, [raw[got:]])
                if not size:
                    return   # the leg ended early: nothing more is sent
                got += size
            path = self.paths[n]
            try:
                _write_snapshot(path, amps)
            except Exception as exc:   # reported to the parent, then exit
                message = (str(exc) if isinstance(exc, OutputError)
                           else f"cannot write {path}: {exc!r}")
                os.write(status_fd, b"\1" + message.encode())
                return
            os.write(status_fd, b"\0")

    def __call__(self, n: int, amps) -> None:
        path = self.paths.get(n)
        if path is None:
            return
        if n not in self.offloaded:
            try:
                _write_snapshot(path, amps)
            except OutputError as exc:
                self.failures[n] = exc
                raise
            return
        self._answer()
        try:
            # the view is strided: its bytes are copied out during the call
            _send(self.helper.send, np.ascontiguousarray(amps))
        except BrokenPipeError:
            self._fail(n)
        self.pending = n

    def _answer(self) -> None:
        """Wait for the answer on the snapshot in flight; raise its failure."""
        if self.pending is None:
            return
        n, self.pending = self.pending, None
        head = os.read(self.helper.recv, 1)
        if head != b"\0":
            self._fail(n, head)

    def _fail(self, n: int, head: bytes = b"") -> None:
        """Join the helper, which did not write snapshot n (head: the
        answer's first byte, if any), and raise the reason."""
        helper, self.helper = self.helper, None
        code, rest = helper.join()
        if head == b"\1":
            message = rest.decode("utf-8", "replace")
        else:
            message = (f"cannot write {self.paths[n]}: the snapshot writer "
                       f"process ended before writing it (exit code {code})")
        self.failures[n] = OutputError(message)
        raise self.failures[n]

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            self._answer()
        except OutputError:
            pass   # kept in self.failures
        finally:
            if self.helper is not None:   # the helper reads EOF and exits
                self.helper.join()
        if self.failures and (exc is None or isinstance(exc, Exception)):
            earliest = self.failures[min(self.failures)]
            if earliest is not exc:
                raise earliest
        return False


def _run_wavepacket(cfg: RunConfig) -> ResultTable:
    pr = cfg.params
    params = ThirringParams(nu=pr["nu"], chi=pr["chi"])
    p, k0 = pr["p"], pr["k0"]
    length, t_steps = pr["length"], pr["t_steps"]
    table = ResultTable(metadata=_metadata(cfg))
    table.declare(("band_pair", "weight", "flagged", "note"))
    try:
        closed = amplitude_pp(params, p, k0).coefficient
        table.metadata["closed_coefficient_re"] = closed.real
        table.metadata["closed_coefficient_im"] = closed.imag
        table.metadata["predicted_elastic_weight"] = abs(1.0 + closed) ** 2
        table.metadata["predicted_umklapp_weight"] = abs(closed) ** 2
    except DtScatterError as exc:
        closed = None
        table.metadata["closed_note"] = str(exc)
    try:
        model = thirring_com_model(params, p, length=length)
        spec = GaussianPacketSpec(k0=k0, sigma_x=pr["sigma_x"],
                                  x0=length // 2, band=(1, 1))
        steps = _snapshot_steps(t_steps, pr["snapshot_every"])
        prefix = pr["snapshot_prefix"] or "snapshot_"
        with _SnapshotWriter(prefix, steps, (length, model.ncomp)) as writer:
            meas = extract_smatrix(model, spec, t_steps,
                                   on_step=writer if steps else None)
        diag = meas.diagonal_coefficient
        table.metadata["diagonal_coefficient_re"] = diag.real
        table.metadata["diagonal_coefficient_im"] = diag.imag
        table.metadata["boundary_mass"] = meas.boundary_mass
        if closed is not None:
            table.metadata["diagonal_abs_error"] = abs(diag - closed)
        for label in sorted(meas.channel_weights, reverse=True):
            table.add_row(band_pair=_band_label(label),
                          weight=meas.channel_weights[label],
                          flagged=False, note="")
    except OutputError:
        raise
    except DtScatterError as exc:
        table.add_row(band_pair="", weight=_NAN, flagged=True, note=str(exc))
    return table


def _run_sweep(cfg: RunConfig) -> ResultTable:
    nus, chis, ps, ks = (
        [float(v) for v in cfg.grids[a]] if a in cfg.grids
        else [float(cfg.params[a])]
        for a in ("nu", "chi", "p", "k")
    )
    # rows in itertools.product(nu, chi, p, k) order: one (p, k) block of
    # n points per (nu, chi), evaluated in one array pass
    p_col = [p for p in ps for _ in ks]
    k_col = ks * len(ps)
    n = len(p_col)
    table = ResultTable(metadata=_metadata(cfg))
    table.declare(("nu", "chi", "p", "k", "coefficient", "flagged", "note"),
                  complex_names=("coefficient",))
    for nu, chi in itertools.product(nus, chis):
        try:
            params = ThirringParams(nu=nu, chi=chi)
        except DtScatterError as exc:
            coefficient, flagged, note = [_CNAN] * n, [True] * n, [str(exc)] * n
        else:
            coefficient = amplitude_pp_grid(params, p_col, k_col)
            flagged, note = [False] * n, [""] * n
            # the scalar closed form resolves what the pass left open, so
            # its typed error is the one source of each note
            for i, c in enumerate(coefficient):
                if c is None:
                    try:
                        coefficient[i] = amplitude_pp(
                            params, p_col[i], k_col[i]).coefficient
                    except DtScatterError as exc:
                        coefficient[i], flagged[i], note[i] = _CNAN, True, str(exc)
        table.add_rows(nu=[nu] * n, chi=[chi] * n, p=p_col, k=k_col,
                       coefficient=coefficient, flagged=flagged, note=note)
    return table


_RUNNERS = {
    "dispersion": _run_dispersion,
    "amplitude": _run_amplitude,
    "born": _run_born,
    "dyson": _run_dyson,
    "trotter": _run_trotter,
    "wavepacket": _run_wavepacket,
    "sweep": _run_sweep,
}


def run(cfg: RunConfig) -> ResultTable:
    """Dispatch a validated config to its command runner."""
    return _RUNNERS[cfg.command](cfg)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _warn_one_line(message, category, filename, lineno, file=None,
                   line=None) -> None:
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # one stderr line instead of argparse's usage line plus message
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="dtscatter",
        description="scattering tables for the discrete-time lattice models",
    )
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="run configuration file")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override a config value (repeatable; "
                             "section.key to disambiguate)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config {args.config}: {exc}",
              file=sys.stderr)
        return 3

    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warn_one_line
            cfg = parse_config(text, overrides=tuple(args.overrides))
            table = run(cfg)
        emit(table, cfg.output_format, cfg.output_path)
    except DtScatterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, OutputError) else 1

    n = table.n_rows
    flags = [bool(v) for v in table.columns.get("flagged", [])]
    n_flagged = sum(flags)
    print(f"wrote {cfg.output_path}: {n} rows, {n_flagged} flagged")
    if n > 0 and n_flagged == n:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
