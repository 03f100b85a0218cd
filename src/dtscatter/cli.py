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
from .tables import ResultTable, _Helper, _reprs, emit, write_text
from .thirring import (
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
    evolve,
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
    # each point's note comes from its first failing call: the closed form
    # (one array pass; the scalar call gives the typed error of each point
    # the pass left open), then the Born route (one crossing solve for
    # every point left)
    rows = amplitude_pp_grid(params, [p] * len(ks), ks)
    for i, c in enumerate(rows):
        if c is None:
            try:
                rows[i] = amplitude_pp(params, p, ks[i]).coefficient
            except DtScatterError as exc:
                rows[i] = exc
    todo = [i for i, c in enumerate(rows) if not isinstance(c, DtScatterError)]
    grid = born_series_grid(params, p, [ks[i] for i in todo], born_n)
    for i, series in zip(todo, grid):
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


def _snapshot_prefixes(shape: tuple) -> list:
    """The "site,component" start of each row of a (sites, components)
    snapshot, in row order."""
    cols = snapshot_columns(np.zeros(shape))
    return list(map("{},{}".format, cols["site"], cols["component"]))


def _snapshot_text(prefixes: list, amps) -> str:
    """render_csv(ResultTable(columns=snapshot_columns(amps))), built from
    the row prefixes of amps' shape: the header, then one "prefix,re,im"
    row per (site, component), re and im from one list repr each."""
    re = _reprs(amps.real.ravel().tolist())
    im = _reprs(amps.imag.ravel().tolist())
    return ("site,component,re,im\r\n"
            + "\r\n".join(map(",".join, zip(prefixes, re, im))) + "\r\n")


class _SnapshotWriter:
    """The interacting leg's on_step callback: writes the snapshots.

    With at least two snapshots, one helper process (``tables._Helper``)
    writes the first half, the larger one when the count is odd
    (``theirs``), and this process the rest.  The helper is started at
    step 0 and steps the leg again from that state up to its last snapshot
    with ``evolve``, whose serial leg carries the same bits, with warnings
    ignored, so a leakage warning is given once, here.  It sends one zero
    byte per snapshot written, or on failure the error message, and exits.
    This process steps the whole leg and writes the rest.  Leaving the
    ``with`` block joins the helper.  Every step of the helper comes before
    every step here, so its failure is the earliest and is raised in place
    of this process's.  Without a helper, every snapshot is written here.
    Both processes render from the row prefixes built here, before the
    fork.
    """

    def __init__(self, prefix: str, steps: list, model):
        self.paths = {n: f"{prefix}{n:05d}.csv" for n in steps}
        self.prefixes = (_snapshot_prefixes((model.length, model.ncomp))
                         if steps else [])
        self.model = model
        # the helper's steps, if one starts
        self.theirs = steps[:(len(steps) + 1) // 2] if len(steps) >= 2 else []
        self.helper = None

    def _write(self, n: int, amps) -> None:
        write_text(self.paths[n], _snapshot_text(self.prefixes, amps))

    def _serve(self, state, recv_fd: int, send_fd: int) -> None:
        """The helper's work: the leg up to its last snapshot."""
        written = []

        def write(n, amps):
            if n in self.paths:
                self._write(n, amps)
                written.append(n)
                os.write(send_fd, b"\0")

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                evolve(state, self.model, self.theirs[-1], on_step=write)
        except Exception as exc:   # reported to the parent, then exit
            path = self.paths[self.theirs[len(written)]]
            os.write(send_fd, (str(exc) if isinstance(exc, OutputError)
                               else f"cannot write {path}: {exc!r}").encode())
            raise

    def __call__(self, n: int, amps) -> None:
        if n == 0 and self.theirs:   # the helper's copy of amps keeps step 0
            self.helper = _Helper.start(lambda *fds: self._serve(amps, *fds))
        if n in self.paths and (self.helper is None or n not in self.theirs):
            self._write(n, amps)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.helper is None:
            return False
        code, answer = self.helper.join()
        message = answer.lstrip(b"\0")
        done = len(answer) - len(message)   # snapshots the helper wrote
        interrupted = exc is not None and not isinstance(exc, Exception)
        if done == len(self.theirs) or interrupted:
            return False
        raise OutputError(
            message.decode("utf-8", "replace")
            or f"cannot write {self.paths[self.theirs[done]]}: the snapshot "
               f"writer process ended before writing it (exit code {code})")


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
        with _SnapshotWriter(prefix, steps, model) as writer:
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
    import gc

    # Everything alive when main starts (the interpreter, numpy and this
    # package) lives until exit, so no collection needs to walk it: not the
    # full collections at interpreter shutdown, not the one numpy's lazy
    # imports trigger mid-command, and not a forked helper's, which then
    # copy none of this process's pages.  Once per process.
    if not gc.get_freeze_count():
        gc.freeze()
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
