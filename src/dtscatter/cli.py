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

from . import __version__
from .config import RunConfig, parse_config
from .dyson import first_order_amplitude, lambda_chi_reconcile, second_order_amplitude
from .errors import DtScatterError, OutputError
from .spectral import make_dispersion
from .tables import ResultTable, emit
from .thirring import (
    ThirringParams,
    amplitude_pp,
    born_series_thirring,
    channel,
    jacobian_pp,
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
    try:
        epoch = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))
    except ValueError:
        epoch = 0
    stamp = datetime.datetime.fromtimestamp(epoch, datetime.timezone.utc)
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
    table = ResultTable(metadata=_metadata(cfg))
    table.declare(("k", "omega", "omega_prime", "alpha_up", "alpha_dn",
                   "flagged", "note"))
    for k in cfg.grids["k"]:
        au, ad = d.alpha(+1, k)
        table.add_row(k=float(k), omega=float(d.omega(k)),
                      omega_prime=float(d.omega_prime(k)),
                      alpha_up=float(au), alpha_dn=float(ad),
                      flagged=False, note="")
    return table


def _run_amplitude(cfg: RunConfig) -> ResultTable:
    pr = cfg.params
    params = ThirringParams(nu=pr["nu"], chi=pr["chi"])
    p, born_n = pr["p"], pr["born_n"]
    table = ResultTable(metadata=_metadata(cfg))
    table.declare(("k", "coefficient", "born", "born_gap", "converged",
                   "flagged", "note"), complex_names=("coefficient", "born"))
    for k in cfg.grids["k"]:
        try:
            c = amplitude_pp(params, p, k).coefficient
            series = born_series_thirring(params, p, k, born_n)
            jac = jacobian_pp(params, p, k)
            born_c = complex(series.partial_sums[-1] / jac)
            table.add_row(k=float(k), coefficient=c, born=born_c,
                          born_gap=abs(born_c - c),
                          converged=series.converged, flagged=False, note="")
        except DtScatterError as exc:
            table.add_row(k=float(k), coefficient=_CNAN, born=_CNAN,
                          born_gap=_NAN, converged=False, flagged=True,
                          note=str(exc))
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
            cn = complex(sum_n / jac)
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
    lead = (f.y - f.x) / (2.0 * (f.x + f.y))
    lam_coeffs = [lead, lead * (-f.x / (f.x + f.y))]
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
        for tau in taus:
            table.add_row(tau=tau, gap=_NAN, certified=tau <= bound.m_star,
                          flagged=True, note=str(exc))
    return table


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
        every = pr["snapshot_every"]
        prefix = pr["snapshot_prefix"] or "snapshot_"

        def snapshot(n, amps):
            if n % every == 0 or n == 2 * t_steps:
                emit(ResultTable(columns=snapshot_columns(amps)), "csv",
                     f"{prefix}{n:05d}.csv")

        meas = extract_smatrix(model, spec, t_steps,
                               on_step=snapshot if every > 0 else None)
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
    axes = ("nu", "chi", "p", "k")
    values = [
        [float(v) for v in cfg.grids[a]] if a in cfg.grids
        else [float(cfg.params[a])]
        for a in axes
    ]
    table = ResultTable(metadata=_metadata(cfg))
    table.declare(("nu", "chi", "p", "k", "coefficient", "flagged", "note"),
                  complex_names=("coefficient",))
    for nu, chi, p, k in itertools.product(*values):
        try:
            c = amplitude_pp(ThirringParams(nu=nu, chi=chi), p, k).coefficient
            flagged, note = False, ""
        except DtScatterError as exc:
            c, flagged, note = _CNAN, True, str(exc)
        table.add_row(nu=nu, chi=chi, p=p, k=k, coefficient=c,
                      flagged=flagged, note=note)
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
