"""Direct wave-packet scattering simulator on a ring.

Two model kinds share one machinery, and a state is a complex
``(sites, components)`` array:

* single particle: two-component walk on a ring with an on-site phase
  exp(i*chi) at the center site;
* two-fermion relative coordinate: total momentum p is conserved, so a
  fixed-p run evolves the relative coordinate with the 4-component
  internal space (tensor basis uu, ud, du, dd) and the collision phase
  sits at relative coordinate zero (the center site).

The per-step kernel is strictly local (shift-and-mix, at most one site
per step for each factor), so two-particle steps move the relative
coordinate by at most two sites.  Scattering amplitudes come from the
finite-time sandwich U0^{-T} U^{2T} U0^{-T} applied to a band-projected
Gaussian packet; the free legs are applied spectrally (exact integer-
step diagonalization), the middle leg runs the local stepper.  ``step``
is the reference kernel; ``evolve`` runs a component-major copy of its
arithmetic on preallocated buffers and agrees with it bit for bit, also
when two processes share an unobserved leg (``splitleg``).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (BoundaryLeakageWarning, DomainError, GeometryError,
                     ScatteringInconclusiveError)
from .spectral import make_dispersion, wrap_momentum
from .thirring import ThirringParams

BOUNDARY_WINDOW = 16
LEAKAGE_TOL = 1e-6
LEAKAGE_PERIOD = 64   # steps between boundary-leakage checks
TRAVERSAL_TOL = 1e-8


@dataclass(frozen=True)
class WalkModel:
    """Ring geometry plus the stepped dynamics (free walk then phase).

    total_momentum None selects the single-particle two-component walk;
    a float selects the fixed-p relative-coordinate walk with four
    internal components.  The interaction phase acts at ``center``.
    """

    nu: float
    chi: float
    length: int = 4096
    total_momentum: float | None = None

    def __post_init__(self):
        if self.length < 64 or self.length % 2:
            raise DomainError(f"ring length must be even and >= 64, got {self.length}")
        if not 0.0 < self.nu < 1.0:
            raise DomainError(
                f"the packet machinery needs a dispersive walk, 0 < nu < 1; "
                f"got nu={self.nu}"
            )
        object.__setattr__(self, "dispersion", make_dispersion(self.nu))

    @property
    def ncomp(self) -> int:
        return 2 if self.total_momentum is None else 4

    @property
    def center(self) -> int:
        return self.length // 2

    @property
    def mu(self) -> float:
        return self.dispersion.mu

    @functools.cached_property
    def step_entries(self):
        """Local update table: (out_comp, in_comp, coefficient, shift).

        out[a](y) = sum coef * in[b](y + shift); the shift comes from the
        e^{i*sigma*k} factor of each walk entry (sigma = +1 for the
        up-up entry, -1 for down-down, 0 for the mixing entries).
        """
        nu, mu = self.nu, self.mu
        one = ((0, 0, nu, +1), (0, 1, -1j * mu, 0),
               (1, 0, -1j * mu, 0), (1, 1, nu, -1))
        if self.total_momentum is None:
            return one
        p = self.total_momentum
        entries = []
        for a1, b1, c1, s1 in one:
            for a2, b2, c2, s2 in one:
                coef = c1 * c2 * np.exp(1j * p * (s1 + s2))
                entries.append((a1 * 2 + a2, b1 * 2 + b2, coef, s1 - s2))
        return tuple(entries)

    @functools.cached_property
    def mode_data(self):
        """Band decomposition on the FFT momentum grid.

        (momenta, {band: (omegas, vectors)}) where vectors has shape
        (ncomp, L) per band and omegas is the signed quasi-energy.  Built
        once per model and shared by every caller, so it is read only.
        """
        d = self.dispersion
        kk = 2.0 * np.pi * np.fft.fftfreq(self.length)
        if self.total_momentum is None:
            bands = {}
            for s in (+1, -1):
                u = np.stack(d.alpha(s, kk))
                bands[(s,)] = (s * d.omega(kk), u)
            return kk, bands
        p = self.total_momentum
        bands = {}
        for s1 in (+1, -1):
            u1 = np.stack(d.alpha(s1, p + kk))
            for s2 in (+1, -1):
                u2 = np.stack(d.alpha(s2, p - kk))
                vec = np.einsum("ak,bk->abk", u1, u2).reshape(4, -1)
                wsum = s1 * d.omega(p + kk) + s2 * d.omega(p - kk)
                bands[(s1, s2)] = (wsum, vec)
        return kk, bands


def single_particle_model(nu: float, chi: float, length: int = 2048) -> WalkModel:
    return WalkModel(nu=nu, chi=chi, length=length, total_momentum=None)


def thirring_com_model(params: ThirringParams, p: float,
                       length: int = 4096) -> WalkModel:
    """Relative-coordinate model of the two-fermion problem at fixed p."""
    return WalkModel(nu=params.nu, chi=params.chi, length=length,
                     total_momentum=float(wrap_momentum(p)))


def _lattice(amps, model: WalkModel | None = None) -> np.ndarray:
    """The state as a C-contiguous complex (sites, components) array; every
    state returned here passes through it, so reductions sum in one order.
    Given a model, the shape must be (model.length, model.ncomp)."""
    amps = np.ascontiguousarray(amps, dtype=complex)
    if amps.ndim != 2:
        raise DomainError("amplitudes must have shape (sites, components)")
    if model is not None and amps.shape != (model.length, model.ncomp):
        raise DomainError(f"state shape {amps.shape} does not match the model's "
                          f"(sites, components) = {(model.length, model.ncomp)}")
    return amps


def _normalized(amps) -> np.ndarray:
    amps = _lattice(amps)
    parts = amps.ravel().view(float)   # re, im of each entry in turn
    norm = float(np.sqrt(np.sum(parts * parts)))
    if norm == 0.0:
        raise DomainError("cannot normalize the zero state")
    return amps / norm


@dataclass(frozen=True)
class GaussianPacketSpec:
    """Band-projected Gaussian packet: envelope exp(-(x-x0)^2/(4 sigma_x^2)),
    carrier exp(i k0 x), internal vector of the chosen band(s) at k0."""

    k0: float
    sigma_x: float
    x0: int
    band: tuple = (1,)

    def __post_init__(self):
        if self.sigma_x < 8.0:
            raise DomainError(f"sigma_x must be >= 8, got {self.sigma_x}")
        if not all(s in (+1, -1) for s in self.band):
            raise DomainError(f"band labels must be +-1, got {self.band}")


def build_packet(model: WalkModel, spec: GaussianPacketSpec) -> np.ndarray:
    if len(spec.band) != (1 if model.total_momentum is None else 2):
        raise DomainError(
            f"band tuple length {len(spec.band)} does not match the model kind"
        )
    L = model.length
    lo, hi = spec.x0 - 4.0 * spec.sigma_x, spec.x0 + 4.0 * spec.sigma_x
    if lo < L / 8 or hi > 7 * L / 8:
        raise GeometryError(
            f"packet support [{lo:.0f}, {hi:.0f}] leaves [{L // 8}, {7 * L // 8}]"
        )
    d = model.dispersion
    x = np.arange(L)
    envelope = np.exp(-((x - spec.x0) ** 2) / (4.0 * spec.sigma_x ** 2))
    carrier = np.exp(1j * spec.k0 * x)
    if model.total_momentum is None:
        u = np.array(d.alpha(spec.band[0], spec.k0))
    else:
        p = model.total_momentum
        u1 = np.array(d.alpha(spec.band[0], p + spec.k0))
        u2 = np.array(d.alpha(spec.band[1], p - spec.k0))
        u = np.kron(u1, u2)
    amps = (envelope * carrier)[:, None] * u[None, :]
    return _normalized(amps)


def band_project(model: WalkModel, amps, label: tuple) -> np.ndarray:
    """Keep only the chosen band's (band pair's) component of the state.

    The fixed-internal-vector packet carries O(1/sigma_x) admixtures of
    the other bands, which travel at different group velocities; a clean
    scattering asymptote needs them removed exactly.
    """
    _, bands = model.mode_data
    if label not in bands:
        raise DomainError(f"unknown band label {label}")
    _, vec = bands[label]
    ft = np.fft.fft(_lattice(amps, model), axis=0)
    proj = np.einsum("ck,kc->k", vec, ft)
    return _lattice(np.fft.ifft(proj[:, None] * vec.T, axis=0))


def exchange(model: WalkModel, amps) -> np.ndarray:
    """Particle exchange on the relative coordinate: reflect y about the
    interaction center and swap the internal tensor factors."""
    if model.total_momentum is None:
        raise DomainError("exchange is defined for the fixed-p two-particle model")
    idx = (2 * model.center - np.arange(model.length)) % model.length
    return _lattice(amps, model)[idx[:, None], [0, 2, 1, 3]]


def antisymmetrize(model: WalkModel, amps) -> np.ndarray:
    """Project onto the fermionic (exchange-odd) sector and renormalize."""
    amps = _lattice(amps)
    return _normalized(amps - exchange(model, amps))


def step(amps, model: WalkModel) -> np.ndarray:
    """One discrete step: the local interaction phase, then the free walk."""
    amps = np.array(_lattice(amps, model))
    amps[model.center] *= np.exp(1j * model.chi)
    out = np.zeros_like(amps)
    for a, b, coef, shift in model.step_entries:
        out[:, a] += coef * np.roll(amps[:, b], -shift)
    return out


def _boundary_mass(amps: np.ndarray) -> float:
    """|amp|^2 over the BOUNDARY_WINDOW sites at each end of the ring."""
    w = BOUNDARY_WINDOW
    return float(np.sum(np.abs(amps[:w]) ** 2, axis=1).sum()
                 + np.sum(np.abs(amps[-w:]) ** 2, axis=1).sum())


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


def _halo(model: WalkModel) -> int:
    """Sites one step reads beyond an output site: max |shift|."""
    return max(abs(shift) for _, _, _, shift in model.step_entries)


def _step_plan(model: WalkModel, src, dst, tmp, lo: int, hi: int) -> list:
    """One step as (coef, shifted source row, scratch, output row, first)
    views: columns lo..hi of the component-major dst from src.

    roll(row, -shift)[y] is row[y + shift], so an output column reads the
    source column shift places on.  first marks an output row's first
    ``step_entries`` term.  coef becomes a 0-d array, which a ufunc takes
    faster than a Python scalar; it is cast to complex like the scalar
    step() multiplies by.
    """
    plan, started = [], set()
    for a, b, coef, shift in model.step_entries:
        plan.append((np.asarray(coef), src[b, lo + shift:hi + shift],
                     tmp[:hi - lo], dst[a, lo:hi], a not in started))
        started.add(a)
    return plan


_ZERO = np.zeros((), dtype=complex)   # step()'s +0, as a 0-d array


def _apply(plan: list) -> None:
    for coef, src, tmp, out, first in plan:
        np.multiply(coef, src, out=tmp)
        if first:   # 0 + x == x + 0 bit for bit
            np.add(tmp, _ZERO, out=out)
        else:
            np.add(out, tmp, out=out)


def _leaked(sites, n: int) -> bool:
    """Warn, and say so, when the state holds boundary mass above
    LEAKAGE_TOL after n steps."""
    mass = _boundary_mass(sites)
    if mass > LEAKAGE_TOL:
        warnings.warn(f"boundary mass {mass:.2e} after {n} steps",
                      BoundaryLeakageWarning)
        return True
    return False


def _serial_leg(state: np.ndarray, model: WalkModel, t_steps: int,
                on_step=None, warned: bool = False) -> np.ndarray:
    """The leg on one padded (components, h + sites + h) buffer pair."""
    length = model.length
    halo = _halo(model)
    cur = np.empty((model.ncomp, length + 2 * halo), dtype=complex)
    cur[:, halo:halo + length] = state.T
    nxt = np.empty_like(cur)
    tmp = np.empty(length, dtype=complex)
    phase = np.exp(1j * model.chi)
    center = halo + model.center
    plan = _step_plan(model, cur, nxt, tmp, halo, halo + length)
    next_plan = _step_plan(model, nxt, cur, tmp, halo, halo + length)
    if on_step is not None:
        on_step(0, _read_only(cur[:, halo:halo + length].T))
    for n in range(1, t_steps + 1):
        cur[:, center] *= phase
        cur[:, :halo] = cur[:, length:length + halo]
        cur[:, length + halo:] = cur[:, halo:2 * halo]
        _apply(plan)
        cur, nxt, plan, next_plan = nxt, cur, next_plan, plan
        if (n % LEAKAGE_PERIOD == 0 or n == t_steps) and not warned:
            warned = _leaked(cur[:, halo:halo + length].T, n)
        if on_step is not None:
            on_step(n, _read_only(cur[:, halo:halo + length].T))
    return _lattice(cur[:, halo:halo + length].T)


# shortest ring whose leg two processes share (``splitleg``): a 4-component
# step costs about 12 us of numpy call overhead plus 4.7 ns per site, so
# halving a 1024-site ring saves about 2% of its leg, no more than a fork
SPLIT_MIN_LENGTH = 2048


def evolve(amps, model: WalkModel, t_steps: int,
           on_step=None) -> np.ndarray:
    """t_steps local steps with boundary-leakage monitoring.

    Amplitude mass within BOUNDARY_WINDOW sites of the ring seam above
    LEAKAGE_TOL raises a boundary-contamination warning (once), checked
    after every LEAKAGE_PERIOD-th step and the last.
    on_step(n, amplitudes), if given, sees the state after n = 0..t_steps
    as a read-only (sites, components) view of the stepping buffer; the
    view is valid only during the call, so copy what must outlive it.

    The steps run on a component-major (components, h + sites + h) copy,
    h = max |shift| of ``step_entries``, whose first and last h columns
    repeat the ring's last and first h sites.  The arithmetic is that of
    ``step`` in the same order (phase, then one multiply-add per
    ``step_entries`` row onto +0, the roll read as one shifted slice), so
    the result is bit-identical to t_steps applications of ``step``.

    Without on_step, on a ring of at least SPLIT_MIN_LENGTH sites, this
    process and a helper process (``tables._Helper``) may step the leg,
    each owning half the ring, with the same bits and the same leakage
    checks (``splitleg``).  If the helper cannot be started or does not
    finish cleanly, the leg is stepped again here from the input, and a
    leakage warning already given is not repeated.
    """
    if t_steps < 0:
        raise DomainError(f"t_steps must be >= 0, got {t_steps}")
    state = _lattice(amps, model)
    warned = False
    if on_step is None and t_steps and model.length >= SPLIT_MIN_LENGTH:
        from .splitleg import split_leg   # compiled only where it may run
        out, warned = split_leg(state, model, t_steps)
        if out is not None:
            return out
    return _serial_leg(state, model, t_steps, on_step, warned)


def free_evolve(amps, model: WalkModel, t_steps: int) -> np.ndarray:
    """Exact free evolution by any integer number of steps (negative =
    inverse), applied in the band basis on the FFT grid."""
    ft = np.fft.fft(_lattice(amps, model), axis=0)
    _, bands = model.mode_data
    out = np.zeros_like(ft)
    for _, (wsum, vec) in bands.items():
        proj = np.einsum("ck,kc->k", vec, ft)
        out += (np.exp(-1j * wsum * t_steps) * proj)[:, None] * vec.T
    return _lattice(np.fft.ifft(out, axis=0))


@dataclass(frozen=True)
class SMatrixMeasurement:
    """Binned scattering data from one finite-time sandwich run."""

    diagonal_coefficient: complex
    channel_weights: dict
    boundary_mass: float


def extract_smatrix(model: WalkModel, spec_in: GaussianPacketSpec,
                    t_steps: int, on_step=None) -> SMatrixMeasurement:
    """Finite-time Moller sandwich U0^{-T} U^{2T} U0^{-T} on the packet.

    The packet is the free asymptote at time zero (centered on the
    interaction); the backward free leg carries it clear of the center,
    the local stepper runs 2T steps, and the second free leg maps the
    result back.  For the fixed-p model the packet is projected onto the
    exchange-odd sector first, so the diagonal coefficient approximates
    the fermionic elastic amplitude (S_diag = 1 + c).  on_step is passed
    to the interacting leg's evolve (n = 0 .. 2T): each array it receives
    is a read-only (sites, components) view, valid only during the call.

    Raises the inconclusive-scattering error when the packet has not
    fully cleared the interaction region on either asymptotic leg.
    """
    packet = build_packet(model, spec_in)
    packet = _normalized(band_project(model, packet, tuple(spec_in.band)))
    if model.total_momentum is not None:
        packet = antisymmetrize(model, packet)

    past = free_evolve(packet, model, -t_steps)
    window = np.arange(model.center - BOUNDARY_WINDOW,
                       model.center + BOUNDARY_WINDOW + 1) % model.length
    mass_in = float(np.sum(np.abs(past[window]) ** 2))
    if mass_in > TRAVERSAL_TOL:
        raise ScatteringInconclusiveError(
            f"backward-evolved packet keeps {mass_in:.2e} mass at the "
            f"interaction region; increase t_steps or narrow the packet"
        )

    middle = evolve(past, model, 2 * t_steps, on_step=on_step)
    mass_out = float(np.sum(np.abs(middle[window]) ** 2))
    if mass_out > TRAVERSAL_TOL:
        raise ScatteringInconclusiveError(
            f"packet has not traversed the interaction region "
            f"({mass_out:.2e} mass remaining); increase t_steps"
        )
    out = free_evolve(middle, model, -t_steps)

    diag = complex(np.sum(packet.conj() * out)) - 1.0

    _, bands = model.mode_data
    ft = np.fft.fft(out, axis=0) / np.sqrt(model.length)
    weights = {
        label: float(np.sum(np.abs(np.einsum("ck,kc->k", vec, ft)) ** 2))
        for label, (_, vec) in bands.items()
    }
    return SMatrixMeasurement(
        diagonal_coefficient=diag,
        channel_weights=weights,
        boundary_mass=_boundary_mass(out),
    )


def transmission_reflection(out_amps, model: WalkModel,
                            k0: float, band: int = +1) -> tuple[float, float]:
    """Forward/backward probabilities of a single-particle out-state.

    Bins the band-projected momentum density by the sign of the group
    velocity relative to the incoming packet's; the residue (other band,
    stationary bins) is the leakage, so T + R + leakage = 1 exactly.
    """
    if model.total_momentum is not None:
        raise DomainError("transmission_reflection applies to the "
                          "single-particle model")
    d = model.dispersion
    kk, bands = model.mode_data
    ft = np.fft.fft(_lattice(out_amps), axis=0) / np.sqrt(model.length)
    _, vec = bands[(band,)]
    dens = np.abs(np.einsum("ck,kc->k", vec, ft)) ** 2
    v = band * d.omega_prime(kk)
    v_in = band * d.omega_prime(k0)
    if abs(v_in) < 1e-12:
        raise DomainError(f"incoming group velocity vanishes at k0={k0}")
    forward = v * np.sign(v_in) > 1e-12
    backward = v * np.sign(v_in) < -1e-12
    return float(dens[forward].sum()), float(dens[backward].sum())


def snapshot_columns(amps: np.ndarray) -> dict:
    """Columns (site, component, re, im) of the CSV snapshot schema."""
    L, ncomp = amps.shape
    return {
        "site": np.repeat(np.arange(L), ncomp).tolist(),
        "component": np.tile(np.arange(ncomp), L).tolist(),
        "re": amps.real.ravel().tolist(),
        "im": amps.imag.ravel().tolist(),
    }


# the name perfbench/tracer.py wraps (its TARGETS predate the rename)
snapshot_rows = snapshot_columns
