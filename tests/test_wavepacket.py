"""Direct wave-packet runs: locality, free limits, and sandwich measurements."""

import os
import warnings

import numpy as np
import pytest

import oracles
from dtscatter import splitleg
from dtscatter import tables
from dtscatter import wavepacket as wp
from dtscatter.errors import (
    BoundaryLeakageWarning,
    DomainError,
    GeometryError,
    ScatteringInconclusiveError,
)
from dtscatter.thirring import ThirringParams

# closed-form single-particle row at (nu, k0, chi) = (0.8, 0.5, 1.0)
C_FWD = -0.8022927477498735 + 0.5716918158654909j
C_BACK = -0.7525601526429524 + 0.2602566553648124j
# closed-form elastic coefficient at (nu, p, k, chi) = (0.8, 0.3, 0.7, 1.0)
C_PP = -0.10413883800323379 + 0.3054405677420241j

# measured sandwich values for the geometries pinned below (sigma_x = 32)
SP_DIAG_REF = -0.8023707050939274 + 0.5714744974791427j
SP_T_REF = 0.36577540528634667
SP_R_REF = 0.6342245947135435
COM_DIAG_REF = -0.1041081238946 + 0.3053787527171011j


def test_packet_normalization_and_peak():
    m = wp.single_particle_model(0.8, 1.0, length=512)
    st = wp.build_packet(m, wp.GaussianPacketSpec(k0=0.5, sigma_x=16.0, x0=256))
    assert np.linalg.norm(st) == pytest.approx(1.0, abs=1e-12)
    ft = np.fft.fft(st, axis=0)
    kk = 2.0 * np.pi * np.fft.fftfreq(512)
    peak = kk[int(np.argmax(np.sum(np.abs(ft) ** 2, axis=1)))]
    assert peak == pytest.approx(0.5, abs=2.0 * np.pi / 512 + 1e-12)


def test_packet_validation():
    m = wp.single_particle_model(0.8, 1.0, length=512)
    with pytest.raises(GeometryError):
        wp.build_packet(m, wp.GaussianPacketSpec(k0=0.5, sigma_x=16.0, x0=100))
    with pytest.raises(DomainError):
        wp.GaussianPacketSpec(k0=0.5, sigma_x=4.0, x0=256)
    with pytest.raises(DomainError):
        wp.build_packet(m, wp.GaussianPacketSpec(k0=0.5, sigma_x=16.0, x0=256,
                                                 band=(1, 1)))


def test_step_unitary_and_local():
    m = wp.single_particle_model(0.8, 1.3, length=128)
    amps = np.zeros((128, 2), dtype=complex)
    amps[64, 0] = 1.0
    nxt = wp.step(amps, m)
    assert np.linalg.norm(nxt) == pytest.approx(1.0, abs=1e-14)
    occupied = np.nonzero(np.abs(nxt).sum(axis=1) > 1e-15)[0]
    assert np.abs(occupied - 64).max() <= 1  # at most one site per step
    # fixed-p two-particle steps move the relative coordinate by <= 2
    mc = wp.thirring_com_model(ThirringParams(nu=0.8, chi=1.3), 0.3, length=128)
    amps4 = np.zeros((128, 4), dtype=complex)
    amps4[64, 1] = 1.0
    nxt4 = wp.step(amps4, mc)
    occupied4 = np.nonzero(np.abs(nxt4).sum(axis=1) > 1e-15)[0]
    assert np.abs(occupied4 - 64).max() <= 2


def test_free_stepper_matches_mode_sum():
    # chi = 0: the local stepper, the spectral propagator, and an explicit
    # plane-wave resummation must agree to rounding
    m = wp.single_particle_model(0.8, 0.0, length=128)
    st = wp.band_project(
        m, wp.build_packet(m, wp.GaussianPacketSpec(k0=0.5, sigma_x=8.0, x0=64)),
        (1,))
    st = st / np.linalg.norm(st)
    cur = st
    for _ in range(40):
        cur = wp.step(cur, m)
    np.testing.assert_allclose(
        cur, oracles.mode_sum_evolution(0.8, st, 40), atol=1e-13)
    np.testing.assert_allclose(cur, wp.free_evolve(st, m, 40), atol=1e-13)


def _bits(amps):
    # raw bits, because -0.0 == 0.0 would hide a flipped signed zero
    return np.array(amps, order="C").view(np.uint64)


def test_evolve_matches_step_bitwise():
    # evolve's component-major leg repeats step's arithmetic in step's
    # order, so every state it reaches agrees with step bit for bit
    rng = np.random.default_rng(0)
    params = ThirringParams(nu=0.8, chi=1.0)
    cases = ((wp.single_particle_model(0.8, 1.0, length=128),
              wp.GaussianPacketSpec(k0=0.5, sigma_x=8.0, x0=64)),
             (wp.thirring_com_model(params, 0.3, length=256),
              wp.GaussianPacketSpec(k0=0.7, sigma_x=8.0, x0=128, band=(1, 1))))
    for m, spec in cases:
        # centered on the ring seam and cut to 24 sites either side; zeros
        # of random sign ahead of the light cone make the sums' signed
        # zeros depend on starting each row from +0
        st = np.roll(wp.build_packet(m, spec), -m.length // 2, axis=0)
        cut = st[24:-24]
        cut.real = np.copysign(0.0, rng.standard_normal(cut.shape))
        cut.imag = np.copysign(0.0, rng.standard_normal(cut.shape))
        seen = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryLeakageWarning)
            out = wp.evolve(st, m, 300,
                            on_step=lambda n, amps: seen.append(_bits(amps)))
        assert len(seen) == 301
        cur, center_mass = st, 0.0
        assert np.array_equal(seen[0], _bits(cur))
        for n in range(1, 301):
            cur = wp.step(cur, m)
            assert np.array_equal(seen[n], _bits(cur)), f"step {n}"
            near = cur[m.center - 4:m.center + 5]
            center_mass = max(center_mass, float(np.sum(np.abs(near) ** 2)))
        assert np.array_equal(_bits(out), _bits(cur))
        assert center_mass > 0.1  # the packet crossed the interaction center


def test_delta_evolution_matches_retarded_kernel():
    # column of U0^t against the quadrature kernel (source-relative dx)
    params = ThirringParams(nu=0.8, chi=1.0)
    m = wp.single_particle_model(0.8, 0.0, length=64)
    amps = np.zeros((64, 2), dtype=complex)
    amps[32, 0] = 1.0
    cur = amps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryLeakageWarning)
        for _ in range(5):
            cur = wp.step(cur, m)
    for d in range(-6, 7):
        blk = oracles.retarded_propagator(params, -d, 5)
        np.testing.assert_allclose(cur[(32 + d) % 64], blk[:, 0], atol=1e-12)
    # strict cone: nothing beyond |dx| = t
    assert np.abs(cur[32 + 6:32 + 12]).max() < 1e-15
    assert np.abs(cur[32 - 11:32 - 5]).max() < 1e-15


def test_free_evolve_roundtrip():
    m = wp.single_particle_model(0.8, 1.0, length=256)
    st = wp.build_packet(m, wp.GaussianPacketSpec(k0=0.7, sigma_x=12.0, x0=128))
    back = wp.free_evolve(wp.free_evolve(st, m, 37), m, -37)
    np.testing.assert_allclose(back, st, atol=1e-13)


def test_norm_drift_under_stepping():
    m = wp.single_particle_model(0.8, 1.0, length=512)
    st = wp.build_packet(m, wp.GaussianPacketSpec(k0=0.5, sigma_x=16.0, x0=256))
    out = wp.evolve(st, m, 256)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_zero_coupling_smatrix_is_identity():
    m = wp.single_particle_model(0.8, 0.0, length=1024)
    meas = wp.extract_smatrix(
        m, wp.GaussianPacketSpec(k0=0.5, sigma_x=16.0, x0=512), 300)
    assert abs(meas.diagonal_coefficient) < 1e-8
    assert meas.channel_weights[(1,)] == pytest.approx(1.0, abs=1e-10)
    assert meas.channel_weights[(-1,)] < 1e-12


def test_single_particle_sandwich_frozen():
    m = wp.single_particle_model(0.8, 1.0, length=2048)
    spec = wp.GaussianPacketSpec(k0=0.5, sigma_x=32.0, x0=1024)
    meas = wp.extract_smatrix(m, spec, 600)
    assert meas.diagonal_coefficient == pytest.approx(SP_DIAG_REF, rel=1e-9)
    # finite-width measurement of the closed forward coefficient
    assert abs(meas.diagonal_coefficient - C_FWD) < 1e-3
    packet = wp.band_project(m, wp.build_packet(m, spec), (1,))
    packet = packet / np.linalg.norm(packet)
    out = wp.free_evolve(wp.evolve(wp.free_evolve(packet, m, -600), m, 1200),
                         m, -600)
    t_prob, r_prob = wp.transmission_reflection(out, m, 0.5, band=+1)
    assert t_prob == pytest.approx(SP_T_REF, rel=1e-9)
    assert r_prob == pytest.approx(SP_R_REF, rel=1e-9)
    assert t_prob + r_prob == pytest.approx(1.0, abs=1e-12)
    assert t_prob == pytest.approx(abs(1.0 + C_FWD) ** 2, abs=5e-4)
    assert r_prob == pytest.approx(abs(C_BACK) ** 2, abs=5e-4)


def test_fixed_p_sandwich_frozen():
    params = ThirringParams(nu=0.8, chi=1.0)
    m = wp.thirring_com_model(params, 0.3, length=2048)
    spec = wp.GaussianPacketSpec(k0=0.7, sigma_x=32.0, x0=1024, band=(1, 1))
    meas = wp.extract_smatrix(m, spec, 450)
    assert meas.diagonal_coefficient == pytest.approx(COM_DIAG_REF, rel=1e-9)
    assert abs(meas.diagonal_coefficient - C_PP) < 5e-4
    w = meas.channel_weights
    # exact selection rules: no mixed-band weight at fixed p
    assert w[(1, -1)] < 1e-15 and w[(-1, 1)] < 1e-15
    # elastic/umklapp split matches the closed coefficient
    assert w[(-1, -1)] == pytest.approx(abs(C_PP) ** 2, abs=1e-4)
    assert w[(1, 1)] == pytest.approx(abs(1.0 + C_PP) ** 2, abs=1e-3)
    assert w[(1, 1)] + w[(-1, -1)] == pytest.approx(1.0, abs=1e-10)
    assert meas.boundary_mass < 1e-20


def test_exchange_involution_and_antisymmetry():
    params = ThirringParams(nu=0.8, chi=1.0)
    m = wp.thirring_com_model(params, 0.3, length=256)
    st = wp.build_packet(m, wp.GaussianPacketSpec(k0=0.7, sigma_x=10.0, x0=128,
                                                  band=(1, 1)))
    twice = wp.exchange(m, wp.exchange(m, st))
    np.testing.assert_allclose(twice, st, atol=1e-14)
    anti = wp.antisymmetrize(m, st)
    np.testing.assert_allclose(wp.exchange(m, anti), -anti, atol=1e-13)
    again = wp.antisymmetrize(m, anti)
    np.testing.assert_allclose(again, anti, atol=1e-13)
    with pytest.raises(DomainError):
        wp.exchange(wp.single_particle_model(0.8, 1.0, length=256), st)


def test_unswept_packet_is_inconclusive():
    m = wp.single_particle_model(0.8, 1.0, length=512)
    with pytest.raises(ScatteringInconclusiveError):
        wp.extract_smatrix(m, wp.GaussianPacketSpec(k0=0.5, sigma_x=16.0, x0=256), 8)


def test_boundary_leakage_warns():
    m = wp.single_particle_model(0.8, 1.0, length=128)
    amps = np.zeros((128, 2), dtype=complex)
    amps[1, 0] = 1.0
    with pytest.warns(BoundaryLeakageWarning):
        wp.evolve(amps, m, 1)


def test_transmission_reflection_guards():
    params = ThirringParams(nu=0.8, chi=1.0)
    mc = wp.thirring_com_model(params, 0.3, length=256)
    st = np.ones((256, 4), dtype=complex)
    with pytest.raises(DomainError):
        wp.transmission_reflection(st, mc, 0.5)
    m = wp.single_particle_model(0.8, 1.0, length=256)
    st1 = np.ones((256, 2), dtype=complex)
    with pytest.raises(DomainError):
        wp.transmission_reflection(st1, m, 0.0)  # vanishing group velocity


def test_extract_smatrix_reports_each_interacting_step_once():
    m = wp.single_particle_model(0.8, 1.0, length=1024)
    spec = wp.GaussianPacketSpec(k0=0.5, sigma_x=16.0, x0=512)
    seen = []
    meas = wp.extract_smatrix(m, spec, 300,
                              on_step=lambda n, amps: seen.append(n))
    assert seen == list(range(601))
    # observing the leg leaves the measurement bit for bit
    plain = wp.extract_smatrix(m, spec, 300)
    assert meas.diagonal_coefficient == plain.diagonal_coefficient


def test_on_step_view_is_read_only():
    # the callback sees the stepping buffer itself; a write would change
    # the evolution, so it is refused and the measurement stays the same
    m = wp.single_particle_model(0.8, 1.0, length=1024)
    spec = wp.GaussianPacketSpec(k0=0.5, sigma_x=16.0, x0=512)
    refused = []

    def scribble(n, amps):
        assert amps.shape == (1024, 2)
        with pytest.raises(ValueError, match="read-only"):
            amps[m.center] = 0.0
        refused.append(n)

    meas = wp.extract_smatrix(m, spec, 300, on_step=scribble)
    assert refused == list(range(601))
    assert meas == wp.extract_smatrix(m, spec, 300)


def test_snapshot_rows_schema():
    amps = np.zeros((4, 2), dtype=complex)
    amps[2, 1] = 0.25 - 0.5j
    cols = wp.snapshot_columns(amps)
    assert list(cols) == ["site", "component", "re", "im"]
    assert all(len(c) == 8 for c in cols.values())
    assert tuple(c[5] for c in cols.values()) == (2, 1, 0.25, -0.5)


def test_state_guards():
    m = wp.single_particle_model(0.8, 1.0, length=128)
    with pytest.raises(DomainError, match=r"shape \(sites, components\)"):
        wp.evolve(np.ones(128, dtype=complex), m, 1)
    # a state on the interaction center in the uu component is its own
    # exchange image, so its fermionic part is zero
    mc = wp.thirring_com_model(ThirringParams(nu=0.8, chi=1.0), 0.3, length=128)
    even = np.zeros((128, 4), dtype=complex)
    even[mc.center, 0] = 1.0
    with pytest.raises(DomainError, match="cannot normalize the zero state"):
        wp.antisymmetrize(mc, even)


# each mismatch breaks a step differently: too few sites index past the
# state, too many put the phase off the model's center, and two extra
# components are dropped, which is not unitary
@pytest.mark.parametrize("shape", [(128, 2), (512, 2), (256, 4)])
def test_state_shape_must_match_model(shape):
    m = wp.single_particle_model(0.8, 1.0, length=256)
    amps = np.ones(shape, dtype=complex)
    for run in (lambda: wp.step(amps, m), lambda: wp.evolve(amps, m, 1),
                lambda: wp.free_evolve(amps, m, 1)):
        with pytest.raises(DomainError, match=r"does not match the model's"):
            run()


def test_returned_states_are_c_contiguous():
    # norms and overlaps of a state must sum in one memory order; the
    # band projector's product with vec.T is F-ordered before the copy
    mc = wp.thirring_com_model(ThirringParams(nu=0.8, chi=1.0), 0.3, length=256)
    st = wp.build_packet(mc, wp.GaussianPacketSpec(k0=0.7, sigma_x=10.0, x0=128,
                                                   band=(1, 1)))
    for out in (st, wp.band_project(mc, st, (1, 1)), wp.exchange(mc, st),
                wp.antisymmetrize(mc, st), wp.free_evolve(st, mc, 3),
                wp.evolve(st, mc, 3), wp.step(st, mc)):
        assert out.dtype == complex and out.flags["C_CONTIGUOUS"]


# the two-process leg: a 512-site ring is long enough for its ghost zones
# (SPLIT_BLOCK * h <= L / 4) and short enough to step cheaply
SPLIT_LENGTH = 512
SPLIT_MIN_LENGTH = wp.SPLIT_MIN_LENGTH


@pytest.fixture
def two_cpus(monkeypatch):
    """Two-process legs from SPLIT_LENGTH sites on; records the forks."""
    monkeypatch.setattr(wp, "SPLIT_MIN_LENGTH", SPLIT_LENGTH)
    monkeypatch.setattr(tables, "_usable_cpus", lambda: 2)
    forks = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    return forks


def _split_models():
    params = ThirringParams(nu=0.8, chi=1.0)
    return (wp.single_particle_model(0.8, 1.0, length=SPLIT_LENGTH),
            wp.thirring_com_model(params, 0.3, length=SPLIT_LENGTH))


def _signed_zero_state(m, x0, seed=0):
    """An upper-band packet at x0 moving toward higher sites, cut to 24
    sites either side, with zeros of random sign elsewhere."""
    rng = np.random.default_rng(seed)
    band = (1,) if m.total_momentum is None else (1, 1)
    spec = wp.GaussianPacketSpec(k0=0.5, sigma_x=8.0, x0=m.center, band=band)
    st = np.roll(wp.build_packet(m, spec), x0 - m.center, axis=0)
    keep = (np.arange(m.length) - x0) % m.length
    far = (keep > 24) & (keep < m.length - 24)
    st[far] = (np.copysign(0.0, rng.standard_normal((far.sum(), m.ncomp)))
               + 1j * np.copysign(0.0, rng.standard_normal((far.sum(), m.ncomp))))
    return st


def _serial(st, m, t_steps):
    """The one-process leg (an observer keeps evolve serial)."""
    return wp.evolve(st, m, t_steps, on_step=lambda n, amps: None)


def _leg(run):
    """(bytes of the leg's result, the leakage warnings it gave)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run()
    return _bits(out).tobytes(), [(w.category, str(w.message)) for w in caught]


# t_steps: none, one, fewer than a block, one block, a block and a part,
# and past a leakage check at 64 into a partial block
@pytest.mark.parametrize("t_steps", [0, 1, 5, 32, 45, 96, 150])
@pytest.mark.parametrize("where", ["center", "seam"])
def test_split_leg_matches_step_bitwise(t_steps, where, two_cpus):
    # a packet on the center sits on the split between the halves; one on
    # the seam straddles the ring's last and first sites
    for m in _split_models():
        x0 = m.center - 10 if where == "center" else 5
        st = _signed_zero_state(m, x0)
        cur = st
        for _ in range(t_steps):
            cur = wp.step(cur, m)
        got = _leg(lambda: wp.evolve(st, m, t_steps))
        assert got == _leg(lambda: _serial(st, m, t_steps))
        assert got[0] == _bits(cur).tobytes()
    assert len(two_cpus) == (2 if t_steps else 0)


def test_split_block_divides_the_leakage_period():
    # the split leg checks leakage only where its blocks end
    assert wp.LEAKAGE_PERIOD % splitleg.SPLIT_BLOCK == 0


def test_split_leg_at_the_default_floor(two_cpus, monkeypatch):
    # a ring of SPLIT_MIN_LENGTH sites, crossing its center, is split
    monkeypatch.setattr(wp, "SPLIT_MIN_LENGTH", SPLIT_MIN_LENGTH)
    params = ThirringParams(nu=0.8, chi=1.0)
    m = wp.thirring_com_model(params, 0.3, length=SPLIT_MIN_LENGTH)
    st = _signed_zero_state(m, m.center - 40)
    assert _leg(lambda: wp.evolve(st, m, 100)) == _leg(lambda: _serial(st, m, 100))
    assert len(two_cpus) == 1


# the packet starts `gap` sites before the ring's seam: the warning names
# the last step (50), or the first multiple of 64 past LEAKAGE_TOL
@pytest.mark.parametrize("t_steps, gap", [(50, 60), (64, 90), (70, 90),
                                          (200, 120)])
def test_split_leg_warns_like_serial(t_steps, gap, two_cpus):
    for m in _split_models():
        st = _signed_zero_state(m, m.length - gap)
        got = _leg(lambda: wp.evolve(st, m, t_steps))
        assert got == _leg(lambda: _serial(st, m, t_steps))
        assert len(got[1]) == 1
        if t_steps == 50:
            assert got[1][0][1].endswith("after 50 steps")
    assert len(two_cpus) == 2


def test_split_leg_raising_warning_reaps_the_stepper(two_cpus):
    m = _split_models()[0]
    st = _signed_zero_state(m, m.length - 120)
    want = _leg(lambda: _serial(st, m, 200))[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BoundaryLeakageWarning) as raised:
            wp.evolve(st, m, 200)
    assert [(raised.type, str(raised.value))] == want
    assert len(two_cpus) == 1   # and the conftest guard finds it reaped


def _open_fds() -> int:
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    return len(os.listdir(fd_dir))


def _split_and_serial(t_steps=150):
    """Each model's leg from a leaking state: the evolve and the serial
    (bits, warnings)."""
    legs = []
    for m in _split_models():
        st = _signed_zero_state(m, m.length - 120)
        legs.append((_leg(lambda: wp.evolve(st, m, t_steps)),
                     _leg(lambda: _serial(st, m, t_steps))))
    return legs


def test_split_leg_without_fork_or_second_cpu(monkeypatch):
    monkeypatch.setattr(wp, "SPLIT_MIN_LENGTH", SPLIT_LENGTH)
    monkeypatch.setattr(tables, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
    for got, want in _split_and_serial():
        assert got == want
    monkeypatch.setattr(tables, "_usable_cpus", lambda: 2)
    monkeypatch.delattr(os, "fork")
    for got, want in _split_and_serial():
        assert got == want


@pytest.mark.parametrize("broken", ["shared memory", "first pipe",
                                    "second pipe", "fork"])
def test_split_leg_without_pipe_or_process(broken, two_cpus, monkeypatch):
    real_pipe = os.pipe
    pipes = []

    def pipe():
        pipes.append(1)
        if broken == "first pipe" or len(pipes) % 2 == 0:
            raise OSError(24, "Too many open files")
        return real_pipe()

    def refuse(*args):
        raise OSError(11, "Resource temporarily unavailable")

    if broken == "fork":
        monkeypatch.setattr(os, "fork", refuse)
    elif broken == "shared memory":
        monkeypatch.setattr(splitleg.mmap, "mmap", refuse)
    else:
        monkeypatch.setattr(os, "pipe", pipe)
    before = _open_fds()
    for got, want in _split_and_serial():
        assert got == want
    assert _open_fds() == before   # every pipe end opened is closed
    assert not two_cpus


def test_split_leg_survives_a_failed_stepper(two_cpus, monkeypatch):
    # the stepper exits nonzero in its third block, after the 4-component
    # leg warned at 64 steps and before the 2-component one warns at 128:
    # the leg is stepped again here, and either warning is given once
    parent = os.getpid()
    real_apply = splitleg._apply
    applied = []

    def apply(plan):
        if os.getpid() != parent:
            applied.append(1)
            if len(applied) > 2 * splitleg.SPLIT_BLOCK:
                os._exit(1)
        real_apply(plan)

    monkeypatch.setattr(splitleg, "_apply", apply)
    before = _open_fds()
    for got, want in _split_and_serial():
        assert got == want
        assert len(got[1]) == 1
    assert _open_fds() == before
    assert len(two_cpus) == 2
