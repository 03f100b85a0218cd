"""Direct wave-packet runs: locality, free limits, and sandwich measurements."""

import warnings

import numpy as np
import pytest

import oracles
from dtscatter import dyson as dy
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
    assert st.norm == pytest.approx(1.0, abs=1e-12)
    ft = np.fft.fft(st.amplitudes, axis=0)
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
    st = wp.LatticeState(amps)
    nxt = wp.step(st, m)
    assert nxt.norm == pytest.approx(1.0, abs=1e-14)
    occupied = np.nonzero(np.abs(nxt.amplitudes).sum(axis=1) > 1e-15)[0]
    assert np.abs(occupied - 64).max() <= 1  # at most one site per step
    # fixed-p two-particle steps move the relative coordinate by <= 2
    mc = wp.thirring_com_model(ThirringParams(nu=0.8, chi=1.3), 0.3, length=128)
    amps4 = np.zeros((128, 4), dtype=complex)
    amps4[64, 1] = 1.0
    nxt4 = wp.step(wp.LatticeState(amps4), mc)
    occupied4 = np.nonzero(np.abs(nxt4.amplitudes).sum(axis=1) > 1e-15)[0]
    assert np.abs(occupied4 - 64).max() <= 2


def test_free_stepper_matches_mode_sum():
    # chi = 0: the local stepper, the spectral propagator, and an explicit
    # plane-wave resummation must agree to rounding
    m = wp.single_particle_model(0.8, 0.0, length=128)
    st = wp.band_project(
        m, wp.build_packet(m, wp.GaussianPacketSpec(k0=0.5, sigma_x=8.0, x0=64)),
        (1,)).normalized()
    cur = st
    for _ in range(40):
        cur = wp.step(cur, m)
    np.testing.assert_allclose(
        cur.amplitudes, oracles.mode_sum_evolution(0.8, st.amplitudes, 40),
        atol=1e-13)
    np.testing.assert_allclose(
        cur.amplitudes, wp.free_evolve(st, m, 40).amplitudes, atol=1e-13)


def test_delta_evolution_matches_retarded_kernel():
    # column of U0^t against the quadrature kernel (source-relative dx)
    params = ThirringParams(nu=0.8, chi=1.0)
    m = wp.single_particle_model(0.8, 0.0, length=64)
    amps = np.zeros((64, 2), dtype=complex)
    amps[32, 0] = 1.0
    cur = wp.LatticeState(amps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryLeakageWarning)
        for _ in range(5):
            cur = wp.step(cur, m)
    for d in range(-6, 7):
        blk = dy.retarded_propagator(params, -d, 5).block
        np.testing.assert_allclose(cur.amplitudes[(32 + d) % 64], blk[:, 0],
                                   atol=1e-12)
    # strict cone: nothing beyond |dx| = t
    assert np.abs(cur.amplitudes[32 + 6:32 + 12]).max() < 1e-15
    assert np.abs(cur.amplitudes[32 - 11:32 - 5]).max() < 1e-15


def test_free_evolve_roundtrip():
    m = wp.single_particle_model(0.8, 1.0, length=256)
    st = wp.build_packet(m, wp.GaussianPacketSpec(k0=0.7, sigma_x=12.0, x0=128))
    back = wp.free_evolve(wp.free_evolve(st, m, 37), m, -37)
    np.testing.assert_allclose(back.amplitudes, st.amplitudes, atol=1e-13)


def test_norm_drift_under_stepping():
    m = wp.single_particle_model(0.8, 1.0, length=512)
    st = wp.build_packet(m, wp.GaussianPacketSpec(k0=0.5, sigma_x=16.0, x0=256))
    out = wp.evolve(st, m, 256)
    assert abs(out.norm - 1.0) < 1e-12


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
    packet = wp.band_project(m, wp.build_packet(m, spec), (1,)).normalized()
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
    np.testing.assert_allclose(twice.amplitudes, st.amplitudes, atol=1e-14)
    anti = wp.antisymmetrize(m, st)
    np.testing.assert_allclose(wp.exchange(m, anti).amplitudes,
                               -anti.amplitudes, atol=1e-13)
    again = wp.antisymmetrize(m, anti)
    np.testing.assert_allclose(again.amplitudes, anti.amplitudes, atol=1e-13)
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
        wp.evolve(wp.LatticeState(amps), m, 1)


def test_transmission_reflection_guards():
    params = ThirringParams(nu=0.8, chi=1.0)
    mc = wp.thirring_com_model(params, 0.3, length=256)
    st = wp.LatticeState(np.ones((256, 4), dtype=complex))
    with pytest.raises(DomainError):
        wp.transmission_reflection(st, mc, 0.5)
    m = wp.single_particle_model(0.8, 1.0, length=256)
    st1 = wp.LatticeState(np.ones((256, 2), dtype=complex))
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


def test_snapshot_rows_schema():
    amps = np.zeros((4, 2), dtype=complex)
    amps[2, 1] = 0.25 - 0.5j
    cols = wp.snapshot_columns(amps)
    assert list(cols) == ["site", "component", "re", "im"]
    assert all(len(c) == 8 for c in cols.values())
    assert tuple(c[5] for c in cols.values()) == (2, 1, 0.25, -0.5)
