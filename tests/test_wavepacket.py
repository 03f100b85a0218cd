"""Direct wave-packet runs: locality, free limits, and sandwich measurements."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
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
    m = wp.WalkModel(0.8, 1.0, length=512)
    st = wp.build_packet(m, wp.GaussianPacketSpec(k0=0.5, sigma_x=16.0, x0=256))
    assert np.linalg.norm(st) == pytest.approx(1.0, abs=1e-12)
    ft = np.fft.fft(st, axis=0)
    kk = 2.0 * np.pi * np.fft.fftfreq(512)
    peak = kk[int(np.argmax(np.sum(np.abs(ft) ** 2, axis=1)))]
    assert peak == pytest.approx(0.5, abs=2.0 * np.pi / 512 + 1e-12)


def test_packet_validation():
    m = wp.WalkModel(0.8, 1.0, length=512)
    with pytest.raises(GeometryError):
        wp.build_packet(m, wp.GaussianPacketSpec(k0=0.5, sigma_x=16.0, x0=100))
    with pytest.raises(DomainError):
        wp.GaussianPacketSpec(k0=0.5, sigma_x=4.0, x0=256)
    with pytest.raises(DomainError):
        wp.build_packet(m, wp.GaussianPacketSpec(k0=0.5, sigma_x=16.0, x0=256,
                                                 band=(1, 1)))


def test_step_unitary_and_local():
    m = wp.WalkModel(0.8, 1.3, length=128)
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
    m = wp.WalkModel(0.8, 0.0, length=128)
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
    cases = ((wp.WalkModel(0.8, 1.0, length=128),
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
    m = wp.WalkModel(0.8, 0.0, length=64)
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
    m = wp.WalkModel(0.8, 1.0, length=256)
    st = wp.build_packet(m, wp.GaussianPacketSpec(k0=0.7, sigma_x=12.0, x0=128))
    back = wp.free_evolve(wp.free_evolve(st, m, 37), m, -37)
    np.testing.assert_allclose(back, st, atol=1e-13)


def test_norm_drift_under_stepping():
    m = wp.WalkModel(0.8, 1.0, length=512)
    st = wp.build_packet(m, wp.GaussianPacketSpec(k0=0.5, sigma_x=16.0, x0=256))
    out = wp.evolve(st, m, 256)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_zero_coupling_smatrix_is_identity():
    m = wp.WalkModel(0.8, 0.0, length=1024)
    meas = wp.extract_smatrix(
        m, wp.GaussianPacketSpec(k0=0.5, sigma_x=16.0, x0=512), 300)
    assert abs(meas.diagonal_coefficient) < 1e-8
    assert meas.channel_weights[(1,)] == pytest.approx(1.0, abs=1e-10)
    assert meas.channel_weights[(-1,)] < 1e-12


def test_single_particle_sandwich_frozen():
    m = wp.WalkModel(0.8, 1.0, length=2048)
    spec = wp.GaussianPacketSpec(k0=0.5, sigma_x=32.0, x0=1024)
    meas = wp.extract_smatrix(m, spec, 600)
    assert meas.diagonal_coefficient == pytest.approx(SP_DIAG_REF, rel=1e-9)
    # finite-width measurement of the closed forward coefficient
    assert abs(meas.diagonal_coefficient - C_FWD) < 1e-3
    packet = wp.band_project(m, wp.build_packet(m, spec), (1,))
    packet = packet / np.linalg.norm(packet)
    out = wp.free_evolve(wp.evolve(wp.free_evolve(packet, m, -600), m, 1200),
                         m, -600)
    t_prob, r_prob = oracles.transmission_reflection(out, m, 0.5, band=+1)
    assert t_prob == pytest.approx(SP_T_REF, rel=1e-9)
    assert r_prob == pytest.approx(SP_R_REF, rel=1e-9)
    assert t_prob + r_prob == pytest.approx(1.0, abs=1e-12)
    assert t_prob == pytest.approx(abs(1.0 + C_FWD) ** 2, abs=5e-4)
    assert r_prob == pytest.approx(abs(C_BACK) ** 2, abs=5e-4)


def test_single_particle_packet_matches_ls_per_bin():
    # At fixed k the sandwich is diagonal in the FFT momentum bins once the
    # packet has cleared the site, so each bin's ratio is the LS amplitude
    # itself, with no envelope average: forward a_out(k)/a_in(k) - 1, and
    # backward a_out(-k)/a_in(k) (the site sits at L/2, where e^{2ikx} = 1)
    m = wp.WalkModel(0.8, 1.0, length=2048)
    spec = wp.GaussianPacketSpec(k0=0.5, sigma_x=32.0, x0=1024)
    packet = wp.band_project(m, wp.build_packet(m, spec), (1,))
    packet = packet / np.linalg.norm(packet)
    out = wp.free_evolve(wp.evolve(wp.free_evolve(packet, m, -600), m, 1200),
                         m, -600)
    kk, bands = m.mode_data
    _, vec = bands[(1,)]
    a_in, a_out = (np.einsum("ck,kc->k", vec,
                             np.fft.fft(st, axis=0) / np.sqrt(m.length))
                   for st in (packet, out))
    disp = m.dispersion
    w = oracles.w_operator(oracles.OnSitePhase(chi=1.0, f={0: -1.0}))
    for i in np.argsort(np.abs(kk - 0.5))[:3]:
        k, back = float(kk[i]), -i % m.length
        assert kk[back] == -k
        c_fwd, c_back = (oracles.channel_amplitude(
            oracles.s_matrix_element(w, disp, (k, +1), (k_out, +1)), disp)
            for k_out in (k, -k))
        assert abs(a_out[i] / a_in[i] - 1.0 - c_fwd) <= 1e-9
        assert abs(a_out[back] / a_in[i] - c_back) <= 1e-9


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
        wp.exchange(wp.WalkModel(0.8, 1.0, length=256), st)


def test_unswept_packet_is_inconclusive():
    m = wp.WalkModel(0.8, 1.0, length=512)
    with pytest.raises(ScatteringInconclusiveError):
        wp.extract_smatrix(m, wp.GaussianPacketSpec(k0=0.5, sigma_x=16.0, x0=256), 8)


def test_boundary_leakage_warns():
    m = wp.WalkModel(0.8, 1.0, length=128)
    amps = np.zeros((128, 2), dtype=complex)
    amps[1, 0] = 1.0
    with pytest.warns(BoundaryLeakageWarning):
        wp.evolve(amps, m, 1)


def test_transmission_reflection_guards():
    params = ThirringParams(nu=0.8, chi=1.0)
    mc = wp.thirring_com_model(params, 0.3, length=256)
    st = np.ones((256, 4), dtype=complex)
    with pytest.raises(DomainError):
        oracles.transmission_reflection(st, mc, 0.5)
    m = wp.WalkModel(0.8, 1.0, length=256)
    st1 = np.ones((256, 2), dtype=complex)
    with pytest.raises(DomainError):
        oracles.transmission_reflection(st1, m, 0.0)  # vanishing group velocity


def test_extract_smatrix_reports_each_interacting_step_once():
    m = wp.WalkModel(0.8, 1.0, length=1024)
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
    m = wp.WalkModel(0.8, 1.0, length=1024)
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
    m = wp.WalkModel(0.8, 1.0, length=128)
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
    m = wp.WalkModel(0.8, 1.0, length=256)
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
    half = np.asfortranarray(wp.fold_odd(mc, st))
    for out in (st, wp.band_project(mc, st, (1, 1)), wp.exchange(mc, st),
                wp.antisymmetrize(mc, st), wp.free_evolve(st, mc, 3),
                wp.evolve(st, mc, 3), wp.step(st, mc),
                wp.evolve_odd(half, mc, 3)):
        assert out.dtype == complex and out.flags["C_CONTIGUOUS"]


# the exchange-odd leg steps half the ring and unfolds it: it must agree
# with the full ring's evolve of the same odd state to rounding, step by
# step, and warn of leakage at the same step


def _odd_part(m, amps):
    """0.5 * (amps - exchange(amps)), which fold_odd keeps half of."""
    odd = 0.5 * (amps - wp.exchange(m, amps))
    assert np.array_equal(wp.unfold_odd(wp.fold_odd(m, amps)), odd)
    return odd


def _legs(m, amps, t_steps):
    """The full ring's and the odd leg's runs from the odd part of amps:
    (final ring, the half of the state after each step, the steps named
    by leakage warnings) for each."""
    odd = _odd_part(m, amps)
    runs = []
    for leg, state in ((wp.evolve, odd), (wp.evolve_odd, wp.fold_odd(m, amps))):
        halves = []

        def on_step(n, amps):
            if leg is wp.evolve_odd:
                assert amps.shape == (m.center + 1, m.ncomp)
                assert not amps.flags.writeable
                halves.append((n, amps.copy()))
            else:
                halves.append((n, np.concatenate((amps[m.center:], amps[:1]))))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = leg(state, m, t_steps, on_step=on_step)
        steps = [int(str(w.message).split()[-2]) for w in caught
                 if issubclass(w.category, BoundaryLeakageWarning)]
        assert len(caught) == len(steps)
        runs.append((out, halves, steps))
    return runs


def _assert_odd_leg_matches(m, amps, t_steps):
    (full, full_halves, full_warned), (odd, halves, warned) = _legs(m, amps, t_steps)
    assert [n for n, _ in halves] == list(range(t_steps + 1))
    for (_, want), (_, got) in zip(full_halves, halves):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    np.testing.assert_allclose(odd, full, rtol=0, atol=1e-13)
    assert warned == full_warned
    return warned


def _packet(m, x0, k0, sigma, seed=0):
    """A Gaussian envelope around site x0 (ring distance), carrier k0 and
    a random internal vector, normalized."""
    rng = np.random.default_rng(seed)
    gap = (np.arange(m.length) - x0 + m.length // 2) % m.length - m.length // 2
    env = np.exp(-gap ** 2 / (4.0 * sigma ** 2) + 1j * k0 * gap)
    vec = rng.standard_normal(m.ncomp) + 1j * rng.standard_normal(m.ncomp)
    amps = env[:, None] * vec[None, :]
    return amps / np.linalg.norm(amps)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(nu=st.floats(0.1, 0.95), chi=st.floats(-math.pi, math.pi),
       p=st.floats(-math.pi, math.pi), half_length=st.integers(32, 256),
       t_steps=st.integers(0, 400), x0=st.floats(0.0, 1.0),
       k0=st.floats(-math.pi, math.pi), sigma=st.floats(2.0, 12.0),
       seed=st.integers(0, 2 ** 16))
def test_evolve_odd_matches_the_full_ring(nu, chi, p, half_length, t_steps,
                                          x0, k0, sigma, seed):
    m = wp.thirring_com_model(ThirringParams(nu=nu, chi=chi), p,
                              length=2 * half_length)
    amps = _packet(m, int(x0 * m.length), k0, sigma, seed)
    _assert_odd_leg_matches(m, amps, t_steps)


# a 512-site ring, stepped for none, one, a few steps, past a leakage check
# at 64 and to checks at the last step, from a packet on the center (the
# reflection's fixed point r = 0) or on the seam (r = L/2)
ODD_LENGTH = 512


def _odd_model():
    return wp.thirring_com_model(ThirringParams(nu=0.8, chi=1.0), 0.3,
                                 length=ODD_LENGTH)


# The odd leg steps the ring split at the reflection's two fixed points.
# Each of its steps is, bit for bit, ``step`` of the unfolded half, folded
# again: the mirror ghosts are unfold_odd's sites, and the sums run in
# step()'s order.  The full ring's evolve drifts from oddness by rounding,
# so against it the leg agrees to 1e-13.
@pytest.mark.parametrize("t_steps", [0, 1, 5, 32, 45, 96, 150])
@pytest.mark.parametrize("where", ["center", "seam"])
def test_split_leg_matches_step_bitwise(t_steps, where):
    m = _odd_model()
    x0 = m.center - 10 if where == "center" else 5
    amps = _packet(m, x0, 0.5, 8.0)
    halves = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryLeakageWarning)
        out = wp.evolve_odd(wp.fold_odd(m, amps), m, t_steps,
                            on_step=lambda n, half: halves.append(half.copy()))
    half = wp.fold_odd(m, amps)
    for n in range(t_steps + 1):
        assert np.array_equal(halves[n], half)
        ring = wp.step(wp.unfold_odd(half), m)
        half = np.concatenate((ring[m.center:], ring[:1]))
    assert np.array_equal(out, wp.unfold_odd(halves[-1]))
    _assert_odd_leg_matches(m, amps, t_steps)


# the packet starts `gap` sites before the ring's seam (its mirror image
# as far after it): the odd leg warns at the full (serial) ring's step,
# the last step (50), or the first multiple of 64 past LEAKAGE_TOL
@pytest.mark.parametrize("t_steps, gap", [(50, 60), (64, 90), (70, 90),
                                          (200, 120)])
def test_split_leg_warns_like_serial(t_steps, gap):
    m = _odd_model()
    warned = _assert_odd_leg_matches(m, _packet(m, m.length - gap, 0.5, 8.0),
                                     t_steps)
    assert len(warned) == 1
    if t_steps == 50:
        assert warned == [50]


def test_odd_leg_guards():
    mc = _odd_model()
    half = wp.fold_odd(mc, _packet(mc, 100, 0.5, 8.0))
    with pytest.raises(DomainError, match="half-ring shape"):
        wp.evolve_odd(half[:-1], mc, 1)
    with pytest.raises(DomainError, match="t_steps must be >= 0"):
        wp.evolve_odd(half, mc, -1)
    single = wp.WalkModel(0.8, 1.0, length=ODD_LENGTH)
    with pytest.raises(DomainError, match="fixed-p"):
        wp.evolve_odd(half[:, :2], single, 1)
    with pytest.raises(DomainError, match="fixed-p"):
        wp.fold_odd(single, np.zeros((ODD_LENGTH, 2)))
