"""Dispersion, band eigenvectors, Brillouin-zone helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dtscatter.errors import DomainError
from dtscatter.spectral import bz_grid, make_dispersion, wrap_momentum

# pinned by oracles.omega_bisect / oracles.alpha_pair at 30 digits
OMEGA_080_K0 = 0.6435011087932843868
ALPHA_UP_080_K1 = 0.35600825486946920744
ALPHA_DN_080_K1 = 0.9344828101494403917


def test_omega_reference_value():
    d = make_dispersion(0.8)
    assert d.omega(0.0) == pytest.approx(OMEGA_080_K0, abs=1e-14)
    # band edges: arccos(+-nu)
    assert d.omega(np.pi) == pytest.approx(np.pi - OMEGA_080_K0, abs=1e-14)


def test_alpha_reference_values():
    d = make_dispersion(0.8)
    au, ad = d.alpha(+1, 1.0)
    assert au == pytest.approx(ALPHA_UP_080_K1, abs=1e-14)
    assert ad == pytest.approx(ALPHA_DN_080_K1, abs=1e-14)


def test_alpha_unit_norm_and_orthogonality():
    d = make_dispersion(0.6)
    for k in (-2.5, -0.3, 0.0, 0.9, 3.0):
        up1, dn1 = d.alpha(+1, k)
        up2, dn2 = d.alpha(-1, k)
        assert up1**2 + dn1**2 == pytest.approx(1.0, abs=1e-14)
        assert up1 * up2 + dn1 * dn2 == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("nu", [0.0, 0.37, 0.8, 0.999, 1.0])
def test_alpha_array_matches_scalar_bitwise(nu):
    # the batched CLI routes evaluate alpha on arrays, the per-point
    # routes on scalars: both must give the same bits
    d = make_dispersion(nu)
    kk = np.random.default_rng(7).uniform(-np.pi, np.pi, 4000)
    kk[:3] = (0.0, -0.0, np.pi)
    for s in (+1, -1):
        up, dn = d.alpha(s, kk)
        pointwise = np.array([d.alpha(s, k) for k in kk])
        assert np.array_equal(up, pointwise[:, 0])
        assert np.array_equal(dn, pointwise[:, 1])


def test_alpha_at_chiral_point_takes_arrays():
    # nu = 1: canonical basis, e^{-i|k|} in the lower entry for k >= 0
    d = make_dispersion(1.0)
    up, dn = d.alpha(+1, np.array([-0.5, 0.0, 0.5]))
    assert up.tolist() == [1.0, 0.0, 0.0]
    assert dn.tolist() == [0.0, 1.0, 1.0]
    assert d.alpha(-1, 0.5) == (1.0, 0.0)


def test_eigensystem_diagonalizes_walk_matrix():
    d = make_dispersion(0.8)
    for k in (0.3, -1.2, 2.9):
        m = oracles.dirac_walk_matrix(d, k)
        plus, minus = (np.array(d.alpha(s, k), dtype=complex) for s in (+1, -1))
        for vec, s in ((plus, +1), (minus, -1)):
            lhs = m @ vec
            rhs = np.exp(-1j * s * d.omega(k)) * vec
            assert np.abs(lhs - rhs).max() < 1e-14


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_wrap_momentum_is_canonical(k):
    w = wrap_momentum(k)
    assert -np.pi < w <= np.pi + 1e-15
    assert np.cos(w) == pytest.approx(np.cos(k), abs=1e-9)
    assert np.sin(w) == pytest.approx(np.sin(k), abs=1e-9)


@settings(max_examples=25)
@given(st.floats(min_value=0.05, max_value=0.99),
       st.floats(min_value=-3.1, max_value=3.1))
def test_group_velocity_matches_finite_difference(nu, k):
    d = make_dispersion(nu)
    h = 1e-6
    fd = (d.omega(k + h) - d.omega(k - h)) / (2 * h)
    assert d.omega_prime(k) == pytest.approx(fd, abs=5e-9)


def test_nu_validation():
    with pytest.raises(DomainError):
        make_dispersion(1.5)
    with pytest.raises(DomainError):
        make_dispersion(-0.1)


def test_quadrature_geometric_identity():
    # (1/2pi) Int dk 1/(1 - a e^{-ik}) = 1 exactly for |a| < 1
    # (residue theorem; cross-checked by oracles.geometric_bz_integral)
    for a in (0.3, 0.5, 0.9):
        val = oracles.quadrature_bz(lambda k: 1.0 / (1.0 - a * np.exp(-1j * k)))
        assert val == pytest.approx(1.0, abs=1e-12)


def test_quadrature_resolves_moments():
    val = oracles.quadrature_bz(lambda k: np.exp(1j * 3 * k))
    assert abs(val) < 1e-14


def test_bz_grid_covers_zone_once():
    kk = bz_grid(64)
    assert len(kk) == 64
    assert np.all(kk > -np.pi) and np.all(kk <= np.pi)
    # equally spaced
    assert np.ptp(np.diff(np.sort(kk))) < 1e-14

