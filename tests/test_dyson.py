"""Interaction-picture series: propagator kernel, orders one/two, series composition."""

import numpy as np
import pytest

import oracles
from dtscatter import dyson as dy
from dtscatter.errors import DomainError, DtScatterError, TruncationError
from dtscatter.thirring import ThirringParams, channel, xy_factors

NU, P_TOT, K_REL = 0.8, 0.3, 0.7

# closed-form elastic building blocks at (nu, p, k) = (0.8, 0.3, 0.7)
X_REF = 0.18484837602219978
Y_REF = 0.7986441469484203
A_REF = 0.31204902761856404          # (y - x) / (2(x + y))


@pytest.fixture(scope="module")
def params():
    return ThirringParams(nu=NU, chi=1.0)


@pytest.fixture(scope="module")
def elastic(params):
    return channel(params, P_TOT, K_REL, +1, +1)


def test_retarded_propagator_identity_and_cone(params):
    assert np.abs(dy.retarded_propagator(params, 0, 0) - np.eye(2)).max() < 1e-14
    # strictly retarded and inside the unit-speed cone
    assert np.abs(dy.retarded_propagator(params, 1, -1)).max() == 0.0
    for dx, dt in [(2, 1), (-2, 1), (4, 3), (-5, 2)]:
        assert np.abs(dy.retarded_propagator(params, dx, dt)).max() < 1e-13


def test_retarded_propagator_one_step(params):
    # one step of the free walk: the coin mixes components with weight -i*mu
    mu = np.sqrt(1.0 - NU**2)
    p01 = dy.retarded_propagator(params, 0, 1)
    np.testing.assert_allclose(p01, [[0.0, -1j * mu], [-1j * mu, 0.0]], atol=1e-14)


@pytest.mark.parametrize("dx,dt", [(0, 1), (1, 1), (-1, 1), (0, 2),
                                   (2, 3), (1, 2), (-2, 4), (3, 5)])
def test_retarded_propagator_vs_matrix_power(params, dx, dt):
    # the kernel's dx is the source-relative displacement:
    # P(dx, dt) = <x0 - dx| U0^dt |x0> on a ring large enough to avoid wrap
    mine = dy.retarded_propagator(params, dx, dt)
    dense = oracles.propagator_matrix_power(NU, 64, -dx, dt)
    assert np.abs(mine - dense).max() < 1e-12


def test_first_order_elastic_coefficient(params, elastic):
    xy = xy_factors(params, P_TOT, K_REL)
    a = (xy.y - xy.x) / (2.0 * (xy.x + xy.y))
    assert a == pytest.approx(A_REF, rel=1e-14)
    got = dy.first_order_amplitude(params, elastic, elastic)
    assert got == pytest.approx(1j * params.chi * a, abs=1e-15)


def test_first_order_scales_linearly_in_coupling(elastic):
    weak = ThirringParams(nu=NU, chi=0.25)
    ch = channel(weak, P_TOT, K_REL, +1, +1)
    got = dy.first_order_amplitude(weak, ch, ch)
    assert got == pytest.approx(0.25j * A_REF, abs=1e-15)


def test_first_order_off_shell_vanishes(params, elastic):
    other = channel(params, P_TOT, 0.9, +1, +1)
    assert dy.first_order_amplitude(params, elastic, other) == 0.0j
    assert dy.first_order_amplitude(params, other, elastic) == 0.0j


def test_second_order_elastic_coefficient(params, elastic):
    # the two-vertex sum must reproduce (i*chi)^2 * A^2 with no new constant
    got = dy.second_order_amplitude(params, elastic, elastic)
    want = (1j * params.chi) ** 2 * A_REF**2
    assert abs(got - want) < 1e-10
    assert abs(got.imag) < 1e-10
    # away from the reference point (p > pi/4, chi < 0, p < 0), to the
    # route's own TAIL_TOL scale
    for nu, chi, p, k in [(0.5, 2.5, 1.1, 0.4), (0.6, -1.3, 0.2, 1.2),
                          (0.3, 0.4, -0.9, 0.2)]:
        other = ThirringParams(nu=nu, chi=chi)
        xy = xy_factors(other, p, k)
        a = (xy.y - xy.x) / (2.0 * (xy.x + xy.y))
        ch = channel(other, p, k, +1, +1)
        got = dy.second_order_amplitude(other, ch, ch)
        assert abs(got - (1j * chi) ** 2 * a**2) < 1e-6, (nu, chi, p, k)


def test_second_order_underresolved_raises(params, elastic):
    # the damped-pole integrand needs n*eps above the pole width; a coarse
    # grid must be rejected by the extrapolation self-estimate, not smoothed
    with pytest.raises(TruncationError, match="increase quad_n"):
        dy.second_order_amplitude(params, elastic, elastic, quad_n=1024)


def test_second_order_at_chiral_point_ends_typed():
    # nu = 1 evaluates alpha on the whole loop grid; the outcome must be a
    # value or a typed error, never a raw TypeError
    params = ThirringParams(nu=1.0, chi=1.0)
    ch = channel(params, P_TOT, K_REL, +1, +1)
    try:
        value = dy.second_order_amplitude(params, ch, ch, quad_n=1024)
    except DtScatterError:
        return
    assert np.isfinite(value)


def test_lambda_chi_reconcile_identity():
    got = dy.lambda_chi_reconcile([1.0, 0.0], 2)
    np.testing.assert_allclose(got, [1j, -0.5], atol=1e-15)
    with pytest.raises(DomainError):
        dy.lambda_chi_reconcile([1.0], 3)


def test_lambda_chi_reconcile_vs_series_oracle():
    # geometric closed-form coefficients in lam, composed through
    # lam(chi) = e^{i*chi} - 1, against direct numerical differentiation
    xy = xy_factors(ThirringParams(nu=NU, chi=1.0), P_TOT, K_REL)
    ratio = -xy.x / (xy.x + xy.y)
    lam_coeffs = [A_REF * ratio ** (m - 1) for m in range(1, 7)]
    got = dy.lambda_chi_reconcile(lam_coeffs, 4)
    want = [complex(c) for c in oracles.chi_coefficients(NU, P_TOT, K_REL, 4)]
    np.testing.assert_allclose(got, want, atol=1e-13)
    # order one and two in closed form
    assert got[0] == pytest.approx(1j * A_REF, abs=1e-14)
    assert got[1] == pytest.approx(-A_REF**2, abs=1e-14)
