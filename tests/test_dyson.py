"""Interaction-picture series: propagator kernel, orders one/two, series composition."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from dtscatter import dyson as dy
from dtscatter.errors import DomainError, DtScatterError, TruncationError
from dtscatter.thirring import ThirringParams, channel, on_shell_xy, xy_factors

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
    assert np.abs(oracles.retarded_propagator(params, 0, 0) - np.eye(2)).max() < 1e-14
    # strictly retarded and inside the unit-speed cone
    assert np.abs(oracles.retarded_propagator(params, 1, -1)).max() == 0.0
    for dx, dt in [(2, 1), (-2, 1), (4, 3), (-5, 2)]:
        assert np.abs(oracles.retarded_propagator(params, dx, dt)).max() < 1e-13


def test_retarded_propagator_one_step(params):
    # one step of the free walk: the coin mixes components with weight -i*mu
    mu = np.sqrt(1.0 - NU**2)
    p01 = oracles.retarded_propagator(params, 0, 1)
    np.testing.assert_allclose(p01, [[0.0, -1j * mu], [-1j * mu, 0.0]], atol=1e-14)


@pytest.mark.parametrize("dx,dt", [(0, 1), (1, 1), (-1, 1), (0, 2),
                                   (2, 3), (1, 2), (-2, 4), (3, 5)])
def test_retarded_propagator_vs_matrix_power(params, dx, dt):
    # the kernel's dx is the source-relative displacement:
    # P(dx, dt) = <x0 - dx| U0^dt |x0> on a ring large enough to avoid wrap
    mine = oracles.retarded_propagator(params, dx, dt)
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


# ROADMAP direction 3's points: the fixed regulator schedule is too coarse
# for the small on-shell slope at k = 0.1 (off by 15% and 11.5%)
SMALL_K_POINTS = [(0.3, 2.0, 1.2, 0.1), (0.8, 1.0, 1.2, 0.1)]


def _off_quarter_turn(offset):
    # a multiple of pi/2 plus an offset at least 0.05 from both ends
    return st.builds(lambda m, t: m * 0.5 * np.pi + t,
                     st.integers(min_value=-2, max_value=1), offset)


def _outcome(route, *args, **kwargs):
    try:
        value = route(*args, **kwargs)
    except DtScatterError as exc:
        return type(exc), str(exc)
    return value.real.hex(), value.imag.hex()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(nu=st.one_of(st.floats(min_value=0.2, max_value=0.95), st.just(1.0)),
       chi=st.floats(min_value=-3.0, max_value=3.0),
       p=_off_quarter_turn(st.floats(min_value=0.05, max_value=0.5 * np.pi - 0.05)),
       k=_off_quarter_turn(st.floats(min_value=0.05, max_value=0.5 * np.pi - 0.05)),
       quad_n=st.sampled_from([2048, 8192]))
@example(nu=NU, chi=1.0, p=P_TOT, k=K_REL, quad_n=8192)
@example(nu=1.0, chi=1.0, p=P_TOT, k=K_REL, quad_n=2048)
@example(nu=0.3, chi=2.0, p=1.2, k=0.1, quad_n=8192)
@example(nu=0.8, chi=1.0, p=1.2, k=0.1, quad_n=8192)
def test_second_order_matches_per_regulator_oracle_bitwise(nu, chi, p, k, quad_n):
    """One complex exponential per tail, scaled by each regulator's real
    damping, gives the per-(tail, regulator) exponential's amplitude bit
    for bit, and the same error type and text where that raises."""
    params = ThirringParams(nu=nu, chi=chi)
    ch = channel(params, p, k, +1, +1)
    assert _outcome(dy.second_order_amplitude, params, ch, ch, quad_n=quad_n) == \
        _outcome(oracles.second_order_reference, params, ch, ch, quad_n)


@pytest.mark.xfail(strict=True, reason=(
    "known defect (ROADMAP direction 3): at k = 0.1 the fixed EPS_SCHEDULE "
    "leaves the extrapolation off by 11-15% with a self-estimate below "
    "TAIL_TOL, so nothing is flagged; drop this marker when it is mended"))
@pytest.mark.parametrize("nu,chi,p,k", SMALL_K_POINTS)
def test_second_order_small_k_right_or_flagged(nu, chi, p, k):
    # within 1e-6 of the (i chi)^2 A^2 series term, or a typed error
    params = ThirringParams(nu=nu, chi=chi)
    f = xy_factors(params, p, k)
    x, y = on_shell_xy(f.x, f.y)
    a = (y - x) / (2.0 * (x + y))
    ch = channel(params, p, k, +1, +1)
    try:
        got = dy.second_order_amplitude(params, ch, ch)
    except DtScatterError:
        return
    assert abs(got - (1j * chi) ** 2 * a**2) < 1e-6


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
