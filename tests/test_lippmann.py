"""Finite-rank interaction, T-matrix solves, on-shell S elements."""

import numpy as np
import pytest

import oracles
from dtscatter.errors import PoleError
from dtscatter.spectral import epsilon_extrapolate, make_dispersion
from oracles import (
    EPS_SCHEDULE,
    OnSitePhase,
    TMatrixEval,
    UnsupportedInteractionError,
    channel_amplitude,
    fixed_point_residual,
    s_matrix_element,
    support_kernel,
    t_matrix_born,
    t_matrix_closed,
    w_operator,
)

# single-site phase walk at (nu, k0, chi) = (0.8, 0.5, 1.0), quad_n = 32768:
# converged to 4e-13 against a doubled grid, unitarity closes to 7e-11,
# and the direct wave-packet run lands 6e-5 away (envelope smearing).
QUAD_N = 32768
C_FWD = -0.8022927477498735 + 0.5716918158654909j
C_BACK = -0.7525601526429524 + 0.2602566553648124j


def _setup(chi=1.0, nu=0.8):
    disp = make_dispersion(nu)
    w = w_operator(OnSitePhase(chi=chi, f={0: -1.0}))
    return disp, w


def test_w_operator_is_diagonal_phase_minus_identity():
    disp, w = _setup(chi=1.0)
    assert w.support == (0,)
    assert w.rank == 1
    # f = -1 makes the site factor e^{+i chi}
    expect = np.exp(1j * 1.0) - 1.0
    assert np.abs(np.diag(w.action) - expect).max() < 1e-15
    assert np.abs(w.action - np.diag(np.diag(w.action))).max() == 0.0


def test_on_site_phase_rejects_non_real_weight():
    with pytest.raises(UnsupportedInteractionError):
        OnSitePhase(chi=1.0, f={0: 1.0j})


def test_support_kernel_matches_matrix_power_sum():
    """G0 U0 on the support equals sum_{d>=1} z^{-d} <0|U0^d|0>.

    The right side is evaluated with literal dense matrix powers on a
    ring, a running product of the walk's matrix
    (oracles.walk_unitary_dense), a route with no quadrature or
    resolvent in it.
    """
    disp, w = _setup()
    z = np.exp(-1j * 1.0 + 0.3)
    block = support_kernel(disp, z, (0,), n=4096)
    acc = np.zeros((2, 2), dtype=complex)
    length = 200
    u = oracles.walk_unitary_dense(0.8, length)
    x0 = 2 * (length // 2)   # the first row of site length // 2
    power = np.eye(2 * length, dtype=complex)
    for d in range(1, 81):  # tail ~ e^{-0.3*80} ~ 4e-11
        power = u @ power
        acc += z ** (-d) * power[x0:x0 + 2, x0:x0 + 2]
    assert np.abs(block - acc).max() < 1e-8


def test_closed_solve_is_fixed_point():
    disp, w = _setup()
    z = np.exp(-1j * 0.9 + 0.05)
    t = t_matrix_closed(w, disp, z)
    assert fixed_point_residual(w, disp, t) < 1e-8


def test_born_converges_to_closed():
    disp, w = _setup(chi=0.7)
    z = np.exp(-1j * 0.9 + 0.4)
    closed = t_matrix_closed(w, disp, z)
    born = t_matrix_born(w, disp, z)
    assert born.converged
    assert np.abs(born.value - closed.value).max() < 1e-10


def test_support_kernel_pole_rejected():
    disp, w = _setup()
    # place z exactly on a quadrature node's eigenvalue
    from dtscatter.spectral import bz_grid
    k_node = bz_grid(4096)[137]
    z = np.exp(-1j * disp.omega(k_node))
    with pytest.raises(PoleError):
        support_kernel(disp, z, (0,), n=4096)


def test_epsilon_extrapolate_recovers_polynomial_limit():
    eps = [0.04, 0.02, 0.01, 0.005, 0.0025]
    target = 0.7 - 0.2j
    values = [target + (1.3 + 0.4j) * e + 2.2 * e**2 for e in eps]
    ext = epsilon_extrapolate(values, eps)
    assert ext.value == pytest.approx(target, abs=1e-12)
    assert ext.error < 1e-10


def test_epsilon_extrapolate_error_drops_largest_regulator():
    # e^4 is reproduced exactly by the quartic through all five samples,
    # while the cubic through the four smallest misses it at 0 by e1 e2 e3 e4
    e = np.asarray(EPS_SCHEDULE)
    ext = epsilon_extrapolate(e**4, e)
    assert abs(ext.value) < 1e-20
    assert ext.error == pytest.approx(np.prod(e[1:]), rel=1e-9)


def test_epsilon_extrapolate_stack_matches_scalar_calls():
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    ext = epsilon_extrapolate(stack, EPS_SCHEDULE)
    singles = [epsilon_extrapolate(stack[:, i, j], EPS_SCHEDULE)
               for i in range(4) for j in range(4)]
    assert np.array_equal(ext.value.ravel(), [x.value for x in singles])
    assert ext.error == max(x.error for x in singles)


def test_s_matrix_element_flags_diverging_extrapolation(monkeypatch):
    # every regulator gives the same sample except the largest, offset by
    # 1e-3: the extrapolation moves by 1e-3/315 against ~1e-16 without it
    calls = []

    def fake_closed(w, disp, z, quad_n=2048):
        value = 0.5 + (1e-3 if not calls else 0.0)
        calls.append(z)
        return TMatrixEval(z=z, value=value * np.eye(2), n_terms=1,
                           converged=True, residual=0.0)

    monkeypatch.setattr(oracles, "t_matrix_closed", fake_closed)
    disp, w = _setup()
    rec = s_matrix_element(w, disp, (0.5, +1), (0.5, +1))
    assert len(calls) == 5
    assert rec.flagged
    assert rec.error_estimate == float("inf")
    assert rec.note.startswith("extrapolation diverging: successive corrections")
    assert rec.coefficient == pytest.approx(0.5, abs=1e-15)


def test_off_shell_element_is_zero():
    disp, w = _setup()
    rec = s_matrix_element(w, disp, (0.5, +1), (0.9, +1), quad_n=256)
    assert rec.coefficient == 0.0
    assert rec.note == "off-shell"


def test_single_site_closed_solve_reference():
    disp, w = _setup()
    rec_f = s_matrix_element(w, disp, (0.5, +1), (0.5, +1), quad_n=QUAD_N)
    rec_b = s_matrix_element(w, disp, (-0.5, +1), (0.5, +1), quad_n=QUAD_N)
    assert not rec_f.flagged and not rec_b.flagged
    cf = channel_amplitude(rec_f, disp)
    cb = channel_amplitude(rec_b, disp)
    assert cf == pytest.approx(C_FWD, abs=1e-9)
    assert cb == pytest.approx(C_BACK, abs=1e-9)


def test_s_matrix_element_default_quadrature_resolves_reference():
    disp, w = _setup()
    rec = s_matrix_element(w, disp, (0.5, +1), (0.5, +1))
    assert not rec.flagged
    assert channel_amplitude(rec, disp) == pytest.approx(C_FWD, abs=1e-9)


def test_single_site_unitarity():
    # forward + backward exhaust the on-shell channels of the + band,
    # so the S row must be a unit vector in the eps -> 0 limit
    disp, w = _setup()
    rec_f = s_matrix_element(w, disp, (0.5, +1), (0.5, +1), quad_n=QUAD_N)
    rec_b = s_matrix_element(w, disp, (-0.5, +1), (0.5, +1), quad_n=QUAD_N)
    cf = channel_amplitude(rec_f, disp)
    cb = channel_amplitude(rec_b, disp)
    assert abs(1.0 + cf) ** 2 + abs(cb) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_zero_coupling_gives_identity_s():
    disp, w = _setup(chi=0.0)
    rec = s_matrix_element(w, disp, (0.5, +1), (0.5, +1), quad_n=1024)
    assert abs(rec.coefficient) < 1e-13
