"""Stepped-vs-continuous scattering: bound chain, split kernels, gap scaling."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtscatter import trotter as tr
from dtscatter.errors import (
    AssumptionViolationError,
    DomainError,
    InsufficientDataError,
    PoleError,
    UncertifiedRegimeWarning,
)

# frozen reference numbers for the default hopping ring
# (n=128, omega_max=2, four-site potential, mode 32, eps_ref=0.2)
GAMMA_REF = 0.22142500713656946
M_STAR_REF = 1.5707963267948966            # = pi/2, the pi/omega_M branch
GAMMA_PRIME_REF = 0.08736661379679331
GAMMA_DOUBLE_PRIME_REF = 0.004091549430918954
WG_NORM_REF = 0.19163889128200498          # ||W~ G~0|| at tau = m*
REPORT_BOUND_REF = 0.3687556567407488      # gamma + tau*g' + tau^2*g''
ACONST_BOUND_REF = 0.3993302252138548      # gamma + a1*tau*|V| + a2*tau^2*|V|^2
SLOPE_REF = 2.0106476018090342             # log-log fit, grid pi/2 * 2^-j, j=0..4
PREFACTOR_REF = 0.0004099940715735158


@pytest.fixture(scope="module")
def ring():
    return tr.hopping_ring_model()


def test_bernoulli_f_values():
    assert tr.bernoulli_f(0.0) == 0.0
    assert tr.bernoulli_f(np.pi / 2) == pytest.approx(2.0 / np.pi, rel=1e-14)
    # odd function, and continuous across the small-argument series switch
    # (the direct branch carries ~1e-8 cancellation noise near the switch)
    x = np.array([1e-3, 0.7])
    np.testing.assert_allclose(tr.bernoulli_f(-x), -tr.bernoulli_f(x), rtol=1e-10)
    lo, hi = tr.bernoulli_f(1e-4 * (1 - 1e-9)), tr.bernoulli_f(1e-4 * (1 + 1e-9))
    assert abs(hi - lo) < 1e-7


def test_bernoulli_f_nondecreasing_on_certified_range():
    x = np.linspace(0.0, np.pi / 2, 400)
    f = tr.bernoulli_f(x)
    assert np.all(np.diff(f) >= 0)
    assert f.max() == pytest.approx(2.0 / np.pi, rel=1e-12)


def test_q_kernel_limit_and_bound():
    assert tr.q_kernel(0.0) == pytest.approx(-0.5j, abs=1e-15)
    y = np.linspace(-20.0, 20.0, 801)
    assert np.abs(tr.q_kernel(y)).max() <= 0.5 + 1e-12
    lo, hi = tr.q_kernel(1e-4 * (1 - 1e-9)), tr.q_kernel(1e-4 * (1 + 1e-9))
    assert abs(hi - lo) < 1e-7


def test_bound_constants_closed_form():
    assert tr.A1_BOUND == pytest.approx((3 * np.pi + 4) / (4 * np.pi), rel=1e-15)
    assert tr.A2_BOUND == pytest.approx((np.pi + 2) / (4 * np.pi), rel=1e-15)
    assert tr.A1_BOUND == pytest.approx(1.0683098861837907, rel=1e-15)
    assert tr.A2_BOUND == pytest.approx(0.4091549430918953, rel=1e-15)


def test_ring_model_reference_point(ring):
    # mode 32 of 128 sits at k = pi/2, energy exactly half the bandwidth
    assert ring.dim == 128
    assert ring.omega_max == pytest.approx(2.0, rel=1e-15)
    assert ring.omega_ref == pytest.approx(1.0, rel=1e-14)
    assert ring.v_norm == pytest.approx(0.1, rel=1e-15)
    assert ring.evals.min() >= -1e-12
    assert ring.gamma == pytest.approx(GAMMA_REF, rel=1e-12)
    # the attached plane-wave basis really diagonalizes h0
    m = 32
    vec = ring.evecs[:, m]
    np.testing.assert_allclose(ring.h0 @ vec, ring.evals[m] * vec, atol=1e-12)


def test_v_norm_is_the_spectral_norm():
    # v_norm comes from eigh(V); a non-diagonal Hermitian V checks it
    # against the SVD norm
    rng = np.random.default_rng(3)
    a = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    v = 0.05 * (a + a.conj().T)
    model = tr.ContinuousModel(h0=np.diag(np.linspace(0.0, 2.0, 24)), v=v,
                               omega_ref=1.0, eps_ref=0.2)
    assert model.v_norm == pytest.approx(np.linalg.norm(v, 2), rel=1e-12)


def test_ring_model_validation():
    with pytest.raises(DomainError):
        tr.hopping_ring_model(v_sites=(0, 1, 2, 3, 4),
                              v_values=(0.1, 0.1, 0.1, 0.1, 0.1))
    with pytest.raises(DomainError):
        tr.ContinuousModel(h0=np.array([[0.0, 1.0], [0.0, 0.0]]),
                           v=np.zeros((2, 2)), omega_ref=0.5, eps_ref=0.1)
    with pytest.raises(DomainError):
        tr.ContinuousModel(h0=np.diag([-0.5, 1.0]), v=np.zeros((2, 2)),
                           omega_ref=0.5, eps_ref=0.1)


def test_threshold_report_frozen(ring):
    rep = tr.tau_threshold(ring)
    assert rep.m_star == pytest.approx(np.pi / 2, rel=1e-15)
    assert rep.m_star == pytest.approx(M_STAR_REF, rel=1e-15)
    assert rep.gamma == pytest.approx(GAMMA_REF, rel=1e-12)
    assert rep.f_bound == pytest.approx(2.0 / np.pi, rel=1e-12)
    assert rep.q_bound == 0.5
    assert rep.gamma_prime == pytest.approx(GAMMA_PRIME_REF, rel=1e-12)
    assert rep.gamma_double_prime == pytest.approx(GAMMA_DOUBLE_PRIME_REF, rel=1e-12)
    assert rep.tau == rep.m_star
    assert rep.verdict is True
    # the weak-potential branch (sqrt(2-gamma)-1)/|V| is not the binding one here
    assert (np.sqrt(2.0 - rep.gamma) - 1.0) / ring.v_norm > np.pi / ring.omega_max


def test_threshold_requires_contraction():
    strong = tr.hopping_ring_model(v_values=(2.5, -2.0, 1.5, 1.75))
    assert strong.gamma >= 1.0
    with pytest.raises(AssumptionViolationError):
        tr.tau_threshold(strong)
    with pytest.raises(AssumptionViolationError):
        tr.t_continuous(strong, 32, 32, strong.eps_ref)


def test_certified_inequality_at_threshold(ring):
    """Directly computed ||W~ G~0|| at tau = m* sits inside the bound chain."""
    rep = tr.tau_threshold(ring)
    tau = rep.m_star
    z = ring.omega_ref + 1j * ring.eps_ref
    wg = np.linalg.norm(tr.w_tilde_direct(ring, tau)
                        @ tr.green_discrete_operator(ring, tau, z), 2)
    assert wg == pytest.approx(WG_NORM_REF, rel=1e-10)
    report_bound = rep.gamma + tau * rep.gamma_prime + tau**2 * rep.gamma_double_prime
    aconst_bound = (rep.gamma + tr.A1_BOUND * tau * ring.v_norm
                    + tr.A2_BOUND * tau**2 * ring.v_norm**2)
    assert report_bound == pytest.approx(REPORT_BOUND_REF, rel=1e-12)
    assert aconst_bound == pytest.approx(ACONST_BOUND_REF, rel=1e-12)
    assert wg < 1.0
    assert wg <= report_bound <= aconst_bound


def test_w_tilde_split_matches_direct(ring):
    tau = 0.3
    v_part, q_part = tr.w_tilde(ring, tau)
    direct = tr.w_tilde_direct(ring, tau)
    recon = v_part + tau * (q_part @ ring.v @ ring.v)
    assert np.abs(recon - direct).max() < 1e-14
    assert np.linalg.norm(q_part, 2) <= 0.5 + 1e-12


def test_w_tilde_small_tau_limit(ring):
    gap = np.linalg.norm(tr.w_tilde_direct(ring, 1e-6) - ring.v, 2)
    # W~ - V = tau*Q*V^2, so the gap is <= tau*|V|^2/2
    assert gap <= 1e-6 * ring.v_norm**2 * 0.5 * (1 + 1e-9)
    assert gap > 0.0


def test_bernoulli_split_reconstructs_multiplier(ring):
    tau = 0.3
    z = ring.omega_ref + 1j * ring.eps_ref
    mult = tr.green_discrete(ring, tau, z)
    g0_part, const, f_part = tr.bernoulli_split(tau, z, ring.evals)
    recon = g0_part + const - (tau / 2.0) * f_part
    assert const == 0.5j * tau
    assert np.abs(recon - mult).max() < 1e-12


def test_bernoulli_split_domain():
    with pytest.raises(DomainError):
        tr.bernoulli_split(0.0, 1.0, np.array([0.0, 2.0]))
    with pytest.raises(DomainError):
        # (omega_k - omega)*tau/2 reaches pi
        tr.bernoulli_split(1.0, 0.0, np.array([2.0 * np.pi]))


def test_green_discrete_guards(ring):
    with pytest.raises(DomainError):
        tr.green_discrete(ring, np.pi, 1.0 + 0.2j)
    with pytest.raises(PoleError, match=r"hits 2\*pi\*Z at omega = "):
        tr.green_discrete(ring, 0.5, complex(ring.evals[32]))
    with pytest.raises(PoleError, match="sits on the spectrum of h0"):
        tr.hopping_ring_model(n=16, mode_index=4, eps_ref=0.0)
    with pytest.raises(DomainError):
        tr.t_discrete_operator(ring, -0.1, ring.omega_ref + 1j * ring.eps_ref)


def test_t_continuous_fixed_point(ring):
    ev = tr.t_continuous(ring, 32, 32, ring.eps_ref)
    assert ev.converged
    assert ev.residual < 1e-10
    assert abs(ev.value) > 0.0
    # off-diagonal element exists too and differs
    ev2 = tr.t_continuous(ring, 32, 40, ring.eps_ref)
    assert ev2.value != ev.value


def test_t_difference_element_is_quadratic(ring):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UncertifiedRegimeWarning)
        d1 = tr.t_difference(ring, 32, 32, 0.2, ring.eps_ref)
        d2 = tr.t_difference(ring, 32, 32, 0.1, ring.eps_ref)
    ratio = abs(d1.element) / abs(d2.element)
    assert ratio == pytest.approx(4.0, rel=0.05)
    # (tau^2/12) T (H0 + V - z) T is the leading term: the relative
    # remainder is small and itself falls as tau^2
    def rel(d):
        return (np.linalg.norm(d.difference - d.leading, 2)
                / np.linalg.norm(d.difference, 2))
    assert rel(d1) < 1e-3
    assert rel(d1) / rel(d2) == pytest.approx(4.0, rel=0.05)


def test_t_difference_warns_above_threshold(ring):
    with pytest.warns(UncertifiedRegimeWarning):
        tr.t_difference(ring, 32, 32, 1.6, ring.eps_ref)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UncertifiedRegimeWarning)
        tr.t_difference(ring, 32, 32, 0.5, ring.eps_ref)  # certified: no warning


def test_convergence_sweep_frozen(ring):
    taus = [np.pi / 2 * 0.5**j for j in range(5)]
    rep = tr.convergence_sweep(ring, taus)
    assert rep.taus.size == 5
    assert rep.slope == pytest.approx(SLOPE_REF, rel=1e-9)
    assert rep.prefactor == pytest.approx(PREFACTOR_REF, rel=1e-6)
    assert rep.prefactor == pytest.approx(np.exp(rep.intercept), rel=1e-12)
    # gaps decrease monotonically along the refinement
    assert np.all(np.diff(rep.gaps) < 0)


def test_sweep_reuses_the_potential_eigensystem(ring, monkeypatch):
    # eigh(V) belongs to the model: no step size decomposes V again
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(None)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    tr.convergence_sweep(ring, [np.pi / 2 * 0.5**j for j in range(5)])
    assert calls == []


def test_sweep_predicts_the_leading_prefactor(ring):
    rep = tr.convergence_sweep(ring, [np.pi / 2 * 0.5**j for j in range(5)])
    z = ring.omega_ref + 1j * ring.eps_ref
    t_cont = tr.t_continuous_operator(ring, z)
    lead = t_cont @ (ring.h0 + ring.v - z * np.eye(ring.dim)) @ t_cont
    assert rep.predicted_prefactor == pytest.approx(
        np.linalg.norm(lead, 2) / 12.0, rel=1e-12)
    # t_difference's leading term is the same law at its step
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UncertifiedRegimeWarning)
        d = tr.t_difference(ring, 32, 32, 0.1, ring.eps_ref)
    assert np.linalg.norm(d.leading, 2) == pytest.approx(
        0.1**2 * rep.predicted_prefactor, rel=1e-12)


def test_convergence_sweep_validation(ring):
    with pytest.raises(DomainError):
        tr.convergence_sweep(ring, [0.4, 0.2, 0.15, 0.05])
    with pytest.raises(InsufficientDataError):
        tr.convergence_sweep(ring, [0.4, 0.2, 0.1])


def test_secondary_comb_indices(ring):
    assert tr.secondary_comb_indices(ring, 0.5, ring.omega_ref) == []
    assert tr.secondary_comb_indices(ring, 3.1, ring.omega_ref) == []
    # at tau = 2*pi the quasi-energy step is 1, so both band edges fold back on
    replicas = tr.secondary_comb_indices(ring, 2.0 * np.pi, ring.omega_ref)
    assert replicas == [-1, 1]


@settings(max_examples=40, deadline=None)
@given(slope=st.floats(-3.0, 3.0), logc=st.floats(-5.0, 2.0))
def test_fit_recovers_exact_power_law(slope, logc):
    taus = 0.4 * 0.5 ** np.arange(6)
    values = np.exp(logc) * taus**slope
    got_slope, got_intercept = tr.fit_loglog_slope(taus, values)
    assert got_slope == pytest.approx(slope, abs=1e-9)
    assert got_intercept == pytest.approx(logc, abs=1e-9)


def test_fit_rejects_degenerate_input():
    with pytest.raises(InsufficientDataError):
        tr.fit_loglog_slope([0.1], [0.5])
    with pytest.raises(InsufficientDataError):
        tr.fit_loglog_slope([0.1, -0.2], [0.5, 0.25])
