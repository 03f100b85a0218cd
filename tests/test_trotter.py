"""Stepped-vs-continuous scattering: bound chain, split kernels, gap scaling."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dtscatter import trotter as tr
from dtscatter.errors import (
    AssumptionViolationError,
    DomainError,
    InsufficientDataError,
    PoleError,
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


@pytest.fixture(scope="module")
def dense_ring():
    return oracles.dense_ring()


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


def test_ring_model_reference_point(ring, dense_ring):
    # mode 32 of 128 sits at k = pi/2, energy exactly half the bandwidth
    assert ring.dim == 128
    assert ring.omega_max == pytest.approx(2.0, rel=1e-15)
    assert ring.omega_ref == pytest.approx(1.0, rel=1e-14)
    assert ring.v_norm == pytest.approx(0.1, rel=1e-15)
    assert ring.evals.min() >= -1e-12
    assert ring.gamma == pytest.approx(GAMMA_REF, rel=1e-12)
    # the attached plane-wave basis really diagonalizes h0
    m = 32
    vec = dense_ring.evecs[:, m]
    np.testing.assert_allclose(dense_ring.h0 @ vec, ring.evals[m] * vec, atol=1e-12)


@pytest.mark.parametrize("n, modes", [(10, (2, 3)), (64, (16, 5)),
                                      (128, (32, 40)), (256, (64, 100)),
                                      (1024, (256, 300))])
def test_factored_ring_matches_dense_ring_bitwise(n, modes):
    # the ring's O(r n) factors are the support rows of the dense n x n
    # plane-wave basis, so every derived number is the same to the bit
    for mode in modes:
        model = tr.hopping_ring_model(n=n, mode_index=mode)
        dense = oracles.dense_ring(n=n, mode_index=mode).model
        for name in ("v_evals", "v_basis"):
            assert np.array_equal(getattr(model, name), getattr(dense, name))
        for name in ("gamma", "omega_max", "v_norm", "omega_ref"):
            assert getattr(model, name) == getattr(dense, name), name
        assert tr.tau_threshold(model) == tr.tau_threshold(dense)
        taus = [tr.tau_threshold(model).m_star * 0.5**j for j in range(5)]
        got = tr.convergence_sweep(model, taus)
        want = tr.convergence_sweep(dense, taus)
        for name in ("taus", "gaps"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        for name in ("slope", "intercept", "prefactor", "predicted_prefactor"):
            assert getattr(got, name) == getattr(want, name), name


def test_factored_model_validation():
    evals = np.linspace(0.0, 2.0, 6)
    rows = np.exp(1j * np.outer([1, 4], evals)) / np.sqrt(6)
    good = dict(evals=evals, support=[1, 4], v_block=np.diag([0.1, -0.05]),
                support_evecs=rows, omega_ref=1.1, eps_ref=0.2)
    assert tr.ContinuousModel(**good).dim == 6
    bad = [
        ("evals", np.array([0.0, np.nan, 1.0, 1.5, 2.0, 2.0]), "finite real"),
        ("evals", evals + 0j, "finite real"),
        ("evals", evals - 0.5, "spectrum must start at 0"),
        ("support", [4, 4], "distinct site indices"),
        ("support", [1, 6], "distinct site indices"),
        ("support", [-1, 4], "distinct site indices"),
        ("support", [1.0, 4.0], "distinct site indices"),
        ("v_block", np.diag([0.1, -0.05, 0.2]), "must be 2 x 2"),
        ("v_block", np.array([[0.1, 0.02], [0.0, -0.05]]), "Hermitian"),
        ("support_evecs", rows[:, :5], "must be 2 x 6"),
    ]
    for key, value, message in bad:
        with pytest.raises(DomainError, match=message):
            tr.ContinuousModel(**{**good, key: value})


def test_large_ring_stays_within_a_memory_bound():
    # at n = 65 536 a dense model would need 64 GiB for the plane-wave
    # basis alone; the factored ring holds r x n rows (4 MB)
    tracemalloc.start()
    try:
        model = tr.hopping_ring_model(n=65536, mode_index=16384)
        m_star = tr.tau_threshold(model).m_star
        report = tr.convergence_sweep(model,
                                      [m_star * 0.5**j for j in range(5)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"
    assert report.taus.size == 5


def test_v_norm_is_the_spectral_norm():
    # v_norm comes from eigh(V); a non-diagonal Hermitian V checks it
    # against the SVD norm
    rng = np.random.default_rng(3)
    a = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    v = 0.05 * (a + a.conj().T)
    model = oracles.dense_model(h0=np.diag(np.linspace(0.0, 2.0, 24)), v=v,
                                omega_ref=1.0, eps_ref=0.2).model
    assert model.v_norm == pytest.approx(np.linalg.norm(v, 2), rel=1e-12)


def test_ring_model_validation():
    with pytest.raises(DomainError):
        tr.hopping_ring_model(v_sites=(0, 1, 2, 3, 4),
                              v_values=(0.1, 0.1, 0.1, 0.1, 0.1))
    with pytest.raises(DomainError):
        oracles.dense_model(h0=np.array([[0.0, 1.0], [0.0, 0.0]]),
                            v=np.zeros((2, 2)), omega_ref=0.5, eps_ref=0.1)
    with pytest.raises(DomainError):
        oracles.dense_model(h0=np.diag([-0.5, 1.0]), v=np.zeros((2, 2)),
                            omega_ref=0.5, eps_ref=0.1)


def test_ring_model_rejects_repeated_sites_and_foreign_modes():
    # a repeated site would let the later value overwrite the earlier one
    with pytest.raises(DomainError, match="repeat a site"):
        tr.hopping_ring_model(v_sites=(0, 0), v_values=(0.1, 0.2))
    for mode in (16, 17, -1):
        with pytest.raises(DomainError, match=r"must lie in \[0, n\)"):
            tr.hopping_ring_model(n=16, mode_index=mode)


def test_zero_potential_has_empty_support():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in (tr.hopping_ring_model(n=32, v_sites=(), v_values=(),
                                            mode_index=8),
                      oracles.dense_model(h0=np.diag(np.linspace(0.0, 2.0, 8)),
                                          v=np.zeros((8, 8)), omega_ref=0.9,
                                          eps_ref=0.2).model):
            assert model.v_evals.shape == (0,)
            assert model.v_evecs.shape == (model.dim, 0)
            assert model.v_norm == 0.0
            assert model.gamma == 0.0
            # the weak-potential branch is unbounded; the band bound binds
            rep = tr.tau_threshold(model)
            assert rep.m_star == pytest.approx(np.pi / model.omega_max,
                                               rel=1e-15)
            assert np.all(tr.w_tilde_direct(model, 0.3) == 0.0)
            with pytest.raises(InsufficientDataError):
                tr.convergence_sweep(model, [0.4, 0.2, 0.1, 0.05, 0.025])


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
        oracles.t_continuous(
            oracles.dense_ring(v_values=(2.5, -2.0, 1.5, 1.75)), 32, 32,
            strong.eps_ref)


def test_certified_inequality_at_threshold(ring, dense_ring):
    """Directly computed ||W~ G~0|| at tau = m* sits inside the bound chain."""
    rep = tr.tau_threshold(ring)
    tau = rep.m_star
    z = ring.omega_ref + 1j * ring.eps_ref
    wg = np.linalg.norm(tr.w_tilde_direct(ring, tau)
                        @ oracles.green_discrete_operator(dense_ring, tau, z), 2)
    assert wg == pytest.approx(WG_NORM_REF, rel=1e-10)
    report_bound = rep.gamma + tau * rep.gamma_prime + tau**2 * rep.gamma_double_prime
    aconst_bound = (rep.gamma + tr.A1_BOUND * tau * ring.v_norm
                    + tr.A2_BOUND * tau**2 * ring.v_norm**2)
    assert report_bound == pytest.approx(REPORT_BOUND_REF, rel=1e-12)
    assert aconst_bound == pytest.approx(ACONST_BOUND_REF, rel=1e-12)
    assert wg < 1.0
    assert wg <= report_bound <= aconst_bound


def test_w_tilde_split_matches_direct(ring, dense_ring):
    tau = 0.3
    v_part, q_part = tr.w_tilde(ring, tau)
    direct = tr.w_tilde_direct(ring, tau)
    recon = v_part + tau * (q_part @ dense_ring.v @ dense_ring.v)
    assert np.abs(recon - direct).max() < 1e-14
    assert np.linalg.norm(q_part, 2) <= 0.5 + 1e-12


def test_w_tilde_small_tau_limit(ring, dense_ring):
    gap = np.linalg.norm(tr.w_tilde_direct(ring, 1e-6) - dense_ring.v, 2)
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


def test_t_continuous_fixed_point(ring, dense_ring):
    ev = oracles.t_continuous(dense_ring, 32, 32, ring.eps_ref)
    assert ev.converged
    assert ev.residual < 1e-10
    assert abs(ev.value) > 0.0
    # off-diagonal element exists too and differs
    ev2 = oracles.t_continuous(dense_ring, 32, 40, ring.eps_ref)
    assert ev2.value != ev.value


def test_t_difference_element_is_quadratic(ring, dense_ring):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", oracles.UncertifiedRegimeWarning)
        d1 = oracles.t_difference(dense_ring, 32, 32, 0.2, ring.eps_ref)
        d2 = oracles.t_difference(dense_ring, 32, 32, 0.1, ring.eps_ref)
    ratio = abs(d1.element) / abs(d2.element)
    assert ratio == pytest.approx(4.0, rel=0.05)
    # (tau^2/12) T (H0 + V - z) T is the leading term: the relative
    # remainder is small and itself falls as tau^2
    def rel(d):
        return (np.linalg.norm(d.difference - d.leading, 2)
                / np.linalg.norm(d.difference, 2))
    assert rel(d1) < 1e-3
    assert rel(d1) / rel(d2) == pytest.approx(4.0, rel=0.05)


def test_t_difference_warns_above_threshold(ring, dense_ring):
    with pytest.warns(oracles.UncertifiedRegimeWarning):
        oracles.t_difference(dense_ring, 32, 32, 1.6, ring.eps_ref)
    with warnings.catch_warnings():
        warnings.simplefilter("error", oracles.UncertifiedRegimeWarning)
        oracles.t_difference(dense_ring, 32, 32, 0.5, ring.eps_ref)  # certified: no warning


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


def _nondiagonal_model():
    """64-site ring with a Hermitian V coupling sites 3, 4 and 10."""
    base = oracles.dense_ring(n=64, mode_index=16)
    v = np.zeros((64, 64), dtype=complex)
    v[3, 3], v[4, 4], v[10, 10] = 0.05, -0.04, 0.03
    v[3, 4], v[3, 10], v[4, 10] = 0.02 + 0.01j, -0.015j, 0.01
    v = v + np.triu(v, 1).conj().T
    return oracles.dense_model(h0=base.h0, v=v, omega_ref=base.model.omega_ref,
                               eps_ref=0.2, basis=(base.model.evals, base.evecs))


def _full_rank_model():
    """Random full-rank Hermitian V (support r = n) and random complex H0.

    A complex H0 is not symmetric, so a support basis B = U^H E with a
    missing conjugate changes the gaps (on a real ring it only transposes
    X and X~, which keeps every norm).
    """
    rng = np.random.default_rng(12)

    def hermitian(scale):
        a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        return scale * (a + a.conj().T)

    h0 = hermitian(0.05)
    h0 -= np.linalg.eigvalsh(h0)[0] * np.eye(40)
    return oracles.dense_model(h0=h0, v=hermitian(0.01), omega_ref=1.0,
                               eps_ref=0.2)


@pytest.mark.parametrize("make", [oracles.dense_ring, _full_rank_model,
                                  _nondiagonal_model],
                         ids=["criterion5_ring", "full_rank", "nondiagonal"])
def test_support_route_matches_dense_operators(make):
    dense = make()
    model = dense.model
    z = model.omega_ref + 1j * model.eps_ref
    if make is _full_rank_model:
        assert model.v_evals.size == model.dim
    elif make is _nondiagonal_model:
        assert model.v_evals.size == 3
    gamma = np.linalg.norm(oracles.green_continuous(dense, z) @ dense.v, 2)
    assert model.gamma == pytest.approx(gamma, rel=1e-9)
    taus = [tr.tau_threshold(model).m_star * 0.5**j for j in range(5)]
    rep = tr.convergence_sweep(model, taus)
    t_cont = oracles.t_continuous_operator(dense, z)
    gaps = [np.linalg.norm(oracles.t_discrete_dense(dense, tau, z) - t_cont, 2)
            for tau in taus]
    np.testing.assert_allclose(rep.taus, taus, rtol=0.0)
    np.testing.assert_allclose(rep.gaps, gaps, rtol=1e-9)
    slope, _ = tr.fit_loglog_slope(taus, gaps)
    assert rep.slope == pytest.approx(slope, rel=1e-9)
    lead = np.linalg.norm(oracles._leading_coefficient(dense, t_cont, z), 2)
    assert rep.predicted_prefactor == pytest.approx(lead, rel=1e-9)


@pytest.mark.parametrize("make", [oracles.dense_ring, _full_rank_model,
                                  _nondiagonal_model],
                         ids=["criterion5_ring", "full_rank", "nondiagonal"])
def test_t_discrete_operator_matches_dense_reference(make):
    # the package assembles T~ = U X~ U^H from the support form; the oracle
    # solves the n x n system with G~0 in the full eigenbasis
    dense = make()
    model = dense.model
    z = model.omega_ref + 1j * model.eps_ref
    for tau in (0.05, 0.4, 1.2):
        want = oracles.t_discrete_dense(dense, tau, z)
        got = tr.t_discrete_operator(model, tau, z)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-12 * np.abs(want).max())


def test_stepped_potential_matches_full_diagonalization():
    dense = _nondiagonal_model()
    model = dense.model
    vals, vecs = np.linalg.eigh(dense.v)
    for tau in (0.05, 0.3, 1.2):
        phases = np.exp(-1j * vals * tau)
        direct = (1j / tau) * ((vecs * phases) @ vecs.conj().T
                               - np.eye(model.dim))
        # the dense reference subtracts I and divides by tau: eps/tau noise
        np.testing.assert_allclose(tr.w_tilde_direct(model, tau), direct,
                                   rtol=0.0, atol=1e-14 / tau)
        # Q is q(0) = -i/2 on the null space of V, not 0
        q_dense = (vecs * tr.q_kernel(vals * tau)) @ vecs.conj().T
        np.testing.assert_allclose(tr.w_tilde(model, tau)[1], q_dense,
                                   rtol=0.0, atol=1e-13)


def test_sweep_stays_on_the_support(ring, monkeypatch):
    # every solve and norm of the sweep is r x r (r = 4 here), so the sweep
    # cannot quietly fall back to n x n algebra
    rows = []
    for name in ("solve", "norm"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _original=original, **kwargs):
            rows.append(np.shape(a)[0])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    tr.convergence_sweep(ring, [np.pi / 2 * 0.5**j for j in range(5)])
    assert rows and max(rows) <= ring.v_evals.size == 4


def test_sweep_predicts_the_leading_prefactor(ring, dense_ring):
    rep = tr.convergence_sweep(ring, [np.pi / 2 * 0.5**j for j in range(5)])
    z = ring.omega_ref + 1j * ring.eps_ref
    t_cont = oracles.t_continuous_operator(dense_ring, z)
    lead = t_cont @ (dense_ring.h0 + dense_ring.v - z * np.eye(ring.dim)) @ t_cont
    assert rep.predicted_prefactor == pytest.approx(
        np.linalg.norm(lead, 2) / 12.0, rel=1e-12)
    # t_difference's leading term is the same law at its step
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", oracles.UncertifiedRegimeWarning)
        d = oracles.t_difference(dense_ring, 32, 32, 0.1, ring.eps_ref)
    assert np.linalg.norm(d.leading, 2) == pytest.approx(
        0.1**2 * rep.predicted_prefactor, rel=1e-12)


def test_convergence_sweep_validation(ring):
    with pytest.raises(DomainError):
        tr.convergence_sweep(ring, [0.4, 0.2, 0.15, 0.05])
    with pytest.raises(InsufficientDataError):
        tr.convergence_sweep(ring, [0.4, 0.2, 0.1])


def test_secondary_comb_indices(ring):
    assert oracles.secondary_comb_indices(ring, 0.5, ring.omega_ref) == []
    assert oracles.secondary_comb_indices(ring, 3.1, ring.omega_ref) == []
    # at tau = 2*pi the quasi-energy step is 1, so both band edges fold back on
    replicas = oracles.secondary_comb_indices(ring, 2.0 * np.pi, ring.omega_ref)
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
