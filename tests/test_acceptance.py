"""Acceptance checks: one test per shipped guarantee, at the stated tolerance.

Each test prints its measured numbers through the assertion message, so a
red line documents exactly what was computed alongside what was required.
"""

import time
import warnings

import numpy as np
import pytest

import oracles
from dtscatter import dyson as dy
from dtscatter import trotter as tr
from dtscatter import wavepacket as wp
from dtscatter.spectral import make_dispersion
from dtscatter.thirring import (
    ThirringParams,
    amplitude_pp,
    born_series_thirring,
    channel,
    gamma_matrix,
    gamma_quadrature,
    jacobian_pp,
    two_particle_omega,
    umklapp_amplitudes,
    xy_factors,
)
from oracles import (
    OnSitePhase,
    fixed_point_residual,
    s_matrix_element,
    t_matrix_closed,
    w_operator,
)

NUS = (0.5, 0.8, 0.95)
PS = (0.3, 0.7, 1.1)
KS = (0.2, 0.7, 1.3)
CHIS = (0.2, 1.0, 2.5)


def test_criterion_1_born_reaches_closed_form():
    """Born partial sums hit the closed form to rel. 1e-8 by N <= 60.

    Applies to the budget-convergent subset of the grid: the series is
    exactly geometric, so the subset is decided a priori from the series'
    own leading term and ratio (73 of the 81 points; the other 8 keep a
    ratio just under 1 and cannot reach 1e-8 within 60 terms).
    """
    t_start = time.monotonic()
    included = excluded = 0
    worst_n = -1
    for nu in NUS:
        for p in PS:
            for k in KS:
                for chi in CHIS:
                    params = ThirringParams(nu=nu, chi=chi)
                    series = born_series_thirring(params, p, k, n_max=60)
                    r = float(series.term_ratios[-1])
                    assert r < 1.0, f"series diverges at {(nu, p, k, chi)}"
                    # series-internal budget prediction (no closed form used)
                    t0 = series.partial_sums[0]
                    rho = (series.partial_sums[1] - t0) / t0
                    limit_pred = t0 / (1.0 - rho)
                    tail = np.abs(t0) * r ** (np.arange(61) + 1) / (1.0 - r)
                    reachable = np.nonzero(tail / abs(limit_pred) <= 1e-8)[0]
                    if reachable.size == 0:
                        excluded += 1
                        continue
                    included += 1
                    closed = (amplitude_pp(params, p, k).coefficient
                              * jacobian_pp(params, p, k))
                    rel = np.abs(series.partial_sums - closed) / abs(closed)
                    hit = np.nonzero(rel <= 1e-8)[0]
                    assert hit.size > 0 and hit[0] <= 60, (
                        f"{(nu, p, k, chi)}: best rel err {rel.min():.3e} "
                        f"never reaches 1e-8 within 60 terms")
                    worst_n = max(worst_n, int(hit[0]))
    elapsed = time.monotonic() - t_start
    assert included == 73 and excluded == 8, (included, excluded)
    assert worst_n <= 60, worst_n
    assert elapsed < 10.0, f"criterion budget 10 s exceeded: {elapsed:.1f} s"


def test_criterion_2_first_order_coefficient():
    """The leading series coefficient equals (y - x)/(2(y + x)) to 1e-10."""
    worst = 0.0
    for nu in NUS:
        for p in PS:
            for k in KS:
                params = ThirringParams(nu=nu, chi=1.0)
                f = xy_factors(params, p, k)
                series = born_series_thirring(params, p, k, n_max=1)
                lam1 = (series.partial_sums[0] / params.lam
                        / jacobian_pp(params, p, k))
                target = 0.5 * (f.y - f.x) / (f.y + f.x)
                worst = max(worst, abs(lam1 - target))
    assert worst < 1e-10, f"worst first-order gap {worst:.3e} exceeds 1e-10"


def test_criterion_3_second_order_and_reconciliation():
    """Order-two amplitude equals (i chi)^2 A^2, A = (y-x)/(2(x+y)), to 1e-6,
    plus the lam-vs-chi composition closing at orders one and two.

    Closed form with lam = i chi + (i chi)^2/2: A (1/2 - x/(x+y)) = A^2.
    """
    params = ThirringParams(nu=0.8, chi=1.0)
    ch = channel(params, 0.3, 0.7, +1, +1)
    f = xy_factors(params, 0.3, 0.7)
    a = (f.y - f.x) / (2.0 * (f.x + f.y))

    # composition of the geometric lam-series into chi powers closes
    # against the directly computed orders to 1e-8
    lam_coeffs = [a, a * (-f.x / (f.x + f.y))]
    b = dy.lambda_chi_reconcile(lam_coeffs, 2)
    order1 = dy.first_order_amplitude(params, ch, ch)
    order2 = dy.second_order_amplitude(params, ch, ch)
    gap1 = abs(order1 - b[0] * params.chi)
    gap2 = abs(order2 - b[1] * params.chi**2)
    assert gap1 < 1e-8, f"order-1 reconciliation gap {gap1:.3e}"
    assert gap2 < 1e-8, f"order-2 reconciliation gap {gap2:.3e}"

    # closed-form coefficient of the chi^2 term, from the (x, y) factors only
    target = (1j * params.chi) ** 2 * a**2
    gap = abs(order2 - target)
    assert gap < 1e-6, (
        f"second order computed {order2:.12g} vs closed-form "
        f"(i*chi)^2*A^2 = {target:.12g} (|gap| = {gap:.3e}), outside 1e-6; "
        f"A = (y-x)/(2(x+y)) = {a:.12g}")


def test_criterion_4_umklapp_relations():
    """Sign-locked records bitwise, independent-path to 1e-14, 2pi jump."""
    for nu in NUS:
        for p in PS:
            for k in KS:
                params = ThirringParams(nu=nu, chi=1.0)
                rec_pp, rec_flip, rec_mm = umklapp_amplitudes(params, p, k)
                c = rec_pp.coefficient
                assert rec_flip.coefficient == -c     # bitwise
                assert rec_mm.coefficient == +c       # bitwise
                # independent path: rebuild the (-,-) elastic coefficient
                # from the shifted-band eigenvectors; (x, y) -> (-x, -y)
                d = params.dispersion
                kk = k - np.pi
                u1 = np.array(d.alpha(-1, p + kk))
                u2 = np.array(d.alpha(-1, p - kk))
                x_mm, y_mm = u1[0] * u2[1], u1[1] * u2[0]
                lam = params.lam
                c_mm = lam * (y_mm - x_mm) / (2.0 * ((lam + 1.0) * x_mm + y_mm))
                assert abs(c_mm - c) < 1e-14, (nu, p, k, abs(c_mm - c))
                jump = (two_particle_omega(params, p, k, +1, +1)
                        - two_particle_omega(params, p, kk, -1, -1))
                assert jump == pytest.approx(2.0 * np.pi, abs=1e-10)


def test_criterion_5_trotter_slope_and_prefactor():
    """Log-log gap fit over m* * {1, 1/2, 1/4, 1/8, 1/16}: slope 2.00
    +- 0.05 and prefactor within 10% of ||T (H0 + V - z) T|| / 12.

    I - W~G~0 = (I - i tau V/2)(I - VG0) + O(tau^2), so T~ - T = O(tau^2).
    """
    t_start = time.monotonic()
    model = tr.hopping_ring_model()
    assert model.gamma <= 0.5
    m_star = tr.tau_threshold(model).m_star
    report = tr.convergence_sweep(model, [m_star * 0.5**j for j in range(5)])
    z = model.omega_ref + 1j * model.eps_ref
    dense = oracles.dense_ring()
    t_cont = oracles.t_continuous_operator(dense, z)
    lead = t_cont @ (dense.h0 + dense.v - z * np.eye(model.dim)) @ t_cont
    lead_norm = float(np.linalg.norm(lead, 2)) / 12.0
    elapsed = time.monotonic() - t_start
    assert elapsed < 60.0, f"criterion budget 60 s exceeded: {elapsed:.1f} s"
    assert abs(report.slope - 2.0) <= 0.05, (
        f"fitted slope {report.slope:.10g} is not 2.00 +- 0.05: the O(tau) "
        f"parts of W~ and G~0 should cancel, leaving ||T~ - T|| = O(tau^2)")
    assert abs(report.prefactor - lead_norm) <= 0.1 * lead_norm, (
        f"prefactor {report.prefactor:.6g} vs ||T(H0+V-z)T||/12 = "
        f"{lead_norm:.6g} (ratio {report.prefactor / lead_norm:.3f}), "
        f"outside 10%")


def test_criterion_5_law_at_n_1024():
    """Criterion 5's law on a 1024-site ring (mode 256, k = pi/2) within 1 s.

    The sweep runs on the four-site support of V and the model is built
    from its O(n) factors; predicted_prefactor is the support form
    of ||T (H0 + V - z) T|| / 12, tied to the dense operators at n = 128
    by test_trotter.py::test_support_route_matches_dense_operators.
    """
    t_start = time.monotonic()
    model = tr.hopping_ring_model(n=1024, mode_index=256)
    m_star = tr.tau_threshold(model).m_star
    report = tr.convergence_sweep(model, [m_star * 0.5**j for j in range(5)])
    elapsed = time.monotonic() - t_start
    assert elapsed < 1.0, f"budget 1 s exceeded: {elapsed:.2f} s"
    assert abs(report.slope - 2.0) <= 0.05, report.slope
    predicted = report.predicted_prefactor
    assert abs(report.prefactor - predicted) <= 0.1 * predicted, (
        report.prefactor, predicted)


def test_criterion_5_law_at_n_16384():
    """Criterion 5's law on a 16384-site ring (mode 4096, k = pi/2) within
    1 s, at the tolerances of the n = 1024 check: a ring no dense n x n
    model could hold (its plane-wave basis alone would take 4 GiB)."""
    t_start = time.monotonic()
    model = tr.hopping_ring_model(n=16384, mode_index=4096)
    m_star = tr.tau_threshold(model).m_star
    report = tr.convergence_sweep(model, [m_star * 0.5**j for j in range(5)])
    elapsed = time.monotonic() - t_start
    assert elapsed < 1.0, f"budget 1 s exceeded: {elapsed:.2f} s"
    assert abs(report.slope - 2.0) <= 0.05, report.slope
    predicted = report.predicted_prefactor
    assert abs(report.prefactor - predicted) <= 0.1 * predicted, (
        report.prefactor, predicted)


def test_criterion_6_bound_certification():
    """At tau = m*: computed ||W~ G~0|| < 1 and within the two-term bound."""
    model = tr.hopping_ring_model()
    rep = tr.tau_threshold(model)
    tau = rep.m_star
    z = model.omega_ref + 1j * model.eps_ref
    dense = oracles.dense_ring()
    wg = float(np.linalg.norm(
        tr.w_tilde_direct(model, tau)
        @ oracles.green_discrete_operator(dense, tau, z), 2))
    bound = (rep.gamma + tr.A1_BOUND * tau * model.v_norm
             + tr.A2_BOUND * tau**2 * model.v_norm**2)
    assert wg < 1.0, f"||W~ G~0|| = {wg:.6f} not a contraction"
    assert wg <= bound, f"||W~ G~0|| = {wg:.6f} exceeds bound {bound:.6f}"


def test_criterion_7_wavepacket_oracle():
    """Fixed-p run (L = 4096, sigma_x = 64) lands within 2% of the closed
    diagonal, and doubling sigma_x cuts the error to <= 0.6 of itself."""
    t_start = time.monotonic()
    params = ThirringParams(nu=0.8, chi=1.0)
    closed = amplitude_pp(params, 0.3, 0.7).coefficient
    model = wp.thirring_com_model(params, 0.3, length=4096)
    errs = {}
    for sigma in (64.0, 128.0):
        meas = wp.extract_smatrix(
            model, wp.GaussianPacketSpec(k0=0.7, sigma_x=sigma, x0=2048,
                                         band=(1, 1)), 900)
        errs[sigma] = abs(meas.diagonal_coefficient - closed)
    elapsed = time.monotonic() - t_start
    rel = errs[64.0] / abs(closed)
    ratio = errs[128.0] / errs[64.0]
    assert rel <= 0.02, f"sigma_x=64 relative error {rel:.3e} above 2%"
    assert ratio <= 0.6, f"error ratio at doubled width {ratio:.3f} above 0.6"
    assert elapsed < 120.0, f"criterion budget 2 min exceeded: {elapsed:.1f} s"


def test_criterion_8_structural_invariants():
    """Unitarity per step, strict cone, off-shell zeros, fixed point,
    residue-vs-quadrature — all inside one 2-minute budget."""
    t_start = time.monotonic()

    # unitarity: per-step norm drift below 1e-12
    model = wp.WalkModel(0.8, 1.3, length=512)
    state = wp.build_packet(model, wp.GaussianPacketSpec(k0=0.5, sigma_x=16.0,
                                                         x0=256))
    drift = 0.0
    prev = np.linalg.norm(state)
    for _ in range(128):
        state = wp.step(state, model)
        drift = max(drift, abs(np.linalg.norm(state) - prev))
        prev = np.linalg.norm(state)
    assert drift < 1e-12, f"per-step unitarity drift {drift:.3e}"

    # strict causality cone: exactly zero outside |dx| <= t
    cone_model = wp.WalkModel(0.8, 1.3, length=256)
    amps = np.zeros((256, 2), dtype=complex)
    amps[128, 0] = 1.0
    cone = amps
    t_cone = 24
    for _ in range(t_cone):
        cone = wp.step(cone, cone_model)
    outside = np.abs(np.concatenate([cone[:128 - t_cone],
                                     cone[128 + t_cone + 1:]]))
    assert outside.max() == 0.0, f"leak outside the cone: {outside.max():.3e}"

    # conservation-rule zeros: off-shell records vanish to 1e-12
    disp = make_dispersion(0.8)
    w = w_operator(OnSitePhase(chi=1.0, f={0: -1.0}))
    rec = s_matrix_element(w, disp, (0.5, +1), (0.9, +1), quad_n=256)
    assert abs(rec.coefficient) <= 1e-12
    params = ThirringParams(nu=0.8, chi=1.0)
    ch_in = channel(params, 0.3, 0.7, +1, +1)
    ch_out = channel(params, 0.3, 0.9, +1, +1)
    assert abs(dy.first_order_amplitude(params, ch_in, ch_out)) <= 1e-12

    # closed T solve is a fixed point of its defining equation
    z = np.exp(-1j * 0.9 + 0.05)
    t_eval = t_matrix_closed(w, disp, z)
    res = fixed_point_residual(w, disp, t_eval)
    assert res < 1e-8, f"fixed-point residual {res:.3e}"

    # residue route against direct quadrature
    params_g = ThirringParams(nu=0.8, chi=0.3)
    omega = two_particle_omega(params_g, 0.3, 0.7, +1, +1)
    g_res = gamma_matrix(params_g, 0.3, omega).block
    g_quad = gamma_quadrature(params_g, 0.3, omega).block
    gap = np.abs(g_res - g_quad).max()
    assert gap < 1e-6, f"residue-vs-quadrature gap {gap:.3e}"

    elapsed = time.monotonic() - t_start
    assert elapsed < 120.0, f"criterion budget 2 min exceeded: {elapsed:.1f} s"


def test_criterion_budgets_are_wall_clock():
    # the timing asserts above measure wall clock on the runner; this
    # canary keeps accidental global slowdowns visible in isolation
    t0 = time.monotonic()
    born_series_thirring(ThirringParams(nu=0.8, chi=1.0), 0.3, 0.7, n_max=60)
    assert time.monotonic() - t0 < 5.0
