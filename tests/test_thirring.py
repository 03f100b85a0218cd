"""Two-fermion collision model: closed forms, Born series, Gamma block."""

import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from dtscatter import thirring
from dtscatter.errors import (
    DegenerateMomentumError,
    DomainError,
    DtScatterError,
    PoleError,
    ResonancePoleError,
    RootEnumerationError,
    StationaryPointError,
)
from dtscatter.spectral import make_dispersion
from dtscatter.thirring import (
    ROOT_SCAN_N,
    ThirringParams,
    amplitude_pp,
    born_series_thirring,
    channel,
    com_inverse,
    gamma_matrix,
    gamma_quadrature,
    jacobian_pp,
    two_particle_omega,
    umklapp_amplitudes,
    w_vector,
    xy_factors,
)

# reference point used throughout: (nu, p, k) = (0.8, 0.3, 0.7)
# pinned by oracles.xy_pair / oracles.closed_coefficient at 30 digits
X_REF = 0.18484837602219978146
Y_REF = 0.79864414694842026215
JAC_REF = 1.2073271026738506689
OMEGA_PP_REF = 1.8662179782124820316
C_CHI = {
    0.2: -0.0039057833382229234461 + 0.062374098748902044898j,
    1.0: -0.10413883800323378743 + 0.30544056774202410734j,
    2.5: -0.77914635128280642424 + 0.41482202757989604642j,
    np.pi / 2: -0.28031582292002778281 + 0.44915349530054356414j,
}


def test_xy_factors_reference():
    f = xy_factors(ThirringParams(nu=0.8, chi=1.0), 0.3, 0.7)
    assert f.x == pytest.approx(X_REF, abs=1e-14)
    assert f.y == pytest.approx(Y_REF, abs=1e-14)


def test_xy_equal_at_k_zero():
    f = xy_factors(ThirringParams(nu=0.6, chi=1.0), 0.4, 0.0)
    assert f.x == pytest.approx(f.y, abs=1e-14)


def test_closed_amplitude_reference_values():
    for chi, expect in C_CHI.items():
        c = amplitude_pp(ThirringParams(nu=0.8, chi=chi), 0.3, 0.7).coefficient
        assert c == pytest.approx(expect, abs=1e-14)


def test_amplitude_vanishes_at_zero_coupling_and_zero_k():
    assert amplitude_pp(ThirringParams(nu=0.8, chi=0.0), 0.3, 0.7
                        ).coefficient == 0.0
    assert abs(amplitude_pp(ThirringParams(nu=0.8, chi=1.3), 0.3, 0.0
                            ).coefficient) < 1e-14


def test_amplitude_rejects_out_of_branch_k():
    with pytest.raises(DomainError):
        amplitude_pp(ThirringParams(nu=0.8, chi=1.0), 0.3, 2.0)


def test_jacobian_identity():
    params = ThirringParams(nu=0.8, chi=1.0)
    jac = jacobian_pp(params, 0.3, 0.7)
    assert jac == pytest.approx(JAC_REF, abs=1e-13)
    f = xy_factors(params, 0.3, 0.7)
    assert jac == pytest.approx(2.0 * (f.y**2 - f.x**2), abs=1e-13)


def test_com_transform_roundtrip():
    k1, k2 = com_inverse(0.25, 0.65)
    assert k1 == pytest.approx(0.9, abs=1e-14)
    assert k2 == pytest.approx(-0.4, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.3, max_value=0.95),
       st.floats(min_value=0.1, max_value=1.3),
       st.floats(min_value=0.05, max_value=1.5),
       st.floats(min_value=0.05, max_value=3.0))
def test_unitarity_identity(nu, p, k, chi):
    """|1 + c|^2 + |c|^2 = 1: the two-channel S row is a unit vector."""
    c = amplitude_pp(ThirringParams(nu=nu, chi=chi), p, k).coefficient
    assert abs(1.0 + c) ** 2 + abs(c) ** 2 == pytest.approx(1.0, abs=1e-12)


# (p, k) points every grid draw also evaluates: pi/2 < |p| < pi, where the
# band-pair slope J is negative; k outside [0, pi/2] (signed zero and the
# branch ends included); p on multiples of pi/2
GRID_EDGE_POINTS = [
    (2.4, 0.7), (-2.9, 0.3), (1.9, 1.2), (-1.7, 0.05),
    (0.3, -0.0), (0.3, 0.0), (0.3, -0.2), (0.3, 0.5 * np.pi),
    (0.3, np.nextafter(0.5 * np.pi, 4.0)), (0.3, 2.0), (0.3, -np.pi),
    (0.0, 0.7), (0.5 * np.pi, 0.7), (-0.5 * np.pi, 0.7), (np.pi, 0.7),
    (-np.pi, 0.3), (1e-13, 0.7), (0.5 * np.pi + 1e-13, 0.4),
]
# at chi = pi, lam + 1 = (-1, 1.2e-16), so (lam + 1) x + y vanishes where
# x = y: on k = 0
RESONANCE = {"nu": 0.8, "chi": np.pi, "p": 0.3, "k": 0.0}


def _coefficient_bits(c):
    return None if c is None else (c.real.hex(), c.imag.hex())


def _scalar_coefficient(params, p, k):
    try:
        return amplitude_pp(params, p, k).coefficient
    except DtScatterError:
        return None


def test_amplitude_grid_resonance_point_is_none():
    params = ThirringParams(nu=RESONANCE["nu"], chi=RESONANCE["chi"])
    with pytest.raises(ResonancePoleError):
        amplitude_pp(params, RESONANCE["p"], RESONANCE["k"])
    got = thirring.amplitude_pp_grid(params, [RESONANCE["p"]] * 2,
                                     [RESONANCE["k"], 0.7])
    assert got[0] is None and got[1] is not None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nu=st.one_of(st.floats(min_value=0.0, max_value=1.0), st.just(1.0)),
       chi=st.floats(min_value=-np.pi, max_value=np.pi),
       drawn=st.lists(st.tuples(st.floats(min_value=-4.0, max_value=4.0),
                                st.floats(min_value=-0.5, max_value=2.0)),
                      max_size=32))
@example(nu=1.0, chi=1.0, drawn=[(0.3, 0.7)])
@example(nu=RESONANCE["nu"], chi=RESONANCE["chi"],
         drawn=[(RESONANCE["p"], RESONANCE["k"])])
@example(nu=0.8, chi=0.0, drawn=[(0.3, 0.7)])
@example(nu=0.8, chi=-2.5, drawn=[(0.3, 0.0)])  # coefficient (0.0, -0.0)
def test_amplitude_grid_matches_scalar_bitwise(nu, chi, drawn):
    """amplitude_pp_grid's entry i has the bits of the scalar coefficient
    at (p[i], k[i]), signed zeros included, and is None exactly where the
    scalar call raises."""
    params = ThirringParams(nu=nu, chi=chi)
    points = GRID_EDGE_POINTS + drawn
    got = thirring.amplitude_pp_grid(params, [p for p, _ in points],
                                     [k for _, k in points])
    want = [_scalar_coefficient(params, p, k) for p, k in points]
    assert [_coefficient_bits(c) for c in got] == \
        [_coefficient_bits(c) for c in want]


def test_umklapp_sign_identities_bitwise():
    params = ThirringParams(nu=0.8, chi=1.0)
    rec_pp, rec_flip, rec_mm = umklapp_amplitudes(params, 0.3, 0.7)
    c = rec_pp.coefficient
    # built from one evaluation, so the relations are exact
    assert rec_flip.coefficient == -c
    assert rec_mm.coefficient == +c


def test_umklapp_sign_identities_independent_paths():
    # recompute the -- elastic coefficient from scratch at (p, k - pi):
    # the band flip sends (x, y) -> (-x, -y), leaving c invariant
    params = ThirringParams(nu=0.8, chi=1.0)
    c = amplitude_pp(params, 0.3, 0.7).coefficient
    d = params.dispersion
    kk = 0.7 - np.pi
    # (-,-) eigenvector components at the shifted relative momentum
    u1 = np.array(d.alpha(-1, 0.3 + kk))
    u2 = np.array(d.alpha(-1, 0.3 - kk))
    x_mm, y_mm = u1[0] * u2[1], u1[1] * u2[0]
    lam = params.lam
    c_mm = lam * (y_mm - x_mm) / (2.0 * ((lam + 1.0) * x_mm + y_mm))
    assert abs(c_mm - c) < 1e-14


def test_umklapp_quasi_energy_jump():
    params = ThirringParams(nu=0.8, chi=1.0)
    w_pp = two_particle_omega(params, 0.3, 0.7, +1, +1)
    w_mm = two_particle_omega(params, 0.3, 0.7 - np.pi, -1, -1)
    assert w_pp == pytest.approx(OMEGA_PP_REF, abs=1e-13)
    assert w_pp - w_mm == pytest.approx(2.0 * np.pi, abs=1e-10)


def test_born_series_geometric_ratio():
    params = ThirringParams(nu=0.8, chi=1.0)
    series = born_series_thirring(params, 0.3, 0.7, 30)
    f = xy_factors(params, 0.3, 0.7)
    expect = abs(params.lam) * f.x / (f.x + f.y)
    assert np.ptp(series.term_ratios) < 1e-10
    assert series.term_ratios[-1] == pytest.approx(expect, rel=1e-10)
    assert series.converged


def test_born_series_converges_to_closed_form():
    params = ThirringParams(nu=0.8, chi=1.0)
    series = born_series_thirring(params, 0.3, 0.7, 60)
    jac = jacobian_pp(params, 0.3, 0.7)
    closed = amplitude_pp(params, 0.3, 0.7).coefficient
    assert series.partial_sums[-1] / jac == pytest.approx(closed, rel=1e-12)


def test_t_closed_equals_born_resummation():
    params = ThirringParams(nu=0.8, chi=1.0)
    t2 = oracles.t_closed_thirring(params, 0.3, 0.7)
    a = np.array([1.0, -1.0]) / np.sqrt(2.0)
    w = w_vector(params, 0.3, 0.7)
    series = born_series_thirring(params, 0.3, 0.7, 80)
    assert (a @ t2 @ a) * (w @ w) == pytest.approx(
        complex(series.partial_sums[-1]), rel=1e-12)


def _born_bits(entry):
    """A Born grid entry as comparable bits: its error's type and text, or
    its partial sums' and term ratios' dtype, shape and bytes."""
    if isinstance(entry, DtScatterError):
        return type(entry), str(entry)
    return tuple((a.dtype, a.shape, a.tobytes())
                 for a in (entry.partial_sums, entry.term_ratios))


# more points than one block of the power loop, and across its seam the
# flat (+,+) crossing at k = 0 (StationaryPointError), k = pi/2 and k off
# the branch [0, pi/2]
BORN_SEAM_KS = ([0.05 * i for i in range(1, 29)] + [0.0, np.pi / 2, -0.4,
                1.9, -2.8, 3.0] + [0.7 + 0.01 * i for i in range(10)])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(nu=st.floats(min_value=0.05, max_value=0.99),
       chi=st.one_of(st.floats(min_value=-np.pi, max_value=np.pi),
                     st.just(3.0)),
       p=st.one_of(st.floats(min_value=-np.pi, max_value=np.pi),
                   st.sampled_from([0.5 * np.pi, -0.5 * np.pi, 0.0])),
       ks=st.lists(st.one_of(st.floats(min_value=-np.pi, max_value=np.pi),
                             st.sampled_from([0.0, 0.5 * np.pi, -0.3, 1.9])),
                   max_size=2 * thirring.ROOT_BLOCK + 3),
       n_max=st.one_of(st.integers(min_value=1, max_value=60),
                       st.just(1100)))
@example(nu=0.8, chi=1.0, p=0.3, ks=BORN_SEAM_KS, n_max=40)
@example(nu=0.8, chi=1.0, p=0.5 * np.pi, ks=[0.3, 0.7], n_max=12)
@example(nu=0.5, chi=3.0, p=1.1, ks=BORN_SEAM_KS, n_max=1100)   # order 1 028
@example(nu=0.5, chi=3.0, p=1.1, ks=[0.0, 0.7], n_max=1027)     # just inside
def test_born_grid_matches_pointwise_oracle_bitwise(nu, chi, p, ks, n_max):
    """The stacked power loop gives every point the partial sums and term
    ratios of its own loop bit for bit, or the same error type and text:
    across block seams, at out-of-branch and stationary k, at degenerate
    p, and where lam^(n+1) leaves the float range."""
    params = ThirringParams(nu=nu, chi=chi)
    got = thirring.born_series_grid(params, p, ks, n_max)
    want = oracles.born_series_grid_reference(params, p, ks, n_max)
    assert [_born_bits(e) for e in got] == [_born_bits(e) for e in want]


def test_born_grid_edge_examples_reach_their_errors():
    # the explicit examples above take the paths they are there for
    assert BORN_SEAM_KS.index(0.0) < thirring.ROOT_BLOCK < len(BORN_SEAM_KS)
    def notes(params, p, ks, n_max):
        return {type(e).__name__ if isinstance(e, DtScatterError) else ""
                for e in thirring.born_series_grid(params, p, ks, n_max)}

    assert notes(ThirringParams(0.8, 1.0), 0.3, BORN_SEAM_KS, 40) == \
        {"", "StationaryPointError"}
    assert notes(ThirringParams(0.8, 1.0), 0.5 * np.pi, [0.3], 12) == \
        {"DegenerateMomentumError"}
    (err,) = thirring.born_series_grid(ThirringParams(0.5, 3.0), 1.1, [0.7], 1100)
    assert isinstance(err, DomainError)
    assert str(err).startswith("Born term of order 1028 overflows")



# pi/2 < |p| < pi, where the band-pair slope jacobian_pp is negative
NEGATIVE_SLOPE = [(0.8, 2.4, 0.7), (0.8, -2.4, 0.7), (0.8, 2.0, 0.7),
                  (0.8, 2.9, 0.3), (0.2, 1.6, 1.2), (0.5, -2.9, 1.5)]


@pytest.mark.parametrize("nu,p,k", NEGATIVE_SLOPE)
def test_closed_form_and_born_agree_where_the_slope_is_negative(nu, p, k):
    params = ThirringParams(nu=nu, chi=1.0)
    jac = jacobian_pp(params, p, k)
    assert jac < 0.0
    c = amplitude_pp(params, p, k).coefficient
    series = born_series_thirring(params, p, k, 60)
    assert series.converged
    # the on-shell delta normalizes by |J|; the closed form takes x and y
    # exchanged, which for the amplitude is the conjugate of the formula
    assert series.partial_sums[-1] / abs(jac) == pytest.approx(c, abs=1e-12)
    f = xy_factors(params, p, k)
    lam = params.lam
    formula = lam * (f.y - f.x) / (2.0 * ((lam + 1.0) * f.x + f.y))
    assert c == pytest.approx(formula.conjugate(), abs=1e-14)
    assert abs(1.0 + c) ** 2 + abs(c) ** 2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("nu,p,k", [(0.8, 0.3, 0.7)] + NEGATIVE_SLOPE)
def test_t_closed_equals_pole_route_resummation(nu, p, k):
    # T = lam (I - lam Gamma_Q)^{-1} on span(up-down, down-up), with Gamma
    # from the residue route at the pair energy, on both sides of J = 0
    params = ThirringParams(nu=nu, chi=1.0)
    omega = two_particle_omega(params, p, k, +1, +1)
    g = gamma_matrix(params, p, omega).block[np.ix_([1, 2], [1, 2])]
    resummed = params.lam * np.linalg.inv(np.eye(2) - params.lam * g)
    np.testing.assert_allclose(oracles.t_closed_thirring(params, p, k), resummed,
                               rtol=0.0, atol=1e-10)


def test_gamma_residue_vs_quadrature():
    params = ThirringParams(nu=0.8, chi=0.3)
    omega = two_particle_omega(params, 0.3, 0.7, +1, +1)
    res = gamma_matrix(params, 0.3, omega)
    quad = gamma_quadrature(params, 0.3, omega)
    assert np.abs(res.block - quad.block).max() < 1e-6
    # at p = 1.1, omega = 0 the (+,-) and (-,+) pairs also cross on the
    # zone seam k = +-pi, where neither end node is an exact level hit
    for nu in (0.3, 0.5, 0.8):
        params = ThirringParams(nu=nu, chi=0.3)
        res = gamma_matrix(params, 1.1, 0.0)
        quad = gamma_quadrature(params, 1.1, 0.0)
        assert np.abs(res.block - quad.block).max() < 1e-6, nu


def test_gamma_residue_roots_on_shell():
    params = ThirringParams(nu=0.8, chi=0.3)
    omega = two_particle_omega(params, 0.3, 0.7, +1, +1)
    res = gamma_matrix(params, 0.3, omega)
    roots = {(round(k, 9), s1, s2) for k, s1, s2 in res.roots}
    # the (+,+) crossing at the defining k and its (-,-) partner across
    # the zone edge (pinned by root bisection at the reference point)
    assert (0.7, 1, 1) in roots
    assert (round(-2.4415926535898365, 9), -1, -1) in roots


def test_gamma_remainder_pole_carries_its_message():
    # omega + 2p = 0: the (0, 0) remainder entry 1/(e^{-ih} - 1) diverges
    with pytest.raises(PoleError, match="remainder entry 0 diverges") as exc:
        gamma_matrix(ThirringParams(nu=0.8, chi=1.0), 0.3, -0.6)
    assert exc.value.k is None


def test_flat_band_rejected_quickly():
    # at nu = 1e-300 every scan node is an exact level hit; the root scan
    # must record them in one pass, not re-match each node against the list
    t0 = time.monotonic()
    with pytest.raises(StationaryPointError):
        born_series_thirring(ThirringParams(1e-300, 1.0), 0.3, 0.7, 12)
    assert time.monotonic() - t0 < 0.25


# omegas whose scan holds an exact level hit at nu = 0.8, p = 0.3: the
# (+,-) level is zero on scan node 1300, and on node 1536 (k = pi/2), where
# the (+,-) pair is stationary, so the crossing is a tangency
_D08 = make_dispersion(0.8)
_NODE_K = [-np.pi + 2.0 * np.pi * i / ROOT_SCAN_N for i in (1300, 1536)]
NODE_HIT_OMEGA, TANGENT_HIT_OMEGA = (
    float(_D08.omega(0.3 + k) - _D08.omega(0.3 - k)) for k in _NODE_K)
REF_OMEGA_PP = two_particle_omega(ThirringParams(nu=0.8, chi=1.0), 0.3, 0.7, +1, +1)


def _off_degenerate_p(p):
    return abs(p - 0.5 * np.pi * round(p / (0.5 * np.pi))) >= 1e-3


# a target whose levels (omega - band)/(2pi) are too coarse to pin a (+,+)
# crossing at nu = 0.8, p = 0.3: the scalar bisection raises for that pair
FAILING_OMEGA = 826920240935.2672


def _oracle_roots(d, p, omega):
    """Per pair: the scalar roots as hex strings, or the error's text."""
    out = []
    for s1, s2 in thirring._BAND_PAIRS:
        try:
            out.append([r.hex() for r in oracles.band_pair_roots(d, s1, s2, p, omega)])
        except RootEnumerationError as exc:
            out.append(str(exc))
    return out


def _as_oracle(got):
    return [str(r) if isinstance(r, RootEnumerationError) else
            [x.hex() for x in r] for r in got]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(nu=st.floats(min_value=0.05, max_value=0.99),
       p=st.floats(min_value=-np.pi, max_value=np.pi,
                   exclude_min=True).filter(_off_degenerate_p),
       omega=st.floats(min_value=-np.pi, max_value=np.pi, exclude_min=True))
@example(nu=0.8, p=0.3, omega=NODE_HIT_OMEGA)
@example(nu=0.8, p=0.3, omega=TANGENT_HIT_OMEGA)
@example(nu=0.8, p=0.3, omega=REF_OMEGA_PP)
def test_band_pair_roots_match_scalar_oracle(nu, p, omega):
    """The crossing solve returns the scalar bisection's roots (or its
    error) bit for bit, band pair by band pair."""
    d = make_dispersion(nu)
    (got,) = thirring._band_pair_roots(d, p, [omega])
    assert _as_oracle(got) == _oracle_roots(d, p, omega)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(drawn=st.lists(st.floats(min_value=-np.pi, max_value=np.pi,
                                exclude_min=True), max_size=8))
def test_band_pair_roots_batch_matches_scalar_oracle(drawn):
    """Every target of a batch that spans more than one block gets its
    scalar roots; one target's RootEnumerationError leaves its neighbours'
    roots alone."""
    d = make_dispersion(0.8)
    distinct = [NODE_HIT_OMEGA, FAILING_OMEGA, TANGENT_HIT_OMEGA,
                REF_OMEGA_PP] + drawn
    omegas = distinct * (thirring.ROOT_BLOCK // len(distinct) + 1)
    want = {omega: _oracle_roots(d, 0.3, omega) for omega in distinct}
    assert isinstance(want[FAILING_OMEGA][0], str)
    got = thirring._band_pair_roots(d, 0.3, omegas)
    assert len(got) == len(omegas) > thirring.ROOT_BLOCK
    for omega, roots in zip(omegas, got):
        assert _as_oracle(roots) == want[omega]


def test_earlier_pair_failure_takes_precedence(monkeypatch):
    # a point reports the first failure in pair order: the (+,+) roots, then
    # the (+,+) slopes, before anything of the (+,-) pair
    params = ThirringParams(nu=0.8, chi=1.0)
    omega = two_particle_omega(params, 0.3, 0.0, +1, +1)  # (+,+) flat at k = 0
    solve = thirring._band_pair_roots
    stub = RootEnumerationError("stub")
    monkeypatch.setattr(thirring, "_band_pair_roots",
                        lambda d, p, ws: [r[:1] + [stub] * 3
                                          for r in solve(d, p, ws)])
    with pytest.raises(StationaryPointError, match=r"band pair \(\+1,\+1\)"):
        gamma_matrix(params, 0.3, omega)
    monkeypatch.setattr(thirring, "_band_pair_roots",
                        lambda d, p, ws: [[stub] + r[1:]
                                          for r in solve(d, p, ws)])
    with pytest.raises(RootEnumerationError, match="stub"):
        gamma_matrix(params, 0.3, omega)


@pytest.mark.parametrize("p", [0.3, 0.7])
@pytest.mark.parametrize("omega", [0.0, 1e-13, -1e-13, np.pi, np.pi - 1e-13])
def test_gamma_counts_crossings_on_sin2k_zero_once(p, omega):
    # at omega = 0 the (+,-) and (-,+) pairs cross at k = 0 and k = +-pi, at
    # omega = pi the (+,+) and (-,-) pairs at k = +-pi/2: each crossing and
    # its mirror sit on sin 2k = 0, and only one of them counts
    params = ThirringParams(nu=0.8, chi=1.0)
    res = gamma_matrix(params, p, omega)
    quad = gamma_quadrature(params, p, omega)
    assert np.abs(res.block - quad.block).max() < 1e-6


def test_degenerate_total_momentum_rejected():
    params = ThirringParams(nu=0.8, chi=1.0)
    with pytest.raises(DegenerateMomentumError):
        gamma_matrix(params, 0.0, 1.2)


def test_channel_consistency():
    params = ThirringParams(nu=0.8, chi=1.0)
    ch = channel(params, 0.3, 0.7, +1, +1)
    assert ch.omega == pytest.approx(
        two_particle_omega(params, 0.3, 0.7, +1, +1), abs=1e-15)


def test_dispersion_is_derived_not_passed():
    # the dispersion follows from nu; a third argument used to be accepted
    # and silently replaced
    with pytest.raises(TypeError):
        ThirringParams(0.8, 1.0, make_dispersion(0.3))
    with pytest.raises(TypeError):
        ThirringParams(nu=0.8, chi=1.0, dispersion=make_dispersion(0.3))
    params = ThirringParams(nu=0.8, chi=1.0)
    assert params.dispersion == make_dispersion(0.8)
    assert params.mu == params.dispersion.mu
