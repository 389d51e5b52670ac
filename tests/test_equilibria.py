"""Critical temperature, fixed point, closed-form maximizers, and the search."""

import math
import time
import warnings

import numpy as np
import pytest

from blockpotts import equilibria
from blockpotts import (
    CapacityError,
    InvalidInputError,
    ModelParams,
    NonConvergenceError,
    Phase,
    SearchOptions,
    critical_residual,
    critical_temperature,
    equilibrium_matrices,
    free_energy_G,
    maximize_G,
    phi,
    potts_fixed_point_u,
    structure_certificate,
    two_column_landscape,
)
from oracles import (
    basin_rate,
    color_permutations_by_all_perms,
    color_permutations_by_placements,
    contraction_by_vertices,
    gradient_G,
    mean_field_ascent,
    structure_flags_by_row_loops,
    two_column_newton,
    two_column_point,
    w_profile,
    w_profile_prime,
)
from pinned_reports import REPORTS


def uniform_params(q, s, g, split=0.5):
    """Pick (alpha, beta) with alpha < beta realizing effective coupling g."""
    # g = (beta + (s-1) alpha)/s; beta = g + (s-1)*split, alpha = g - split
    if s == 1:
        return ModelParams(q=q, s=1, alpha=0.0, beta=g, gamma=(1.0,))
    beta = g + (s - 1) * split
    alpha = g - split
    assert alpha > 0
    return ModelParams(q=q, s=s, alpha=alpha, beta=beta,
                       gamma=tuple([1.0 / s] * s))


def basin_nus(params):
    """The closed-form basin centres maximize_G hands its search: the nu^i
    for uniform gamma with u(g) > 0, else none."""
    g = params.effective_coupling
    if params.uniform_gamma and potts_fixed_point_u(g, params.q) > 0.0:
        return equilibrium_matrices(g, params)[1]
    return []


def basin_table(params):
    """(centres, radii) of _basin_centres as maximize_G's search builds them."""
    return equilibria._basin_centres(params, params.gamma_array, basin_nus(params))


FAST = SearchOptions(restarts=8, seed=0)

AC5_SET = [
    uniform_params(3, 2, 2.5),
    uniform_params(3, 2, 3.0),
    uniform_params(3, 2, critical_temperature(3)),
    uniform_params(3, 3, 3.1, split=0.3),
    uniform_params(4, 2, critical_temperature(4) + 0.2),
    ModelParams(q=3, s=2, alpha=2.4, beta=4.0, gamma=(0.4, 0.6)),
    ModelParams(q=3, s=2, alpha=0.5, beta=1.0, gamma=(0.3, 0.7)),
]

# (model, search seed) pairs where projected line-search ascent left
# restarts at MAX_ITER, and one where full-matrix mean-field restarts
# crept to the flat point at ratio g/q = 0.968 per step until MAX_ITER
MAX_ITER_CASES = [
    (ModelParams(q=5, s=2, alpha=1.575, beta=3.989, gamma=(0.5, 0.5)), 0),
    (ModelParams(q=4, s=2, alpha=1.167, beta=1.354, gamma=(0.5267, 0.4733)), 53),
    (ModelParams(q=3, s=2, alpha=2.5627, beta=3.2469, gamma=(0.5, 0.5)), 340),
]


def test_critical_temperature_values():
    assert critical_temperature(3) == pytest.approx(4 * math.log(2), abs=1e-14)
    assert critical_temperature(4) == pytest.approx(3 * math.log(3), abs=1e-14)
    with pytest.raises(InvalidInputError):
        critical_temperature(2)


def test_critical_temperature_increasing_in_q():
    vals = [critical_temperature(q) for q in range(3, 51)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_fixed_point_small_g_is_zero():
    assert potts_fixed_point_u(0.05, 3) == 0.0
    assert potts_fixed_point_u(1.0, 3) == 0.0


def test_fixed_point_at_critical_coupling():
    u = potts_fixed_point_u(critical_temperature(3), 3)
    assert u == pytest.approx(0.5, abs=1e-6)


def test_fixed_point_residual_and_value_at_g3():
    u = potts_fixed_point_u(3.0, 3)
    rhs = (1 - math.exp(-3.0 * u)) / (1 + 2 * math.exp(-3.0 * u))
    assert abs(u - rhs) <= 1e-12
    assert u > 0.5


def test_fixed_point_nondecreasing_above_zeta():
    zeta = critical_temperature(3)
    grid = np.linspace(zeta, zeta + 2.0, 40)
    us = [potts_fixed_point_u(g, 3) for g in grid]
    assert all(b >= a - 1e-12 for a, b in zip(us, us[1:]))


def test_fixed_point_huge_g_is_one_below_one():
    # b * b overflows at g q > 1e154, where u is 1 to the last bit
    assert potts_fixed_point_u(1e200, 3) == np.nextafter(1.0, 0.0)


def test_fixed_point_refuses_q_past_1e150():
    # at q = 6e153 and g = 400, b * b overflows although u_c lies above 1/2,
    # so the u_c < 1/2 shortcut returned 0 for a root next to 1
    assert potts_fixed_point_u(400.0, 1e150) == np.nextafter(1.0, 0.0)
    with pytest.raises(CapacityError, match=r"q <= 1e150, got q="):
        potts_fixed_point_u(400.0, 6e153)


def _spinodal(q):
    """Least g with a positive fixed point: the minimum over u of the g solving u = rhs(u)."""

    def g_of(u):
        return math.log((1.0 + (q - 1.0) * u) / (1.0 - u)) / u

    lo, hi = 0.01, 0.99
    for _ in range(200):
        a, b = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if g_of(a) < g_of(b):
            hi = b
        else:
            lo = a
    return g_of(0.5 * (lo + hi)), 0.5 * (lo + hi)


@pytest.mark.parametrize("q", [3, 4])
def test_fixed_point_just_above_spinodal(q):
    # the two positive roots lie a few 1e-5 apart, inside one cell of a 1e-4 grid
    g_sp, u_sp = _spinodal(q)
    g = g_sp + 1e-10
    u = potts_fixed_point_u(g, q)
    e = math.exp(-g * u)
    assert abs((1 - e) / (1 + (q - 1) * e) - u) <= 1e-12
    assert u > u_sp and u - u_sp < 1e-3
    assert potts_fixed_point_u(g_sp - 1e-10, q) == 0.0


def test_phi_endpoints_and_sum():
    assert np.allclose(phi(0.0, 3, 2), 1 / 6)
    v = phi(1.0, 3, 2)
    assert v[0] == pytest.approx(0.5) and np.allclose(v[1:], 0.0)
    rng = np.random.default_rng(0)
    for t in rng.random(20):
        assert phi(t, 4, 3).sum() == pytest.approx(1 / 3, abs=1e-14)
    with pytest.raises(InvalidInputError):
        phi(1.5, 3, 2)


def test_equilibrium_matrices_subcritical_collapse():
    p = uniform_params(3, 2, 2.0)
    Q, nus = equilibrium_matrices(2.0, p)
    assert np.allclose(Q, 1 / 6)
    for nu in nus:
        assert np.allclose(nu, Q, atol=1e-14)


def test_equilibrium_matrices_supercritical():
    p = uniform_params(3, 2, 3.0)
    Q, nus = equilibrium_matrices(3.0, p)
    vals = [free_energy_G(nu, p) for nu in nus]
    assert max(vals) - min(vals) <= 1e-12
    for nu in nus:
        assert np.allclose(nu.sum(axis=1), 0.5, atol=1e-14)  # rows in C(gamma)
        assert np.allclose(nu[0], nu[1], atol=1e-15)  # identical rows


@pytest.mark.parametrize("alpha, beta", [(30.0, 40.0), (360.0, 370.0), (700.0, 700.0)])
def test_closed_form_residual_vanishes_at_strong_coupling(alpha, beta):
    # taken directly, 1 - u cancels as u nears 1 (a residual of 0.037 at
    # alpha 30, beta 40); q e^{-gu} / (1 + (q-1) e^{-gu}) does not, while
    # e^{-gu} stays a normal float
    p = ModelParams(q=3, s=2, alpha=alpha, beta=beta, gamma=(0.5, 0.5))
    report = maximize_G(p, options=FAST)
    assert report.phase is Phase.SUPERCRITICAL
    assert report.residual_max <= 1e-8
    assert report.certificate == "closed-form, certified by multistart ascent"
    for nu in report.maximizers:
        assert structure_certificate(nu, p)["residual_max"] <= 1e-8


@pytest.mark.parametrize("g", [730.0, 744.0])
def test_closed_form_is_not_certified_where_the_small_entries_lose_digits(g):
    # past g u = 708 e^{-gu} is a subnormal float: residual_max is 4.8e-7
    # at g = 730 and 0.17 at g = 744, above RESIDUAL_BOUND
    p = ModelParams(q=3, s=2, alpha=g, beta=g, gamma=(0.5, 0.5))
    report = maximize_G(p, options=FAST)
    assert equilibria.RESIDUAL_BOUND < report.residual_max < math.inf
    assert report.certificate == "closed-form, not certified: residual_max above 1e-08"


def test_closed_form_small_entries_underflow_to_zero():
    # at g = 1000 the small entries, about e^{-1000}, round to 0: no double
    # holds them, so the residual is infinite and the report not certified
    p = ModelParams(q=3, s=2, alpha=1000.0, beta=1000.0, gamma=(0.5, 0.5))
    report = maximize_G(p, options=FAST)
    small = np.sort(report.maximizers[0], axis=1)[:, :2]
    assert np.all(small == 0.0) and report.residual_max == math.inf
    assert report.certificate == "closed-form, not certified: residual_max above 1e-08"
    assert not structure_certificate(report.maximizers[0], p)["positive"]


def test_equilibrium_matrices_rejects_nonuniform_gamma():
    p = ModelParams(q=3, s=2, alpha=0.5, beta=1.0, gamma=(0.4, 0.6))
    with pytest.raises(InvalidInputError):
        equilibrium_matrices(1.0, p)


def test_equilibrium_matrices_refuses_more_entries_than_the_search_cap(monkeypatch):
    # q matrices of s x q: 18 entries at q=3, s=2
    p = uniform_params(3, 2, 2.5)
    monkeypatch.setattr(equilibria, "MAX_SEARCH_ENTRIES", 18)
    assert len(equilibrium_matrices(2.5, p)[1]) == 3
    monkeypatch.setattr(equilibria, "MAX_SEARCH_ENTRIES", 17)
    with pytest.raises(CapacityError, match="needs 18 entries, cap is 17") as err:
        equilibrium_matrices(2.5, p)
    assert err.value.required == 18


def test_critical_residual_zero_at_flat_point():
    p = uniform_params(3, 2, 2.5)
    res = critical_residual(np.full((2, 3), 1 / 6), p)
    assert np.max(np.abs(res)) <= 1e-14


def test_critical_residual_row_symmetry_for_proportional_rows():
    p = uniform_params(3, 2, 2.5)
    v = np.array([0.2, 0.5, 0.3])
    mu = np.vstack([0.5 * v, 0.5 * v])
    res = critical_residual(mu, p)
    assert np.max(np.abs(res[0] - res[1])) <= 1e-13


def test_critical_residual_zero_entry_is_error():
    p = uniform_params(3, 2, 2.5)
    mu = np.array([[0.5, 0.0, 0.0], [0.0, 0.25, 0.25]])
    with pytest.raises(InvalidInputError):
        critical_residual(mu, p)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    p = ModelParams(q=3, s=2, alpha=0.5, beta=1.0, gamma=(0.4, 0.6))
    h = 1e-6
    for _ in range(20):
        mu = rng.dirichlet(np.full(3, 5.0), size=2) * np.array([[0.4], [0.6]])
        mu = np.maximum(mu, 0.02)
        grad = gradient_G(mu, p)
        for k in range(2):
            for c in range(3):
                up = mu.copy()
                dn = mu.copy()
                up[k, c] += h
                dn[k, c] -= h
                # raw G without row-sum cleanup: evaluate the defining formula
                fd = (_raw_G(up, p) - _raw_G(dn, p)) / (2 * h)
                assert abs(grad[k, c] - fd) <= 1e-6 * max(1.0, abs(grad[k, c]))


def _raw_G(mu, p):
    col = mu.sum(axis=0)
    quad = (p.beta - p.alpha) * np.sum(mu * mu) + p.alpha * np.dot(col, col)
    return 0.5 * quad - float(np.sum(mu * np.log(mu)))


def test_maximize_subcritical_returns_flat_point_only():
    report = maximize_G(uniform_params(3, 2, 2.5), options=FAST)
    assert report.phase is Phase.SUBCRITICAL
    assert len(report.maximizers) == 1
    assert np.allclose(report.maximizers[0], 1 / 6, atol=1e-14)
    assert report.residual_max <= 1e-8


def test_maximize_supercritical_three_swapped_maximizers():
    p = uniform_params(3, 2, 3.0)
    report = maximize_G(p, options=FAST)
    assert report.phase is Phase.SUPERCRITICAL
    assert len(report.maximizers) == 3
    u = potts_fixed_point_u(3.0, 3)
    base = phi(u, 3, 2)
    for i, m in enumerate(report.maximizers):
        expected = base.copy()
        expected[0], expected[i] = expected[i], expected[0]
        assert np.allclose(m, np.tile(expected, (2, 1)), atol=1e-12)
    GQ = free_energy_G(np.full((2, 3), 1 / 6), p)
    assert report.sup_G - GQ > 1e-6


def test_maximize_critical_ties():
    zeta = critical_temperature(3)
    report = maximize_G(uniform_params(3, 2, zeta), options=FAST)
    assert report.phase is Phase.CRITICAL
    assert len(report.maximizers) == 4
    p = uniform_params(3, 2, zeta)
    vals = [free_energy_G(m, p) for m in report.maximizers]
    assert max(vals) - min(vals) <= 1e-8


def test_maximizer_beats_random_probes():
    rng = np.random.default_rng(2)
    p = uniform_params(3, 2, 3.0)
    report = maximize_G(p, options=FAST)
    for _ in range(10_000):
        mu = rng.dirichlet(np.ones(3), size=2) * 0.5
        assert free_energy_G(mu, p) <= report.sup_G + 1e-12


def test_uniform_gamma_maximizers_have_identical_rows():
    for g in (2.5, 3.0, critical_temperature(3)):
        report = maximize_G(uniform_params(3, 2, g), options=FAST)
        for m in report.maximizers:
            assert np.max(np.abs(m[0] - m[1])) <= 1e-9


def test_two_column_matrix_structure():
    gamma = np.array([0.5, 0.5])
    mat = equilibria._two_column(1, np.array([0.25, 0.25]), gamma, 3)
    assert mat.shape == (2, 3)
    assert np.allclose(mat.sum(axis=1), gamma)
    assert np.allclose(mat[:, -1], 0.25)
    assert np.allclose(mat[:, :-1], 0.125)
    # strict two-value structure: large column above gamma/q, small below
    assert np.all(mat[:, -1] > gamma / 3)
    assert np.all(mat[:, :-1] < gamma[:, None] / 3)


def test_structure_certificates_uniform_and_nonuniform():
    cases = [
        uniform_params(3, 2, 2.5),
        uniform_params(3, 2, 3.0),
        ModelParams(q=3, s=2, alpha=2.4, beta=4.0, gamma=(0.4, 0.6)),
    ]
    for params in cases:
        report = maximize_G(params, options=FAST)
        for m in report.maximizers:
            cert = structure_certificate(m, params)
            assert cert["positive"]
            assert cert["common_order"]
            assert cert["at_most_two_values"]
            assert cert["residual_max"] <= 1e-8


@pytest.mark.parametrize("tol", [1e-9, 2.0**-30], ids=["decimal", "power-of-two"])
def test_structure_flags_equal_the_row_loops(tol):
    # entries a few tol apart, most on a multiple of tol from their row's
    # base and some just off it; the bases span binades, so adding tol
    # rounds either way at 1e-9, and a power-of-two tol adds exactly, so
    # differences equal to tol occur and every comparison goes both ways
    rng = np.random.default_rng(0)
    params = ModelParams(q=5, s=3, alpha=1.0, beta=2.0, gamma=(0.2, 0.3, 0.5))
    seen = set()
    for _ in range(900):
        steps = rng.integers(0, 4, size=(3, 5)) + rng.choice(
            [0.0, 0.0, 0.0, 1e-7, -1e-7, 0.3, -0.3], size=(3, 5))
        mu = 2.0 ** -rng.uniform(1, 10, size=(3, 1)) + tol * steps
        flags = structure_certificate(mu, params, tol=tol)
        expected = structure_flags_by_row_loops(mu, tol=tol)
        assert (flags["common_order"], flags["at_most_two_values"]) == expected
        seen.add(expected)
    assert len(seen) == 4


# the 3 x 3 matrix has zero entries, so no residual is taken that would
# read its shape
@pytest.mark.parametrize("mu", [
    np.full(3, 1 / 3), np.eye(3) / 3, np.full((2, 3), np.nan),
], ids=["1-D", "3x3-for-s2", "all-NaN"])
def test_structure_certificate_refuses_malformed_matrices(mu):
    params = ModelParams(q=3, s=2, alpha=1.0, beta=2.0, gamma=(0.5, 0.5))
    with pytest.raises(InvalidInputError):
        structure_certificate(mu, params)


def test_nonuniform_gamma_is_flagged_numerical():
    p = ModelParams(q=3, s=2, alpha=2.4, beta=4.0, gamma=(0.4, 0.6))
    report = maximize_G(p, options=FAST)
    assert "no closed-form certificate" in report.certificate
    assert report.residual_max <= 1e-8
    rng = np.random.default_rng(3)
    for _ in range(500):
        mu = rng.dirichlet(np.ones(3), size=2) * np.array([[0.4], [0.6]])
        assert free_energy_G(mu, p) <= report.sup_G + 1e-12


def test_w_profile_flat_point_is_stationary():
    for (q, r, s) in ((3, 1, 2), (4, 1, 2), (5, 2, 3)):
        assert w_profile_prime(1.0 / (s * q), q, r, s) == pytest.approx(0.0, abs=1e-10)


def test_w_profile_prime_matches_finite_differences():
    rng = np.random.default_rng(4)
    q, r, s = 3, 1, 2
    h = 1e-7
    for _ in range(20):
        x = rng.uniform(0.05, 0.45)
        fd = (w_profile(x + h, q, r, s) - w_profile(x - h, q, r, s)) / (2 * h)
        assert w_profile_prime(x, q, r, s) == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_w_profile_second_derivative_sign_change():
    # q > 2r: w'' vanishes at the flat point and changes sign at 1/(2sr)
    q, r, s = 3, 1, 2
    h = 1e-5

    def wpp(x):
        return (w_profile_prime(x + h, q, r, s) - w_profile_prime(x - h, q, r, s)) / (2 * h)

    x0 = 1.0 / (s * q)
    assert abs(wpp(x0)) <= 1e-3
    xc = 1.0 / (2 * s * r)
    assert wpp(xc - 0.02) < 0 < wpp(xc + 0.02)


def test_w_profile_diverges_at_right_edge():
    q, r, s = 3, 1, 2
    edge = 1.0 / (s * r)
    assert w_profile(edge - 1e-9, q, r, s) > w_profile(edge - 1e-3, q, r, s) > w_profile(0.3, q, r, s)
    with pytest.raises(InvalidInputError):
        w_profile(edge, q, r, s)
    with pytest.raises(InvalidInputError):
        w_profile(0.0, q, r, s)


def test_w_profile_reproduces_G_at_critical_points():
    # at a two-column critical point: G = g/(2q) + sum_k w(mu_plus_k) / (2qs)
    p = uniform_params(3, 2, 3.0)
    g = p.effective_coupling
    u = potts_fixed_point_u(g, 3)
    mu_plus = (1 + 2 * u) / 6.0  # large entry of phi(u) with r = 1
    nu = np.tile(phi(u, 3, 2), (2, 1))
    expected = g / 6.0 + 2 * w_profile(mu_plus, 3, 1, 2) / 12.0
    assert free_energy_G(nu, p) == pytest.approx(expected, rel=1e-12)
    # the flat matrix is the degenerate case for any r
    Q = np.full((2, 3), 1 / 6)
    expected_Q = g / 6.0 + 2 * w_profile(1 / 6.0, 3, 1, 2) / 12.0
    assert free_energy_G(Q, p) == pytest.approx(expected_Q, rel=1e-12)


def test_two_column_landscape_stays_below_supremum():
    p = uniform_params(3, 2, 3.0)
    report = maximize_G(p, options=FAST)
    for r in (1, 2):
        rows = two_column_landscape(p, r, mesh=15)
        assert rows.shape[1] == 4  # r, mu_plus_1, mu_plus_2, G
        assert np.all(rows[:, -1] <= report.sup_G + 1e-9)


def _centre_norm(mu, centre, gamma):
    """max_k ||mu_k - centre_k||_1 / gamma_k, batched over leading axes."""
    return np.max(np.abs(mu - centre).sum(axis=-1) / gamma, axis=-1)


def _check_ball(centre, radius, rho, params, rng):
    """One step from centre + v, zero-sum rows with N(v) <= radius, lands
    within kappa N(v) of the centre, kappa = (1 + rho) / 2, up to the
    rounding of the map and of N and twice the centre's residual share
    2 eps / (1 - rho); from the ball's edge the iterates stay in the ball
    and reach the centre within 1e-12."""
    gamma = params.gamma_array
    s, q = centre.shape
    kappa, slack = (1.0 + rho) / 2.0, 1e-14 / gamma.min()
    eps = _centre_norm(equilibria._mean_field_map(centre, params, gamma[:, None]), centre, gamma)
    slack += 4.0 * eps / (1.0 - rho)
    # zero-sum rows scaled to N(v) = radius * size, the first half on the edge
    z = rng.standard_normal((64, s, q))
    z -= z.mean(axis=-1, keepdims=True)
    rows = rng.random((64, s))
    rows /= rows.max(axis=1, keepdims=True)
    size = np.where(np.arange(64) < 32, 1.0, rng.random(64))
    v = z / np.abs(z).sum(axis=-1, keepdims=True) * (radius * size[:, None] * rows
                                                     * gamma)[..., None]
    mu = centre + v
    before = _centre_norm(mu, centre, gamma)
    assert np.allclose(before, radius * size, rtol=1e-12)
    mapped = equilibria._mean_field_map(mu, params, gamma[:, None])
    assert np.all(_centre_norm(mapped, centre, gamma) <= kappa * before + slack)
    mu = mu[:32]
    for _ in range(equilibria.MAX_ITER):
        mu = equilibria._mean_field_map(mu, params, gamma[:, None])
        dist = _centre_norm(mu, centre, gamma)
        assert np.all(dist <= radius + slack)
        if dist.max() <= 1e-12:
            break
    assert dist.max() <= 1e-12


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("q", [3, 4, 5])
def test_flat_ball_certificate(q, s):
    # at the flat point the basin radius is 2 (1 - rho) / (q rho)^2 with
    # rho = max_k ((beta - alpha) gamma_k + alpha) / q
    rng = np.random.default_rng(100 * q + s)
    for _ in range(8):
        gamma = rng.dirichlet(np.ones(s)) if s > 1 else np.ones(1)
        rho, share = rng.uniform(0.05, 0.9), rng.random()
        beta = rho * q / ((1.0 - share) * gamma.max() + share)
        params = ModelParams(q=q, s=s, alpha=share * beta, beta=beta, gamma=tuple(gamma))
        gamma = params.gamma_array
        centres, radii = basin_table(params)
        assert radii[0] == pytest.approx(2.0 * (1.0 - rho) / (q * rho) ** 2, rel=1e-12)
        _check_ball(centres[0], radii[0], rho, params, rng)


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("q", [3, 4, 5])
def test_nu_ball_certificate(q, s):
    # the q closed-form maximizers nu^i carry balls of their own, at the
    # critical point, at g = q (where the flat point has none) and deep in
    # the ordered phase
    rng = np.random.default_rng(200 * q + s)
    for g in (critical_temperature(q), float(q), 35.0):
        params = uniform_params(q, s, g)
        gamma = params.gamma_array
        centres, radii = basin_table(params)
        _, nus = equilibrium_matrices(params.effective_coupling, params)
        assert len(centres) == q + 1
        assert all(np.array_equal(c, nu) for c, nu in zip(centres[1:], nus))
        rho = equilibria._contraction(centres, params, gamma)[0]
        assert np.all(rho[1:] < 1.0) and np.all(radii[1:] > 0.0)
        for i in range(q):
            _check_ball(centres[1 + i], radii[1 + i], rho[1 + i], params, rng)


@pytest.mark.parametrize("q, s", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_contraction_equals_vertex_enumeration(q, s):
    # rho_c equals the pairwise definition and, where rows can align (any
    # gamma at the flat point, uniform gamma at nu^i), the induced norm of
    # the map's derivative found over every vertex of the unit ball
    rng = np.random.default_rng(300 * q + s)
    models = [uniform_params(q, s, g) for g in (critical_temperature(q), float(q), 35.0)]
    for _ in range(3):
        gamma = rng.dirichlet(np.ones(s)) if s > 1 else np.ones(1)
        beta = rng.uniform(0.1, 2.0 * q)
        models.append(ModelParams(q=q, s=s, alpha=rng.uniform(0.0, beta), beta=beta,
                                  gamma=tuple(gamma)))
    for params in models:
        gamma, a, b = params.gamma_array, params.alpha, params.beta
        centres, _ = basin_table(params)
        rho = equilibria._contraction(centres, params, gamma)[0]
        # a row of nu^i sums to 1 only within an ulp, and the two formulas
        # weigh that rounding differently, by up to L = max_k L_k ulps
        load = float(np.max((b - a) * gamma + a))
        for c, r in zip(centres, rho):
            assert r == pytest.approx(basin_rate(c, gamma, a, b), rel=1e-12,
                                      abs=max(1e-15, load * 2.0 ** -52))
            # the derivative at the softmax of c's field, not at c / gamma:
            # they part by c's residual, 1e-15 at g = 35 where rho is 7e-14
            assert r == pytest.approx(contraction_by_vertices(c, gamma, a, b),
                                      rel=1e-12, abs=1e-13)


def test_nu_radius_stays_below_u():
    # the check of one nu^i per restart relies on radius < u (module docstring)
    for q in range(3, 11):
        for s in (1, 2, 3):
            for g in np.geomspace(2.0, 1000.0, 100):
                u = potts_fixed_point_u(g, q)
                if u > 0.0:
                    params = uniform_params(q, s, g)
                    radii = basin_table(params)[1]
                    assert radii[1:].max() < u / 8.0


def test_flat_radius_vanishes_at_g_q_and_is_infinite_without_coupling():
    # for uniform gamma, rho = g / q: a ball exactly when g < q
    def flat_radius(params):
        return basin_table(params)[1][0]

    for q in (3, 4, 5):
        for s in (1, 2, 3):
            for g in (q, q + 0.25, 2.0 * q):
                assert flat_radius(uniform_params(q, s, g)) == 0.0
            assert flat_radius(uniform_params(q, s, q * (1.0 - 1e-9))) > 0.0
            free = ModelParams(q=q, s=s, alpha=0.0, beta=0.0, gamma=tuple(np.full(s, 1.0 / s)))
            assert flat_radius(free) == math.inf
    # non-uniform: the largest load (beta - alpha) gamma_k + alpha sets rho
    assert flat_radius(ModelParams(q=3, s=2, alpha=2.4, beta=4.0, gamma=(0.4, 0.6))) == 0.0


@pytest.mark.parametrize("params", AC5_SET, ids=range(len(AC5_SET)))
def test_batched_ascent_matches_scalar_reference(params):
    opts = SearchOptions(restarts=4, seed=5)
    gamma, q = params.gamma_array, params.q
    a, b = params.alpha, params.beta
    r_rows, x, fx, iterations, converged, _, _ = equilibria._multistart(
        params, gamma, opts, basin_nus(params))
    tols = (equilibria.MAX_ITER, equilibria.STEP_TOL)
    newton_tols = (equilibria.NEWTON_ITERS, equilibria.NEWTON_ULPS)

    def newton(m, r):
        return two_column_newton(r, m, gamma, q, a, b, *newton_tols)

    rng = np.random.default_rng(opts.seed)
    runs = []
    for r in range(1, q):
        lo, hi = gamma / q, gamma / r
        for _ in range(opts.restarts):
            x0 = two_column_point(r, lo + rng.random(gamma.size) * (hi - lo), gamma, q)
            runs.append((r, mean_field_ascent(
                x0, gamma, a, b, *tols, newton=lambda m, r=r: newton(m, r),
                handoff_every=equilibria.HANDOFF_EVERY)))
    assert r_rows.tolist() == [r for r, _ in runs]
    for _ in range(opts.restarts):
        raw = rng.dirichlet(np.ones(q), size=gamma.size) * gamma[:, None]
        runs.append((None, mean_field_ascent(raw, gamma, a, b, *tols)))
    assert len(runs) == len(x)
    for k, (_, (xk, fk, steps, stopped)) in enumerate(runs):
        assert np.max(np.abs(x[k] - xk)) <= 1e-12
        assert abs(fx[k] - fk) <= 1e-12
        assert (iterations[k], converged[k]) == (steps, stopped)


@pytest.mark.parametrize("params", AC5_SET, ids=range(len(AC5_SET)))
def test_each_search_bisects_u_and_builds_the_closed_form_once(params, monkeypatch):
    # the report's u and nu^i are also the search's basin centres: one
    # bisection and one closed form per uniform call, none otherwise
    calls = []

    def counted(name):
        inner = getattr(equilibria, name)

        def wrapper(*args):
            calls.append(name)
            return inner(*args)
        monkeypatch.setattr(equilibria, name, wrapper)

    for name in ("potts_fixed_point_u", "_closed_form", "equilibrium_matrices"):
        counted(name)
    maximize_G(params, options=FAST)
    once = ["potts_fixed_point_u", "_closed_form"] if params.uniform_gamma else []
    assert calls == once


@pytest.mark.parametrize("params", [AC5_SET[1], AC5_SET[5], AC5_SET[4], AC5_SET[6]],
                         ids=["uniform", "nonuniform", "uniform-flat", "nonuniform-flat"])
def test_report_diagnostics(params):
    report = maximize_G(params, options=FAST)
    diag = report.diagnostics
    q = params.q
    assert diag["restarts"] == q * FAST.restarts
    assert 1 <= diag["max_ascent_iterations"] <= equilibria.MAX_ITER
    assert diag["max_ascent_iterations"] <= diag["ascent_iterations"]
    assert diag["ascent_iterations"] <= diag["restarts"] * diag["max_ascent_iterations"]
    assert 0 <= diag["restarts_converged"] <= diag["restarts"]
    assert 0 <= diag["newton_failures"] <= (q - 1) * FAST.restarts
    # the restarts' best value, recomputed from the per-restart endpoints
    r_rows, x, fx, iterations, converged, handed, in_basin = equilibria._multistart(
        params, params.gamma_array, FAST, basin_nus(params))
    probe = max(fx.max(), free_energy_G(np.tile(params.gamma_array[:, None] / q, (1, q)), params))
    assert -equilibria.MARGIN <= diag["certificate_margin"] <= report.sup_G - probe + 1e-12
    assert diag["ascent_iterations"] == iterations.sum()
    assert diag["max_ascent_iterations"] == iterations.max()
    assert diag["restarts_converged"] == converged.sum()
    assert diag["newton_handoffs"] == handed.sum()
    assert diag["basin_stops"] == in_basin.sum()
    assert not handed[r_rows.size:].any()
    assert not (handed & ~converged).any()
    assert not (handed & in_basin).any()
    assert not (in_basin & ~converged).any()
    # basin stops happen exactly where some centre has a ball, and end on
    # that centre itself: the flat point or a closed-form nu^i
    centres, radii = basin_table(params)
    assert (diag["basin_stops"] > 0) == (radii.max() > 0)
    assert all(any(np.array_equal(m, c) for c in centres[radii > 0]) for m in x[in_basin])


@pytest.mark.parametrize("params, seed", [*((p, 0) for p in AC5_SET), *MAX_ITER_CASES],
                         ids=[*range(len(AC5_SET)), "q5-gamma-half", "q4-seed53", "q3-seed340"])
def test_two_column_restarts_stop_before_max_iter(params, seed):
    # before the Newton handoff, r=2 restarts at g = q crept toward the flat
    # point and the gamma=(0.4, 0.6) r=1 restarts zigzagged next to their
    # root until MAX_ITER; with it, projected line-search ascent still ran
    # the MAX_ITER_CASES there: r=1 restarts pinned at the lower box edge
    # (q=5) and the full-matrix restarts (q=4); before the flat-ball stop,
    # two full-matrix restarts of the q=3 seed-340 case crept to the flat point
    opts = SearchOptions(restarts=FAST.restarts, seed=seed)
    _, _, _, iterations, converged, _, _ = equilibria._multistart(
        params, params.gamma_array, opts, basin_nus(params))
    assert iterations.max() < equilibria.MAX_ITER
    assert converged.all()
    report = maximize_G(params, options=opts)
    best_ascent = report.sup_G - report.diagnostics["certificate_margin"]
    if params.uniform_gamma:
        Q, nus = equilibrium_matrices(params.effective_coupling, params)
        closed = max(free_energy_G(m, params) for m in [Q, *nus])
        assert abs(report.sup_G - closed) <= 1e-12
        assert abs(best_ascent - closed) <= 1e-12
    else:
        assert abs(best_ascent - report.sup_G) <= 1e-12


@pytest.mark.parametrize("params", [AC5_SET[1], AC5_SET[5]], ids=["uniform", "nonuniform"])
def test_ascent_above_sup_G_raises_non_convergence(params, probe_above_sup_G):
    # closed-form and numerical reports share one certificate check
    with pytest.raises(NonConvergenceError, match="above the reported supremum") as info:
        maximize_G(params, options=FAST)
    [(probe_max, probe_best)] = probe_above_sup_G
    assert info.value.best_value == probe_max
    assert info.value.best is probe_best


@pytest.mark.parametrize("field, value", [("restarts", 0), ("restarts", -4)])
def test_search_options_reject_empty_or_invalid_search(field, value):
    with pytest.raises(InvalidInputError):
        SearchOptions(**{field: value})


def test_two_column_landscape_matches_scalar_matrices():
    p = AC5_SET[5]
    rows = two_column_landscape(p, 2, mesh=6)
    for row in rows[::7]:
        mat = two_column_point(2, row[1:-1], p.gamma_array, p.q)
        assert row[-1] == pytest.approx(free_energy_G(mat, p), abs=1e-13)


def _two_column_set(q, s, seed):
    """The flat point, then a two-column matrix for every r in 1..q-1, and a
    nearly flat one whose column placements lie within DEDUPE_TOL."""
    rng = np.random.default_rng(seed)
    gamma = rng.dirichlet(np.ones(s))
    mats = [np.repeat(gamma[:, None] / q, q, axis=1)]
    for r in range(1, q):
        mats.append(equilibria._two_column(r, gamma / q + rng.random(s) * (gamma / r - gamma / q),
                                           gamma, q))
    mats.append(equilibria._two_column(1, gamma / q + 1e-9, gamma, q))
    return mats


@pytest.mark.parametrize("q,s,seed", [(3, 2, 0), (4, 3, 1), (5, 2, 2), (6, 2, 3)])
def test_color_permutations_match_all_permutations(q, s, seed):
    mats = _two_column_set(q, s, seed)
    got = equilibria._color_permutations(mats, q)
    want = color_permutations_by_all_perms(mats, q)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _candidate_list(rng):
    """The flat point and clusters of two-column matrices like the search's
    Newton roots: each cluster a few copies of one matrix moved by ~1e-12,
    some clusters within 1e-9 of the flat point."""
    q, s = int(rng.integers(3, 9)), int(rng.integers(1, 4))
    gamma = rng.dirichlet(np.ones(s))
    mats = [np.repeat(gamma[:, None] / q, q, axis=1)]
    for _ in range(int(rng.integers(1, 8))):
        r = int(rng.integers(1, q))
        lo, hi = gamma / q, gamma / r
        centre = lo + rng.uniform(0.1, 0.9) * (1e-9 if rng.random() < 0.3 else 1.0) * (hi - lo)
        for _ in range(int(rng.integers(1, 5))):
            mu_plus = centre + rng.normal(scale=1e-12, size=s) * (hi - lo)
            mats.append(equilibria._two_column(r, mu_plus, gamma, q))
    order = rng.permutation(len(mats))
    return [mats[i] for i in order], q


def test_color_permutations_equal_the_placement_loop():
    # skipping a near-duplicate before listing its placements keeps the
    # closure the loop that listed and compared every placement built
    rng = np.random.default_rng(14)
    for _ in range(200):
        mats, q = _candidate_list(rng)
        got = equilibria._color_permutations(mats, q)
        want = color_permutations_by_placements(mats, q)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _report_fields(report):
    return {**vars(report), "maximizers": [m.tolist() for m in report.maximizers]}


def test_nonuniform_reports_match_all_permutations(monkeypatch):
    # random non-uniform models, among them supercritical ones with q
    # maximizers at q = 5 and 6
    rng = np.random.default_rng(11)
    for seed in range(12):
        q, s = int(rng.integers(3, 7)), int(rng.integers(2, 4))
        gamma = rng.dirichlet(np.ones(s) * 4)
        alpha = float(rng.uniform(0, 3))
        params = ModelParams(q=q, s=s, alpha=alpha, beta=alpha + float(rng.uniform(0, 6)),
                             gamma=tuple(gamma / gamma.sum()))
        options = SearchOptions(restarts=4, seed=seed)
        report = maximize_G(params, options=options)
        with monkeypatch.context() as patch:
            patch.setattr(equilibria, "_color_permutations", color_permutations_by_all_perms)
            reference = maximize_G(params, options=options)
        assert _report_fields(report) == _report_fields(reference)


def test_nonuniform_q8_search_is_fast():
    # all 8! column permutations of every candidate took seconds here
    params = ModelParams(q=8, s=2, alpha=1.0, beta=2.0, gamma=(0.4, 0.6))
    start = time.perf_counter()
    maximize_G(params, options=SearchOptions(restarts=4))
    assert time.perf_counter() - start < 1.0


def test_nonuniform_q14_search_is_fast():
    # hundreds of Newton roots at the flat point each listed their C(14, r)
    # placements before the closure dropped them: seconds at q = 14, and
    # q = 20 did not finish in minutes
    params = ModelParams(q=14, s=2, alpha=2.4, beta=4.0, gamma=(0.4, 0.6))
    start = time.perf_counter()
    report = maximize_G(params, options=SearchOptions(restarts=32))
    assert time.perf_counter() - start < 1.0
    assert len(report.maximizers) == 1


def _dense_jacobian(d_prime, params):
    """J[k, j] = delta_kj ((beta - alpha) d'_k - 1) + alpha d'_j, one per row."""
    s = d_prime.shape[1]
    diag = (params.beta - params.alpha) * d_prime - 1.0
    return np.eye(s) * diag[:, None, :] + params.alpha * d_prime[:, None, :]


def test_newton_step_is_the_dense_solve():
    rng = np.random.default_rng(5)
    for alpha, beta, lo, hi in [(1.5, 2.5, 0.0, 0.1), (1.0, 6.0, 0.3, 0.5), (0.5, 0.5, 0.0, 2.0)]:
        params = ModelParams(q=4, s=3, alpha=alpha, beta=beta, gamma=(0.2, 0.3, 0.5))
        d_prime = rng.uniform(lo, hi, (50, 3))
        h = rng.standard_normal((50, 3))
        jac = _dense_jacobian(d_prime, params)
        assert np.linalg.cond(jac).max() < 100.0
        want = -np.linalg.solve(jac, h[..., None])[..., 0]
        got = equilibria._newton_step(h, d_prime, params)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max(axis=1, keepdims=True))


def test_newton_step_is_zero_where_sherman_morrison_is_undefined():
    # row 0 has a 0 on the diagonal, row 1 a zero denominator 1 + alpha
    # d'^T D^{-1} 1; neither may warn or spoil the other rows
    params = ModelParams(q=3, s=2, alpha=1.0, beta=2.0, gamma=(0.5, 0.5))
    d_prime = np.array([[1.0, 0.3], [0.5, 0.0], [0.2, 0.1]])
    h = np.array([[0.3, -0.2], [0.1, 0.4], [0.5, -0.7]])
    step = equilibria._newton_step(h, d_prime, params)
    assert np.array_equal(step[:2], np.zeros((2, 2)))
    want = -np.linalg.solve(_dense_jacobian(d_prime[2:], params)[0], h[2])
    assert np.allclose(step[2], want, rtol=1e-12, atol=0.0)


def test_singular_newton_row_fails_alone():
    # the first start's block 0 is flat and its other two differences
    # cancel exactly, so block 0's field difference, its start t and its h
    # are exactly 0 and d' = gamma_0 / q = 1/12; beta = alpha + 12 puts an
    # exact 0 on the Jacobian's diagonal there.  That start's step is 0, so
    # it fails at once, without a warning, and the other rows converge to
    # the same roots as without it
    gamma, q = np.array([0.25, 0.375, 0.375]), 3
    fractions = np.array([0.3, 0.6, 0.7, 0.9, 0.95])
    r = np.ones(fractions.size, dtype=int)
    x = equilibria._two_column(r, gamma / q + fractions[:, None] * (gamma - gamma / q), gamma, q)
    x[0] = [[gamma[0] / q] * 3, [0.09375, 0.09375, 0.1875], [0.15625, 0.15625, 0.0625]]
    d_prime = equilibria._log_ratio_point(1, np.zeros(3), gamma, q)[3]
    params = ModelParams(q=q, s=3, alpha=2.0, beta=2.0 + 1.0 / d_prime[0], gamma=tuple(gamma))
    assert (params.beta - params.alpha) * d_prime[0] - 1.0 == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots, ok = equilibria._newton_two_column(r, x, params, gamma)
        alone, ok_alone = equilibria._newton_two_column(r[1:], x[1:], params, gamma)
    assert ok.tolist() == [False, True, True, True, True]
    assert ok_alone.all() and np.array_equal(roots[1:], alone)


# A model where Newton in mu_plus stalled at max|h| = 1.3e-13 on the r = 1
# root, above its absolute 1e-13 stop, because mu_minus = (gamma - r
# mu_plus) / (q - r) cancels there: every r = 1 polish failed, and the
# unpolished probe at G = 5.3586 beat the best candidate (r = 2, G 3.4518)
STRONG_UNEQUAL = ModelParams(q=6, s=2, alpha=6.84, beta=10.67, gamma=(0.97, 0.03))


def test_strongly_unequal_proportions_have_one_predominant_color():
    report = maximize_G(STRONG_UNEQUAL)
    assert report.phase is Phase.SUPERCRITICAL
    assert abs(report.sup_G - 5.35855868519141) <= 4 * math.ulp(5.35855868519141)
    assert report.diagnostics["certificate_margin"] >= -equilibria.MARGIN
    assert len(report.maximizers) == 6
    # within the stop's bound, 1.5e-13 at the largest log ratio 10.55
    log_m = np.log(report.maximizers[0])
    t = np.max(log_m.max(axis=1) - log_m.min(axis=1))
    assert report.residual_max <= equilibria.NEWTON_ULPS * np.finfo(np.float64).eps * t
    assert all(np.argmax(m[0]) == np.argmax(m[1]) for m in report.maximizers)


def _strongly_coupled_models(count):
    """Non-uniform models from seed 7: q in 3..7, s in 2..3, gamma ~
    Dirichlet(0.4) kept when its least entry is at least 1e-3, beta = 2q
    U(0.5, 3) and alpha ~ U(0, beta)."""
    rng = np.random.default_rng(7)
    models = []
    while len(models) < count:
        q, s = int(rng.integers(3, 8)), int(rng.integers(2, 4))
        gamma = rng.dirichlet(np.full(s, 0.4))
        if gamma.min() < 1e-3:
            continue
        beta = 2.0 * q * rng.uniform(0.5, 3.0)
        models.append(ModelParams(q=q, s=s, alpha=rng.uniform(0.0, beta), beta=beta,
                                  gamma=tuple(gamma)))
    return models


@pytest.mark.parametrize("params", _strongly_coupled_models(40), ids=range(40))
def test_strongly_coupled_nonuniform_maximizers_are_polished_roots(params):
    # most of these exited 4 while the polish ran in mu_plus (module
    # docstring); every maximizer is now a root within the stop's ulp bound
    report = maximize_G(params, options=FAST)
    assert report.diagnostics["certificate_margin"] >= -equilibria.MARGIN
    eps = np.finfo(np.float64).eps
    for m in report.maximizers:
        log_m = np.log(m)
        t = log_m.max(axis=1) - log_m.min(axis=1)
        bound = equilibria.NEWTON_ULPS * eps * max(t.max(), 1.0)
        assert np.max(np.abs(critical_residual(m, params))) <= bound


def test_underflowed_two_column_ends_report_one_predominant_color():
    # the r = 1 endpoints' small entries underflow to 0 here; they start
    # Newton at their field difference, which stays finite, so they are
    # polished like any other, and the maximizers' own small entries are 0
    params = ModelParams(q=4, s=2, alpha=900.0, beta=1000.0, gamma=(0.9, 0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = maximize_G(params)
    assert report.phase is Phase.SUPERCRITICAL
    assert len(report.maximizers) == 4
    assert all(np.argmax(m[0]) == np.argmax(m[1]) for m in report.maximizers)
    assert report.diagnostics["certificate_margin"] >= -equilibria.MARGIN
    assert report.diagnostics["newton_failures"] == 0
    assert report.residual_max == math.inf
    assert abs(report.sup_G - 491.32508297339143) <= 4 * math.ulp(491.32508297339143)


def _coupling_sweep(count):
    """Models from seed 11: q in 3..7, s in 1..3, uniform gamma for s = 1
    and every third model, else gamma ~ Dirichlet(0.4) kept when its least
    entry is at least 1e-3; beta ~ U(0, 4q) or U(100, 1000) at even odds,
    alpha ~ U(0, beta)."""
    rng = np.random.default_rng(11)
    models = []
    while len(models) < count:
        q, s = int(rng.integers(3, 8)), int(rng.integers(1, 4))
        if s == 1 or len(models) % 3 == 0:
            gamma = np.full(s, 1.0 / s)
        else:
            gamma = rng.dirichlet(np.full(s, 0.4))
            if gamma.min() < 1e-3:
                continue
        beta = rng.uniform(0.0, 4.0 * q) if rng.random() < 0.5 else rng.uniform(100.0, 1000.0)
        models.append(ModelParams(q=q, s=s, alpha=rng.uniform(0.0, beta), beta=beta,
                                  gamma=tuple(gamma)))
    return models


def test_strong_coupling_sweep_reports_every_model():
    # 6 of these 240 models raised NonConvergenceError while the polish
    # started from the log of the endpoints' entries, all at beta >= 100
    failures = []
    for params in _coupling_sweep(240):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = maximize_G(params, options=FAST)
        except Exception as exc:  # collect every failure, not only the first
            failures.append((params, repr(exc)))
            continue
        if report.diagnostics["certificate_margin"] < -equilibria.MARGIN:
            failures.append((params, report.diagnostics["certificate_margin"]))
    assert failures == []


@pytest.mark.parametrize("key", sorted(REPORTS),
                         ids=[f"restarts{r}-seed{sd}-model{i}" for r, sd, i in sorted(REPORTS)])
def test_reports_equal_the_pinned_literals(key):
    # maximizers, sup_G and every diagnostic of the solve battery (8
    # restarts, seed 0) and of AC5 (16 restarts, seed 5), compared with ==
    restarts, seed, index = key
    report = maximize_G(AC5_SET[index], options=SearchOptions(restarts=restarts, seed=seed))
    got = {"phase": report.phase.value, "sup_G": report.sup_G,
           "maximizers": [m.tolist() for m in report.maximizers], **report.diagnostics}
    assert got == REPORTS[key]
