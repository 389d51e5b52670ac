"""Critical temperature, fixed point, closed-form maximizers, and the search."""

import math

import numpy as np
import pytest

from blockpotts import equilibria
from blockpotts import (
    InvalidInputError,
    ModelParams,
    Phase,
    SearchOptions,
    critical_residual,
    critical_temperature,
    equilibrium_matrices,
    free_energy_G,
    gradient_G,
    maximize_G,
    phi,
    potts_fixed_point_u,
    structure_certificate,
    two_column_landscape,
    two_column_matrix,
)
from oracles import (
    block_free_energy,
    block_free_energy_gradient,
    project_row_simplex,
    projected_ascent,
    two_column_ascent_direction,
    two_column_point,
    w_profile,
    w_profile_prime,
)


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


def test_equilibrium_matrices_rejects_nonuniform_gamma():
    p = ModelParams(q=3, s=2, alpha=0.5, beta=1.0, gamma=(0.4, 0.6))
    with pytest.raises(InvalidInputError):
        equilibrium_matrices(1.0, p)


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
    mat = two_column_matrix(1, np.array([0.25, 0.25]), gamma, 3)
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


@pytest.mark.parametrize("params", AC5_SET, ids=range(len(AC5_SET)))
def test_batched_ascent_matches_scalar_reference(params):
    opts = SearchOptions(restarts=4, seed=5)
    gamma, q = params.gamma_array, params.q
    a, b = params.alpha, params.beta
    r_rows, two_column, full_matrix = equilibria._multistart(params, gamma, opts)
    tols = (equilibria.MAX_ITER, equilibria.STEP_TOL, equilibria.GRAD_TOL)
    rng = np.random.default_rng(opts.seed)
    runs = []
    for r in range(1, q):
        lo, hi = gamma / q, gamma / r
        box_lo, box_hi = lo * (1 + 1e-11) + 1e-15, hi * (1 - 1e-11)
        for _ in range(opts.restarts):
            x0 = lo + rng.random(gamma.size) * (hi - lo)
            runs.append((r, projected_ascent(
                x0,
                lambda m, r=r: block_free_energy(two_column_point(r, m, gamma, q), a, b),
                lambda m, r=r: two_column_ascent_direction(r, m, gamma, q, a, b),
                lambda m, box_lo=box_lo, box_hi=box_hi: np.clip(m, box_lo, box_hi),
                *tols)))
    assert r_rows.tolist() == [r for r, _ in runs]
    for k, (_, (x, fx, iterations, converged)) in enumerate(runs):
        assert np.max(np.abs(two_column[0][k] - x)) <= 1e-12
        assert abs(two_column[1][k] - fx) <= 1e-12
        assert (two_column[2][k], two_column[3][k]) == (iterations, converged)
    for k in range(opts.restarts):
        raw = rng.dirichlet(np.ones(q), size=gamma.size) * gamma[:, None]
        x, fx, iterations, converged = projected_ascent(
            raw,
            lambda m: block_free_energy(m, a, b),
            lambda m: block_free_energy_gradient(m, a, b),
            lambda m: np.array([project_row_simplex(row, g) for row, g in zip(m, gamma)]),
            *tols)
        assert np.max(np.abs(full_matrix[0][k] - x)) <= 1e-12
        assert abs(full_matrix[1][k] - fx) <= 1e-12
        assert (full_matrix[2][k], full_matrix[3][k]) == (iterations, converged)


@pytest.mark.parametrize("params", [AC5_SET[1], AC5_SET[5]], ids=["uniform", "nonuniform"])
def test_report_diagnostics(params):
    report = maximize_G(params, options=FAST)
    q = params.q
    assert report.restarts == q * FAST.restarts
    assert 1 <= report.max_ascent_iterations <= equilibria.MAX_ITER
    assert report.max_ascent_iterations <= report.ascent_iterations
    assert report.ascent_iterations <= report.restarts * report.max_ascent_iterations
    assert 0 <= report.restarts_converged <= report.restarts
    assert 0 <= report.newton_failures <= (q - 1) * FAST.restarts
    # the ascents' best value, recomputed from the per-restart endpoints
    _, two_column, full_matrix = equilibria._multistart(params, params.gamma_array, FAST)
    probe = max(two_column[1].max(), full_matrix[1].max(),
                free_energy_G(np.tile(params.gamma_array[:, None] / q, (1, q)), params))
    assert -equilibria.MARGIN <= report.certificate_margin <= report.sup_G - probe + 1e-12
    iterations = np.concatenate([two_column[2], full_matrix[2]])
    assert report.ascent_iterations == iterations.sum()
    assert report.max_ascent_iterations == iterations.max()
    converged = np.concatenate([two_column[3], full_matrix[3]])
    assert report.restarts_converged == converged.sum()


@pytest.mark.parametrize("field, value", [("restarts", 0), ("restarts", -4)])
def test_search_options_reject_empty_or_invalid_search(field, value):
    with pytest.raises(InvalidInputError):
        SearchOptions(**{field: value})


def test_two_column_landscape_matches_scalar_matrices():
    p = AC5_SET[5]
    rows = two_column_landscape(p, 2, mesh=6)
    for row in rows[::7]:
        mat = two_column_matrix(2, row[1:-1], p.gamma_array, p.q)
        assert row[-1] == pytest.approx(free_energy_G(mat, p), abs=1e-13)
