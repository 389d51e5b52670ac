"""Entropies, rate functions, and the free energy functional."""

import math

import numpy as np
import pytest

from blockpotts import (
    InvalidInputError,
    ModelParams,
    free_energy_G,
    maximize_G,
    potts_functional,
    rate_I,
    rate_J,
    rate_J_prime,
    relative_entropy,
)

from oracles import sup_term_for_J


P2 = ModelParams(q=3, s=2, alpha=0.5, beta=1.0, gamma=(0.5, 0.5))


def random_row_matrix(rng, s=2, q=3):
    return rng.dirichlet(np.ones(q), size=s)


def test_relative_entropy_uniform_is_zero():
    assert relative_entropy(np.full(3, 1 / 3)) == pytest.approx(0.0, abs=1e-15)


def test_relative_entropy_point_mass_is_log_q():
    assert relative_entropy([1.0, 0.0, 0.0]) == pytest.approx(math.log(3), abs=1e-15)


def test_relative_entropy_half_half():
    assert relative_entropy([0.5, 0.5, 0.0]) == pytest.approx(
        math.log(3) - math.log(2), abs=1e-15
    )


def test_relative_entropy_infeasible_gives_infinity():
    assert math.isinf(relative_entropy([0.5, 0.2, 0.2]))
    assert math.isinf(relative_entropy([1.2, -0.2, 0.0]))


def test_relative_entropy_range():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.dirichlet(np.ones(4))
        h = relative_entropy(v)
        assert -1e-12 <= h <= math.log(4) + 1e-12


def test_rate_I_trivial_values():
    gamma = np.array([0.5, 0.5])
    uniform = np.full((2, 3), 1 / 3)
    assert rate_I(uniform, gamma) == pytest.approx(0.0, abs=1e-15)
    point = np.array([[1.0, 0, 0], [1.0, 0, 0]])
    assert rate_I(point, gamma) == pytest.approx(math.log(3), abs=1e-15)
    mixed = np.array([[1.0, 0, 0], [1 / 3, 1 / 3, 1 / 3]])
    assert rate_I(mixed, gamma) == pytest.approx(0.5 * math.log(3), abs=1e-14)


def test_rate_I_nonnegative_zero_only_at_uniform():
    rng = np.random.default_rng(1)
    gamma = np.array([0.3, 0.7])
    for _ in range(200):
        nu = random_row_matrix(rng)
        val = rate_I(nu, gamma)
        assert val >= -1e-12
        if val < 1e-12:
            assert np.max(np.abs(nu - 1 / 3)) < 1e-4


def test_free_energy_single_block_pure_entropy():
    p = ModelParams(q=3, s=1, alpha=0.0, beta=0.0, gamma=(1.0,))
    assert free_energy_G(np.full((1, 3), 1 / 3), p) == pytest.approx(math.log(3), abs=1e-14)


def test_free_energy_flat_matrix_closed_form():
    # two routes to G(Q): direct evaluation and g/(2q) + log(sq)
    for (s, beta, alpha) in ((2, 1.0, 0.5), (3, 2.0, 0.4), (1, 1.5, 0.0)):
        p = ModelParams(q=3, s=s, alpha=alpha, beta=beta,
                        gamma=tuple([1.0 / s] * s))
        g = (beta + (s - 1) * alpha) / s
        Q = np.full((s, 3), 1.0 / (3 * s))
        assert free_energy_G(Q, p) == pytest.approx(
            g / 6.0 + math.log(3 * s), rel=1e-13
        )


def test_free_energy_column_permutation_invariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        mu = rng.dirichlet(np.ones(3), size=2) * 0.5
        perm = rng.permutation(3)
        assert free_energy_G(mu, P2) == pytest.approx(
            free_energy_G(mu[:, perm], P2), abs=1e-13
        )


def test_free_energy_block_constraint_violation_is_error():
    with pytest.raises(InvalidInputError):
        free_energy_G(np.full((2, 3), 1 / 3), P2)  # rows sum to 1, not 1/2


def test_potts_functional_uniform_value():
    for g in (0.0, 1.0, 3.0):
        assert potts_functional(np.full(3, 1 / 3), g) == pytest.approx(
            g / 6.0 + math.log(3), abs=1e-14
        )


def test_potts_functional_g_zero_maximized_at_uniform():
    rng = np.random.default_rng(3)
    ref = potts_functional(np.full(3, 1 / 3), 0.0)
    for _ in range(300):
        v = rng.dirichlet(np.ones(3))
        assert potts_functional(v, 0.0) <= ref + 1e-12


def test_potts_reduction_identity():
    # rows all v/s: G = G^P(v) + log s at g = (beta + (s-1) alpha)/s
    rng = np.random.default_rng(4)
    for _ in range(50):
        v = rng.dirichlet(np.ones(3))
        mu = np.tile(v / 2.0, (2, 1))
        g = (1.0 + 0.5) / 2.0
        assert free_energy_G(mu, P2) - math.log(2) == pytest.approx(
            potts_functional(v, g), abs=1e-12
        )


def test_rearrangement_never_decreases_G():
    # opposite row orders lose against sorting both rows the same way
    rng = np.random.default_rng(5)
    for _ in range(100):
        mu = rng.dirichlet(np.ones(3), size=2) * 0.5
        opposed = np.vstack([np.sort(mu[0]), np.sort(mu[1])[::-1]])
        aligned = np.vstack([np.sort(mu[0]), np.sort(mu[1])])
        assert free_energy_G(aligned, P2) >= free_energy_G(opposed, P2) - 1e-12


@pytest.fixture(scope="module")
def sup_G_subcritical():
    return maximize_G(P2).sup_G


def test_rate_J_prime_zero_at_maximizer(sup_G_subcritical):
    Q = np.full((2, 3), 1 / 6)
    ev = rate_J_prime(Q, P2, sup_G_subcritical)
    assert ev.feasible
    assert abs(ev.value) <= 1e-10


def test_rate_J_prime_infeasible_outside_C_gamma(sup_G_subcritical):
    ev = rate_J_prime(np.full((2, 3), 1 / 3), P2, sup_G_subcritical)
    assert not ev.feasible
    assert math.isinf(ev.value)


def test_rate_J_prime_positive_away_from_maximizer(sup_G_subcritical):
    rng = np.random.default_rng(6)
    Q = np.full((2, 3), 1 / 6)
    for _ in range(100):
        nu = rng.dirichlet(np.ones(3), size=2) * 0.5
        ev = rate_J_prime(nu, P2, sup_G_subcritical)
        assert ev.value >= -1e-10
        if np.max(np.abs(nu - Q)) > 1e-3:
            assert ev.value > 0.0


def test_rate_J_equals_J_prime_after_scaling(sup_G_subcritical):
    rng = np.random.default_rng(7)
    gamma = np.array([0.5, 0.5])
    sup_term = sup_term_for_J(sup_G_subcritical, 3, gamma)
    for _ in range(100):
        nu = random_row_matrix(rng)
        j = rate_J(nu, P2, sup_term)
        jp = rate_J_prime(gamma[:, None] * nu, P2, sup_G_subcritical)
        assert j.feasible and jp.feasible
        assert j.value == pytest.approx(jp.value, abs=1e-11)


def test_rate_J_minimizer_and_infeasible(sup_G_subcritical):
    gamma = np.array([0.5, 0.5])
    sup_term = sup_term_for_J(sup_G_subcritical, 3, gamma)
    uniform = np.full((2, 3), 1 / 3)
    assert rate_J(uniform, P2, sup_term).value == pytest.approx(0.0, abs=1e-10)
    bad = rate_J(np.array([[0.9, 0.2, 0.1], [0.2, 0.4, 0.4]]), P2, sup_term)
    assert not bad.feasible and math.isinf(bad.value)
