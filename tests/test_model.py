"""Core model types, count matrices, and the energy as a count-matrix form."""

import numpy as np
import pytest

from blockpotts import (
    BlockStructure,
    InvalidInputError,
    ModelParams,
    count_matrix,
    interaction_form,
    model_to_json,
)

import oracles


def params_s1(q=3, beta=1.0, alpha=0.0):
    return ModelParams(q=q, s=1, alpha=alpha, beta=beta, gamma=(1.0,))


def energy_of_counts(B, params, N):
    """H = -<B, A B> / (2N), the energy as the package computes it."""
    return -float(interaction_form(B, params)) / (2.0 * N)


def energy(config, blocks, params):
    return energy_of_counts(count_matrix(config, blocks, params.q), params, blocks.N)


def test_count_matrix_one_of_each_color():
    b = BlockStructure(sizes=(3,))
    B = count_matrix([0, 1, 2], b, 3)
    assert np.array_equal(B, [[1, 1, 1]])


def test_count_matrix_two_blocks():
    b = BlockStructure(sizes=(2, 2))
    B = count_matrix([0, 0, 1, 2], b, 3)
    assert np.array_equal(B, [[2, 0, 0], [0, 1, 1]])


def test_count_matrix_row_sums_equal_block_sizes():
    rng = np.random.default_rng(0)
    for _ in range(50):
        sizes = tuple(rng.integers(1, 6, size=rng.integers(1, 4)))
        b = BlockStructure(sizes=sizes)
        cfg = rng.integers(0, 4, size=b.N)
        B = count_matrix(cfg, b, 4)
        assert np.array_equal(B.sum(axis=1), sizes)


def test_count_matrix_length_mismatch_is_error():
    b = BlockStructure(sizes=(2, 2))
    with pytest.raises(InvalidInputError):
        count_matrix([0, 1, 2], b, 3)


def test_hamiltonian_two_aligned_spins():
    # 4 ordered equal pairs including both diagonals: H = -1*4/(2*2)
    b = BlockStructure(sizes=(2,))
    assert energy([0, 0], b, params_s1()) == pytest.approx(-1.0, abs=1e-15)
    assert oracles.pair_hamiltonian([0, 0], (2,), 0.0, 1.0) == pytest.approx(-1.0)


def test_hamiltonian_two_distinct_spins():
    # only the two diagonal pairs are equal-color
    b = BlockStructure(sizes=(2,))
    assert energy([0, 1], b, params_s1()) == pytest.approx(-0.5, abs=1e-15)
    assert oracles.pair_hamiltonian([0, 1], (2,), 0.0, 1.0) == pytest.approx(-0.5)


def test_hamiltonian_zero_couplings():
    p = ModelParams(q=3, s=2, alpha=0.0, beta=0.0, gamma=(0.5, 0.5))
    b = BlockStructure(sizes=(2, 3))
    rng = np.random.default_rng(1)
    for _ in range(10):
        cfg = rng.integers(0, 3, size=b.N)
        assert energy(cfg, b, p) == 0.0


def test_quadratic_hand_expansion():
    # disjoint colors leave no cross terms: H = -(1/8)(4 beta + 4 beta)
    p = ModelParams(q=3, s=2, alpha=0.5, beta=1.0, gamma=(0.5, 0.5))
    b = BlockStructure(sizes=(2, 2))
    B = np.array([[2, 0, 0], [0, 2, 0]])
    assert energy_of_counts(B, p, b.N) == pytest.approx(-1.0, abs=1e-15)


def test_direct_equals_quadratic_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(300):
        s = int(rng.integers(1, 5))
        sizes = tuple(int(v) for v in rng.integers(1, 8, size=s))
        b = BlockStructure(sizes=sizes)
        q = int(rng.integers(3, 6))
        beta = float(rng.uniform(0.01, 3.0))
        alpha = float(rng.uniform(0.0, beta))
        gamma = rng.dirichlet(np.ones(s))
        gamma = tuple(gamma / gamma.sum())
        if s == 1:
            gamma = (1.0,)
        p = ModelParams(q=q, s=s, alpha=alpha, beta=beta, gamma=gamma)
        cfg = rng.integers(0, q, size=b.N)
        h1 = energy(cfg, b, p)
        h2 = oracles.pair_hamiltonian(cfg.tolist(), sizes, alpha, beta)
        assert abs(h1 - h2) <= 1e-12 * max(1.0, abs(h1))


def test_global_color_permutation_invariance():
    rng = np.random.default_rng(7)
    p = ModelParams(q=4, s=2, alpha=0.3, beta=1.1, gamma=(0.4, 0.6))
    b = BlockStructure(sizes=(3, 4))
    for _ in range(20):
        cfg = rng.integers(0, 4, size=b.N)
        perm = rng.permutation(4)
        assert energy(cfg, b, p) == pytest.approx(
            energy(perm[cfg], b, p), abs=1e-14
        )


def test_within_block_site_permutation_invariance():
    rng = np.random.default_rng(8)
    p = ModelParams(q=3, s=2, alpha=0.2, beta=0.9, gamma=(0.5, 0.5))
    b = BlockStructure(sizes=(4, 3))
    for _ in range(20):
        cfg = rng.integers(0, 3, size=b.N)
        shuffled = cfg.copy()
        shuffled[:4] = rng.permutation(cfg[:4])
        shuffled[4:] = rng.permutation(cfg[4:])
        assert energy(cfg, b, p) == pytest.approx(
            energy(shuffled, b, p), abs=1e-14
        )


def test_cross_block_invariance_when_alpha_equals_beta():
    rng = np.random.default_rng(9)
    p = ModelParams(q=3, s=2, alpha=0.8, beta=0.8, gamma=(0.5, 0.5))
    b = BlockStructure(sizes=(3, 3))
    for _ in range(20):
        cfg = rng.integers(0, 3, size=b.N)
        shuffled = rng.permutation(cfg)
        assert energy(cfg, b, p) == pytest.approx(
            energy(shuffled, b, p), abs=1e-14
        )


def test_alpha_equals_beta_depends_on_column_sums_only():
    p = ModelParams(q=3, s=2, alpha=0.7, beta=0.7, gamma=(0.5, 0.5))
    b = BlockStructure(sizes=(2, 2))
    B1 = np.array([[2, 0, 0], [0, 1, 1]])
    B2 = np.array([[1, 1, 0], [1, 0, 1]])  # same column sums
    assert energy_of_counts(B1, p, b.N) == pytest.approx(
        energy_of_counts(B2, p, b.N), abs=1e-14
    )


def test_params_validation():
    with pytest.raises(InvalidInputError):
        ModelParams(q=2, s=1, alpha=0.0, beta=1.0, gamma=(1.0,))
    with pytest.raises(InvalidInputError):
        ModelParams(q=3, s=1, alpha=2.0, beta=1.0, gamma=(1.0,))
    with pytest.raises(InvalidInputError):
        ModelParams(q=3, s=2, alpha=0.1, beta=1.0, gamma=(0.6, 0.6))
    with pytest.raises(InvalidInputError):
        BlockStructure(sizes=(0, 2))


def test_json_round_trip():
    p = ModelParams(q=3, s=2, alpha=0.5, beta=1.2, gamma=(0.5, 0.5))
    b = BlockStructure(sizes=(50, 50))
    doc = model_to_json(p, b)
    assert doc == {"q": 3, "s": 2, "alpha": 0.5, "beta": 1.2,
                   "gamma": [0.5, 0.5], "sizes": [50, 50]}
