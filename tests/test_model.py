"""Core model types, count matrices, and the energy as a count-matrix form."""

import math

import numpy as np
import pytest

from blockpotts import (
    BlockStructure,
    ConfigWorkspace,
    InvalidInputError,
    ModelParams,
    SearchOptions,
    count_matrix,
    exact_distribution,
    full_configuration_distribution,
    gamma1_exact,
    interaction_form,
    interdependence_matrix_exact,
    model_to_json,
    run_chain,
    two_column_landscape,
    verify_lsi_suite,
)
from blockpotts.lsi import measured_constants
from blockpotts.model import SHOWN_DIGITS, capped_count

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


@pytest.mark.parametrize("config", [
    [0.9, 1.5, 2.7, 0.2], [0, 1, 2, 0.5], [0, 1, 2, math.nan], [0, 1, 2, math.inf],
    ["0", "1", "2", "0"], [0, 1, 2, 1j], [0, 1, 2, 2**70], [0, 1, 2, [0]],
], ids=["fractions", "one-fraction", "nan", "inf", "strings", "complex", "past-int64", "ragged"])
def test_colors_that_are_not_whole_numbers_are_refused(config):
    # a cast to int64 would truncate 0.9 to 0 and parse "1": every entry is
    # refused unless it is a whole number, in count_matrix and as a chain's
    # initial configuration alike
    b = BlockStructure(sizes=(2, 2))
    with pytest.raises(InvalidInputError, match="colors"):
        count_matrix(config, b, 3)
    params = ModelParams(q=3, s=2, alpha=0.1, beta=0.2, gamma=(0.5, 0.5))
    with pytest.raises(InvalidInputError, match="colors"):
        run_chain(b, params, sweeps=1, init=config)


def test_whole_valued_float_colors_are_accepted():
    b = BlockStructure(sizes=(2, 2))
    assert np.array_equal(count_matrix([0.0, 1.0, 2.0, 0.0], b, 3),
                          count_matrix([0, 1, 2, 0], b, 3))


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                   np.float64("nan"), np.float64("inf")])
@pytest.mark.parametrize("name", ["q", "s"])
def test_non_finite_q_or_s_is_refused(name, value):
    fields = {**dict(q=3, s=1, alpha=0.0, beta=1.0, gamma=(1.0,)), name: value}
    least = 3 if name == "q" else 1
    with pytest.raises(InvalidInputError, match=f"{name} must be an integer >= {least}, got"):
        ModelParams(**fields)


def _suite(**options):
    p = ModelParams(q=3, s=2, alpha=0.05, beta=0.1, gamma=(0.5, 0.5))
    return verify_lsi_suite(BlockStructure(sizes=(2, 2)), p, **options)


def _landscape(r=1, mesh=5):
    p = ModelParams(q=3, s=2, alpha=2.5, beta=3.5, gamma=(0.5, 0.5))
    return two_column_landscape(p, r, mesh=mesh)


# every integer option goes through model.check_count: a float, a bool or a
# value below the least one is refused before any work is done
@pytest.mark.parametrize("call, name, value, message", [
    (SearchOptions, "restarts", 2.5, "restarts must be an integer, got 2.5"),
    (SearchOptions, "restarts", True, "restarts must be an integer, got True"),
    (SearchOptions, "seed", -1, "seed must be >= 0, got -1"),
    (SearchOptions, "seed", 1.0, "seed must be an integer, got 1.0"),
    (_suite, "num_f", 2.5, "num_f must be an integer, got 2.5"),
    (_suite, "seed", -1, "seed must be >= 0, got -1"),
    (_suite, "seed", np.float64(3.0), "seed must be an integer, got "),
    (_landscape, "r", 1.5, "r must be an integer, got 1.5"),
    (_landscape, "r", 0, "r must be >= 1, got 0"),
    (_landscape, "r", 3, r"r must lie in 1..2, got 3"),
    (_landscape, "mesh", 2.0, "mesh must be an integer, got 2.0"),
    (_landscape, "mesh", 0, "mesh must be >= 1, got 0"),
])
def test_integer_options_are_refused(call, name, value, message):
    with pytest.raises(InvalidInputError, match=message):
        call(**{name: value})


@pytest.mark.parametrize("sizes, shown", [((2.5, 3), "2.5"), (np.array([2.9, 3.0]), "2.9"),
                                          ((3, 0.5), "0.5"), ((float("nan"), 2), "nan"),
                                          ((2, float("inf")), "inf"), ((), r"\(\)"),
                                          (np.array([2.0, np.inf]), "inf")])
def test_non_integer_block_sizes_are_refused(sizes, shown):
    # a size is never truncated to an integer, as q and s are not
    with pytest.raises(InvalidInputError, match=f"positive integers, got {shown}$"):
        BlockStructure(sizes=sizes)


@pytest.mark.parametrize("build", [
    lambda: BlockStructure(sizes=(True, 2)),
    lambda: BlockStructure(sizes=np.array([True, True])),
    lambda: ModelParams(q=3, s=True, alpha=0.0, beta=1.0, gamma=(1.0,)),
], ids=["sizes", "numpy-sizes", "s"])
def test_bools_are_not_whole_numbers(build):
    # True == 1, but a bool is no block size, s or q
    with pytest.raises(InvalidInputError, match="got True$"):
        build()


def test_integral_float_block_sizes_are_accepted():
    for sizes in ((3.0, 2), np.array([3.0, 2.0]), np.array([3, 2], dtype=np.int16)):
        blocks = BlockStructure(sizes=sizes)
        assert blocks.sizes == (3, 2)
        assert all(type(n) is int for n in blocks.sizes)


@pytest.mark.parametrize("route", [
    exact_distribution,
    full_configuration_distribution,
    ConfigWorkspace,
    gamma1_exact,
    interdependence_matrix_exact,
    measured_constants,
    verify_lsi_suite,
    lambda blocks, params: run_chain(blocks, params, sweeps=1),
    lambda blocks, params: model_to_json(params, blocks),
], ids=["exact_distribution", "full_configuration_distribution", "ConfigWorkspace",
        "gamma1_exact", "interdependence_matrix_exact", "measured_constants",
        "verify_lsi_suite", "run_chain", "model_to_json"])
def test_block_count_mismatch_is_refused(route):
    # params for one block against a structure of two
    with pytest.raises(InvalidInputError, match="s=1"):
        route(BlockStructure(sizes=(3, 3)), params_s1(beta=0.1, alpha=0.05))


def test_json_round_trip():
    p = ModelParams(q=3, s=2, alpha=0.5, beta=1.2, gamma=(0.5, 0.5))
    b = BlockStructure(sizes=(50, 50))
    doc = model_to_json(p, b)
    assert doc == {"q": 3, "s": 2, "alpha": 0.5, "beta": 1.2,
                   "gamma": [0.5, 0.5], "sizes": [50, 50]}
    # without blocks the same document, in the same key order, lacks only sizes
    assert list(model_to_json(p).items()) == list(doc.items())[:-1]


@pytest.mark.parametrize("pairs", [[(10, 2), (10, 2)], [(500002, 2)], [(7, 7), (0, 0), (9, 4)],
                                   [(3, 1)] * 14, [(3, 1)] * 3000, [(4000, 2000)],
                                   [(5000039999, 40000)], [(3, 1)] * 30000, [(6000, 3000)] * 3])
def test_capped_count_is_exact_up_to_its_bound(pairs):
    # past max(cap, 10^SHOWN_DIGITS) it is a partial product: a lower bound
    # of the count that already passes the bound
    bound = 10**SHOWN_DIGITS
    got = capped_count(pairs, cap=10)
    if sum(math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
           for m, k in pairs) < 2000 * math.log(10):
        exact = math.prod(math.comb(m, k) for m, k in pairs)
        assert got == exact if exact <= bound else bound < got <= exact
    else:
        assert got > bound


def test_capped_count_refuses_a_nan_cap_before_counting():
    # with a NaN bound no partial product passes it, so 3^30000 would be built
    with pytest.raises(InvalidInputError, match="cap must be a number >= 1, got nan"):
        capped_count([(3, 1)] * 30000, cap=float("nan"))
