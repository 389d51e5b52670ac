"""Property tests of the count-matrix core: the interaction form and field,
the block-product routes of the exact law and the leave-one-out fields, the
one-pass normalization, the two-axis grids and closed-form recoloring
distance of the interdependence matrix, the C(gamma) row clean-up, G's color symmetry and
the mean-field step.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blockpotts import (
    BlockStructure,
    ModelParams,
    count_matrix,
    exact_distribution,
    free_energy_G,
    interaction_field,
    interaction_form,
    interdependence_matrix_exact,
)
from blockpotts.equilibria import _mean_field_map, _two_column
from blockpotts.lsi import _recoloring_tv
from blockpotts.exact import _normalize
from blockpotts.numutil import LEAF, log_factorials, softmax
from blockpotts.rates import _clean_rows, _free_energy

import oracles
from oracles import count_matrix_support

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

couplings = st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)).map(sorted)


@st.composite
def systems(draw, max_sizes=(4, 3, 3)):
    """(params, blocks, config) of a small system with gamma = sizes / N."""
    q = draw(st.integers(3, 4))
    s = draw(st.integers(1, len(max_sizes)))
    sizes = tuple(draw(st.integers(1, max_sizes[k])) for k in range(s))
    alpha, beta = draw(couplings)
    N = sum(sizes)
    gamma = (1.0,) if s == 1 else tuple(n / N for n in sizes)
    params = ModelParams(q=q, s=s, alpha=alpha, beta=beta, gamma=gamma)
    config = draw(st.lists(st.integers(0, q - 1), min_size=N, max_size=N))
    return params, BlockStructure(sizes=sizes), np.asarray(config)


@SETTINGS
@given(systems())
def test_direct_energy_is_minus_form_over_2n(system):
    params, blocks, config = system
    form = interaction_form(count_matrix(config, blocks, params.q), params)
    pair_sum = oracles.pair_hamiltonian(config.tolist(), blocks.sizes, params.alpha, params.beta)
    assert pair_sum == pytest.approx(-form / (2.0 * blocks.N), abs=1e-12)


@SETTINGS
@given(st.sampled_from([np.int16, np.int64]),
       st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(3, 5)),
       couplings, st.data())
def test_batched_form_equals_each_matrix(dtype, shape, ab, data):
    # entries up to 3000 make int16 squares and column sums overflow
    batch = data.draw(hnp.arrays(dtype, shape, elements=st.integers(0, 3000)))
    # the form reads only alpha and beta, so any (s, q) batch goes with these params
    params = ModelParams(q=3, s=1, alpha=ab[0], beta=ab[1], gamma=(1.0,))
    forms = interaction_form(batch, params)
    assert forms.shape == (shape[0],)
    for form, mat in zip(forms, batch):
        rows = mat.astype(object)
        exact_sq = sum(int(v) ** 2 for v in rows.ravel())
        exact_col = sum(int(v) ** 2 for v in rows.sum(axis=0))
        assert form == interaction_form(mat, params)
        assert form == (ab[1] - ab[0]) * float(exact_sq) + ab[0] * float(exact_col)


@SETTINGS
@given(systems(max_sizes=(3, 2, 1)), st.data())
def test_loo_field_softmax_is_brute_force_conditional(system, data):
    params, blocks, config = system
    site = data.draw(st.integers(0, blocks.N - 1))
    B = count_matrix(config, blocks, params.q)
    k = oracles.block_of(blocks, site)
    B[k, config[site]] -= 1
    probs = softmax(interaction_field(B, params)[k] / blocks.N)
    brute = oracles.brute_conditional(config.tolist(), site, blocks.sizes, params.q,
                                      params.alpha, params.beta)
    assert np.max(np.abs(probs - brute)) <= 1e-12


@st.composite
def product_grids(draw):
    """(params, blocks) with s <= 3 blocks of unequal sizes and q in 3..5,
    small enough that the support can be materialised."""
    s = draw(st.integers(1, 3))
    max_size = (15, 6, 3)[s - 1]
    sizes = tuple(draw(st.integers(1, max_size)) for _ in range(s))
    q = draw(st.integers(3, 5))
    alpha, beta = draw(couplings)
    N = sum(sizes)
    gamma = (1.0,) if s == 1 else tuple(n / N for n in sizes)
    return ModelParams(q=q, s=s, alpha=alpha, beta=beta, gamma=gamma), BlockStructure(sizes)


def assert_exact_law_equals_materialised_support(params, blocks):
    """Every field of exact_distribution equals, bit for bit, the law built
    on the materialised support and normalized by the restated exp pass."""
    dist = exact_distribution(blocks, params)
    support = count_matrix_support(blocks.sizes, params.q, cap=10**7).astype(np.int64)
    assert dist.support.dtype == np.int16
    assert np.array_equal(dist.support, support)
    # the reference: log multinomials row by row, plus the form on the support
    log_fact = log_factorials(max(blocks.sizes))
    log_mult = log_fact[blocks.sizes[0]] - log_fact[support[:, 0]].sum(axis=1)
    for k in range(1, blocks.s):
        log_mult = log_mult + (log_fact[blocks.sizes[k]] - log_fact[support[:, k]].sum(axis=1))
    log_weights = log_mult + interaction_form(support, params) / (2.0 * blocks.N)
    log_Z, probabilities = oracles.normalize_by_max_shift(log_weights)
    assert np.array_equal(dist.log_weights, log_weights)
    assert dist.log_Z == log_Z
    assert np.array_equal(dist.probabilities, probabilities)


@SETTINGS
@given(product_grids())
def test_exact_law_on_block_grid_equals_materialised_support(system):
    assert_exact_law_equals_materialised_support(*system)


@SETTINGS
@given(product_grids())
def test_exact_law_on_block_grid_equals_int64_slab_loop(system):
    params, blocks = system
    dist = exact_distribution(blocks, params)
    log_weights, log_Z, probabilities = oracles.exact_law_int64_slabs(blocks, params)
    assert np.array_equal(dist.log_weights, log_weights)
    assert dist.log_Z == log_Z
    assert np.array_equal(dist.probabilities, probabilities)


@pytest.mark.parametrize("sizes", [(40, 40), (2, 23, 21)])
def test_exact_law_over_many_slabs_equals_materialised_support(sizes):
    # (40, 40): 861 compositions per block, P = 741 321 over 12 slabs of 76
    # block-0 rows; (2, 23, 21): one block-0 row holds 300 * 253 = 75 900
    # points, more than a slab, so each of the 6 slabs is one row
    params = ModelParams(q=3, s=len(sizes), alpha=0.5, beta=1.0,
                         gamma=tuple(n / sum(sizes) for n in sizes))
    assert_exact_law_equals_materialised_support(params, BlockStructure(sizes))


def log_weights_near_one(n, spread, seed):
    """n log-weights: one 0, the rest drawn around log(0.5 / n), so the sum
    of exps is about 1.5 and log-sum-exp about 0.4.  The result's ulp is
    then far below the rounding of the sum, so the sum's error shows in
    log_Z; a sum of order n would hide it."""
    rng = np.random.default_rng(seed)
    x = np.log(0.5 / n) + spread * rng.standard_normal(n)
    x[rng.integers(n)] = 0.0
    return x


@SETTINGS
@given(st.integers(1, 4 * LEAF), st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
def test_normalize_is_within_the_pairwise_bound_of_fsum(n, spread, seed):
    """Error model: the terms exp(x - m) are those the package sums, and
    math.fsum sums them correctly rounded.  numpy's pairwise sum rounds each
    partial sum of these nonnegative terms at most 25 times inside a
    128-term block (15 in a lane, 3 joining 8 lanes, 7 for a ragged tail)
    and once per level above, so its relative error is at most
    (log2 n + 26) u, u = 2^-53; the log turns that into an absolute error
    of log_Z, the log and the add round within an ulp each, and each
    probability adds one rounding of its division."""
    x = log_weights_near_one(n, spread, seed)
    params = ModelParams(q=3, s=1, alpha=0.0, beta=0.0, gamma=(1.0,))
    # _normalize writes over its input; x is read below
    log_Z, probabilities = _normalize(x.copy(), params)
    m = float(np.max(x))
    terms = np.exp(x - m)
    exact = math.fsum(terms.tolist())
    rel = (math.log2(n) + 26) * 2.0**-53
    reference = m + math.log(exact)
    assert abs(log_Z - reference) <= 1.01 * rel + 4 * np.spacing(max(abs(m), abs(reference), 1.0))
    assert np.all(np.abs(probabilities - terms / exact) <= (rel + 2.0**-52) * terms / exact)
    assert abs(math.fsum(probabilities.tolist()) - 1.0) <= 1.01 * rel + 2.0**-52


@SETTINGS
@given(product_grids(), st.data())
def test_loo_fields_on_block_grid_equal_interaction_field(system, data):
    params, blocks = system
    ki = data.draw(st.integers(0, blocks.s - 1))
    reduced = list(blocks.sizes)
    reduced[ki] -= 1
    support = count_matrix_support(reduced, params.q, cap=10**7).astype(np.int64)
    fields = oracles._loo_fields_by_color(reduced, ki, params, blocks.N, cap=10**7)
    assert fields.flags.c_contiguous
    assert np.array_equal(fields, interaction_field(support, params)[:, ki, :].T / blocks.N)


@SETTINGS
@given(product_grids())
def test_interdependence_on_two_axis_grids_equals_block_grid(system):
    params, blocks = system
    J = interdependence_matrix_exact(blocks, params)
    assert np.array_equal(J, oracles.interdependence_on_block_grid(blocks, params))


@SETTINGS
@given(st.integers(2, 5), st.integers(1, 6), st.floats(0.0, 20.0), st.data())
def test_recoloring_tv_is_half_l1_of_recolored_softmaxes(q, P, boost, data):
    fields = data.draw(hnp.arrays(np.float64, (q, P), elements=st.floats(-10.0, 10.0)))
    tv = _recoloring_tv(fields, boost)
    assert tv.shape == (P,)
    assert np.max(np.abs(tv - oracles.recolored_tv(fields, boost)[0])) <= 1e-14


@SETTINGS
@given(st.integers(1, 4), st.integers(3, 9), st.data())
def test_clean_rows_matches_per_row_clean(s, q, data):
    totals = np.asarray(data.draw(st.lists(st.floats(0.05, 1.0), min_size=s, max_size=s)))
    rows = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).dirichlet(
        np.ones(q), size=s) * totals[:, None]
    # off-sum nudges and negative entries, inside and outside the 1e-10 tolerance
    tiny = st.sampled_from([3e-11, 2e-10, 1e-3])
    feasible = []
    for k in range(s):
        a, b = data.draw(st.permutations(range(q)))[:2]
        move = data.draw(st.sampled_from(["none", "sum", "negative"]))
        size = data.draw(tiny)
        feasible.append(move == "none" or size < 1e-10)
        if move == "sum":
            rows[k, a] += size * data.draw(st.sampled_from([1.0, -1.0]))
        elif move == "negative":
            rows[k, b] += rows[k, a] + size
            rows[k, a] = -size
    per_row = [_clean_rows(rows[k:k + 1], totals[k:k + 1]) for k in range(s)]
    assert [r is not None for r in per_row] == feasible
    batched = _clean_rows(rows, totals)
    # the same matrix, or None, as the np.any form with two row sums
    reference = oracles.clean_rows_by_any(rows, totals)
    assert (batched is None) == (reference is None)
    if not all(feasible):
        assert batched is None
    else:
        assert batched is not None
        assert np.array_equal(batched, np.vstack(per_row))
        assert np.array_equal(batched, reference)
        assert np.all(batched >= 0.0)
        assert np.allclose(batched.sum(axis=1), totals, rtol=0, atol=1e-14)


@pytest.mark.parametrize("axis", [-1, 0, 1])
def test_softmax_leaves_its_input_alone(axis):
    # it works in place on its own temporary, with the bits of
    # exp(x - max) / sum
    x = np.random.default_rng(4).normal(size=(5, 3, 4)) * 30.0
    before = x.copy()
    p = softmax(x, axis=axis)
    assert np.array_equal(x, before) and not np.shares_memory(p, x)
    assert np.array_equal(p, oracles.softmax_by_sum(x, axis))


@pytest.mark.parametrize("shape, axis", [((24, 2, 3), -1), ((7, 5, 64), -1),
                                         ((3, 2000), 0), ((64, 300), 0)],
                         ids=["search-q3", "search-q64", "lsi-q3", "lsi-q64"])
def test_softmax_equals_the_sum_wrapper_form(shape, axis):
    # the G search's (R, s, q) batches along the last axis and the LSI's
    # (q, P) layout along the first: np.add.reduce gives the .sum bits
    x = np.random.default_rng(sum(shape)).normal(size=shape) * 30.0
    assert np.array_equal(softmax(x, axis=axis), oracles.softmax_by_sum(x, axis))


@SETTINGS
@given(st.integers(3, 5), st.integers(1, 3), couplings, st.data())
def test_G_invariant_under_column_permutation(q, s, ab, data):
    gamma = np.asarray(data.draw(st.lists(st.floats(0.1, 1.0), min_size=s, max_size=s)))
    gamma = gamma / gamma.sum()
    params = ModelParams(q=q, s=s, alpha=ab[0], beta=ab[1],
                         gamma=(1.0,) if s == 1 else tuple(gamma))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mu = rng.dirichlet(np.ones(q), size=s) * params.gamma_array[:, None]
    perm = data.draw(st.permutations(range(q)))
    assert free_energy_G(mu[:, perm], params) == pytest.approx(
        free_energy_G(mu, params), abs=1e-12)


@SETTINGS
@given(st.integers(3, 5), st.integers(1, 3), couplings, st.data())
def test_mean_field_step_raises_G_and_keeps_two_columns(q, s, ab, data):
    # with 0 <= alpha <= beta, A is PSD and the map is a concave-convex
    # step: G may fall only by the rounding of an O(1) sum, and columns
    # that are equal stay bitwise equal
    gamma = np.asarray(data.draw(st.lists(st.floats(0.1, 1.0), min_size=s, max_size=s)))
    params = ModelParams(q=q, s=s, alpha=ab[0], beta=ab[1],
                         gamma=(1.0,) if s == 1 else tuple(gamma / gamma.sum()))
    gamma = params.gamma_array
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    r = rng.integers(1, q, size=8)
    mu_plus = gamma / q + rng.random((8, s)) * (gamma / r[:, None] - gamma / q)
    x = np.concatenate([_two_column(r, mu_plus, gamma, q),
                        rng.dirichlet(np.ones(q), size=(8, s)) * gamma[:, None]])
    large = np.arange(q) >= q - r[:, None, None]
    for _ in range(20):
        y = _mean_field_map(x, params, gamma[:, None])
        assert np.all(_free_energy(y, params) >= _free_energy(x, params) - 1e-13)
        assert np.array_equal(y[:8], np.where(large, y[:8, :, -1:], y[:8, :, :1]))
        x = y
