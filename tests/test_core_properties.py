"""Property tests of the count-matrix core: the interaction form and field,
the block-product routes of the exact law and the leave-one-out fields,
the closed-form recoloring distance of the interdependence matrix, the
C(gamma) row clean-up, G's color symmetry and the mean-field step.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blockpotts import (
    BlockStructure,
    ModelParams,
    count_matrix,
    count_matrix_support,
    exact_distribution,
    free_energy_G,
    interaction_field,
    interaction_form,
)
from blockpotts.equilibria import _mean_field_map, _two_column
from blockpotts.lsi import _loo_fields_by_color, _recoloring_tv
from blockpotts.numutil import log_factorials, logsumexp_tree, softmax
from blockpotts.rates import _clean_rows, _free_energy

import oracles

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


@SETTINGS
@given(product_grids())
def test_exact_law_on_block_grid_equals_materialised_support(system):
    params, blocks = system
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
    log_Z = logsumexp_tree(log_weights)
    assert np.array_equal(dist.log_weights, log_weights)
    assert dist.log_Z == log_Z
    assert np.array_equal(dist.probabilities, np.exp(log_weights - log_Z))


@SETTINGS
@given(product_grids(), st.data())
def test_loo_fields_on_block_grid_equal_interaction_field(system, data):
    params, blocks = system
    ki = data.draw(st.integers(0, blocks.s - 1))
    reduced = list(blocks.sizes)
    reduced[ki] -= 1
    support = count_matrix_support(reduced, params.q, cap=10**7).astype(np.int64)
    fields = _loo_fields_by_color(reduced, ki, params, blocks.N, cap=10**7)
    assert fields.flags.c_contiguous
    assert np.array_equal(fields, interaction_field(support, params)[:, ki, :].T / blocks.N)


@SETTINGS
@given(st.integers(2, 5), st.integers(1, 6), st.floats(0.0, 20.0), st.data())
def test_recoloring_tv_is_half_l1_of_recolored_softmaxes(q, P, boost, data):
    fields = data.draw(hnp.arrays(np.float64, (q, P), elements=st.floats(-10.0, 10.0)))
    tv = _recoloring_tv(fields, boost)
    assert tv.shape == (q * (q - 1) // 2, P)
    assert np.max(np.abs(tv - oracles.recolored_tv(fields, boost))) <= 1e-14


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
    if not all(feasible):
        assert batched is None
    else:
        assert batched is not None
        assert np.array_equal(batched, np.vstack(per_row))
        assert np.all(batched >= 0.0)
        assert np.allclose(batched.sum(axis=1), totals, rtol=0, atol=1e-14)


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
        y = _mean_field_map(x, params, gamma)
        assert np.all(_free_energy(y, params) >= _free_energy(x, params) - 1e-13)
        assert np.array_equal(y[:8], np.where(large, y[:8, :, -1:], y[:8, :, :1]))
        x = y
