"""Interdependence matrix, explicit constants, entropy inequalities, tails."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockpotts import (
    BlockStructure,
    CapacityError,
    ChainSummary,
    ConditionNotMetError,
    ConfigWorkspace,
    InvalidInputError,
    ModelParams,
    asymptotic_constants,
    concentration_report,
    entropy_functional,
    exact_distribution,
    exact_observable_distribution,
    full_configuration_distribution,
    gamma1_exact,
    gamma1_floor,
    gamma2_asymptotic,
    interdependence_matrix_exact,
    lsi_condition,
    lsi_constants,
    matrix_norms,
    run_chain,
    verify_lsi_suite,
)
from blockpotts import lsi
from blockpotts.exact import _swap_halves, site_view
from blockpotts.lsi import _recoloring_tv, _structured_battery, exp_moments
from blockpotts.numutil import CHUNK_BYTES, LEAF

import oracles
from oracles import covariance_term, difference_operator_sq


def make(q, sizes, alpha, beta):
    total = sum(sizes)
    gamma = (1.0,) if len(sizes) == 1 else tuple(n / total for n in sizes)
    p = ModelParams(q=q, s=len(sizes), alpha=alpha, beta=beta, gamma=gamma)
    return p, BlockStructure(sizes=sizes)


def site_sides(law, fvals):
    """(E|df|^2, E|df|^2 e^f, sum_i E Cov_i(f, e^f)) of observables f, (P,)
    or (F, P), from the suite's per-site pass, each of shape f.shape[:-1]."""
    fvals = np.asarray(fvals, dtype=np.float64)
    rows = fvals.reshape(-1, fvals.shape[-1])
    _, _, *sides = lsi._SitePass(law, len(rows))(rows)
    return [side.reshape(fvals.shape[:-1]) for side in sides]


def p_mean(values, p):
    """E_p of per-configuration values (..., P), as a pairwise sum."""
    return np.add.reduce(values * p, axis=-1)


EPS = np.finfo(np.float64).eps


def test_lsi_condition_examples():
    assert lsi_condition(3, 0.1) is True
    assert lsi_condition(3, 0.2) is False
    assert lsi_condition(10, 1e-6) is True


@pytest.mark.parametrize("q", [10**400 + 7, 2**1023 + 1])
def test_condition_helpers_take_a_q_past_the_float_range(q):
    # 2 q overflows a float at both; beta = 0 keeps 2 q beta e^beta at 0
    assert lsi_condition(q, 0.0) is True and gamma2_asymptotic(q, 0.0) == 1.0
    assert lsi_condition(q, 0.1) is False and gamma2_asymptotic(q, 0.1) < -1e300
    assert 0.0 <= gamma1_floor(q, 0.1) <= 1.0 / float(2**1023)
    with pytest.raises(ConditionNotMetError):
        asymptotic_constants(q, 0.1)


@pytest.mark.parametrize("q", [10**400 + 7, 10**320, 10**308 + 1, 10**1000 + 1],
                         ids=["1e400+7", "1e320", "1e308+1", "1e1000+1"])
def test_asymptotic_constants_past_the_float_range_are_capacity_errors(q):
    # the floor underflows to 0 at the first, C overflows at the second and
    # sigma1^2 at the third; a q past SHOWN_DIGITS digits is named only as such
    with pytest.raises(CapacityError) as err:
        asymptotic_constants(q, 0.0)
    assert err.value.required == q
    shown = "more than 10^1000" if q > 10**1000 else str(q)
    assert f"q={shown} overflow" in str(err.value)


def test_asymptotic_constants_keep_their_values_inside_the_float_range():
    c = asymptotic_constants(10**300, 0.0)
    assert (c.gamma1, c.gamma2, c.C, c.sigma1_sq, c.sigma2_sq, c.sigma3_sq) == (
        1e-300, 1.0, 9.999999999999999e299, 4.9828921423310436e302, 9.999999999999999e299,
        9.999999999999999e299)


def test_interdependence_zero_couplings():
    p, b = make(3, (2, 2), 0.0, 0.0)
    J = interdependence_matrix_exact(b, p)
    assert np.max(np.abs(J)) == 0.0


def test_interdependence_two_sites_hand_value():
    # N=2 single block: site 1's conditional under the two values at site 2
    beta = 0.9
    p, b = make(3, (2,), 0.0, beta)
    J = interdependence_matrix_exact(b, p)
    w = math.exp(beta / 2.0)
    pa = np.array([w, 1.0, 1.0]) / (w + 2.0)
    pb = np.array([1.0, w, 1.0]) / (w + 2.0)
    expected = 0.5 * np.abs(pa - pb).sum()
    assert J[0, 1] == pytest.approx(expected, abs=1e-14)
    assert J[0, 0] == 0.0


def test_interdependence_matches_brute_force():
    for sizes in ((2, 2), (1, 3)):
        p, b = make(3, sizes, 0.3, 0.7)
        J = interdependence_matrix_exact(b, p)
        brute = oracles.brute_interdependence(sizes, 3, 0.3, 0.7)
        assert np.max(np.abs(J - brute)) <= 1e-13


@pytest.mark.parametrize("q, sizes", [(3, (30, 30)), (4, (3, 5, 2))])
def test_interdependence_matches_recolored_softmax(q, sizes):
    # the closed form of color pair (0, 1) against the worst color pair of
    # the (q, q, P) softmax of every recolored field
    p, b = make(q, sizes, 0.05, 0.1)
    J = interdependence_matrix_exact(b, p)
    assert np.max(np.abs(J - oracles.interdependence_by_recolored_softmax(b, p))) <= 1e-14


@pytest.mark.parametrize("alpha, beta", [(0.05, 0.1), (0.02, 0.05)])
@pytest.mark.parametrize("q, sizes", [
    (3, (30, 30)), (3, (4, 4)), (3, (3, 3)), (3, (10, 20)), (4, (5, 6, 7)), (4, (4, 3, 2)),
    (3, (9,)), (3, (1,)), (3, (1, 1)), (3, (1, 5, 2)), (3, (2, 2, 2, 2)),
])
def test_interdependence_equals_block_grid(q, sizes, alpha, beta):
    # identity (3): one two-axis grid per block size reaches every field of
    # the s-axis product grid of each block pair, so J keeps its bits
    p, b = make(q, sizes, alpha, beta)
    J = interdependence_matrix_exact(b, p)
    assert np.array_equal(J, oracles.interdependence_on_block_grid(b, p))


@pytest.mark.parametrize("shape", [(3, 40, 500), (5, 17), (4, 3, 5, 2), (2, 9)])
def test_recoloring_tv_equals_the_triu_gather(shape):
    # color pair (0, 1), bit for bit row 0 of the gathered (q(q-1)/2, ...)
    # pairs of np.triu_indices
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    fields = rng.uniform(-3.0, 3.0, shape)
    for boost in (0.0, 0.004, 0.7):
        tv = _recoloring_tv(fields, boost)
        assert np.array_equal(tv, oracles.recoloring_tv_by_gather(fields, boost)[0])


@pytest.mark.parametrize("alpha, beta", [(0.05, 0.1), (0.5, 1.0), (10.0, 20.0)])
@pytest.mark.parametrize("q", [3, 4, 5, 6])
@pytest.mark.parametrize("sizes", [(3, 3), (1, 4), (2, 3, 2), (5,)])
def test_interdependence_is_within_ulps_of_all_color_pairs(q, sizes, alpha, beta):
    # the reference takes the worst of every color pair on the full block
    # grid.  Pair (0, 1) there is one of its candidates bit for bit, so J is
    # never above it.  Its worst pair (a, b) is pair (0, 1) of J at the
    # color-permuted grid point, whose softmax adds the same q exponentials
    # in another order: each order is within (q - 1) u of the exact sum (u =
    # 2^-53, positive terms), so p[a] and p[b] move by at most 2q u with the
    # two divisions.  Identity (1) scales a relative move of lo by at most 1
    # and one of hi by at most max(1, hi / A), A = 1 - hi + (1 + t) lo, and
    # hi / A is below 1 at the maximizers of these grids (0.59 at most).
    # Each side rounds its 12 operations once more: under (4q + 24) u
    # relative, so under 4q + 24 ulps.
    p, b = make(q, sizes, alpha, beta)
    J = interdependence_matrix_exact(b, p)
    ref = oracles.interdependence_on_block_grid(b, p, tv=oracles.recoloring_tv_by_gather)
    assert np.all(J <= ref)
    assert np.all(ref - J <= (4 * q + 24) * np.spacing(ref))


def test_interdependence_cap_counts_the_two_axis_grid():
    # (8,8,8,8): the largest grid is comps(7) x comps(23), 36 * 300 = 10 800
    # matrices; the product grid of a block pair had 28 * 45^3 = 2 551 500
    p, b = make(3, (8, 8, 8, 8), 0.05, 0.1)
    J = interdependence_matrix_exact(b, p, cap=10_800)
    assert J.shape == (32, 32) and np.all(np.diag(J) == 0.0) and np.all(J[0, 1:] > 0.0)
    with pytest.raises(CapacityError) as err:
        interdependence_matrix_exact(b, p, cap=10_799)
    assert err.value.required == 10_800
    assert "10800" in str(err.value)


def test_interdependence_peak_memory_is_slab_sized():
    # (40, 40): the grids hold 671 580 and 672 400 points, whose fields
    # would take 16 MB whole; slabs keep the peak near a few LEAF arrays
    p, b = make(3, (40, 40), 0.05, 0.1)
    tracemalloc.start()
    try:
        interdependence_matrix_exact(b, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_interdependence_monotone_in_beta():
    p1, b = make(3, (3, 3), 0.025, 0.05)
    p2, _ = make(3, (3, 3), 0.05, 0.1)
    J1 = interdependence_matrix_exact(b, p1)
    J2 = interdependence_matrix_exact(b, p2)
    assert np.all(J1 <= J2 + 1e-15)


def test_matrix_norms_zero_and_rank_one():
    assert matrix_norms(np.zeros((4, 4))) == (0.0, 0.0)
    assert matrix_norms(np.zeros((0, 0))) == (0.0, 0.0)
    # the all-ones vector lies in this matrix's null space
    assert matrix_norms([[1.0, -1.0], [-1.0, 1.0]]) == (2.0, 2.0)
    N, a = 7, 0.3
    J = np.full((N, N), a)
    np.fill_diagonal(J, 0.0)
    inf_n, two_n = matrix_norms(J)
    assert inf_n == pytest.approx((N - 1) * a, abs=1e-12)
    assert two_n == pytest.approx((N - 1) * a, rel=1e-9)


def test_matrix_norms_match_svd_on_random_matrices():
    rng = np.random.default_rng(0)
    for _ in range(20):
        J = rng.random((8, 8)) * 0.1
        np.fill_diagonal(J, 0.0)
        inf_n, two_n = matrix_norms(J)
        assert inf_n == pytest.approx(np.abs(J).sum(axis=1).max(), abs=1e-14)
        assert two_n == pytest.approx(np.linalg.svd(J, compute_uv=False)[0], rel=1e-8)
        one_n = np.abs(J).sum(axis=0).max()
        assert two_n <= math.sqrt(one_n * inf_n) * (1 + 1e-9)


@pytest.mark.parametrize("q, sizes, alpha, beta", [(3, (10, 20), 0.02, 0.05),
                                                   (4, (5, 6, 7), 0.02, 0.05),
                                                   (3, (30, 30), 0.05, 0.1)])
def test_two_norm_of_interdependence_matches_eigenvalues(q, sizes, alpha, beta):
    p, b = make(q, sizes, alpha, beta)
    J = interdependence_matrix_exact(b, p)
    reference = math.sqrt(np.linalg.eigvalsh(J.T @ J).max())
    assert abs(matrix_norms(J)[1] - reference) <= 1e-14 * reference


# inside 2 q beta e^beta < 1, up to N = 80 at q = 3 and N = 40 at q = 4:
# the largest beta of each q sits near the edge (0.97 at q = 3); every small
# system at every (alpha, beta) of its q, the large ones at a few
ASYMPTOTE_BETAS = {3: (0.01, 0.1, 0.14), 4: (0.01, 0.08, 0.11), 5: (0.01, 0.09), 6: (0.075,)}
ASYMPTOTE_SIZES = {3: [(1,), (2, 2), (10, 10), (1, 79), (80,), (3, 5, 2)],
                   4: [(1, 1), (5, 5), (40,), (3, 3, 3)], 5: [(4, 4, 4), (2, 8)],
                   6: [(6, 6)]}
ASYMPTOTE_LARGE = {3: [((40, 40), 0.05, 0.1), ((20, 60), 0.14, 0.14), ((40, 40), 0.0, 0.14)],
                   4: [((20, 20), 0.11, 0.11), ((10, 30), 0.0, 0.11)],
                   5: [((10, 10), 0.09, 0.09)], 6: []}


@pytest.mark.parametrize("q", sorted(ASYMPTOTE_SIZES))
def test_measured_norm_is_below_its_asymptote(q):
    # asymptotic_constants holds once the exact norm sits below 2 q beta
    # e^beta = 1 - gamma2_asymptotic (111 models, largest ratio 0.054)
    models = [(sizes, alpha, beta) for sizes in ASYMPTOTE_SIZES[q]
              for beta in ASYMPTOTE_BETAS[q] for alpha in (0.0, beta / 2, beta)]
    for sizes, alpha, beta in models + ASYMPTOTE_LARGE[q]:
        assert lsi_condition(q, beta)
        p, b = make(q, sizes, alpha, beta)
        _, two_norm = matrix_norms(interdependence_matrix_exact(b, p))
        assert two_norm < 1.0 - gamma2_asymptotic(q, beta), (sizes, alpha, beta)


def test_fit_inverse_n_coefficient_recovers_exact_fit():
    a, c = 0.66, -0.8
    data = {n: a + c / n for n in (6, 8, 10)}
    a_hat, c_hat = oracles.fit_inverse_n_coefficient(data)
    assert a_hat == pytest.approx(a, abs=1e-12)
    assert c_hat == pytest.approx(c, abs=1e-12)


def test_gamma1_uniform_at_zero_coupling():
    p, b = make(3, (3, 2), 0.0, 0.0)
    assert gamma1_exact(b, p) == pytest.approx(1 / 3, abs=1e-15)


def test_gamma1_above_analytic_floor():
    p, b = make(3, (3, 3), 0.05, 0.1)
    g1 = gamma1_exact(b, p)
    assert g1 >= gamma1_floor(3, 0.1)


def test_gamma1_matches_brute_force_minimum():
    import itertools

    p, b = make(3, (2, 2), 0.3, 0.7)
    best = 1.0
    for cfg in itertools.product(range(3), repeat=4):
        for site in range(4):
            best = min(best, min(oracles.brute_conditional(cfg, site, b.sizes, 3, 0.3, 0.7)))
    assert gamma1_exact(b, p) == pytest.approx(best, abs=1e-14)


@pytest.mark.parametrize("sizes", [(30, 30), (4, 4), (3, 3)])
def test_gamma1_closed_form_equals_enumeration(sizes):
    p, b = make(3, sizes, 0.05, 0.1)
    assert gamma1_exact(b, p) == oracles.gamma1_by_enumeration(b, p)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(3, 5), st.lists(st.integers(1, 8), min_size=1, max_size=3),
       st.floats(0.0, 4.0), st.floats(0.0, 8.0))
def test_gamma1_closed_form_equals_enumeration_drawn(q, sizes, alpha, beta):
    p, b = make(q, tuple(sizes), min(alpha, beta), beta)
    assert gamma1_exact(b, p) == oracles.gamma1_by_enumeration(b, p)


def test_gamma1_enumerates_nothing():
    # enumeration would visit 500000500000 leave-one-out count matrices
    p, b = make(3, (10**6,), 0.2, 0.5)
    start = time.perf_counter()
    assert gamma1_exact(b, p) >= gamma1_floor(3, 0.5)
    assert time.perf_counter() - start < 1.0


def test_gamma1_decreasing_in_beta():
    values = []
    for beta in (0.05, 0.1, 0.2, 0.4):
        p, b = make(3, (3, 3), beta / 2, beta)
        values.append(gamma1_exact(b, p))
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_lsi_constants_examples():
    c = lsi_constants(1.0, 1.0)
    assert (c.C, c.sigma2_sq, c.sigma3_sq) == (1.0, 1.0, 1.0)
    assert c.sigma1_sq == 0.0
    c = lsi_constants(1 / 3, 0.5)
    assert c.C == pytest.approx(12.0, abs=1e-12)
    assert c.sigma1_sq == pytest.approx(12 * math.log(3) / math.log(4), abs=1e-12)
    assert lsi_constants(0.5, 0.5).C > lsi_constants(0.6, 0.5).C
    assert lsi_constants(0.5, 0.5).C > lsi_constants(0.5, 0.6).C
    with pytest.raises(InvalidInputError):
        lsi_constants(0.0, 0.5)
    with pytest.raises(InvalidInputError):
        lsi_constants(0.5, 1.5)


def test_asymptotic_constants_requires_condition():
    c = asymptotic_constants(3, 0.1)
    assert c.gamma1 == pytest.approx(gamma1_floor(3, 0.1))
    with pytest.raises(ConditionNotMetError):
        asymptotic_constants(3, 0.2)


def test_difference_operator_constant_is_zero():
    p, b = make(3, (2, 2), 0.2, 0.5)
    assert difference_operator_sq(lambda cfg: 3.5, np.array([0, 1, 2, 0]), b, p) == 0.0


def test_difference_operator_count_observable_bounded_by_block_size():
    import itertools

    p, b = make(3, (3, 2), 0.25, 0.5)
    for k, c in ((0, 0), (1, 1)):
        def T(cfg, k=k, c=c):
            lo, hi = (0, 3) if k == 0 else (3, 5)
            return float(np.sum(np.asarray(cfg[lo:hi]) == c))

        for cfg in itertools.product(range(3), repeat=5):
            val = difference_operator_sq(T, np.array(cfg), b, p)
            assert val <= b.sizes[k] + 1e-12


def test_difference_operator_product_measure_two_routes():
    # f = indicator of site 0 having color 0, independent uniform colors
    p, b = make(3, (2, 2), 0.0, 0.0)

    def f(cfg):
        return float(cfg[0] == 0)

    # pointwise values from the definition
    v_hit = difference_operator_sq(f, np.array([0, 1, 2, 0]), b, p)
    v_miss = difference_operator_sq(f, np.array([1, 1, 2, 0]), b, p)
    assert v_hit == pytest.approx(2 / 3, abs=1e-14)   # (q-1)/q
    assert v_miss == pytest.approx(1 / 3, abs=1e-14)  # 1/q
    # mean equals twice the one-coordinate variance p(1-p)
    law = full_configuration_distribution(b, p)
    configs, _ = oracles.decoded_configurations(b, 3)
    fvals = np.asarray([f(cfg) for cfg in configs], dtype=np.float64)
    mean_dsq = float(site_sides(law, fvals)[0])
    assert mean_dsq == pytest.approx(2 * (1 / 3) * (2 / 3), abs=1e-13)


def on_configs(fvals, q, N):
    """fvals, indexed by configuration code sum_i x_i q^i, as a function of a configuration."""
    place = q ** np.arange(N, dtype=np.int64)

    def f(config):
        return fvals[int(np.dot(np.asarray(config, dtype=np.int64), place))]

    return f


def close(value, reference, tol):
    return abs(value - reference) <= tol * max(1.0, abs(reference))


def test_difference_operator_function_vs_workspace():
    # the definition's |df|^2 at every configuration, p-weighted, against
    # the per-site pass: both sides sum 81 nonnegative terms of a few ulps
    # each, so rel 1e-11 is far above their rounding
    rng = np.random.default_rng(13)
    p, b = make(3, (2, 2), 0.3, 0.7)
    law = full_configuration_distribution(b, p)
    fvals = rng.standard_normal(len(law))
    dirichlet, weighted, _ = site_sides(law, fvals)
    f = on_configs(fvals, 3, 4)
    configs, _ = oracles.decoded_configurations(b, 3)
    dsq = np.array([difference_operator_sq(f, cfg.astype(np.int64), b, p) for cfg in configs])
    probs = law.probabilities
    assert float(dirichlet) == pytest.approx(float(p_mean(dsq, probs)), rel=1e-11, abs=1e-12)
    assert float(weighted) == pytest.approx(float(p_mean(dsq * np.exp(fvals), probs)),
                                            rel=1e-11, abs=1e-12)


def test_entropy_functional_basics():
    p, b = make(3, (1,), 0.0, 1.0)
    dist = full_configuration_distribution(b, p)
    assert entropy_functional(np.full(3, 2.5), dist) == pytest.approx(0.0, abs=1e-14)
    # three-point uniform law, values (1, 2, 3): hand arithmetic
    f = np.array([1.0, 2.0, 3.0])
    hand = (1 * math.log(1) + 2 * math.log(2) + 3 * math.log(3)) / 3 - 2 * math.log(2)
    assert entropy_functional(f, dist) == pytest.approx(hand, abs=1e-14)
    # homogeneity
    assert entropy_functional(7.0 * f, dist) == pytest.approx(
        7.0 * entropy_functional(f, dist), rel=1e-12
    )
    with pytest.raises(InvalidInputError):
        entropy_functional(np.array([1.0, -0.5, 2.0]), dist)
    # an (F, P) batch gives each row's value, a zero row included
    rows = np.stack([f, 7.0 * f, np.full(3, 2.5), np.zeros(3)])
    batch = entropy_functional(rows, dist)
    assert batch.shape == (4,)
    np.testing.assert_allclose(batch, [entropy_functional(row, dist) for row in rows],
                               rtol=1e-14, atol=1e-15)
    assert batch[3] == 0.0


def test_entropy_nonnegative_zero_only_for_constants():
    rng = np.random.default_rng(14)
    p, b = make(3, (2, 1), 0.2, 0.6)
    dist = full_configuration_distribution(b, p)
    for _ in range(100):
        f = np.abs(rng.standard_normal(len(dist))) + 0.01
        ent = entropy_functional(f, dist)
        assert ent >= -1e-14
        if ent < 1e-12:
            assert np.ptp(f) < 1e-5


def test_covariance_term_constant_and_nonnegative():
    rng = np.random.default_rng(15)
    p, b = make(3, (2, 2), 0.3, 0.7)
    law = full_configuration_distribution(b, p)
    assert abs(float(site_sides(law, np.zeros(len(law)))[2])) <= 1e-15
    _, _, terms = site_sides(law, rng.standard_normal((100, len(law))))
    assert terms.shape == (100,)
    assert np.all(terms >= -1e-13)


def test_covariance_sum_matches_direct_implementation():
    rng = np.random.default_rng(16)
    p, b = make(3, (2, 2), 0.3, 0.7)
    law = full_configuration_distribution(b, p)
    probs = law.probabilities
    place = 3 ** np.arange(4)
    configs, _ = oracles.decoded_configurations(b, 3)
    for _ in range(5):
        f = rng.standard_normal(len(law))
        # direct: loop configurations and sites, conditional from joint ratios
        total = 0.0
        for idx in range(len(law)):
            cfg = configs[idx].astype(np.int64)
            for i in range(4):
                neigh = [idx + (c - cfg[i]) * place[i] for c in range(3)]
                w = probs[neigh]
                cond = w / w.sum()
                fv = f[neigh]
                ef = np.exp(fv)
                cov = float(cond @ (fv * ef) - (cond @ fv) * (cond @ ef))
                total += probs[idx] * cov
        cov = site_sides(law, f)[2]
        assert float(cov) == pytest.approx(total, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("sizes", [(2, 2), (1, 3), (2, 1, 2), (3,)])
@pytest.mark.parametrize("q", [3, 4])
def test_batched_workspace_matches_brute_force_oracles(q, sizes):
    # unequal block sizes put sites of one block on different view axes, so
    # a wrong site <-> axis order shows as a mismatch.  The definitions'
    # |df|^2 at every configuration and E Cov_i at every site are summed
    # over at most 4^4 configurations of a few ulps each, so 1e-12 is far
    # above the rounding of either side
    p, b = make(q, sizes, 0.3, 0.8)
    law = full_configuration_distribution(b, p)
    probs = law.probabilities
    fvals = np.random.default_rng(q * 100 + b.N).standard_normal((2, len(law)))
    sides = site_sides(law, fvals)
    assert all(side.shape == (2,) for side in sides)
    configs, _ = oracles.decoded_configurations(b, q)
    for row, f_row in enumerate(fvals):
        f = on_configs(f_row, q, b.N)
        dsq = np.array([difference_operator_sq(f, config, b, p) for config in configs])
        assert close(sides[0][row], float(p_mean(dsq, probs)), 1e-12)
        assert close(sides[1][row], float(p_mean(dsq * np.exp(f_row), probs)), 1e-12)
        cov = sum(covariance_term(f, site, b, p) for site in range(b.N))
        assert close(sides[2][row], cov, 1e-12)
        # a batch row equals the single-row call
        np.testing.assert_allclose(site_sides(law, f_row), [side[row] for side in sides],
                                   rtol=1e-14, atol=0)


@pytest.mark.parametrize("q, sizes", [(3, (2, 2)), (4, (1, 3)), (3, (2, 1, 2)), (3, (4, 4))])
def test_local_terms_match_difference_form(q, sizes):
    # E|df|^2 against the difference form of |df|^2, p-weighted: both round
    # to a few ulps (measured at most 1.1 eps), so 1e-12 is far above that
    p, b = make(q, sizes, 0.3, 0.8)
    law = full_configuration_distribution(b, p)
    cfgs, counts = oracles.decoded_configurations(b, q)
    structured = np.stack([cfgs[:, i] == c for i in range(b.N) for c in range(q)]
                          + [counts[:, k, c] for k in range(b.s) for c in range(q)])
    structured = structured.astype(np.float64)
    gaussian = np.random.default_rng(q * 100 + b.N).standard_normal((4, len(law)))
    for fvals in (gaussian, structured):
        dirichlet, weighted, _ = site_sides(law, fvals)
        reference = p_mean(oracles.difference_sq_by_colors(law, fvals), law.probabilities)
        assert np.all(np.abs(dirichlet - reference) <= 1e-12 * np.maximum(1.0, reference))
        assert np.all(dirichlet >= 0.0) and np.all(weighted >= 0.0)
    # the squares keep E|df|^2 shift invariant: f - m_i f moves by delta, a
    # few ulps of the shift, where E f^2 - E (m_i f)^2 would carry ulps of
    # its square.  |f - m_i f| <= 1 for these observables, so E|df|^2
    # moves by at most 2 N (2 delta + delta^2), within the bound for
    # delta <= 4 ulps of the shift.  e^f overflows here, and only E|df|^2
    # is read
    shift = 1e6
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = site_sides(law, structured + shift)[0]
    assert np.all(shifted >= 0.0)
    unshifted = site_sides(law, structured)[0]
    assert np.max(np.abs(shifted - unshifted)) <= 16 * b.N * EPS * shift


@pytest.mark.parametrize("lead", [(), (2, 3)], ids=["1d", "3d"])
@pytest.mark.parametrize("q, N", [(3, 1), (3, 2), (3, 5), (4, 1), (4, 3), (4, 4)])
def test_reverse_sites_moves_each_site_view(q, N, lead):
    # the suite's second layout lists the two halves of the sites in
    # reverse order: the law's (q^(N-h), q^h) grid, h = N // 2, with its
    # two axes swapped, so the digits of a code are its low h sites above
    # its high N - h sites
    x = np.random.default_rng(q * 10 + N).standard_normal(lead + (q**N,))
    swapped = _swap_halves(x, q, N)
    assert swapped.shape == x.shape and swapped.flags.c_contiguous
    h = N // 2
    # swapping back is the (q^h, q^(N-h)) grid's own transpose
    back = swapped.reshape(*lead, q**h, -1).swapaxes(-1, -2).reshape(x.shape)
    assert np.array_equal(back, x)
    for i in range(N):
        # recoloring site i of x is recoloring site j of the swapped copy,
        # j = i + N - h for a low site and i - h for a high one, at the
        # code whose digits are the high sites' then the low sites'
        j = i + N - h if i < h else i - h
        view = site_view(swapped, j, q)
        assert view.shape == lead + (q**(N - 1 - j), q, q**j)
        for code in range(q**N):
            digits = [code // q**k % q for k in range(N)]
            moved = sum(d * q**(k + N - h if k < h else k - h) for k, d in enumerate(digits))
            a, b = moved // q**(j + 1), moved % q**j
            for c in range(q):
                recolored = code + (c - digits[i]) * q**i
                assert np.array_equal(view[..., a, c, b], x[..., recolored])


def test_exp_moments_equal_stacked_moments():
    # written in place, the moments keep the bytes of the stacked
    # temporaries, also where e^f overflows to inf and underflows to 0
    rng = np.random.default_rng(8)
    for fvals in (rng.standard_normal((3, 81)), rng.standard_normal(81),
                  800.0 * rng.standard_normal((2, 81)), [0.0, 1.0, -2.0]):
        with np.errstate(over="ignore"):
            got, want = exp_moments(fvals), oracles.exp_moments_by_stack(fvals)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        if np.max(np.abs(fvals)) > 710.0:
            assert np.isinf(got[1]).any() and (got[1] == 0.0).any()


@pytest.mark.parametrize("lead", [(), (4,)], ids=["1d", "2d"])
@pytest.mark.parametrize("q, N", [(3, 1), (3, 4), (4, 3), (5, 2)])
def test_exp_moments_commute_with_reverse_sites(q, N, lead):
    # the per-site pass moves the moments it took to the swapped grid: exp
    # and the product are elementwise, so those are the moments of the
    # swapped f bit for bit, also where e^f overflows to inf and
    # underflows to 0
    f = 800.0 * np.random.default_rng(q * 10 + N).standard_normal(lead + (q**N,))
    with np.errstate(over="ignore"):
        got = exp_moments(_swap_halves(f, q, N))
        want = _swap_halves(exp_moments(f), q, N)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q, sizes", [(3, (3, 4)), (3, (2, 1, 2)), (3, (5,)), (4, (2, 2)),
                                      (3, (1,)), (4, (1, 1))])
def test_local_terms_match_site_view_loop(q, sizes):
    # an odd N or unequal blocks put one block's sites in both halves, so a
    # low site read at the wrong swapped site shows as a mismatch.  The
    # two routes sum N P terms in different orders: the first two sides are
    # sums of nonnegative terms, whose rounding grows like sqrt(N P) ulps,
    # and the third subtracts sums of size N E|f e^f|, so its rounding is
    # bounded by the same factor times that size (measured: at most 20 eps
    # of the first two sides and 7 eps of that size)
    p, b = make(q, sizes, 0.3, 0.8)
    law = full_configuration_distribution(b, p)
    probs = law.probabilities
    tol = 4 * math.sqrt(b.N * len(law)) * EPS
    cfgs, counts = oracles.decoded_configurations(b, q)
    structured = np.stack([cfgs[:, i] == c for i in range(b.N) for c in range(q)]
                          + [counts[:, k, c] for k in range(b.s) for c in range(q)])
    gaussian = np.random.default_rng(q * 100 + b.N).standard_normal((5, len(law)))
    for fvals in (gaussian, structured.astype(np.float64), gaussian[0]):
        moments = exp_moments(fvals)
        dirichlet, weighted, cov = site_sides(law, fvals)
        ref_dsq, ref_cov = oracles.local_terms_by_site_view(law, moments)
        ref_dirichlet, ref_weighted = p_mean(ref_dsq, probs), p_mean(ref_dsq * moments[1], probs)
        assert dirichlet.shape == weighted.shape == cov.shape == fvals.shape[:-1]
        assert np.all(np.abs(dirichlet - ref_dirichlet) <= tol * ref_dirichlet)
        assert np.all(np.abs(weighted - ref_weighted) <= tol * ref_weighted)
        size = b.N * p_mean(np.abs(moments[2]), probs)
        assert np.all(np.abs(cov - ref_cov.sum(axis=-1)) <= tol * size)


# (3, (5, 4)) and (4, (5, 4)) lay out their linear forms in more than one
# slab; (3, (2, 1, 2)), (4, (1, 3)) and (3, (1,)) hold one-site blocks; a
# LEAF patched down to 100 or 8 leaves slabs of the colorings of two low
# sites or of one, the least slab, which a q above LEAF would also take
@pytest.mark.parametrize("q, sizes, leaf", [
    (3, (4, 4), LEAF), (3, (5, 4), LEAF), (3, (2, 1, 2), LEAF), (3, (1,), LEAF),
    (4, (1, 3), LEAF), (4, (5, 4), LEAF), (3, (2, 1, 2), 100), (4, (3, 2), 8),
])
def test_battery_equals_battery_by_configs(q, sizes, leaf, monkeypatch):
    monkeypatch.setattr(lsi, "LEAF", leaf)
    p, b = make(q, sizes, 0.05, 0.1)
    law = full_configuration_distribution(b, p)
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    got = list(_structured_battery(law, rng))
    want = list(oracles.structured_battery_by_configs(law, ref_rng))
    assert len(got) == len(want)
    for a, w in zip(got, want):
        assert a.dtype == w.dtype and a.tobytes() == w.tobytes()
    # the same draws in the same order
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_battery_peak_memory_is_two_observables_and_a_slab():
    # the observable yielded and the one being built, P float64 each, and
    # the linear forms' slab of at most CHUNK_BYTES: no (P, N) array of
    # colors or of terms is built
    p, b = make(3, (5, 5), 0.05, 0.1)
    law = full_configuration_distribution(b, p)
    for _ in _structured_battery(law, np.random.default_rng(1)):
        pass  # the first drain imports what numpy loads lazily
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        for _ in _structured_battery(law, rng):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(law) * 8 + 2 * CHUNK_BYTES


def test_suite_peak_memory_does_not_grow_with_observables():
    p, b = make(3, (4, 4), 0.05, 0.1)
    peaks = {}
    for num_f in (100, 400):
        tracemalloc.start()
        try:
            verify_lsi_suite(b, p, num_f=num_f, seed=1)
            peaks[num_f] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[400] <= 1.10 * peaks[100]


def test_workspace_peak_memory_is_its_outputs():
    p, b = make(3, (5, 5), 0.05, 0.1)
    tracemalloc.start()
    try:
        ws = ConfigWorkspace(b, p)
        cond = ws.cond
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = cond.nbytes + ws.probabilities.nbytes
    assert peak <= 1.25 * outputs


def test_suite_does_not_build_the_conditional_array():
    # the suite reads the per-site laws only, so its peak stays well below
    # the workspace's (P, N, q) conditional array plus the joint law
    p, b = make(3, (5, 5), 0.05, 0.1)
    tracemalloc.start()
    try:
        verify_lsi_suite(b, p, num_f=0, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ConfigWorkspace(b, p).cond.nbytes


def test_suite_product_measure_zero_violations():
    p, b = make(3, (2, 2), 0.0, 0.0)
    report = verify_lsi_suite(b, p, num_f=100, seed=2)
    assert report.violations == 0
    assert report.gamma2 == pytest.approx(1.0)
    assert report.gamma1 == pytest.approx(1 / 3)


def test_suite_interacting_zero_violations_N4_N5():
    for sizes in ((2, 2), (2, 3)):
        p, b = make(3, sizes, 0.05, 0.1)
        report = verify_lsi_suite(b, p, num_f=50, seed=3)
        assert report.violations == 0
        assert report.gamma2 > 0
        assert max(report.worst_ratio.values()) < 1.0


# verify_lsi_suite(q=3, alpha=0.05, beta=0.1, num_f=100, seed=1).  The
# ratios are as the site-view loop of the per-configuration |df|^2 computed
# them: the per-site pass moves them by at most 3e-14 relative.  The slacks
# come from the zero observable, where every side is 0 and the pairwise sum
# of the law is 1, so they are 0.0 on every BLAS kernel and pinned absolutely.
PINNED_SUITES = {
    (3, 3): (135, {"entropy_f2": 0.0, "entropy_expf_cov": 0.0, "entropy_expf_dirichlet": 0.0},
             {"entropy_f2": 0.1726506832961233, "entropy_expf_cov": 0.16123394101236646,
              "entropy_expf_dirichlet": 0.14906912865617608}),
    (4, 4): (141, {"entropy_f2": 0.0, "entropy_expf_cov": 0.0, "entropy_expf_dirichlet": 0.0},
             {"entropy_f2": 0.16850078178126904, "entropy_expf_cov": 0.16074873038532153,
              "entropy_expf_dirichlet": 0.14856949263764072}),
}


@pytest.mark.parametrize("sizes", sorted(PINNED_SUITES))
def test_suite_matches_pinned_report(sizes):
    num_observables, slack, ratio = PINNED_SUITES[sizes]
    p, b = make(3, sizes, 0.05, 0.1)
    report = verify_lsi_suite(b, p, num_f=100, seed=1)
    assert report.violations == 0
    assert report.num_observables == num_observables
    assert report.worst_slack == pytest.approx(slack, rel=1e-13, abs=1e-15)
    assert report.worst_ratio == pytest.approx(ratio, rel=1e-13, abs=0)


# The pinned suites' worst values, entropy_functional's batch and row
# values, and the log_Z and a digest of the probability bytes of both exact
# laws and of the count-matrix law's log weights, whose BLAS sums are exact
# integers, as hex floats in `bits`.
# OpenBLAS picks its kernel from OPENBLAS_CORETYPE when numpy loads, so
# each kernel runs it in a subprocess.
KERNEL_PROBE = """
import hashlib
import numpy as np
from blockpotts import (BlockStructure, ModelParams, entropy_functional, exact_distribution,
                        full_configuration_distribution, verify_lsi_suite)
params = ModelParams(q=3, s=2, alpha=0.05, beta=0.1, gamma=(0.5, 0.5))
bits = {}
for sizes in ((3, 3), (4, 4)):
    report = verify_lsi_suite(BlockStructure(sizes=sizes), params, num_f=100, seed=1)
    bits[str(sizes)] = [v.hex() for v in (*report.worst_slack.values(),
                                          *report.worst_ratio.values())]
one_site = full_configuration_distribution(
    BlockStructure(sizes=(1,)), ModelParams(q=3, s=1, alpha=0.0, beta=1.0, gamma=(1.0,)))
f = np.array([1.0, 2.0, 3.0])
basics = np.stack([f, 7.0 * f, np.full(3, 2.5), np.zeros(3)])
drawn = np.abs(np.random.default_rng(4).standard_normal((3, 81)))
two_by_two = full_configuration_distribution(BlockStructure(sizes=(2, 2)), params)
for name, rows, dist in (("basics", basics, one_site), ("drawn", drawn, two_by_two)):
    batch = entropy_functional(rows, dist).tolist()
    bits[name] = [v.hex() for v in batch + [entropy_functional(row, dist) for row in rows]]
count_law = exact_distribution(BlockStructure(sizes=(20, 20)), params)
for name, law in (("exact", count_law),
                  ("configurations",
                   full_configuration_distribution(BlockStructure(sizes=(4, 4)), params))):
    bits[name] = [law.log_Z.hex(), hashlib.sha256(law.probabilities.tobytes()).hexdigest()]
bits["exact"].append(hashlib.sha256(count_law.log_weights.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge"])
def test_suite_and_entropy_bits_do_not_depend_on_the_blas_kernel(kernel):
    namespace = {}
    exec(KERNEL_PROBE, namespace)
    want = namespace["bits"]
    # a batch row equals its one-row call
    for name in ("basics", "drawn"):
        half = len(want[name]) // 2
        assert want[name][:half] == want[name][half:]
    # the source tree this test imports
    src = str(Path(lsi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE=kernel)
    script = KERNEL_PROBE + "import json\nprint(json.dumps(bits))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == want


@pytest.mark.skipif(sys.platform != "linux", reason="reads Linux minor page faults")
def test_suite_second_call_faults_only_its_own_buffers():
    # every chunk-sized array is written into buffers made once per call, so
    # a later call faults in those pages once each, not fresh temporaries on
    # every chunk (about 6 200 faults when each chunk allocated them).  A
    # fresh process keeps the allocator's defaults: a long pytest run
    # raises its thresholds until freed temporaries stop faulting
    script = """
import resource
from blockpotts import BlockStructure, ModelParams, verify_lsi_suite
params = ModelParams(q=3, s=2, alpha=0.05, beta=0.1, gamma=(0.5, 0.5))
blocks = BlockStructure(sizes=(4, 4))
verify_lsi_suite(blocks, params, num_f=100, seed=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
verify_lsi_suite(blocks, params, num_f=100, seed=1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(lsi.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout)
    q, N = 3, 8
    P = q**N
    rows = CHUNK_BYTES // (8 * P)
    # eight (rows, P) and three (rows, P / q) chunk buffers, the swapped
    # law and N marginals of the pass, and the law's (P,) probabilities
    floats = 8 * rows * P + 3 * rows * P // q + P + N * P // q + P
    pages = floats * 8 / os.sysconf("SC_PAGE_SIZE")
    assert faults <= 2 * pages, (faults, pages)


def test_suite_rejects_failed_condition():
    p, b = make(3, (2, 2), 0.05, 0.2)
    with pytest.raises(ConditionNotMetError):
        verify_lsi_suite(b, p, num_f=5, seed=0)


@pytest.mark.parametrize("options", [{"amplitude": math.nan}, {"amplitude": math.inf},
                                     {"num_f": -5}])
def test_suite_rejects_nonfinite_amplitude_and_negative_num_f(options):
    p, b = make(3, (2, 2), 0.05, 0.1)
    with pytest.raises(InvalidInputError):
        verify_lsi_suite(b, p, **options)


def test_suite_counts_nan_sides_as_violations():
    # at amplitude 1e3, e^f overflows for every Gaussian observable, so both
    # exp-form inequalities read inf - inf = NaN on the left: two violations
    # each, where a plain lhs > rhs comparison would count none
    p, b = make(3, (2, 2), 0.05, 0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        report = verify_lsi_suite(b, p, num_f=3, seed=0, amplitude=1e3)
    assert report.violations == 2 * 3


def test_exp_inequalities_invariant_under_constant_shift():
    # both sides of the exp-form inequalities scale by e^shift
    p, b = make(3, (2, 2), 0.05, 0.1)
    law = full_configuration_distribution(b, p)
    probs = law.probabilities
    rng = np.random.default_rng(17)
    f = rng.standard_normal(len(law))
    shift = 0.75

    def ent_exp(fv):
        ef = np.exp(fv)
        m = float(probs @ ef)
        return float(probs @ (ef * fv) - m * math.log(m))

    scale = math.exp(shift)
    assert ent_exp(f + shift) == pytest.approx(scale * ent_exp(f), rel=1e-10)
    dirichlet0, weighted0, cov0 = site_sides(law, f)
    dirichlet1, weighted1, cov1 = site_sides(law, f + shift)
    assert float(cov1) == pytest.approx(scale * float(cov0), rel=1e-10)
    assert abs(float(dirichlet0 - dirichlet1)) <= 1e-12
    assert float(weighted1) == pytest.approx(scale * float(weighted0), rel=1e-10)
    # the squared-form entropy is NOT shift invariant for generic f
    assert entropy_functional((f + shift) ** 2, law) != pytest.approx(
        entropy_functional(f**2, law), rel=1e-3
    )


def test_concentration_bound_at_or_above_one_never_flags():
    p, b = make(3, (5, 5), 0.05, 0.1)
    summary = run_chain(b, p, sweeps=2000, seed=5)
    constants = asymptotic_constants(3, 0.1)
    rows = concentration_report(summary, constants, 0, 0, [0.0, 0.5, 1.0])
    for row in rows:
        if row.bound >= 1.0:
            assert not row.flagged


def test_concentration_exact_tails_never_violate():
    p, b = make(3, (4, 4), 0.05, 0.1)
    dist = exact_distribution(b, p)
    summary = run_chain(b, p, sweeps=100, seed=6)
    constants = asymptotic_constants(3, 0.1)
    t_grid = np.linspace(0.0, 4.0, 9)
    rows = concentration_report(summary, constants, 0, 0, t_grid)
    law = exact_observable_distribution(dist, 0, 0)
    values = np.arange(law.size, dtype=np.float64)
    tails = [law[np.abs(values - law @ values) >= t].sum() for t in t_grid]
    assert not any(row.bound < 1.0 and tail > row.bound for row, tail in zip(rows, tails))
    assert tails[0] == pytest.approx(1.0, abs=1e-12)


def test_concentration_refuses_empty_summary():
    p, b = make(3, (3, 3), 0.05, 0.1)
    summary = run_chain(b, p, sweeps=5, thin=10)
    assert summary.samples.size == 0
    with pytest.raises(InvalidInputError, match="no samples"):
        concentration_report(summary, asymptotic_constants(3, 0.1), 0, 0, [1.0])


@pytest.mark.parametrize("k, c", [(5, 0), (0, 7), (-1, 0), (0, -1)])
def test_concentration_path_refuses_a_block_or_color_out_of_range(k, c):
    p, b = make(3, (3, 3), 0.05, 0.1)
    summary = run_chain(b, p, sweeps=20, seed=1)
    with pytest.raises(InvalidInputError, match="index -?[0-9] out of range"):
        concentration_report(summary, asymptotic_constants(3, 0.1), k, c, [1.0])


def _random_chain(rng):
    """A summary of n random count matrices, s blocks of random sizes."""
    n, s, q = int(rng.integers(1, 300)), int(rng.integers(1, 4)), int(rng.integers(3, 6))
    sizes = rng.integers(1, 40, size=s)
    samples = np.stack([rng.multinomial(size, rng.dirichlet(np.ones(q)), size=n)
                        for size in sizes], axis=1)
    return ChainSummary(samples=samples.astype(np.int64))


def test_concentration_tails_equal_the_per_t_estimate():
    # one sorted pass against the earlier scan of every sample per t, on t
    # grids holding every deviation exactly (ties), its neighbours, negative
    # t, t past the maximum, NaN and both infinities
    rng = np.random.default_rng(20)
    constants = asymptotic_constants(3, 0.1)
    summaries = [_random_chain(rng) for _ in range(60)]
    p, b = make(3, (4, 4), 0.25, 0.5)
    summaries.append(run_chain(b, p, sweeps=500, seed=3))
    for summary in summaries:
        _, s, q = summary.samples.shape
        k, c = int(rng.integers(s)), int(rng.integers(q))
        values = summary.samples[:, k, c].astype(np.float64)
        dev = np.unique(np.abs(values - values.mean()))
        t_grid = np.concatenate([
            dev, np.nextafter(dev, np.inf), np.nextafter(dev, -np.inf), -dev - 1.0,
            [0.0, -0.0, dev[-1] + 1.0, 1e300, np.nan, np.inf, -np.inf],
            rng.uniform(-1.0, dev[-1] + 1.0, size=20)])
        rng.shuffle(t_grid)
        rows = concentration_report(summary, constants, k, c, t_grid)
        got = [row.tail for row in rows]
        want = [oracles.tail_estimate(summary, k, c, t) for t in t_grid]
        assert got == want


def test_concentration_bound_formulas_converge():
    # block-size form vs gamma_k N form of the same bound
    constants = asymptotic_constants(3, 0.1)
    gamma_k, t = 1 / 3, 5.0
    ratios = []
    for N in (10, 100, 1000):
        size_k = round(gamma_k * N)
        b1 = 2 * math.exp(-t * t / (2 * size_k * constants.sigma3_sq))
        b2 = 2 * math.exp(-t * t / (2 * N * gamma_k * constants.sigma3_sq))
        ratios.append(abs(b1 / b2 - 1.0))
    assert ratios[2] < ratios[1] < ratios[0]
