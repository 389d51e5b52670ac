"""Interdependence matrix, explicit constants, entropy inequalities, tails."""

import math
import tracemalloc

import numpy as np
import pytest

from blockpotts import (
    BlockStructure,
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
    interdependence_matrix_exact,
    lsi_condition,
    lsi_constants,
    matrix_norms,
    run_chain,
    verify_lsi_suite,
)

import oracles
from oracles import covariance_term, difference_operator_sq


def make(q, sizes, alpha, beta):
    total = sum(sizes)
    gamma = (1.0,) if len(sizes) == 1 else tuple(n / total for n in sizes)
    p = ModelParams(q=q, s=len(sizes), alpha=alpha, beta=beta, gamma=gamma)
    return p, BlockStructure(sizes=sizes)


def test_lsi_condition_examples():
    assert lsi_condition(3, 0.1) is True
    assert lsi_condition(3, 0.2) is False
    assert lsi_condition(10, 1e-6) is True


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
    # the closed form of each color pair's distance against the (q, q, P)
    # softmax of every recolored field
    p, b = make(q, sizes, 0.05, 0.1)
    J = interdependence_matrix_exact(b, p)
    assert np.max(np.abs(J - oracles.interdependence_by_recolored_softmax(b, p))) <= 1e-14


def test_interdependence_monotone_in_beta():
    p1, b = make(3, (3, 3), 0.025, 0.05)
    p2, _ = make(3, (3, 3), 0.05, 0.1)
    J1 = interdependence_matrix_exact(b, p1)
    J2 = interdependence_matrix_exact(b, p2)
    assert np.all(J1 <= J2 + 1e-15)


def test_matrix_norms_zero_and_rank_one():
    assert matrix_norms(np.zeros((4, 4))) == (0.0, 0.0)
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
    full = full_configuration_distribution(b, p)
    ws = ConfigWorkspace(b, p)
    fvals = np.asarray([f(cfg) for cfg in ws.dist.configs], dtype=np.float64)
    mean_dsq = float(full.probabilities @ ws.local_terms(fvals)[0])
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
    rng = np.random.default_rng(13)
    p, b = make(3, (2, 2), 0.3, 0.7)
    ws = ConfigWorkspace(b, p)
    fvals = rng.standard_normal(len(ws.dist))
    all_dsq, _ = ws.local_terms(fvals)
    f = on_configs(fvals, 3, 4)
    for idx in rng.integers(0, len(ws.dist), size=10):
        cfg = ws.dist.configs[idx].astype(np.int64)
        assert difference_operator_sq(f, cfg, b, p) == pytest.approx(
            float(all_dsq[idx]), rel=1e-11, abs=1e-12
        )


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
    ws = ConfigWorkspace(b, p)
    assert np.all(np.abs(ws.local_terms(np.zeros(len(ws.dist)))[1]) <= 1e-15)
    _, terms = ws.local_terms(rng.standard_normal((100, len(ws.dist))))
    assert terms.shape == (100, 4)
    assert np.all(terms >= -1e-13)


def test_covariance_sum_matches_direct_implementation():
    rng = np.random.default_rng(16)
    p, b = make(3, (2, 2), 0.3, 0.7)
    ws = ConfigWorkspace(b, p)
    probs = ws.dist.probabilities
    place = 3 ** np.arange(4)
    for _ in range(5):
        f = rng.standard_normal(len(ws.dist))
        # direct: loop configurations and sites, conditional from joint ratios
        total = 0.0
        for idx in range(len(ws.dist)):
            cfg = ws.dist.configs[idx].astype(np.int64)
            for i in range(4):
                neigh = [idx + (c - cfg[i]) * place[i] for c in range(3)]
                w = probs[neigh]
                cond = w / w.sum()
                fv = f[neigh]
                ef = np.exp(fv)
                cov = float(cond @ (fv * ef) - (cond @ fv) * (cond @ ef))
                total += probs[idx] * cov
        assert float(ws.local_terms(f)[1].sum()) == pytest.approx(total, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("sizes", [(2, 2), (1, 3), (2, 1, 2), (3,)])
@pytest.mark.parametrize("q", [3, 4])
def test_batched_workspace_matches_brute_force_oracles(q, sizes):
    # unequal block sizes put sites of one block on different view axes, so
    # a wrong site <-> axis order shows as a mismatch
    p, b = make(q, sizes, 0.3, 0.8)
    ws = ConfigWorkspace(b, p)
    fvals = np.random.default_rng(q * 100 + b.N).standard_normal((2, len(ws.dist)))
    dsq, cov = ws.local_terms(fvals)
    assert dsq.shape == fvals.shape
    assert cov.shape == (2, b.N)
    for row, f_row in enumerate(fvals):
        f = on_configs(f_row, q, b.N)
        for idx, config in enumerate(ws.dist.configs):
            assert close(dsq[row, idx], difference_operator_sq(f, config, b, p), 1e-12)
        for site in range(b.N):
            assert close(cov[row, site], covariance_term(f, site, b, p), 1e-12)
        # a batch row equals the single-row call
        dsq_row, cov_row = ws.local_terms(f_row)
        np.testing.assert_allclose(dsq_row, dsq[row], rtol=1e-14, atol=0)
        np.testing.assert_allclose(cov_row, cov[row], rtol=1e-14, atol=0)


@pytest.mark.parametrize("q, sizes", [(3, (2, 2)), (4, (1, 3)), (3, (2, 1, 2)), (3, (4, 4))])
def test_local_terms_match_difference_form(q, sizes):
    p, b = make(q, sizes, 0.3, 0.8)
    ws = ConfigWorkspace(b, p)
    cfgs, counts = ws.dist.configs, ws.dist.count_matrices
    structured = np.stack([cfgs[:, i] == c for i in range(b.N) for c in range(q)]
                          + [counts[:, k, c] for k in range(b.s) for c in range(q)])
    structured = structured.astype(np.float64)
    gaussian = np.random.default_rng(q * 100 + b.N).standard_normal((4, len(ws.dist)))
    for fvals in (gaussian, structured):
        dsq, _ = ws.local_terms(fvals)
        reference = oracles.difference_sq_by_colors(ws, fvals)
        assert np.all(np.abs(dsq - reference) <= 1e-12 * np.maximum(1.0, np.abs(reference)))
        assert np.all(dsq >= 0.0)
    # the sum-of-squares form keeps dsq shift invariant: each site's m_f
    # carries a few ulps of the shift, where E f^2 - m_f^2 would carry ulps
    # of its square; e^f overflows at this shift, and only dsq is read
    shift = 1e6
    with np.errstate(over="ignore", invalid="ignore"):
        shifted, _ = ws.local_terms(structured + shift)
    assert np.all(shifted >= 0.0)
    unshifted, _ = ws.local_terms(structured)
    assert np.max(np.abs(shifted - unshifted)) <= 16 * b.N * np.finfo(np.float64).eps * shift


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
    d = ws.dist
    outputs = cond.nbytes + sum(
        a.nbytes for a in (d.configs, d.count_matrices, d.log_weights, d.probabilities)
    )
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
    ws = ConfigWorkspace(b, p)
    probs = ws.dist.probabilities
    rng = np.random.default_rng(17)
    f = rng.standard_normal(len(ws.dist))
    shift = 0.75

    def ent_exp(fv):
        ef = np.exp(fv)
        m = float(probs @ ef)
        return float(probs @ (ef * fv) - m * math.log(m))

    scale = math.exp(shift)
    assert ent_exp(f + shift) == pytest.approx(scale * ent_exp(f), rel=1e-10)
    dsq, cov0 = ws.local_terms(f)
    dsq_shift, cov1 = ws.local_terms(f + shift)
    assert float(cov1.sum()) == pytest.approx(scale * float(cov0.sum()), rel=1e-10)
    assert np.max(np.abs(dsq - dsq_shift)) <= 1e-12
    rhs0 = float(probs @ (dsq * np.exp(f)))
    rhs1 = float(probs @ (dsq_shift * np.exp(f + shift)))
    assert rhs1 == pytest.approx(scale * rhs0, rel=1e-10)
    # the squared-form entropy is NOT shift invariant for generic f
    assert entropy_functional((f + shift) ** 2, ws.dist) != pytest.approx(
        entropy_functional(f**2, ws.dist), rel=1e-3
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
