"""Heat-bath sampler: conditionals, kernel exactness, chains, diagnostics."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blockpotts import (
    BlockStructure,
    InvalidInputError,
    ModelParams,
    asymptotic_constants,
    concentration_report,
    count_matrix,
    exact_distribution,
    exact_observable_distribution,
    full_configuration_distribution,
    run_chain,
)
from blockpotts import glauber
from blockpotts.glauber import MAX_BETA, UNROLL_MAX_Q, _weight_tables

import oracles
from oracles import brute_conditional, count_matrix_support


def make(q, sizes, alpha, beta):
    total = sum(sizes)
    gamma = (1.0,) if len(sizes) == 1 else tuple(n / total for n in sizes)
    p = ModelParams(q=q, s=len(sizes), alpha=alpha, beta=beta, gamma=gamma)
    return p, BlockStructure(sizes=sizes)


def table_conditional(config, site, p, b):
    """A site's conditional as run_chain draws it: weights read from the two
    exponential tables at the leave-one-out counts, normalised."""
    ein, eout = _weight_tables(b, p)
    B = count_matrix(config, b, p.q)
    k = b.site_blocks[site]
    B[k, config[site]] -= 1
    tot = B.sum(axis=0)
    w = np.array([ein[B[k, c]] * eout[tot[c]] for c in range(p.q)])
    return w / w.sum()


def brute(config, site, p, b):
    return np.asarray(brute_conditional(list(config), site, b.sizes, p.q, p.alpha, p.beta))


def test_field_zero_couplings_gives_uniform():
    p, b = make(3, (2, 2), 0.0, 0.0)
    assert np.array_equal(table_conditional([0, 1, 2, 0], 1, p, b), np.full(3, 1 / 3))


def test_field_all_other_sites_one_color():
    p, b = make(3, (3, 3), 0.5, 1.0)
    probs = table_conditional([0] * 6, 0, p, b)
    N, nk = 6, 3
    expected = (1.0 * (nk - 1) + 0.5 * (N - nk)) / N
    # the field of color 0 above that of the empty colors 1 and 2
    assert math.log(probs[0] / probs[1]) == pytest.approx(expected, abs=1e-15)
    assert probs[1] == probs[2]
    assert np.max(np.abs(probs - brute([0] * 6, 0, p, b))) <= 1e-12


def test_field_matches_exact_conditional_randomly():
    rng = np.random.default_rng(11)
    p, b = make(3, (3, 3), 0.45, 0.9)
    for _ in range(100):
        cfg = rng.integers(0, 3, size=6)
        site = int(rng.integers(0, 6))
        probs = table_conditional(cfg, site, p, b)
        assert np.max(np.abs(probs - brute(cfg, site, p, b))) <= 1e-12


def test_conditional_floor_and_normalization():
    rng = np.random.default_rng(12)
    p, b = make(3, (4, 3), 0.3, 0.8)
    floor = 1.0 / (1.0 + 2.0 * math.exp(0.8))
    for _ in range(200):
        cfg = rng.integers(0, 3, size=7)
        probs = table_conditional(cfg, int(rng.integers(0, 7)), p, b)
        assert abs(probs.sum() - 1.0) <= 1e-14
        assert probs.min() >= floor


def test_step_near_deterministic_conditional():
    # all other sites color 1, beta large: the site lands on color 1 and no
    # site ever leaves it
    p, b = make(3, (6,), 0.0, 40.0)
    cfg = np.ones(6, dtype=int)
    cfg[0] = 2
    assert table_conditional(cfg, 0, p, b)[1] >= 1.0 - 1e-6
    summary = run_chain(b, p, sweeps=2000, seed=99, init=cfg)
    assert summary.samples.shape == (2000, 1, 3)
    assert np.all(summary.samples == [[0, 6, 0]])
    replay = oracles.heat_bath_replay(b, p, sweeps=2000, seed=99, init=cfg)
    assert np.array_equal(summary.samples, replay)


def _heat_bath_kernel(p, b):
    """Explicit random-scan transition matrix over all configurations."""
    full = full_configuration_distribution(b, p)
    P = len(full)
    N = b.N
    K = np.zeros((P, P))
    place = p.q ** np.arange(N)
    configs, _ = oracles.decoded_configurations(b, p.q)
    for idx in range(P):
        cfg = configs[idx].astype(np.int64)
        for i in range(N):
            probs = brute(cfg.tolist(), i, p, b)
            for c in range(p.q):
                j = idx + (c - cfg[i]) * place[i]
                K[idx, j] += probs[c] / N
    return full, K


def test_kernel_stationarity_and_detailed_balance_N4():
    p, b = make(3, (2, 2), 0.5, 1.0)
    full, K = _heat_bath_kernel(p, b)
    pi = full.probabilities
    assert np.max(np.abs(K.sum(axis=1) - 1.0)) <= 1e-12
    # stationarity: pi K = pi
    assert np.max(np.abs(pi @ K - pi)) <= 1e-12
    # detailed balance on single-site-differing pairs
    flow = pi[:, None] * K
    assert np.max(np.abs(flow - flow.T)) <= 1e-12


def test_run_chain_deterministic_for_fixed_seed():
    p, b = make(3, (3, 3), 0.5, 1.0)
    s1 = run_chain(b, p, sweeps=500, seed=123)
    s2 = run_chain(b, p, sweeps=500, seed=123)
    assert np.array_equal(s1.samples, s2.samples)
    s3 = run_chain(b, p, sweeps=500, seed=124)
    assert not np.array_equal(s1.samples, s3.samples)


def test_run_chain_sample_count_and_audit():
    # the maintained counts against a replay that recounts before every update
    p, b = make(3, (3, 3), 0.5, 1.0)
    summary = run_chain(b, p, sweeps=1000, thin=7, seed=3)
    assert summary.samples.shape == (1000 // 7, 2, 3)
    assert np.all(summary.samples.sum(axis=2) == np.array([3, 3]))
    replay = oracles.heat_bath_replay(b, p, sweeps=1000, thin=7, seed=3)
    assert np.array_equal(summary.samples, replay)


@pytest.mark.parametrize("q, sizes", [(4, (3, 4)), (3, (2, 2, 3))])
@pytest.mark.parametrize("alpha, beta", [(0.7, 2.3), (700.0, MAX_BETA)])
def test_weight_tables_match_exact_conditional(q, sizes, alpha, beta):
    # every count matrix B and every color c a site of block k can leave
    p, b = make(q, sizes, alpha, beta)
    first_site = np.cumsum((0,) + sizes[:-1])
    errors = []
    for B in count_matrix_support(sizes, q, cap=10_000):
        config = np.concatenate([np.repeat(np.arange(q), row) for row in B]).tolist()
        for k, c in zip(*np.nonzero(B)):
            site = int(first_site[k] + B[k, :c].sum())
            probs = table_conditional(config, site, p, b)
            errors.append(np.max(np.abs(probs - brute(config, site, p, b))))
    assert np.max(errors) <= 1e-12  # NaN fails too


def test_run_chain_beta_table_bound():
    p, b = make(3, (3, 4), 700.0, MAX_BETA)
    ein, eout = _weight_tables(b, p)
    assert 0.0 < min(ein) * min(eout) and p.q * max(ein) * max(eout) < math.inf
    summary = run_chain(b, p, sweeps=300, seed=4)
    assert summary.samples.shape == (300, 2, 3)
    assert np.all(summary.samples.sum(axis=2) == np.array([3, 4]))
    p_over, _ = make(3, (3, 4), 700.0, 1400.5)
    with pytest.raises(InvalidInputError, match="1400"):
        run_chain(b, p_over, sweeps=10, seed=4)


def test_run_chain_uniform_init():
    p, b = make(3, (3, 3), 0.5, 1.0)
    summary = run_chain(b, p, sweeps=1, seed=0, init=2, burn_in=0, thin=1)
    assert summary.samples.shape == (1, 2, 3)


def test_weak_coupling_mean_near_uniform():
    p, b = make(3, (5, 5), 0.0005, 0.001)
    summary = run_chain(b, p, sweeps=20_000, seed=17)
    n = summary.samples.shape[0]
    # independent-sampling standard error of b_kc/N around gamma_k/q
    se = math.sqrt((1 / 6) * (1 - 1 / 6) / (10 * n)) * 5 / 10
    dev = np.max(np.abs(summary.samples.mean(axis=0) / b.N - 1 / 6))
    assert dev <= 3 * max(se, 1e-4) + 5e-3


def test_chain_tv_against_exact_law_moderate_run():
    p, b = make(3, (3, 3), 0.5, 1.0)
    dist = exact_distribution(b, p)
    summary = run_chain(b, p, sweeps=200_000, seed=7)
    keys = {tuple(dist.support[i].ravel()): i for i in range(len(dist))}
    emp = np.zeros(len(dist))
    for sample in summary.samples:
        emp[keys[tuple(sample.ravel())]] += 1.0
    emp /= emp.sum()
    tv = 0.5 * np.abs(emp - dist.probabilities).sum()
    assert tv <= 0.02


def test_tail_estimate_trivial_values():
    p, b = make(3, (3, 3), 0.5, 1.0)
    summary = run_chain(b, p, sweeps=2000, seed=1)
    # the tails do not depend on the constants, which set only the bound
    rows = concentration_report(summary, asymptotic_constants(3, 0.1), 0, 0,
                                [0.0, b.sizes[0] + 1.0])
    assert rows[0].tail == 1.0
    assert rows[1].tail == 0.0


def test_tail_estimate_matches_exact_law_N8():
    p, b = make(3, (4, 4), 0.25, 0.5)
    dist = exact_distribution(b, p)
    law = exact_observable_distribution(dist, 0, 0)
    values = np.arange(law.size)
    mean = float(law @ values)
    summary = run_chain(b, p, sweeps=100_000, seed=23)
    n = summary.samples.shape[0]
    emp_mean = summary.samples[:, 0, 0].mean()
    t_grid = (1.0, 2.0, 3.0)
    rows = concentration_report(summary, asymptotic_constants(3, 0.1), 0, 0, t_grid)
    for t, row in zip(t_grid, rows):
        exact_tail = float(law[np.abs(values - mean) >= t].sum())
        emp_tail = row.tail
        se = math.sqrt(exact_tail * (1 - exact_tail) / n)
        # empirical centering differs from the exact mean by O(1/sqrt(n))
        assert abs(emp_tail - exact_tail) <= 5 * se + 0.01
    assert abs(emp_mean - mean) <= 0.05


REPLAY_SIZES = {1: (6,), 2: (3, 4), 3: (2, 3, 2), 4: (2, 1, 3, 2)}


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [3, 4, 5, 6, 8, UNROLL_MAX_Q + 1])
def test_sweep_function_equals_the_replay(q, s):
    # the unrolled sweeps (and the plain loop just above UNROLL_MAX_Q) give
    # the replay's samples byte for byte: every thin, burn-in and init kind
    p, b = make(q, REPLAY_SIZES[s], 0.8, 4.0)
    explicit = (np.arange(b.N) * 5) % q
    for (thin, burn_in), init in itertools.product(
            [(1, 0), (1, None), (3, 0), (3, None)], ["random", q - 1, explicit]):
        seed = q + 10 * s + thin
        summary = run_chain(b, p, sweeps=12, thin=thin, seed=seed, init=init, burn_in=burn_in)
        replay = oracles.heat_bath_replay(b, p, sweeps=12, thin=thin, seed=seed, init=init,
                                          burn_in=burn_in)
        assert summary.samples.shape == (12 // thin, s, q)
        assert np.array_equal(summary.samples, replay)


def test_sweep_function_is_built_once_per_q():
    p, b = make(7, (3, 4), 0.5, 1.0)
    glauber._sweeps.cache_clear()
    run_chain(b, p, sweeps=3, seed=1)
    run_chain(b, p, sweeps=5, seed=2)
    info = glauber._sweeps.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_sweep_function_above_the_bound_does_not_grow_with_q():
    # the plain-loop body keeps a build small at any q: an unrolled one
    # grows by about 13 kB per color, and the CLI admits q up to 2^20
    size = len(glauber._sweeps(glauber.UNROLL_MAX_Q + 1).__code__.co_code)
    assert len(glauber._sweeps(4 * glauber.UNROLL_MAX_Q).__code__.co_code) == size
    assert size < len(glauber._sweeps(glauber.UNROLL_MAX_Q).__code__.co_code)


def test_import_builds_no_sweep_function():
    code = ("import blockpotts\n"
            "from blockpotts import glauber\n"
            "assert glauber._sweeps.cache_info().currsize == 0\n")
    env = dict(os.environ, PYTHONPATH=str(Path(glauber.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("option, value, message", [
    ("sweeps", 5.5, "sweeps"), ("sweeps", True, "sweeps"), ("thin", 2.0, "thin"),
    ("thin", True, "thin"), ("burn_in", 1.5, "burn_in"), ("burn_in", False, "burn_in"),
    ("init", True, "configuration"), ("seed", -1, "seed"), ("seed", 1.0, "seed"),
    ("seed", True, "seed"),
])
def test_run_chain_refuses_bad_options(option, value, message):
    # a bool init is no color: it is read, and refused, as a configuration
    p, b = make(3, (3, 3), 0.5, 1.0)
    kwargs = {"sweeps": 10, option: value}
    with pytest.raises(InvalidInputError, match=message):
        run_chain(b, p, **kwargs)


def test_run_chain_accepts_numpy_integers():
    p, b = make(3, (3, 3), 0.5, 1.0)
    got = run_chain(b, p, np.int64(10), thin=np.int32(2), seed=np.uint32(3),
                    burn_in=np.int64(1), init=np.int64(2)).samples
    assert np.array_equal(got, run_chain(b, p, 10, thin=2, seed=3, burn_in=1, init=2).samples)
