"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import itertools
import math
import time

import numpy as np

from blockpotts import (
    BlockStructure,
    ModelParams,
    Phase,
    SearchOptions,
    asymptotic_constants,
    concentration_report,
    count_matrix,
    critical_temperature,
    exact_distribution,
    free_energy_G,
    full_configuration_distribution,
    gamma1_exact,
    gamma1_floor,
    interaction_form,
    interdependence_matrix_exact,
    lsi_condition,
    matrix_norms,
    maximize_G,
    phi,
    potts_fixed_point_u,
    rate_J_prime,
    run_chain,
    structure_certificate,
    verify_lsi_suite,
)

from oracles import (brute_conditional, decoded_configurations, fit_inverse_n_coefficient,
                     gradient_G, pair_hamiltonian)


def _report(name, ok, started, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"{name} {state} ({time.perf_counter() - started:.1f}s) {detail}")
    assert ok, f"{name}: {detail}"


def _uniform_params(q, s, g, split=0.5):
    beta = g + (s - 1) * split
    alpha = g - split
    return ModelParams(q=q, s=s, alpha=alpha, beta=beta,
                       gamma=tuple([1.0 / s] * s))


def _blocks_with_gamma(sizes):
    total = sum(sizes)
    gamma = (1.0,) if len(sizes) == 1 else tuple(n / total for n in sizes)
    return BlockStructure(sizes=sizes), gamma


def test_ac01_hamiltonian_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        s = int(rng.integers(1, 5))
        while True:
            sizes = rng.integers(1, 31, size=s)
            if sizes.sum() <= 30:
                break
        blocks, gamma = _blocks_with_gamma(tuple(int(v) for v in sizes))
        q = int(rng.choice([3, 4, 5]))
        beta = float(rng.uniform(0.01, 3.0))
        alpha = float(rng.uniform(0.0, beta))
        params = ModelParams(q=q, s=s, alpha=alpha, beta=beta, gamma=gamma)
        cfg = rng.integers(0, q, size=blocks.N)
        h_pairs = pair_hamiltonian(cfg.tolist(), blocks.sizes, alpha, beta)
        h_form = -interaction_form(count_matrix(cfg, blocks, q), params) / (2.0 * blocks.N)
        worst = max(worst, abs(h_pairs - h_form) / max(1.0, abs(h_pairs)))
    _report("AC1", worst <= 1e-12, t0, f"worst relative gap {worst:.2e}")


def test_ac02_exact_oracle_equivalence():
    t0 = time.perf_counter()
    structures = [(n,) for n in range(1, 9)]
    for N in range(2, 9):
        structures.extend((n1, N - n1) for n1 in range(1, N))
    worst = 0.0
    for sizes in structures:
        blocks, gamma = _blocks_with_gamma(sizes)
        for beta in (0.1, 1.0):
            params = ModelParams(q=3, s=len(sizes), alpha=beta / 2, beta=beta,
                                 gamma=gamma)
            dist = exact_distribution(blocks, params)
            full = full_configuration_distribution(blocks, params)
            _, counts = decoded_configurations(blocks, 3)
            acc = {}
            for i in range(len(full)):
                key = tuple(int(v) for v in counts[i].ravel())
                acc[key] = acc.get(key, 0.0) + float(full.probabilities[i])
            tv = 0.0
            for i in range(len(dist)):
                key = tuple(int(v) for v in dist.support[i].ravel())
                tv += abs(float(dist.probabilities[i]) - acc.pop(key, 0.0))
            tv = 0.5 * (tv + sum(abs(v) for v in acc.values()))
            worst = max(worst, tv)
    _report("AC2", worst <= 1e-12, t0,
            f"{len(structures) * 2} grid points, worst TV {worst:.2e}")


def test_ac03_sampler_correctness():
    t0 = time.perf_counter()
    # (a) explicit kernel at N = 4: stationarity and detailed balance
    params = ModelParams(q=3, s=2, alpha=0.5, beta=1.0, gamma=(0.5, 0.5))
    blocks = BlockStructure(sizes=(2, 2))
    full = full_configuration_distribution(blocks, params)
    P, N = len(full), blocks.N
    K = np.zeros((P, P))
    place = 3 ** np.arange(N)
    configs, _ = decoded_configurations(blocks, 3)
    for idx in range(P):
        cfg = configs[idx].astype(np.int64)
        for i in range(N):
            probs = brute_conditional(cfg.tolist(), i, blocks.sizes, 3,
                                      params.alpha, params.beta)
            for c in range(3):
                K[idx, idx + (c - cfg[i]) * place[i]] += probs[c] / N
    pi = full.probabilities
    stat_gap = float(np.max(np.abs(pi @ K - pi)))
    flow = pi[:, None] * K
    db_gap = float(np.max(np.abs(flow - flow.T)))

    # (b) empirical count-matrix law after 1e6 sweeps at N = 6
    blocks6 = BlockStructure(sizes=(3, 3))
    dist = exact_distribution(blocks6, params)
    summary = run_chain(blocks6, params, sweeps=1_000_000, seed=2024)
    # one mixed-radix code per count matrix, entries in 0..N
    place = (blocks6.N + 1) ** np.arange(dist.support[0].size)
    support_codes = dist.support.reshape(len(dist), -1) @ place
    sample_codes = summary.samples.reshape(len(summary.samples), -1) @ place
    order = np.argsort(support_codes)
    slot = np.searchsorted(support_codes[order], sample_codes)
    assert np.array_equal(support_codes[order][slot], sample_codes)
    emp = np.zeros(len(dist))
    emp[order] = np.bincount(slot, minlength=len(dist))
    emp /= emp.sum()
    tv = 0.5 * float(np.abs(emp - dist.probabilities).sum())

    ok = stat_gap <= 1e-12 and db_gap <= 1e-12 and tv <= 0.01
    _report("AC3", ok, t0,
            f"stationarity {stat_gap:.2e}, detailed balance {db_gap:.2e}, TV {tv:.4f}")


def test_ac04_phase_transition():
    t0 = time.perf_counter()
    zeta = critical_temperature(3)
    ok = abs(zeta - 4 * math.log(2)) <= 1e-12
    detail = [f"zeta_3 {zeta:.6f}"]

    rep_sub = maximize_G(_uniform_params(3, 2, 2.5))
    ok &= rep_sub.phase is Phase.SUBCRITICAL and len(rep_sub.maximizers) == 1
    ok &= bool(np.allclose(rep_sub.maximizers[0], 1 / 6, atol=1e-12))

    p_sup = _uniform_params(3, 2, 3.0)
    rep_sup = maximize_G(p_sup)
    u3 = potts_fixed_point_u(3.0, 3)
    rhs = (1 - math.exp(-3.0 * u3)) / (1 + 2 * math.exp(-3.0 * u3))
    ok &= abs(u3 - rhs) <= 1e-12
    ok &= rep_sup.phase is Phase.SUPERCRITICAL and len(rep_sup.maximizers) == 3
    base = phi(u3, 3, 2)
    for i, m in enumerate(rep_sup.maximizers):
        expected = base.copy()
        expected[0], expected[i] = expected[i], expected[0]
        ok &= bool(np.allclose(m, np.tile(expected, (2, 1)), atol=1e-10))
    gap = rep_sup.sup_G - free_energy_G(np.full((2, 3), 1 / 6), p_sup)
    ok &= gap > 1e-6
    detail.append(f"G(nu1)-G(Q) {gap:.3e} at g=3")

    p_crit = _uniform_params(3, 2, zeta)
    rep_crit = maximize_G(p_crit)
    ok &= rep_crit.phase is Phase.CRITICAL
    vals = [free_energy_G(m, p_crit) for m in rep_crit.maximizers]
    tie = max(vals) - min(vals)
    ok &= tie <= 1e-8
    u_crit = potts_fixed_point_u(zeta, 3)
    ok &= abs(u_crit - 0.5) <= 1e-6
    detail.append(f"critical tie {tie:.1e}, u(zeta)={u_crit:.7f}")
    _report("AC4", bool(ok), t0, ", ".join(detail))


def test_ac05_critical_equation_certificates():
    t0 = time.perf_counter()
    zeta3 = critical_temperature(3)
    battery = [
        _uniform_params(3, 2, 2.5),
        _uniform_params(3, 2, 3.0),
        _uniform_params(3, 2, zeta3),
        _uniform_params(3, 3, 3.1, split=0.3),
        _uniform_params(4, 2, critical_temperature(4) + 0.2),
        ModelParams(q=3, s=2, alpha=2.4, beta=4.0, gamma=(0.4, 0.6)),
        ModelParams(q=3, s=2, alpha=0.5, beta=1.0, gamma=(0.3, 0.7)),
    ]
    opts = SearchOptions(restarts=16, seed=5)
    checked = 0
    worst_res = 0.0
    ok = True
    for params in battery:
        report = maximize_G(params, options=opts)
        for m in report.maximizers:
            cert = structure_certificate(m, params, tol=1e-9)
            ok &= cert["positive"] and cert["common_order"] and cert["at_most_two_values"]
            ok &= cert["residual_max"] <= 1e-8
            worst_res = max(worst_res, cert["residual_max"])
            checked += 1
    _report("AC5", bool(ok), t0,
            f"{checked} maximizers over {len(battery)} parameter sets, "
            f"worst residual {worst_res:.2e}")


def test_ac06_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    params = ModelParams(q=3, s=2, alpha=0.5, beta=1.0, gamma=(0.4, 0.6))
    gamma = np.array([0.4, 0.6])
    h = 1e-6
    worst = 0.0

    def raw_G(mu):
        col = mu.sum(axis=0)
        quad = (params.beta - params.alpha) * np.sum(mu * mu) + params.alpha * np.dot(col, col)
        return 0.5 * quad - float(np.sum(mu * np.log(mu)))

    for _ in range(100):
        mu = rng.dirichlet(np.full(3, 4.0), size=2) * gamma[:, None]
        mu = np.maximum(mu, 0.01)
        grad = gradient_G(mu, params)
        for k in range(2):
            for c in range(3):
                up, dn = mu.copy(), mu.copy()
                up[k, c] += h
                dn[k, c] -= h
                fd = (raw_G(up) - raw_G(dn)) / (2 * h)
                rel = abs(grad[k, c] - fd) / max(1.0, abs(grad[k, c]))
                worst = max(worst, rel)
    _report("AC6", worst <= 1e-6, t0, f"worst relative gradient gap {worst:.2e}")


def test_ac07_lsi_hypothesis_and_norms():
    t0 = time.perf_counter()
    q, beta, alpha = 3, 0.1, 0.05
    ok = lsi_condition(q, beta)
    asymptote = 2 * q * beta * math.exp(beta)
    norms = {}
    g1_ok = True
    for N in (6, 8, 10):
        blocks = BlockStructure(sizes=(N // 2, N // 2))
        params = ModelParams(q=q, s=2, alpha=alpha, beta=beta, gamma=(0.5, 0.5))
        J = interdependence_matrix_exact(blocks, params)
        inf_norm, _ = matrix_norms(J)
        norms[N] = inf_norm
        g1 = gamma1_exact(blocks, params)
        g1_ok &= g1 >= gamma1_floor(q, beta)
    _, slope = fit_inverse_n_coefficient(norms)
    c = abs(slope)
    ok &= c > 0
    ok &= all(norms[N] <= asymptote + c / N for N in norms)
    ns = sorted(norms)
    pair_slopes = [
        (norms[a] - norms[b]) / (1.0 / a - 1.0 / b)
        for a, b in itertools.combinations(ns, 2)
    ]
    same_sign = all(s < 0 for s in pair_slopes) or all(s > 0 for s in pair_slopes)
    spread = max(abs(s) for s in pair_slopes) / min(abs(s) for s in pair_slopes)
    ok &= same_sign and spread < 3.0
    ok &= g1_ok
    _report("AC7", bool(ok), t0,
            f"inf_norms {[f'{norms[n]:.5f}' for n in ns]} vs asymptote "
            f"{asymptote:.4f}, fitted c {c:.4f}, slope spread {spread:.2f}")


def test_ac08_lsi_inequality_suite():
    t0 = time.perf_counter()
    ok = True
    details = []
    for sizes in ((2, 2), (2, 3), (3, 3)):
        blocks, gamma = _blocks_with_gamma(sizes)
        params = ModelParams(q=3, s=2, alpha=0.05, beta=0.1, gamma=gamma)
        report = verify_lsi_suite(blocks, params, num_f=100, seed=808)
        ok &= report.violations == 0
        details.append(
            f"N={sum(sizes)}: {report.num_observables} observables, "
            f"max ratio {max(report.worst_ratio.values()):.3f}"
        )
    _report("AC8", bool(ok), t0, "; ".join(details))


def test_ac09_concentration():
    t0 = time.perf_counter()
    params = ModelParams(q=3, s=2, alpha=0.05, beta=0.1, gamma=(0.5, 0.5))
    blocks = BlockStructure(sizes=(100, 100))
    constants = asymptotic_constants(3, 0.1)
    summary = run_chain(blocks, params, sweeps=4000, seed=909)
    t_grid = np.linspace(0.0, 100.0, 10)
    flagged = []
    # a flag needs a tail above a bound below 1.  A count lies in [0, n], so
    # at 2t > n the samples at least t from their mean all lie on one side
    # of it, and the mean caps their fraction at (n - t) / n; at 2t <= n it
    # can reach 1.  A cell where no sample array beats the bound cannot flag
    flaggable = 0
    for k in range(2):
        n = blocks.sizes[k]
        for c in range(3):
            rows = concentration_report(summary, constants, k, c, t_grid)
            flagged.extend(r for r in rows if r.flagged)
            flaggable += sum(r.bound < 1.0 and (1.0 if 2 * r.t <= n else (n - r.t) / n) > r.bound
                             for r in rows)
    evidence = ("so a wrong sampler could fail AC9 there" if flaggable else
                "so no sample array can fail AC9 here and it is not evidence")
    _report("AC9", not flagged, t0,
            f"60 (t, k, c) cells checked, {len(flagged)} flags, "
            f"sigma3^2 {constants.sigma3_sq:.2f}; {flaggable} cells could flag at all, "
            f"{evidence}")


def test_ac10_ldp_trend():
    t0 = time.perf_counter()
    params = ModelParams(q=3, s=2, alpha=0.5, beta=1.0, gamma=(0.5, 0.5))
    target = np.array([[0.2, 0.2, 0.1], [0.2, 0.2, 0.1]])  # rows sum to 1/2
    report = maximize_G(params, options=SearchOptions(restarts=8, seed=10))
    jp = rate_J_prime(target, params, report.sup_G).value
    gaps = []
    for N in (20, 40, 80):
        blocks = BlockStructure(sizes=(N // 2, N // 2))
        B = np.rint(target * N).astype(np.int64)
        dist = exact_distribution(blocks, params)
        match = np.nonzero((dist.support == B).all(axis=(1, 2)))[0]
        log_p = float(dist.log_weights[match[0]] - dist.log_Z)
        gaps.append(abs(-log_p / N - jp))
    ok = gaps[0] > gaps[1] > gaps[2]
    _report("AC10", bool(ok), t0,
            f"J'(target) {jp:.5f}, finite-N gaps {[f'{g:.4f}' for g in gaps]}")
