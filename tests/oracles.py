"""Independent brute-force implementations used as oracles.

Everything here is written as plainly as possible (python loops, literal
definitions) and deliberately shares no code path with the package, so the
two sides of every comparison stay independent.
"""

import itertools
import math

import numpy as np

from blockpotts.errors import InvalidInputError


def pair_hamiltonian(config, sizes, alpha, beta):
    """Energy from the literal double sum over ordered site pairs, i == j included."""
    blocks = []
    for k, n in enumerate(sizes):
        blocks.extend([k] * n)
    N = len(blocks)
    intra = 0
    inter = 0
    for i in range(N):
        for j in range(N):
            if config[i] != config[j]:
                continue
            if blocks[i] == blocks[j]:
                intra += 1
            else:
                inter += 1
    return -(beta * intra + alpha * inter) / (2.0 * N)


def brute_force_law(sizes, q, alpha, beta):
    """Exact Gibbs probabilities over all q^N configurations, as a dict.

    Keys are color tuples, values probabilities; plain exp/sum arithmetic.
    """
    N = sum(sizes)
    weights = {}
    for config in itertools.product(range(q), repeat=N):
        weights[config] = math.exp(-pair_hamiltonian(config, sizes, alpha, beta))
    Z = sum(weights.values())
    return {cfg: w / Z for cfg, w in weights.items()}


def count_key(config, sizes, q):
    """Count matrix of a configuration as a flat tuple."""
    out = []
    pos = 0
    for n in sizes:
        row = [0] * q
        for i in range(pos, pos + n):
            row[config[i]] += 1
        out.extend(row)
        pos += n
    return tuple(out)


def recursive_compositions(n, q):
    """Compositions of n into q parts, last coordinate slowest, by recursion
    on the last coordinate: the reference order of the stars-and-bars
    enumeration."""
    if q == 1:
        return np.array([[n]], dtype=np.int64)
    parts = []
    for last in range(n + 1):
        head = recursive_compositions(n - last, q - 1)
        col = np.full((head.shape[0], 1), last, dtype=np.int64)
        parts.append(np.hstack([head, col]))
    return np.vstack(parts)


def brute_count_law(sizes, q, alpha, beta):
    """Push-forward of the brute-force configuration law under the count map."""
    law = brute_force_law(sizes, q, alpha, beta)
    out = {}
    for cfg, p in law.items():
        key = count_key(cfg, sizes, q)
        out[key] = out.get(key, 0.0) + p
    return out


def brute_conditional(config, site, sizes, q, alpha, beta):
    """Conditional law of one site from ratios of joint brute-force weights.

    The weights are normalised in log space, so large beta cannot overflow.
    """
    config = list(config)
    log_weights = [-pair_hamiltonian(config[:site] + [c] + config[site + 1:], sizes, alpha, beta)
                   for c in range(q)]
    top = max(log_weights)
    weights = [math.exp(lw - top) for lw in log_weights]
    total = sum(weights)
    return [w / total for w in weights]


def brute_interdependence(sizes, q, alpha, beta):
    """Worst-case conditional TV response, straight from the definition.

    For every ordered pair (i, j), i != j, enumerate all configurations of
    the other sites and all color pairs at j, and take the sup of the TV
    distance between site i's conditionals.
    """
    N = sum(sizes)
    J = np.zeros((N, N))
    others_sets = {}
    for i in range(N):
        for j in range(N):
            if i == j:
                continue
            rest = [site for site in range(N) if site not in (i, j)]
            worst = 0.0
            for fill in itertools.product(range(q), repeat=len(rest)):
                base = [0] * N
                for site, color in zip(rest, fill):
                    base[site] = color
                for a in range(q):
                    for b in range(a + 1, q):
                        cfg_a = list(base)
                        cfg_a[j] = a
                        cfg_b = list(base)
                        cfg_b[j] = b
                        pa = brute_conditional(cfg_a, i, sizes, q, alpha, beta)
                        pb = brute_conditional(cfg_b, i, sizes, q, alpha, beta)
                        tv = 0.5 * sum(abs(x - y) for x, y in zip(pa, pb))
                        worst = max(worst, tv)
            J[i, j] = worst
    return J


def binomial_pmf(n, p):
    """Binomial(n, p) probabilities as an array of length n + 1."""
    return np.array([math.comb(n, v) * p**v * (1 - p) ** (n - v) for v in range(n + 1)])


def block_free_energy(mu, alpha, beta):
    """G(mu) = <mu, A mu> / 2 - sum mu log mu of one BLOCK matrix, from the definition."""
    col = mu.sum(axis=0)
    quad = (beta - alpha) * np.square(mu).sum() + alpha * np.dot(col, col)
    return 0.5 * quad - np.sum(np.where(mu > 0.0, mu * np.log(np.maximum(mu, 1e-300)), 0.0))


def block_free_energy_gradient(mu, alpha, beta):
    """Entrywise gradient (beta - alpha) mu + alpha colsum - log mu - 1 of G."""
    return (beta - alpha) * mu + alpha * mu.sum(axis=0) - np.log(np.maximum(mu, 1e-300)) - 1.0


def two_column_point(r, mu_plus, gamma, q):
    """q-r small columns (fixed by the row sums gamma), then r columns of mu_plus."""
    mu_minus = (gamma - r * mu_plus) / (q - r)
    return np.column_stack([mu_minus] * (q - r) + [mu_plus] * r)


def two_column_ascent_direction(r, mu_plus, gamma, q, alpha, beta):
    """r times the derivative of G along mu_plus on the two-column manifold."""
    mu_minus = (gamma - r * mu_plus) / (q - r)
    h = ((beta - alpha) * (mu_plus - mu_minus)
         + alpha * (mu_plus.sum() - mu_minus.sum())
         - np.log(mu_plus / mu_minus))
    return r * h


def project_row_simplex(x, total):
    """Euclidean projection of one vector onto {y >= 0, sum(y) = total}, by sorting."""
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - total
    rho = np.nonzero(u * np.arange(1, x.size + 1) > css)[0][-1]
    return np.maximum(x - css[rho] / (rho + 1.0), 0.0)


def projected_ascent(x0, value, gradient, project, max_iter, step_tol, grad_tol):
    """One restart of projected gradient ascent, written as a plain loop.

    The line search starts from the last accepted step, doubles it on
    success and halves it until the value rises or the step falls below
    step_tol.  The ascent stops on no ascent, a move below step_tol or a
    projected gradient below grad_tol.  Returns (x, value, iterations,
    stopped before max_iter).
    """
    x = project(np.asarray(x0, dtype=np.float64))
    fx = value(x)
    step = 1.0
    for iteration in range(1, max_iter + 1):
        grad = gradient(x)
        t = step
        y, fy = x, fx
        for _ in range(60):
            cand = project(x + t * grad)
            fcand = value(cand)
            if fcand > fx:
                y, fy, step = cand, fcand, t * 2.0
                break
            t *= 0.5
            if t < step_tol:
                break
        if fy <= fx:
            return x, fx, iteration, True
        moved = np.max(np.abs(y - x))
        x, fx = y, fy
        if moved < step_tol or np.max(np.abs(project(x + grad) - x)) < grad_tol:
            return x, fx, iteration, True
    return x, fx, max_iter, False


def w_profile(x, q, r, s):
    """Profile function whose block sum gives G at two-column critical points.

    w(x) = -((q-r) + q (1 - srx)) log((1 - srx)/(s (q-r))) - r (1 + sqx) log x
    on the domain 0 < x < 1/(sr); G at such a critical point with large
    values p_k equals g/(2q) + sum_k w(p_k) / (2qs).
    """
    if not 0.0 < x < 1.0 / (s * r):
        raise InvalidInputError(f"x must lie in (0, {1.0 / (s * r)}), got {x}")
    rest = (1.0 - s * r * x) / (s * (q - r))
    return float(
        -((q - r) + q * (1.0 - s * r * x)) * math.log(rest) - r * (1.0 + s * q * x) * math.log(x)
    )


def w_profile_prime(x, q, r, s):
    """Derivative of w_profile, used to diagnose the roots of the reduced problem.

    w'(x) = srq log((1 - srx)/(s (q-r) x)) + r (sqx - 1) / (x (1 - srx));
    it vanishes at the flat point x = 1/(sq).
    """
    if not 0.0 < x < 1.0 / (s * r):
        raise InvalidInputError(f"x must lie in (0, {1.0 / (s * r)}), got {x}")
    ratio = (1.0 - s * r * x) / (s * (q - r) * x)
    return float(
        s * r * q * math.log(ratio) + r * (s * q * x - 1.0) / (x * (1.0 - s * r * x))
    )


def difference_operator_sq(f, config, blocks, params):
    """|df|^2 at one configuration, from the definition with brute conditionals.

    Sums over sites the conditional variance-like integral
    int (f(w) - f(w with the site resampled))^2 dmu(. | rest).
    """
    config = np.asarray(config)
    fx = float(f(config))
    total = 0.0
    for i in range(blocks.N):
        cond = brute_conditional(config, i, blocks.sizes, params.q, params.alpha, params.beta)
        for c in range(params.q):
            if c == config[i]:
                continue
            other = config.copy()
            other[i] = c
            d = fx - float(f(other))
            total += cond[c] * d * d
    return total


def covariance_term(f, site, workspace):
    """Site summand of the covariance-form inequality: E Cov_i(f, e^f) >= 0.

    f holds the observable's values on every configuration.  Unlike the
    rest of this module, a thin wrapper over the package's
    ConfigWorkspace.covariance_terms, which the tests check against a loop.
    """
    return float(workspace.covariance_terms(f)[site])


def fit_inverse_n_coefficient(norms_by_n):
    """Least-squares (a, c) of norm ~ a + c/N over a {N: norm} dict."""
    ns = np.asarray(sorted(norms_by_n), dtype=np.float64)
    ys = np.asarray([norms_by_n[int(n)] for n in ns], dtype=np.float64)
    X = np.vstack([np.ones_like(ns), 1.0 / ns]).T
    coef, *_ = np.linalg.lstsq(X, ys, rcond=None)
    return float(coef[0]), float(coef[1])


def sup_term_for_J(sup_G, q, gamma):
    """The sup term of rate_J from sup G over C(gamma).

    Follows from sum (Gamma nu) log(Gamma nu) = I(nu) - log q + sum_k
    gamma_k log gamma_k, the change of variables between the two LDP
    pictures.
    """
    return sup_G - math.log(q) + sum(g * math.log(g) for g in gamma if g > 0.0)
