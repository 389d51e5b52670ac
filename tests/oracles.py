"""Independent brute-force implementations used as oracles.

Everything here is written as plainly as possible (python loops, literal
definitions) and deliberately shares no code path with the package, so the
two sides of every comparison stay independent.  The exceptions are the two
LSI references at the end, which take the package's leave-two-out fields and
site laws and pin only the algebra the package applies to them.
"""

import itertools
import math

import numpy as np

from blockpotts.errors import InvalidInputError
from blockpotts.exact import site_view
from blockpotts.lsi import _loo_fields_by_color


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


def two_column_point(r, mu_plus, gamma, q):
    """q-r small columns (fixed by the row sums gamma), then r columns of mu_plus."""
    mu_minus = (gamma - r * mu_plus) / (q - r)
    return np.column_stack([mu_minus] * (q - r) + [mu_plus] * r)


def two_column_reduced_gradient(r, mu_plus, gamma, q, alpha, beta):
    """h_k: derivative of G at a large entry of row k minus at a small one."""
    mu_minus = (gamma - r * mu_plus) / (q - r)
    return ((beta - alpha) * (mu_plus - mu_minus)
            + alpha * (mu_plus.sum() - mu_minus.sum())
            - np.log(mu_plus / mu_minus))


def two_column_newton(r, mu_plus, gamma, q, alpha, beta, max_iter, tol):
    """Undamped Newton on the reduced gradient h, written as a plain loop.

    Returns the first point with max|h| below tol, or None at the first
    step that leaves the open box gamma/q < mu_plus < gamma/r or does not
    shrink max|h|, or after max_iter steps.
    """
    lo, hi = gamma / q, gamma / r
    x = np.clip(mu_plus, lo + 1e-14, hi - 1e-14)
    s = x.size
    h = two_column_reduced_gradient(r, x, gamma, q, alpha, beta)
    for _ in range(max_iter):
        if np.max(np.abs(h)) < tol:
            return x
        mu_minus = (gamma - r * x) / (q - r)
        jac = np.empty((s, s))
        for k in range(s):
            for j in range(s):
                jac[k, j] = q / (q - r) * ((beta - alpha) * (k == j) + alpha)
            jac[k, k] -= 1.0 / x[k] + r / (q - r) / mu_minus[k]
        y = x - np.linalg.solve(jac, h)
        if not (np.all(y > lo) and np.all(y < hi)):
            return None
        hy = two_column_reduced_gradient(r, y, gamma, q, alpha, beta)
        if not np.max(np.abs(hy)) < np.max(np.abs(h)):
            return None
        x, h = y, hy
    return x if np.max(np.abs(h)) < tol else None


def mean_field_ascent(mu0, gamma, alpha, beta, max_iter, step_tol, newton=None,
                      handoff_every=None):
    """One restart of the mean-field map mu_k -> gamma_k softmax((A mu)_k), as a plain loop.

    Each step rebuilds every row from the literal field (beta - alpha) mu_kc
    + alpha colsum_c.  The restart stops when a step moves no entry by
    step_tol or more.  With newton (a matrix -> root matrix or None), after
    every handoff_every-th step it also stops at newton's root when that
    exists and its value is at least the restart's.  Returns (x, value,
    steps, stopped before max_iter).
    """
    x = np.array(mu0, dtype=np.float64)
    s, q = x.shape
    for iteration in range(1, max_iter + 1):
        col = [sum(x[k, c] for k in range(s)) for c in range(q)]
        y = np.empty_like(x)
        for k in range(s):
            field = np.array([(beta - alpha) * x[k, c] + alpha * col[c] for c in range(q)])
            weights = np.exp(field - field.max())
            y[k] = gamma[k] * weights / weights.sum()
        moved = np.max(np.abs(y - x))
        x = y
        if moved < step_tol:
            return x, block_free_energy(x, alpha, beta), iteration, True
        if newton is not None and iteration % handoff_every == 0:
            root = newton(x)
            if root is not None:
                value = block_free_energy(root, alpha, beta)
                if value >= block_free_energy(x, alpha, beta):
                    return root, value, iteration, True
    return x, block_free_energy(x, alpha, beta), max_iter, False


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


def covariance_term(f, site, blocks, params):
    """Site summand of the covariance-form inequality, E Cov_site(f, e^f),
    from the definition: the brute-force law, brute conditionals, and f a
    function of a configuration."""
    law = brute_force_law(blocks.sizes, params.q, params.alpha, params.beta)
    total = 0.0
    for config, prob in law.items():
        cond = brute_conditional(config, site, blocks.sizes, params.q, params.alpha, params.beta)
        values = []
        for c in range(params.q):
            other = np.array(config)
            other[site] = c
            values.append(float(f(other)))
        m_f = sum(w * v for w, v in zip(cond, values))
        m_e = sum(w * math.exp(v) for w, v in zip(cond, values))
        m_fe = sum(w * v * math.exp(v) for w, v in zip(cond, values))
        total += prob * (m_fe - m_f * m_e)
    return total


def block_of(blocks, site):
    """Block index of a site: blocks hold consecutive runs of sites, in order."""
    start = 0
    for k, n in enumerate(blocks.sizes):
        if start <= site < start + n:
            return k
        start += n
    raise InvalidInputError(f"site {site} out of range [0, {blocks.N})")


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


def recolored_tv(fields, boost):
    """TV distance between site i's conditionals for every color pair a < b
    at site j, shape (q(q-1)/2, ...), from the definition: half the L1
    distance between softmax(fields + boost e_a) and softmax(fields + boost
    e_b), with both softmaxes over the color axis 0 of fields (q, ...)."""
    fields = np.asarray(fields, dtype=np.float64)
    q = fields.shape[0]
    # shifted[a] is the field of site i when site j has color a
    shifted = fields[None] + boost * np.eye(q).reshape(q, q, *(1,) * (fields.ndim - 1))
    weights = np.exp(shifted - shifted.max(axis=1, keepdims=True))
    probs = weights / weights.sum(axis=1, keepdims=True)
    first, second = np.triu_indices(q, 1)
    return 0.5 * np.abs(probs[first] - probs[second]).sum(axis=1)


def interdependence_by_recolored_softmax(blocks, params):
    """Interdependence matrix with every recolored conditional spelled out:
    recolored_tv on the package's leave-two-out fields of each block pair."""
    table = np.zeros((blocks.s, blocks.s))
    for ki in range(blocks.s):
        for kj in range(blocks.s):
            reduced = list(blocks.sizes)
            reduced[ki] -= 1
            reduced[kj] -= 1
            if min(reduced) < 0:
                continue
            fields = _loo_fields_by_color(reduced, ki, params, blocks.N, cap=10**7)
            boost = (params.beta if ki == kj else params.alpha) / blocks.N
            table[ki, kj] = recolored_tv(fields, boost).max()
    J = table[blocks.site_blocks[:, None], blocks.site_blocks[None, :]]
    np.fill_diagonal(J, 0.0)
    return J


def difference_sq_by_colors(workspace, fvals):
    """|df|^2 at every configuration, shape (..., P), in the difference form
    sum_i sum_c cond_i(c) (f(x) - f(x with x_i = c))^2, one color at a time
    on the package's site-i view and site laws."""
    fvals = np.asarray(fvals, dtype=np.float64)
    q = workspace.params.q
    out = np.zeros(fvals.shape)
    for i in range(workspace.blocks.N):
        site_cond, _ = workspace._site_laws(i)
        f = site_view(fvals, i, q)
        acc = site_view(out, i, q)
        for c in range(q):
            acc += (f - f[..., c : c + 1, :]) ** 2 * site_cond[:, c : c + 1, :]
    return out
