"""Independent brute-force implementations used as oracles.

Everything here is written as plainly as possible (python loops, literal
definitions) and deliberately shares no code path with the package, so the
two sides of every comparison stay independent.  The exceptions are the
heat-bath replay, which reads the package's weight tables and draws its
random numbers in the package's order to pin the sampler's bookkeeping; the
exact-law references, which keep the package's earlier int64 slab loop, its
count_nonzero route to the q^N configuration law and its row-by-row CSV
writer, and restate its one-pass normalization, to pin both two-table grid
laws bit for bit; and the LSI
references at the end, which build the leave-one-out and leave-two-out
fields on the block product grid from the package's composition tables and
field coefficients, read its recoloring distances and site laws, and pin
only the enumeration or algebra the package applies to them; the closure under column permutations, which
keeps the package's earlier loop over all q! permutations, its placement
loop that listed every candidate's placements, and its DEDUPE_TOL; and
the rate-function references, which keep the package's earlier C(gamma)
clean-up, entropy sum, quadratic form and softmax (numpy's reduction
wrappers, two row sums), to pin the leaner versions bit for bit;
the structure-certificate flags, kept as the package's earlier row loops;
the chain tail, kept as the sampler's earlier one-t-at-a-time estimate;
the CLI's earlier cell-by-cell CSV writer, which pins the bytes of the
one template writer; the LSI workspace's earlier site-view loop of the
per-configuration |df|^2, which pins the per-site pass's three sides and
its site-reversed layout; and the suite's earlier
stacked moments, which pin the in-place exp_moments; the mean-field
restart's basin centres, which take u(g) from the package's
potts_fixed_point_u; and the recoloring distances' earlier triu gather
of every color pair, whose row (0, 1) pins _recoloring_tv and whose
maximum on the block grid is the all-pairs interdependence matrix; and
the suite's earlier structured battery, built from decoded
configurations, which pins the battery the package builds from
configuration codes.
"""

import functools
import itertools
import json
import math

import numpy as np

from blockpotts.equilibria import DEDUPE_TOL, potts_fixed_point_u
from blockpotts.errors import CapacityError, InvalidInputError
from blockpotts.exact import DEFAULT_SUPPORT_CAP, block_compositions, site_view
from blockpotts.glauber import CHUNK_UPDATES, _weight_tables
from blockpotts.lsi import BATTERY_LINEAR, BATTERY_PRODUCTS, _recoloring_tv, _site_laws
from blockpotts.model import (
    check_block_color,
    check_cap,
    check_consistent,
    field_from_sums,
    form_from_sums,
    interaction_form,
    model_to_json,
)
from blockpotts.numutil import CHUNK_BYTES, LEAF, log_factorials, softmax


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


def count_matrix_support(sizes, q, cap):
    """All count matrices with row sums `sizes`, as a (P, s, q) int16 array.

    Rows are compositions in the order of recursive_compositions, block 0
    outermost: itertools.product over each block's composition rows.
    P = prod_k C(sizes[k]+q-1, q-1); a CapacityError naming P is raised,
    before any enumeration, when it exceeds cap, and a block of more sites
    than an int16 count holds is refused too.
    """
    s = len(sizes)
    P = math.prod(math.comb(n + q - 1, q - 1) for n in sizes)
    if P > cap:
        raise CapacityError(f"count-matrix support of {P} matrices exceeds cap {cap}",
                            required=P)
    if max(sizes) > np.iinfo(np.int16).max:
        raise CapacityError(f"block size {max(sizes)} exceeds the largest int16 count",
                            required=P)
    rows = [[tuple(row) for row in recursive_compositions(n, q).tolist()] for n in sizes]
    counts = itertools.chain.from_iterable(itertools.chain.from_iterable(itertools.product(*rows)))
    return np.fromiter(counts, dtype=np.int16, count=P * s * q).reshape(P, s, q)


def exact_law_int64_slabs(blocks, params, cap=DEFAULT_SUPPORT_CAP):
    """(log_weights, log_Z, probabilities) of the exact count-matrix law by
    the package's earlier slab loop: squares and Gram products summed in
    int64 from the int64 composition tables, one Gram product per block
    pair and slab."""
    check_consistent(params, blocks)
    comps = block_compositions(blocks.sizes, params.q, cap)
    s = len(comps)
    log_fact = log_factorials(max(blocks.sizes))
    log_mult = [log_fact[n] - log_fact[c].sum(axis=1) for n, c in zip(blocks.sizes, comps)]
    squares = [np.square(c).sum(axis=1) for c in comps]
    # the Gram matrices without block 0 are shared by every slab
    grams = {(k, l): comps[k] @ comps[l].T for k, l in itertools.combinations(range(1, s), 2)}
    rest = math.prod(c.shape[0] for c in comps[1:])
    step = max(1, LEAF // rest)
    log_weights = np.empty(comps[0].shape[0] * rest)
    for lo in range(0, comps[0].shape[0], step):
        head = slice(lo, lo + step)
        slab_sq = functools.reduce(np.add.outer, [squares[0][head], *squares[1:]])
        col_sq = slab_sq.copy()
        for k, l in itertools.combinations(range(s), 2):
            gram = comps[0][head] @ comps[l].T if k == 0 else grams[k, l]
            on_axes = [1] * s
            on_axes[k], on_axes[l] = gram.shape
            col_sq += 2 * gram.reshape(on_axes)
        out = log_weights[lo * rest : lo * rest + slab_sq.size].reshape(slab_sq.shape)
        out[...] = form_from_sums(slab_sq, col_sq, params)
        out /= 2.0 * blocks.N
        out += functools.reduce(np.add.outer, [log_mult[0][head], *log_mult[1:]])
    return (log_weights, *normalize_by_max_shift(log_weights))


def decoded_configurations(blocks, q):
    """(configs, count_matrices) of all q^N configurations, row p the one
    whose code sum_i x_i q^i is p: the (P, N) int8 colors, each site's
    column written through site_view, and the (P, s, q) int16 counts, from
    s q count_nonzero passes over the (P, n_k) slices of each block."""
    N = blocks.N
    configs = np.empty((q**N, N), dtype=np.int8)
    for i in range(N):
        site_view(configs[:, i], i, q)[...] = np.arange(q)[:, None]
    counts = np.empty((q**N, blocks.s, q), dtype=np.int16)
    for k, (lo, hi) in enumerate(itertools.pairwise(blocks.offsets)):
        for c in range(q):
            counts[:, k, c] = np.count_nonzero(configs[:, lo:hi] == c, axis=1)
    return configs, counts


def full_configurations_by_count_nonzero(blocks, params, cap=DEFAULT_SUPPORT_CAP):
    """(log_weights, log_Z, probabilities) of the q^N configuration law by
    the package's earlier route: interaction_form's int64 sums on the
    materialised (P, s, q) int16 counts of decoded_configurations."""
    check_consistent(params, blocks)
    q, N = params.q, blocks.N
    check_cap(q**N, cap, "full enumeration", "configurations")
    _, counts = decoded_configurations(blocks, q)
    with np.errstate(over="ignore"):
        log_weights = interaction_form(counts, params) / (2.0 * N)
    return (log_weights, *normalize_by_max_shift(log_weights))


def normalize_by_max_shift(log_weights):
    """(log_Z, probabilities) of log_weights by the package's one exp pass,
    restated: shift by the largest log weight m, exponentiate, sum by
    numpy's pairwise sum, divide by the sum, and log_Z = m + log(sum)."""
    m = float(np.max(log_weights))
    weights = np.exp(log_weights - m)
    total = weights.sum()
    return m + math.log(total), weights / total


def export_csv_on_support(dist, path):
    """The exact law's CSV, written row by row from its materialised
    support (dist.support, built on this read) by the package's earlier
    writer."""
    s = dist.support.shape[1]
    q = dist.support.shape[2]
    header = {**model_to_json(dist.params, dist.blocks), "log_Z": dist.log_Z}
    cols = [f"b_{k + 1}_{c + 1}" for k in range(s) for c in range(q)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(header) + "\n")
        fh.write(",".join(cols + ["log_weight", "probability"]) + "\n")
        flat = dist.support.reshape(len(dist), s * q)
        for row, lw, p in zip(flat, dist.log_weights, dist.probabilities):
            cells = [str(int(v)) for v in row]
            cells.append(format(float(lw), ".17g"))
            cells.append(format(float(p), ".17g"))
            fh.write(",".join(cells) + "\n")


def observable_law_on_support(dist, k, c):
    """Law of b_{k,c}: the bincount of block k's color-c count over the
    materialised support, weighted by the probabilities."""
    return np.bincount(dist.support[:, k, c].astype(np.int64), weights=dist.probabilities,
                       minlength=dist.blocks.sizes[k] + 1)


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


def heat_bath_replay(blocks, params, sweeps, thin=1, seed=0, init="random", burn_in=None):
    """run_chain's samples with no incremental state: the same PCG64 draws
    (random initial colors unless init is a color or a configuration, then
    per chunk of max(1, CHUNK_UPDATES // N) sweeps one block of site
    indices and one block of uniforms), and before every update the
    leave-one-out counts are recounted from the whole configuration and
    looked up in the package's weight tables."""
    N, q = blocks.N, params.q
    if burn_in is None:
        burn_in = sweeps // 10
    ein, eout = _weight_tables(blocks, params)
    rng = np.random.default_rng(seed)
    if isinstance(init, str):
        config = rng.integers(0, q, size=N, dtype=np.int64).tolist()
    elif isinstance(init, int):
        config = [init] * N
    else:
        config = [int(c) for c in init]
    block = [block_of(blocks, i) for i in range(N)]
    chunk = max(1, CHUNK_UPDATES // N)
    samples = []
    for first in range(-burn_in, sweeps, chunk):
        stop = min(first + chunk, sweeps)
        n = (stop - first) * N
        sites = rng.integers(0, N, size=n).tolist()
        uniforms = rng.random(n).tolist()
        for sweep in range(first, stop):
            for step in range((sweep - first) * N, (sweep - first + 1) * N):
                i = sites[step]
                own = [0] * q
                total = [0] * q
                for j in range(N):
                    if j != i:
                        total[config[j]] += 1
                        if block[j] == block[i]:
                            own[config[j]] += 1
                cumulative = []
                acc = 0.0
                for c in range(q):
                    acc += ein[own[c]] * eout[total[c]]
                    cumulative.append(acc)
                target = uniforms[step] * acc
                config[i] = next((c for c in range(q) if cumulative[c] > target), q - 1)
            if sweep >= 0 and (sweep + 1) % thin == 0:
                counts = np.zeros((blocks.s, q), dtype=np.int64)
                for j in range(N):
                    counts[block[j], config[j]] += 1
                samples.append(counts)
    return np.asarray(samples, dtype=np.int64).reshape(-1, blocks.s, q)


def color_permutations_by_all_perms(mats, q):
    """Close a set of matrices under all column permutations (G is symmetric),
    keeping the first of any that lie within DEDUPE_TOL of each other."""
    kept = []
    for m in mats:
        for perm in itertools.permutations(range(q)):
            mp = m[:, perm]
            if not any(np.max(np.abs(mp - other)) < DEDUPE_TOL for other in kept):
                kept.append(mp)
    return kept


def color_permutations_by_placements(mats, q):
    """Close a set of matrices under all column permutations (G is symmetric),
    keeping the first of any that lie within DEDUPE_TOL of each other.

    Each matrix is the flat point or a _two_column matrix, whose r columns
    equal to its last are large and whose others are small.  Its distinct
    permutations are then the C(q, r) placements of the small columns, met
    in the lexicographic order of combinations, the order in which
    itertools.permutations first yields each placement.
    """
    kept = []
    for m in mats:
        r = int(np.count_nonzero(np.all(m == m[:, -1:], axis=0)))
        for small in itertools.combinations(range(q), q - r):
            mp = m[:, [0 if c in small else q - 1 for c in range(q)]]
            if not any(np.max(np.abs(mp - other)) < DEDUPE_TOL for other in kept):
                kept.append(mp)
    return kept


def binomial_pmf(n, p):
    """Binomial(n, p) probabilities as an array of length n + 1."""
    return np.array([math.comb(n, v) * p**v * (1 - p) ** (n - v) for v in range(n + 1)])


def block_free_energy(mu, alpha, beta):
    """G(mu) = <mu, A mu> / 2 - sum mu log mu of one BLOCK matrix, from the definition."""
    col = mu.sum(axis=0)
    quad = (beta - alpha) * np.square(mu).sum() + alpha * np.dot(col, col)
    return 0.5 * quad - np.sum(np.where(mu > 0.0, mu * np.log(np.maximum(mu, 1e-300)), 0.0))


def gradient_G(mu, params):
    """Entrywise gradient of G: (beta-alpha) mu + alpha colsum - log mu - 1."""
    mu = np.asarray(mu, dtype=np.float64)
    field = (params.beta - params.alpha) * mu + params.alpha * mu.sum(axis=0)
    return field - np.log(np.maximum(mu, 1e-300)) - 1.0


def two_column_point(r, mu_plus, gamma, q):
    """q-r small columns (fixed by the row sums gamma), then r columns of mu_plus."""
    mu_minus = (gamma - r * mu_plus) / (q - r)
    return np.column_stack([mu_minus] * (q - r) + [mu_plus] * r)


def two_column_reduced_gradient(r, t, gamma, q, alpha, beta):
    """(h, d') at log ratios t_k = log(mu_plus_k / mu_minus_k), as plain
    loops: h_k = (beta - alpha) d_k + alpha sum_l d_l - t_k with d_k =
    mu_plus_k - mu_minus_k, and d'_k = dd_k/dt_k = gamma_k q e^{-t_k} /
    (r + (q-r) e^{-t_k})^2, both taken through e^{-|t_k|}."""
    s = len(t)
    d, d_prime = [0.0] * s, [0.0] * s
    for k in range(s):
        e = math.exp(-abs(t[k]))
        if t[k] >= 0.0:
            denom = r + (q - r) * e
            d[k] = -math.expm1(-t[k]) * (gamma[k] / denom)
        else:
            denom = r * e + (q - r)
            d[k] = math.expm1(t[k]) * (gamma[k] / denom)
        d_prime[k] = q * (gamma[k] * e / denom) / denom
    total = sum(d)
    h = [(beta - alpha) * d[k] + alpha * total - t[k] for k in range(s)]
    return h, d_prime


def two_column_newton(r, x, gamma, q, alpha, beta, max_iter, ulps):
    """Undamped Newton on the reduced gradient h in the log ratios t, as
    plain loops, from the field difference t_k = (beta - alpha) d_k +
    alpha sum_l d_l, d_k = x[k, -1] - x[k, 0].

    Each step solves J step = -h for J = diag((beta - alpha) d' - 1) +
    alpha 1 d'^T by the explicit Sherman-Morrison formula.  Returns the
    two-column matrix at the first t with max|h| <= ulps eps max(max|t|,
    1), built from t's own mu_plus and mu_minus; None at the first step
    that does not shrink max|h| or meets a 0 on the diagonal or in the
    denominator, or after max_iter steps.
    """
    s = len(gamma)
    d = [x[k, -1] - x[k, 0] for k in range(s)]
    total = sum(d)
    t = [(beta - alpha) * d[k] + alpha * total for k in range(s)]

    def norm(v):
        return max(abs(vk) for vk in v)

    def is_root(h, t):
        return norm(h) <= ulps * np.finfo(np.float64).eps * max(norm(t), 1.0)

    h, d_prime = two_column_reduced_gradient(r, t, gamma, q, alpha, beta)
    for _ in range(max_iter):
        if is_root(h, t):
            break
        diag = [(beta - alpha) * d_prime[k] - 1.0 for k in range(s)]
        if 0.0 in diag:
            return None
        y = [h[k] / diag[k] for k in range(s)]
        z = [alpha / diag[k] for k in range(s)]
        denom = 1.0 + sum(d_prime[k] * z[k] for k in range(s))
        if denom == 0.0:
            return None
        coef = sum(d_prime[k] * y[k] for k in range(s)) / denom
        t_new = [t[k] + (coef * z[k] - y[k]) for k in range(s)]
        h_new, d_prime = two_column_reduced_gradient(r, t_new, gamma, q, alpha, beta)
        if not norm(h_new) < norm(h):
            return None
        t, h = t_new, h_new
    if not is_root(h, t):
        return None
    point = np.empty((s, q))
    for k in range(s):
        e = math.exp(-abs(t[k]))
        denom = r + (q - r) * e if t[k] >= 0.0 else r * e + (q - r)
        big, small = gamma[k] / denom, gamma[k] * e / denom
        mu_plus, mu_minus = (big, small) if t[k] >= 0.0 else (small, big)
        point[k] = [mu_minus] * (q - r) + [mu_plus] * r
    return point


def mean_field_step(x, gamma, alpha, beta):
    """One step of the mean-field map mu_k -> gamma_k softmax((A mu)_k) as
    plain loops, from the literal field (beta - alpha) mu_kc + alpha colsum_c."""
    s, q = x.shape
    col = [sum(x[k, c] for k in range(s)) for c in range(q)]
    y = np.empty_like(x)
    for k in range(s):
        field = np.array([(beta - alpha) * x[k, c] + alpha * col[c] for c in range(q)])
        weights = np.exp(field - field.max())
        y[k] = gamma[k] * weights / weights.sum()
    return y


def basin_distance(mu, centre, gamma):
    """max_k sum_c |mu_kc - centre_kc| / gamma_k, as plain loops."""
    s, q = mu.shape
    return max(sum(abs(mu[k, c] - centre[k, c]) for c in range(q)) / gamma[k]
               for k in range(s))


def basin_rate(centre, gamma, alpha, beta):
    """rho_c of a fixed point c = gamma_k p_k from its definition: max_k
    L_k max_{a != b} ||(diag p_k - p_k p_k^T)(e_a - e_b)||_1 / 2 over every
    color pair, with L_k = (beta - alpha) gamma_k + alpha."""
    s, q = centre.shape
    rho = 0.0
    for k in range(s):
        p = centre[k] / gamma[k]
        load = (beta - alpha) * gamma[k] + alpha
        for a, b in itertools.permutations(range(q), 2):
            image = [p[c] * ((c == a) - (c == b)) - p[c] * (p[a] - p[b]) for c in range(q)]
            rho = max(rho, load * sum(abs(v) for v in image) / 2.0)
    return rho


def contraction_by_vertices(centre, gamma, alpha, beta):
    """Norm of the mean-field map's derivative at centre, induced by max_k
    ||v_k||_1 / gamma_k on zero-sum rows, as its largest value over the
    vertices of that unit ball: every row v_k = gamma_k (e_a - e_b) / 2.
    The derivative is taken at the softmax of centre's own field."""
    s, q = centre.shape
    p = mean_field_step(centre, gamma, alpha, beta) / np.asarray(gamma)[:, None]
    pairs = list(itertools.permutations(range(q), 2))
    best = 0.0
    for choice in itertools.product(pairs, repeat=s):
        v = np.zeros((s, q))
        for k, (a, b) in enumerate(choice):
            v[k, a], v[k, b] = gamma[k] / 2.0, -gamma[k] / 2.0
        col = v.sum(axis=0)
        image = np.empty((s, q))
        for k in range(s):
            w = (beta - alpha) * v[k] + alpha * col
            image[k] = gamma[k] * (p[k] * w - p[k] * np.dot(p[k], w))
        best = max(best, basin_distance(image, np.zeros((s, q)), gamma))
    return best


def basin_centres(q, gamma, alpha, beta):
    """(centre, radius) of every certified basin of the mean-field map,
    from the definitions: the flat point gamma_k / q and, for uniform gamma
    at u(g) > 0, the q matrices nu^i with (1 + (q-1) u) / (sq) in column i
    and (1 - u) / (sq) elsewhere.  The radius is 2 (1 - rho_c) / L^2 less
    2 eps / (1 - rho_c), eps the centre's one-step residual, and 0 when
    rho_c >= 1 or that is not positive; inf when L = max_k L_k is 0."""
    s = len(gamma)
    centres = [np.array([[gamma[k] / q] * q for k in range(s)])]
    g = (beta + (s - 1) * alpha) / s
    u = potts_fixed_point_u(g, q)
    if max(abs(gk - 1.0 / s) for gk in gamma) <= 1e-12 and u > 0.0:
        big, small = (1.0 + (q - 1.0) * u) / (s * q), (1.0 - u) / (s * q)
        centres += [np.array([[big if c == i else small for c in range(q)]] * s)
                    for i in range(q)]
    load = max((beta - alpha) * gamma[k] + alpha for k in range(s))
    out = []
    for centre in centres:
        rho = basin_rate(centre, gamma, alpha, beta)
        if rho >= 1.0:
            radius = 0.0
        elif load == 0.0:
            radius = math.inf
        else:
            eps = basin_distance(mean_field_step(centre, gamma, alpha, beta), centre, gamma)
            radius = max(0.0, 2.0 * (1.0 - rho) / load ** 2 - 2.0 * eps / (1.0 - rho))
        out.append((centre, radius))
    return out


def mean_field_ascent(mu0, gamma, alpha, beta, max_iter, step_tol, newton=None,
                      handoff_every=None):
    """One restart of the mean-field map as a plain loop of mean_field_step.

    The restart stops at a centre of basin_centres when the step lands
    strictly within its radius, in the norm of basin_distance; otherwise
    it stops when the step moves no entry by step_tol or more.  With newton
    (a matrix -> root matrix or None), after every handoff_every-th step it
    also stops at newton's root when that exists and its value is at least
    the restart's; once a root's value is lower, it calls newton no more.
    Returns (x, value, steps, stopped before max_iter).
    """
    x = np.array(mu0, dtype=np.float64)
    basins = basin_centres(x.shape[1], gamma, alpha, beta)
    refused = False
    for iteration in range(1, max_iter + 1):
        y = mean_field_step(x, gamma, alpha, beta)
        moved = np.max(np.abs(y - x))
        x = y
        for centre, radius in basins:
            if basin_distance(x, centre, gamma) < radius:
                return centre, block_free_energy(centre, alpha, beta), iteration, True
        if moved < step_tol:
            return x, block_free_energy(x, alpha, beta), iteration, True
        if newton is not None and not refused and iteration % handoff_every == 0:
            root = newton(x)
            if root is not None:
                value = block_free_energy(root, alpha, beta)
                if value >= block_free_energy(x, alpha, beta):
                    return root, value, iteration, True
                refused = True
    return x, block_free_energy(x, alpha, beta), max_iter, False


def recoloring_tv_by_gather(fields, boost):
    """The package's earlier identity (1) for every color pair a < b, shape
    (q(q-1)/2, ...), which gathered p[first] and p[second] over
    np.triu_indices before taking their max and min; row 0 is pair (0, 1)."""
    p, t = softmax(fields, axis=0), math.expm1(boost)
    first, second = np.triu_indices(len(p), 1)
    hi, lo = np.maximum(p[first], p[second]), np.minimum(p[first], p[second])
    return t * hi * (1.0 - hi + (1.0 + t) * lo) / ((1.0 + t * hi) * (1.0 + t * lo))


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


def _loo_fields_by_color(sizes, ki, params, N, cap):
    """Leave-one-out fields of a site in block ki for every count matrix of
    the other sites (block sizes `sizes`), as a C-ordered (q, P) array: the
    softmax over colors then reduces q rows of length P instead of P rows
    of length q.

    Row c is ((beta - alpha) B[ki, c] + alpha colsum(B)[c]) / N, built on
    the block product grid from the per-block composition tables, in the
    support order of count_matrix_support and with the bits of
    interaction_field on that support.
    """
    comps = block_compositions(sizes, params.q, cap)
    s = len(comps)
    along_ki = [-1 if j == ki else 1 for j in range(s)]
    fields = np.empty((params.q, *(c.shape[0] for c in comps)))
    for c in range(params.q):
        col = functools.reduce(np.add.outer, [comp[:, c] for comp in comps])
        fields[c] = field_from_sums(comps[ki][:, c].reshape(along_ki), col, params)
    fields = fields.reshape(params.q, -1)
    fields /= N
    return fields


def _column_slabs(fields):
    """Leave-one-out fields (q, P) as (q, w) column slabs of at most
    CHUNK_BYTES, so the softmax and the pair distances taken on each stay
    slab-sized."""
    width = max(1, CHUNK_BYTES // fields[:, :1].nbytes)
    return (fields[:, lo : lo + width] for lo in range(0, fields.shape[1], width))


def interdependence_on_block_grid(blocks, params, cap=DEFAULT_SUPPORT_CAP, tv=_recoloring_tv):
    """Interdependence matrix from the block product grid: for each of the
    s^2 block pairs, the worst of the distances tv (by default the
    package's, of color pair (0, 1)) on every count matrix of the other
    N - 2 sites, as the package built it before identity (3) and its color
    symmetry."""
    check_consistent(params, blocks)
    table = np.zeros((blocks.s, blocks.s), dtype=np.float64)
    for ki in range(blocks.s):
        for kj in range(blocks.s):
            reduced = list(blocks.sizes)
            reduced[ki] -= 1
            reduced[kj] -= 1
            if min(reduced) < 0:
                continue  # no ordered site pair with these block labels
            fields = _loo_fields_by_color(reduced, ki, params, blocks.N, cap)
            boost = (params.beta if ki == kj else params.alpha) / blocks.N
            table[ki, kj] = np.max([tv(cols, boost).max()
                                    for cols in _column_slabs(fields)])
    site_blocks = blocks.site_blocks
    J = table[site_blocks[:, None], site_blocks[None, :]]
    np.fill_diagonal(J, 0.0)
    return J



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


def gamma1_by_enumeration(blocks, params, cap=DEFAULT_SUPPORT_CAP):
    """Minimum single-site conditional probability over every leave-one-out
    count matrix of every block: the softmax of the package's fields, one
    column slab at a time."""
    best = 1.0
    for ki in range(blocks.s):
        reduced = list(blocks.sizes)
        reduced[ki] -= 1
        fields = _loo_fields_by_color(reduced, ki, params, blocks.N, cap)
        slab_min = [softmax(cols, axis=0).min() for cols in _column_slabs(fields)]
        best = min(best, float(np.min(slab_min)))
    return best


def difference_sq_by_colors(law, fvals):
    """|df|^2 at every configuration, shape (..., P), in the difference form
    sum_i sum_c cond_i(c) (f(x) - f(x with x_i = c))^2, one color at a time
    on the package's site-i view and site laws."""
    fvals = np.asarray(fvals, dtype=np.float64)
    q = law.params.q
    out = np.zeros(fvals.shape)
    for i in range(law.blocks.N):
        site_cond, _ = _site_laws(law.probabilities, i, q)
        f = site_view(fvals, i, q)
        acc = site_view(out, i, q)
        for c in range(q):
            acc += (f - f[..., c : c + 1, :]) ** 2 * site_cond[:, c : c + 1, :]
    return out


def local_terms_by_site_view(law, moments):
    """(dsq, cov) of observables with moments = exp_moments(f): |df|^2 at
    every configuration, shape (..., P), and each site's E Cov_i(f, e^f),
    shape (..., N), every site on its own view of the original layout: the
    package's earlier loop, whose low sites run their einsums over inner runs
    of 1, q, q^2, ... elements."""
    fvals = moments[0]
    q = law.params.q
    dsq = np.zeros(fvals.shape)
    cov = np.empty(fvals.shape[:-1] + (law.blocks.N,))
    for i in range(law.blocks.N):
        site_cond, marginal = _site_laws(law.probabilities, i, q)
        m_f, m_e, m_fe = np.einsum("...acb,acb->...ab", site_view(moments, i, q), site_cond)
        cov[..., i] = np.einsum("...ab,ab->...", m_fe - m_f * m_e, marginal)
        sq = np.square(site_view(fvals, i, q) - m_f[..., None, :])
        sq += np.einsum("...acb,acb->...ab", sq, site_cond)[..., None, :]
        site_view(dsq, i, q)[...] += sq
    return dsq, cov


def structured_battery_by_configs(law, rng):
    """The LSI suite's structured battery as the package built it from the
    decoded configurations and count matrices (decoded_configurations):
    indicators and products by comparing columns of colors, block counts
    cast from the counts, and linear forms from one (P, N) float64 product,
    drawing from rng in the same order."""
    q = law.params.q
    cfgs, counts = decoded_configurations(law.blocks, q)
    P, N = cfgs.shape
    yield np.zeros(P)
    for i in range(N):
        for c in range(q):
            yield (cfgs[:, i] == c).astype(np.float64)
    for k in range(law.blocks.s):
        for c in range(q):
            yield counts[:, k, c].astype(np.float64)
    for _ in range(BATTERY_PRODUCTS if N >= 2 else 0):
        i, j = rng.choice(N, size=2, replace=False)
        c1, c2 = rng.integers(0, q, size=2)
        yield ((cfgs[:, i] == c1) & (cfgs[:, j] == c2)).astype(np.float64)
    for _ in range(BATTERY_LINEAR):
        coef = rng.standard_normal(N)
        target = rng.integers(0, q, size=N)
        yield ((cfgs == target[None, :]).astype(np.float64) * coef[None, :]).sum(axis=1)


def exp_moments_by_stack(fvals):
    """(f, e^f, f e^f) stacked from three temporaries, as the LSI suite
    took its moments before it wrote them in place."""
    fvals = np.asarray(fvals, dtype=np.float64)
    ef = np.exp(fvals)
    return np.stack((fvals, ef, fvals * ef))


def entropy_term_by_sum(m, axis=None):
    """sum m log m with 0 log 0 = 0, through the np.sum wrapper."""
    m = np.asarray(m, dtype=np.float64)
    return np.sum(np.where(m > 0.0, m * np.log(np.maximum(m, 1e-300)), 0.0), axis=axis)


def clean_rows_by_any(nu, totals, tol=1e-10):
    """C(gamma) clean-up with np.any checks and two row sums, None when a row
    is infeasible.  NaN entries pass its checks; callers skip them."""
    nu = np.ascontiguousarray(nu, dtype=np.float64)
    if nu.ndim != 2 or nu.shape[0] != totals.size:
        return None
    if np.any(nu < -tol) or np.any(np.abs(nu.sum(axis=1) - totals) > tol):
        return None
    nu = np.maximum(nu, 0.0)
    return nu * (totals / nu.sum(axis=1))[:, None]


def interaction_form_by_issubdtype(mu, params):
    """<mu, A mu> batched over leading axes, integer input summed in int64."""
    mu = np.asarray(mu)
    acc = np.int64 if np.issubdtype(mu.dtype, np.integer) else None
    col = np.einsum("...kc->...c", mu, dtype=acc)[..., None, :]
    squares = np.square(mu, dtype=acc).sum(axis=(-2, -1))
    col_sq = (col @ np.swapaxes(col, -1, -2))[..., 0, 0]
    return form_from_sums(squares, col_sq, params)


def softmax_by_sum(x, axis):
    """exp(x - max) / sum along axis, through the np.max and .sum wrappers."""
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def free_energy_by_wrappers(mu, params):
    """G of (..., s, q) matrices on C(gamma) from the two formulas above."""
    return 0.5 * interaction_form_by_issubdtype(mu, params) - entropy_term_by_sum(mu, (-2, -1))


def structure_flags_by_row_loops(mu, tol=1e-9):
    """(common_order, at_most_two_values) of structure_certificate, by the
    package's earlier loops: one row at a time, and the sorted row
    clustered greedily."""
    mu = np.asarray(mu, dtype=np.float64)
    order = np.argsort(mu.sum(axis=0), kind="stable")
    common = True
    for k in range(mu.shape[0]):
        permuted = mu[k][order]
        if np.any(permuted[:-1] > permuted[1:] + tol):
            common = False
    two_values = True
    for k in range(mu.shape[0]):
        vals = np.sort(mu[k])
        distinct = [vals[0]]
        for v in vals[1:]:
            if v - distinct[-1] > tol:
                distinct.append(v)
        if len(distinct) > 2:
            two_values = False
    return common, two_values


def check_summary_index(summary, k, c):
    """Raise unless the summary holds samples and b_{k,c} is one of their entries."""
    n, s, q = summary.samples.shape
    if n == 0:
        raise InvalidInputError("chain summary holds no samples")
    check_block_color(k, c, s, q)


def tail_estimate(summary, k, c, t):
    """Empirical frequency of |T_{k,c} - mean| >= t over the recorded samples."""
    check_summary_index(summary, k, c)
    values = summary.samples[:, k, c].astype(np.float64)
    mean = values.mean()
    return float(np.mean(np.abs(values - mean) >= t))


def _fmt(x):
    return format(float(x), ".17g")


def write_csv_by_cells(path, header, rows):
    """Write the header row, then each row with floats in _fmt and every
    other cell as str, making the parent directory first as the CLI does."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
