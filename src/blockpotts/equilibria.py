"""Maximizers of the free energy functional G on C(gamma).

For uniform block proportions the problem reduces to the classical q-color
Potts functional at effective coupling g = (beta + (s-1) alpha) / s, whose
maximizers are known in closed form: below the critical coupling
zeta_q = 2 (q-1)/(q-2) log(q-1) the flat matrix Q is the unique maximum,
above it the q color-swapped matrices built from the largest fixed point of
u = (1 - e^{-gu}) / (1 + (q-1) e^{-gu}) take over, and at zeta_q both
families tie.  The closed forms are certified numerically: the critical
equation residuals must vanish and a multistart ascent by the mean-field
map mu_k -> gamma_k softmax((A mu)_k), run on the two-column manifold
(every interior critical point has at most two distinct values per row,
with all rows ordered alike) and over all of C(gamma), must find nothing
better.

For non-uniform proportions no closed form is known and the same numerical
search is performed on its own; its reports are flagged as carrying no
closed-form certificate.

A restart that enters a certified basin of a fixed point c of the map
stops at c.  The centres are the flat point, flat_kc = gamma_k / q, and,
for uniform gamma with u(g) > 0, the q closed-form nu^i.  Write a matrix
of C(gamma) as c + v, so each row v_k sums to zero, and measure it by
N(v) = max_k ||v_k||_1 / gamma_k.  Row k of the map at c + v is gamma_k
softmax(w^c_k + w_k), with w^c_k = (A c)_k and w_k = (A v)_k = (beta -
alpha) v_k + alpha sum_l v_l, a zero-sum row with ||w_k||_1 <= L_k N(v),
L_k = (beta - alpha) gamma_k + alpha.  Along t w the second derivative of
softmax_i is p_i ((w_i - wbar)^2 - Var) at any base point, whose l1 norm
is at most 2 Var <= osc(w)^2 / 2 (Popoviciu).  So with c_k = gamma_k p_k
and J_k = diag p_k - p_k p_k^T,

    softmax(w^c_k + w) = p_k + J_k w + R,   ||R||_1 <= osc(w)^2 / 4,

and osc(w_k) <= ||w_k||_1 for a zero-sum row.  The zero-sum l1 unit ball
has the vertices (e_a - e_b) / 2, and for p_a >= p_b
||J_k (e_a - e_b)||_1 = 2 p_a (1 - p_a + p_b), which is largest for
neighbours in the descending order of p_k.  With rho_c = max_k L_k
max_{a != b} ||J_k (e_a - e_b)||_1 / 2 and L = max_k L_k,

    N(T(c + v) - c) <= rho_c N(v) + L^2 N(v)^2 / 4,

so on N(v) <= r_c = 2 (1 - rho_c) / L^2 the map contracts by kappa =
(1 + rho_c) / 2: the iterates stay in the ball and tend to c, whose G, by
the monotonicity of the map, is no lower than any of theirs.  At the flat
point p_k = 1/q, rho_c = L / q and r_c = 2 (1 - rho) / (q rho)^2; for
uniform gamma L_k = g, so the flat point has a ball exactly when g < q.

A computed centre c is a fixed point only up to its measured residual
eps = N(T(c) - c).  If c* is the exact fixed point in its ball, N(c - c*)
<= eps + kappa N(c - c*), so N(c - c*) <= 2 eps / (1 - rho_c), and the
ball of radius r_c - 2 eps / (1 - rho_c) about c lies in the ball of
radius r_c about c*; that is the radius used (rho_c and L are taken at c,
which moves them by O(eps)).  The radius is 0 when rho_c >= 1 or the
residual uses it all up (no restart stops at c), and inf when L = 0.

A restart is checked against the flat point and against the one nu^i
whose color i has its largest column sum.  The column sums of c + v lie
within N(v) of those of c in l1, and nu^i's column i exceeds its others
by u, so while the radius stays below u no other nu^j's ball can hold
the restart.  It stays below u/8 over q = 3..10 and g up to 1000
(tested), and checking a wrong nu^j could only miss a stop.

Two-column points of multiplicity r are polished by Newton in the log
ratios t_k = log(mu_plus_k / mu_minus_k).  Row k's constraint r mu_plus +
(q - r) mu_minus = gamma_k gives mu_plus = gamma_k / (r + (q - r) e^{-t_k})
and mu_minus = e^{-t_k} mu_plus, both positive, so every real t is a point
of C(gamma) and Newton needs no box; each exponent is taken as e^{-|t|}
(dividing through by e^{-t} when t < 0), so no finite t overflows.  The
difference d_k = mu_plus - mu_minus = gamma_k (1 - e^{-t_k}) / (r + (q - r)
e^{-t_k}) takes 1 - e^{-t} by expm1, free of cancellation, and d'_k =
gamma_k q e^{-t_k} / (r + (q - r) e^{-t_k})^2.  The reduced gradient, dG
at a large entry of row k minus at a small one, is h_k = (beta - alpha)
d_k + alpha sum_l d_l - t_k, with Jacobian D + alpha 1 d'^T, D = diag((beta
- alpha) d' - 1): Sherman-Morrison solves it in O(s) as J^{-1} h = D^{-1}
(h - alpha 1 (d'^T D^{-1} h) / (1 + alpha d'^T D^{-1} 1)), and the row
fails where D or that denominator has a 0.  h is rounded within a few ulps
of its largest term, and at a root those terms balance t: a row is a root
once max|h| <= NEWTON_ULPS eps max(max|t|, 1).  The matrix's critical
residual is then h_k (q - r) / q at a large entry and -h_k r / q at a small.
Row k starts at the field difference (beta - alpha) d_k + alpha sum_l d_l
of its endpoint, d the large entry less the small: the log ratio of the
map's next iterate, equal to t at a fixed point and finite even where the
small entry is 0.  The closed-form nu^i are these points too: (1 + (q -
1) u) / (1 - u) = e^{gu} makes every row the r = 1 point at t = g u.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidInputError, NonConvergenceError
from .model import (_column_sums, check_cap, check_count, check_finite, check_whole,
                    field_from_sums, interaction_field, shown_count)
from .numutil import softmax
from .rates import _block_matrix, _free_energy, free_energy_G

# Stopping rule of each mean-field restart: at most MAX_ITER steps; a
# restart stops early when a step moves no entry by STEP_TOL or more.
MAX_ITER = 500
STEP_TOL = 1e-12
# How far any ascent may climb above the reported supremum before the
# search raises NonConvergenceError.
MARGIN = 1e-9
# Half-width of the CRITICAL band of g around zeta_q.
CRITICAL_BAND = 1e-9
# Largest residual_max with which the closed-form maximizers are certified.
RESIDUAL_BOUND = 1e-8
# Newton on the two-column manifold: at most NEWTON_ITERS steps; a root has
# max|h| <= NEWTON_ULPS eps max(max|t|, 1) (module docstring).
NEWTON_ITERS = 60
NEWTON_ULPS = 64
# A two-column restart tries an undamped Newton finish after every
# HANDOFF_EVERY of its steps.
HANDOFF_EVERY = 16
# Largest entry-wise distance at which two maximizers count as one.
DEDUPE_TOL = 1e-7
# Most matrix entries in the multistart batch, restarts * q matrices of
# s x q: the search holds about 55 B per entry, so 2^24 is about 0.9 GB.
MAX_SEARCH_ENTRIES = 2**24
# Relative inset of the landscape mesh from both ends of each mu_plus box;
# at the upper end the small columns would be exactly zero.
LANDSCAPE_INSET = 1e-6


class Phase(enum.Enum):
    SUBCRITICAL = "SUBCRITICAL"
    CRITICAL = "CRITICAL"
    SUPERCRITICAL = "SUPERCRITICAL"


def critical_temperature(q):
    """Critical inverse temperature zeta_q = 2 (q-1)/(q-2) log(q-1) of the q-color Potts model."""
    q = check_whole("q", q, 3)
    # the int quotient is correctly rounded and never overflows
    return 2 * (q - 1) / (q - 2) * math.log(q - 1)


def classify_phase(g, q):
    """Phase at effective coupling g: CRITICAL within CRITICAL_BAND of zeta_q, else by side."""
    g, zeta = check_finite("g", g), critical_temperature(q)
    if abs(g - zeta) <= CRITICAL_BAND:
        return Phase.CRITICAL
    return Phase.SUBCRITICAL if g < zeta else Phase.SUPERCRITICAL


def potts_fixed_point_u(g, q):
    """Largest solution u in [0, 1) of u = (1 - e^{-gu}) / (1 + (q-1) e^{-gu}).

    u = 0 always solves it.  f(u) = rhs(u) - u rises exactly between its
    two critical points, where e = e^{-gu} solves (q-1)^2 e^2 +
    (2(q-1) - gq) e + 1 = 0, and falls elsewhere, with f(0) = 0 > f(1).  So
    a positive root exists iff the larger critical point u_c lies in (0, 1)
    with f(u_c) >= 0, and the largest one is then bisected on [u_c, 1] to
    the last bit, however close the smaller root lies (near the spinodal).
    A g that is no finite number is invalid input, and a q above 1e150 is
    refused with a CapacityError that names it (see the comment below).
    """
    g, q = check_finite("g", g), check_whole("q", q, 3)
    if q > 1e150:
        raise CapacityError(f"the fixed point u is taken in floats only for q <= 1e150, "
                            f"got q={shown_count(q)}", required=q)
    a, b = (q - 1.0) ** 2, 2.0 * (q - 1.0) - g * q
    disc = b * b - 4.0 * a
    if g <= 0.0 or b >= 0.0 or disc < 0.0:
        return 0.0

    def f(u):
        e = math.exp(-g * u)
        return (1.0 - e) / (1.0 + (q - 1.0) * e) - u

    # b * b overflows only when gq > 1e154, so with q <= 1e150 only when g >
    # 1e4: u_c ~ log(gq) / g then lies far below 1/2, where f is still
    # positive (f(1/2) = 1/2 once e^{-g/2} underflows)
    lo = 0.5 if disc == math.inf else math.log(0.5 * (math.sqrt(disc) - b)) / g
    hi = 1.0
    if not 0.0 < lo < 1.0 or f(lo) < 0.0:
        return 0.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def phi(t, q, s):
    """Color profile ((1+(q-1)t)/(sq), (1-t)/(sq), .., (1-t)/(sq)) of length q.

    Entries sum to 1/s: this is a row of a BLOCK matrix, not a probability
    vector.  t = 0 gives the flat profile, t = 1 concentrates everything on
    the first color.
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidInputError(f"t must lie in [0, 1], got {t}")
    v = np.full(q, (1.0 - t) / (s * q), dtype=np.float64)
    v[0] = (1.0 + (q - 1.0) * t) / (s * q)
    return v


def equilibrium_matrices(g, params):
    """Closed-form candidates (Q, [nu^1, .., nu^q]) for uniform proportions.

    Q is flat with entries 1/(sq).  Every row of nu^i is the r = 1 point
    of _log_ratio_point at t = g u(g) (module docstring), with its large
    entry in column i; when u(g) = 0 every nu^i is flat.  Raises for
    non-uniform gamma, where no closed form is available.  The small
    entries are e^{-gu} times the large one: past g u = 708 they are
    subnormal and lose digits, and past about 745 they underflow to 0, the
    nearest float to their true value.
    """
    if not params.uniform_gamma:
        raise InvalidInputError("closed-form equilibria require uniform block proportions")
    return _closed_form(g, potts_fixed_point_u(g, params.q), params)


def _closed_form(g, u, params):
    """(Q, [nu^1, .., nu^q]) of equilibrium_matrices at g from u = u(g)."""
    q, s = params.q, params.s
    Q = np.full((s, q), 1.0 / (s * q), dtype=np.float64)
    t = np.full(s, g * u)
    mu_plus, mu_minus, _, _ = _log_ratio_point(1, t, np.full(s, 1.0 / s), q)
    nus = np.where(np.eye(q, dtype=bool)[:, None, :], mu_plus[:, None], mu_minus[:, None])
    return Q, list(nus)


def _finite_matrix(mu, params):
    """mu as rates._block_matrix returns it; InvalidInputError for a NaN or infinite entry."""
    mu = _block_matrix(mu, params)
    if not np.all(np.isfinite(mu)):
        raise InvalidInputError(f"matrix has a non-finite entry: {mu.tolist()}")
    return mu


def critical_residual(mu, params):
    """Residual matrix of the Lagrange critical equations of G on C(gamma).

    Entry (k, c) is beta (mu_kc - gamma_k / q) + alpha sum_{k' != k}
    (mu_k'c - gamma_k' / q) minus log of mu_kc over the geometric mean of
    row k; every interior maximizer must solve these equations.  Requires
    strictly positive finite entries (_finite_matrix).
    """
    mu = _finite_matrix(mu, params)
    if np.any(mu <= 0.0):
        raise InvalidInputError("critical equations need strictly positive entries")
    dev = mu - params.gamma_array[:, None] / params.q
    log_mu = np.log(mu)
    # the bits of ndarray.mean, without its wrapper
    log_mean = np.add.reduce(log_mu, axis=1, keepdims=True) / params.q
    return interaction_field(dev, params) - (log_mu - log_mean)


def _residual_max(mu, params):
    """Largest critical residual of mu in absolute value, inf unless every entry is positive."""
    if not np.all(mu > 0.0):
        return math.inf
    return float(np.maximum.reduce(np.abs(critical_residual(mu, params)), axis=None))


def _two_column(r, mu_plus, gamma, q, mu_minus=None):
    """BLOCK matrices with q-r small columns, first, and r large ones per row.

    Batched over leading axes: (..., s) mu_plus, r an int or a (...) array
    in 1..q-1 (unchecked); mu_minus defaults to (gamma - r mu_plus) / (q - r).
    """
    r = np.asarray(r)[..., None]
    if mu_minus is None:
        mu_minus = (gamma - r * mu_plus) / (q - r)
    large = np.arange(q) >= q - r[..., None]
    return np.where(large, mu_plus[..., None], mu_minus[..., None])


def _log_ratio_point(r, t, gamma, q):
    """(mu_plus, mu_minus, d, d') of the module docstring at log ratios t,
    batched over leading axes of (..., s) t with r a scalar or (..., 1):
    the entries of every polished and closed-form two-column matrix."""
    down, pos, rest = -np.abs(t), t >= 0.0, q - r
    e = np.exp(down)
    denom = np.where(pos, r + rest * e, r * e + rest)
    big, small = gamma / denom, gamma * e / denom
    d = np.copysign(-np.expm1(down), t) * big
    return np.where(pos, big, small), np.where(pos, small, big), d, q * small / denom


@dataclass(frozen=True)
class SearchOptions:
    """Restarts per batch of the multistart search and the seed of its starts."""

    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        check_count("restarts", self.restarts, 1)
        check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class EquilibriumReport:
    """Classified maximizer set of G on C(gamma), with what the search did.

    residual_max is the largest critical residual over the maximizers, inf
    when an entry of one is 0.  diagnostics, a dict in the key order of the
    CLI's JSON, is the search's record: restarts mean-field restarts ran
    (opts.restarts per column multiplicity plus as many full-matrix ones)
    for ascent_iterations map steps in all, max_ascent_iterations the
    longest; restarts_converged of them stopped before MAX_ITER, at a basin
    centre, on a move below STEP_TOL or at a Newton root, newton_handoffs
    at a Newton root (a two-column restart tries that every HANDOFF_EVERY
    steps until one succeeds or one converges to a lower G), basin_stops at
    a basin centre (the flat point or a closed-form nu^i, inside the ball
    where the map provably converges to it), and newton_failures two-column
    endpoints other than a basin centre could not be polished to a critical
    point.  certificate_margin is sup_G minus the best value any restart
    reached: it is >= -MARGIN for every report.
    """

    phase: Phase
    g: float
    zeta_q: float
    maximizers: list
    sup_G: float
    residual_max: float
    u: float
    certificate: str
    diagnostics: dict


def _newton_step(h, d_prime, params):
    """Per row, the Newton step -J^{-1} h by Sherman-Morrison (module docstring),
    or 0 where D or the denominator has a 0."""
    diag = (params.beta - params.alpha) * d_prime - 1.0
    ok = np.logical_and.reduce(diag != 0.0, axis=1, keepdims=True)
    inv = np.divide(1.0, diag, out=np.zeros(diag.shape), where=ok)
    weights = d_prime * inv
    denom = 1.0 + params.alpha * np.add.reduce(weights, axis=1, keepdims=True)
    ok &= denom != 0.0
    num = params.alpha * np.add.reduce(weights * h, axis=1, keepdims=True)
    coef = np.divide(num, denom, out=np.zeros(num.shape), where=ok)
    return np.where(ok, inv * (coef - h), 0.0)


def _newton_two_column(r, x, params, gamma):
    """Polish two-column points x (R, s, q), one r per row, to roots of h.

    Undamped Newton in t from the field difference of d = x[:, :, -1] -
    x[:, :, 0] (module docstring): a row fails at its first step that does
    not shrink max|h| (a step of 0 where _newton_step cannot solve), or
    when it is no root after NEWTON_ITERS steps; rows do not interact.
    Returns (matrices, ok): each row's matrix at its last t, from that t's
    own mu_plus and mu_minus, and whether that t is a root.
    """
    r = np.asarray(r)[:, None]
    d = x[:, :, -1] - x[:, :, 0]
    t = field_from_sums(d, np.add.reduce(d, axis=1, keepdims=True), params)
    live, ok = np.arange(len(x)), np.zeros(len(x), dtype=bool)
    t_live, r_live, hnorm = t, r, np.full(len(x), np.inf)
    root_tol = NEWTON_ULPS * np.finfo(np.float64).eps
    for _ in range(NEWTON_ITERS + 1):
        _, _, d, d_prime = _log_ratio_point(r_live, t_live, gamma, params.q)
        h = field_from_sums(d, np.add.reduce(d, axis=1, keepdims=True), params)
        h -= t_live
        h_new = np.maximum.reduce(np.abs(h), axis=1)
        good = h_new < hnorm
        t[live[good]] = t_live[good]
        scale = np.maximum(np.maximum.reduce(np.abs(t_live), axis=1), 1.0)
        root = good & (h_new <= root_tol * scale)
        ok[live[root]] = True
        go = good & ~root
        live, t_live, r_live, hnorm = live[go], t_live[go], r_live[go], h_new[go]
        if live.size == 0:
            break
        t_live = t_live + _newton_step(h[go], d_prime[go], params)
    mu_plus, mu_minus, _, _ = _log_ratio_point(r, t, gamma, params.q)
    return _two_column(r[:, 0], mu_plus, gamma, params.q, mu_minus), ok


def _mean_field_map(mu, params, gamma_col):
    """One mean-field step mu_k -> gamma_k softmax((A mu)_k), batched over
    leading axes, with gamma as the (s, 1) column gamma_col."""
    p = softmax(interaction_field(mu, params))
    p *= gamma_col
    return p


def _basin_norm(y, c, gamma):
    """N(y - c) = max_k ||y_k - c_k||_1 / gamma_k, batched over leading axes."""
    v = np.subtract(y, c)
    rows = np.add.reduce(np.abs(v, out=v), axis=-1)
    rows /= gamma
    return np.maximum.reduce(rows, axis=-1)


def _contraction(centres, params, gamma):
    """(rho_c, L) of the module docstring at fixed points c = gamma_k p_k,
    batched over leading axes of centres: rho_c is the map's first-order
    contraction at c in the norm N, and L = max_k L_k."""
    top = -np.sort(-centres / gamma[:, None], axis=-1)  # each p_k in descending order
    spread = np.max(top[..., :-1] * (1.0 - top[..., :-1] + top[..., 1:]), axis=-1)
    load = (params.beta - params.alpha) * gamma + params.alpha
    return np.max(load * spread, axis=-1), float(np.max(load))


def _basin_centres(params, gamma, nus):
    """Table of basin centres (C, s, q) and their radii (C,): the flat point
    first, then the matrices of nus, which are the q closed-form nu^i in the
    order of equilibrium_matrices for uniform gamma with u(g) > 0 and else
    none.  A radius is 2 (1 - rho_c) / L^2 less the share 2 eps / (1 -
    rho_c) of the centre's residual eps (module docstring), 0 when rho_c >=
    1 or when that is not positive, and inf when L = 0."""
    centres = np.stack([np.broadcast_to(gamma[:, None] / params.q, (gamma.size, params.q)),
                        *nus])
    rho, load = _contraction(centres, params, gamma)
    if load == 0.0:
        return centres, np.full(len(centres), math.inf)
    eps = _basin_norm(_mean_field_map(centres, params, gamma[:, None]), centres, gamma)
    gap = np.where(rho < 1.0, 1.0 - rho, np.nan)  # no ball: fmax turns NaN into 0
    radii = np.fmax(2.0 * gap / (load * load) - 2.0 * eps / gap, 0.0)
    return centres, radii


def _basin_hits(y, centres, radii, gamma):
    """Per restart of the batch y, the index into the centre table of the
    basin it lies strictly inside, or -1.  Only the flat point and the
    nu^i of the restart's largest column sum are checked: no other ball
    can hold it (module docstring)."""
    if radii[0] > 0.0:
        hits = np.where(_basin_norm(y, centres[0], gamma) < radii[0], 0, -1)
    else:
        hits = np.full(len(y), -1)
    if len(radii) > 1:
        near = _column_sums(y).argmax(axis=1)
        near += 1
        inside = _basin_norm(y, centres[near], gamma) < radii[near]
        hits[inside] = near[inside]
    return hits


def _multistart(params, gamma, opts, nus):
    """Every restart of the multistart search, as one mean-field batch.

    The first opts.restarts rows per multiplicity r = 1..q-1 (r-major) start
    on the two-column manifold, from mu_plus uniform in its box; the last
    opts.restarts start from Dirichlet rows scaled by gamma, all drawn from
    one generator.  Each step applies _mean_field_map to the running
    restarts, kept as one compact batch.  nus are the closed-form basin
    centres of _basin_centres.  With 0 <= alpha <= beta, A is PSD
    and the map is the concave-convex procedure: G never falls, the iterates
    stay inside C(gamma), and a two-column point stays two-column with its
    large columns large.  After each step a restart stops at a centre of
    _basin_centres when the step took it strictly inside that centre's
    ball (_basin_hits); otherwise when the step moved it less than
    STEP_TOL.  Every HANDOFF_EVERY steps each running two-column restart
    also tries _newton_two_column and stops at its root when that succeeds
    and the root's G is at least its own; one whose root has a lower G
    tries none again, since its G only rises.  Returns (r_rows, x, fx,
    iterations, converged, handed, in_basin): each two-column restart's r,
    then per restart its endpoint, its G, its steps, whether it stopped
    before MAX_ITER, whether at a Newton root and whether at a basin centre.
    """
    q, s = params.q, gamma.size
    rng = np.random.default_rng(opts.seed)
    r_rows = np.repeat(np.arange(1, q), opts.restarts)
    lo, hi = gamma / q, gamma / r_rows[:, None]
    x = np.concatenate([
        _two_column(r_rows, lo + rng.random((r_rows.size, s)) * (hi - lo), gamma, q),
        rng.dirichlet(np.ones(q), size=(opts.restarts, s)) * gamma[:, None],
    ])
    converged, handed = np.ones(len(x), dtype=bool), np.zeros(len(x), dtype=bool)
    in_basin, refused = np.zeros(len(x), dtype=bool), np.zeros(len(x), dtype=bool)
    iterations = np.full(len(x), MAX_ITER, dtype=np.int64)
    centres, radii = _basin_centres(params, gamma, nus)
    basins, gamma_col = radii.max() > 0.0, gamma[:, None]
    live, xa = np.arange(len(x)), x.copy()  # the running restarts, in order
    # count_nonzero tests a mask for any True without ndarray.any's wrapper
    for iteration in range(1, MAX_ITER + 1):
        y = _mean_field_map(xa, params, gamma_col)
        np.abs(np.subtract(y, xa, out=xa), out=xa)  # the old iterates become the move
        stop, xa = ~(np.maximum.reduce(xa, axis=(1, 2)) >= STEP_TOL), y
        if basins:
            hits = _basin_hits(y, centres, radii, gamma)
            ball = hits >= 0
            if np.count_nonzero(ball):
                xa[ball], stop[ball], in_basin[live[ball]] = centres[hits[ball]], True, True
        if iteration % HANDOFF_EVERY == 0 and live[0] < r_rows.size:
            two = live[:live.searchsorted(r_rows.size)]
            rows = np.flatnonzero(~stop[:two.size] & ~refused[two])
            r_live = r_rows[two[rows]]
            cand, ok = _newton_two_column(r_live, xa[rows], params, gamma)
            rises = _free_energy(cand, params) >= _free_energy(xa[rows], params)
            refused[two[rows[ok & ~rises]]] = True
            ok &= rises
            xa[rows[ok]], stop[rows[ok]], handed[two[rows[ok]]] = cand[ok], True, True
        if np.count_nonzero(stop):
            done, go = live[stop], ~stop
            x[done], iterations[done] = xa[stop], iteration
            live, xa = live[go], xa[go]
            if live.size == 0:
                break
    x[live], converged[live] = xa, False
    return r_rows, x, _free_energy(x, params), iterations, converged, handed, in_basin


def _sort_maximizers(mats):
    """Deterministic order: flat point first, then by index of the large column."""

    def key(m):
        col = m.sum(axis=0)
        spread = col.max() - col.min()
        large = int(np.argmax(col)) if spread > 1e-9 else -1
        return (0 if spread <= 1e-9 else 1, large, tuple(np.round(m.ravel(), 12)))

    return sorted(mats, key=key)


def _numerical_candidates(params, gamma, opts, nus):
    """Multistart search over every column multiplicity r, plus the flat point,
    with the closed-form basin centres nus of _basin_centres.

    Returns (candidates, probe_max, probe_best, stats): Newton-polished
    critical points, the best value seen by any ascent (polished or not),
    the matrix that achieved it, and EquilibriumReport's diagnostics but
    certificate_margin.  The full-matrix restarts are a safety net for the
    manifold search: their endpoints are value probes, not candidates.
    """
    q = params.q
    r_rows, x, fx, iterations, converged, handed, in_basin = _multistart(params, gamma, opts, nus)
    flat = np.tile(gamma[:, None] / q, (1, q))
    # a restart stopped at a basin centre needs no polish: it ended on the
    # flat point (candidate 0) or on a nu^i, whose uniform-gamma report
    # takes its maximizers in closed form
    rows = np.flatnonzero(~in_basin[:r_rows.size])
    polished, ok = _newton_two_column(r_rows[rows], x[rows], params, gamma)
    polished = polished[ok]
    probes = np.concatenate([flat[None], x, polished])
    values = np.concatenate([_free_energy(flat, params)[None], fx,
                             _free_energy(polished, params)])
    best = int(np.argmax(values))
    stats = {
        "restarts": int(iterations.size),
        "ascent_iterations": int(iterations.sum()),
        "max_ascent_iterations": int(iterations.max()),
        "restarts_converged": int(converged.sum()),
        "newton_handoffs": int(handed.sum()),
        "basin_stops": int(in_basin.sum()),
        "newton_failures": int(np.count_nonzero(~ok)),
    }
    return [flat, *polished], float(values[best]), probes[best], stats


def _color_permutations(mats, q):
    """Close a set of matrices under all column permutations (G is symmetric),
    keeping the first of any that lie within DEDUPE_TOL of each other.

    Each matrix is the flat point or a _two_column matrix, whose r columns
    equal to its last are large and whose others are small.  Its distinct
    permutations are then the C(q, r) placements of the small columns, met
    in the lexicographic order of combinations, the order in which
    itertools.permutations first yields each placement.  A matrix within
    DEDUPE_TOL of a kept one is skipped before its placements are listed.
    Each matrix is compared with all kept ones at once, against a stacked
    copy of them that doubles its room when full.
    """
    if not mats:
        return []
    kept, stack = [], np.empty((1, *mats[0].shape))

    def near_kept(m):
        return bool(np.any(np.max(np.abs(stack[:len(kept)] - m), axis=(1, 2)) < DEDUPE_TOL))

    for m in mats:
        if near_kept(m):
            continue
        r = int(np.count_nonzero(np.all(m == m[:, -1:], axis=0)))
        for small in itertools.combinations(range(q), q - r):
            mp = m[:, [0 if c in small else q - 1 for c in range(q)]]
            if not near_kept(mp):
                if len(kept) == len(stack):
                    stack = np.concatenate([stack, np.empty_like(stack)])
                stack[len(kept)] = mp
                kept.append(mp)
    return kept


def maximize_G(params, options=None):
    """Find and classify the maximizers of G on C(gamma).

    Uniform gamma: classify through g against zeta_q and take the
    closed-form maximizer set, certified only when its residual_max is
    within RESIDUAL_BOUND (past g u = 708 the small entries lose digits,
    and past about 745 they underflow to 0).  Non-uniform gamma: take the
    best polished critical points under every column permutation, flagged
    as carrying no closed-form certificate.  Either way the multistart
    ascent checks the set: NonConvergenceError when any ascent beats its
    sup_G by more than MARGIN.  A batch of more than MAX_SEARCH_ENTRIES matrix entries is
    refused with CapacityError before anything is drawn.
    """
    opts = options or SearchOptions()
    q = params.q
    check_cap(opts.restarts * q * params.s * q, MAX_SEARCH_ENTRIES,
              f"a multistart batch of {opts.restarts} restarts at q={q}, s={params.s}", "entries")
    g = params.effective_coupling
    zeta = critical_temperature(q)
    if params.uniform_gamma:
        u = potts_fixed_point_u(g, q)
        Q, nus = _closed_form(g, u, params)
    else:
        u, nus = math.nan, []
    # with u > 0 the nu^i are basin centres of the search too
    candidates, probe_max, probe_best, stats = _numerical_candidates(
        params, params.gamma_array, opts, nus if u > 0.0 else [])

    if params.uniform_gamma:
        phase = classify_phase(g, q)
        best = {Phase.CRITICAL: [Q] + nus, Phase.SUBCRITICAL: [Q],
                Phase.SUPERCRITICAL: nus}[phase]
        sup_G = max(free_energy_G(m, params) for m in best)
    else:
        values = _free_energy(np.stack(candidates), params)
        sup_G = float(values.max())
        best = _color_permutations(
            [m for m, v in zip(candidates, values) if v >= sup_G - 1e-10], q)
        has_flat = any(np.max(np.abs(m - candidates[0])) < DEDUPE_TOL for m in best)
        phase = ((Phase.SUBCRITICAL if len(best) == 1 else Phase.CRITICAL) if has_flat
                 else Phase.SUPERCRITICAL)
    if probe_max > sup_G + MARGIN:
        raise NonConvergenceError(
            f"multistart ascent reached G = {probe_max}, more than MARGIN = "
            f"{MARGIN} above the reported supremum {sup_G}",
            best=probe_best,
            best_value=probe_max,
        )
    best = _sort_maximizers(best)
    residual_max = max(_residual_max(m, params) for m in best)
    if not params.uniform_gamma:
        certificate = "numerical, no closed-form certificate"
    elif residual_max <= RESIDUAL_BOUND:
        certificate = "closed-form, certified by multistart ascent"
    else:
        certificate = f"closed-form, not certified: residual_max above {RESIDUAL_BOUND:g}"
    return EquilibriumReport(
        phase=phase,
        g=g,
        zeta_q=zeta,
        maximizers=best,
        sup_G=sup_G,
        residual_max=residual_max,
        u=u,
        certificate=certificate,
        diagnostics={**stats, "certificate_margin": sup_G - probe_max},
    )


def structure_certificate(mu, params, tol=1e-9):
    """Check the structural properties every reported maximizer must satisfy.

    Returns a dict with: strictly positive entries, all rows ordered the
    same way, at most two distinct values per row, and the maximal
    critical-equation residual.  A matrix of any shape but (s, q), or with
    a NaN or infinite entry, raises InvalidInputError.
    """
    mu = _finite_matrix(mu, params)
    positive = bool(np.all(mu > 0.0))
    # a common ordering exists iff the columns are totally ordered entrywise;
    # when it does, sorting columns by their sums realizes it
    permuted = mu[:, np.argsort(mu.sum(axis=0), kind="stable")]
    common = not np.any(permuted[:, :-1] > permuted[:, 1:] + tol)
    # per row, the entries more than tol above the minimum must lie within
    # tol of each other: the rule of clustering the sorted row greedily
    above = mu - mu.min(axis=1, keepdims=True) > tol
    spread = (np.max(mu, axis=1, where=above, initial=-np.inf)
              - np.min(mu, axis=1, where=above, initial=np.inf))
    two_values = not np.any(spread > tol)
    residual = _residual_max(mu, params)
    return {
        "positive": positive,
        "common_order": common,
        "at_most_two_values": two_values,
        "residual_max": residual,
    }


def check_landscape(params, r, mesh):
    """Refuse a multiplicity r outside 1..q-1 or a mesh below 1."""
    check_count("r", r, 1)
    if r > params.q - 1:
        raise InvalidInputError(f"r must lie in 1..{params.q - 1}, got {r}")
    check_count("mesh", mesh, 1)


def two_column_landscape(params, r, mesh=25):
    """Sample G on a mesh of the two-column manifold for a fixed r.

    Each mu_plus_k runs over mesh points of its box, inset by LANDSCAPE_INSET
    of the box width at both ends.  Returns an array with rows (r,
    mu_plus_1, .., mu_plus_s, G).
    """
    gamma = params.gamma_array
    q = params.q
    check_landscape(params, r, mesh)
    lo, hi = gamma / q, gamma / r
    pad = LANDSCAPE_INSET * (hi - lo)
    axes = np.linspace(lo + pad, hi - pad, mesh, axis=-1)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, gamma.size)
    values = _free_energy(_two_column(r, grid, gamma, q), params)
    return np.column_stack([np.full(values.size, float(r)), grid, values])
