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
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NonConvergenceError
from .model import check_cap, check_count, field_from_sums, interaction_field
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
# Newton on the two-column manifold: at most NEWTON_ITERS steps, each tried
# at NEWTON_TRIES lengths 1, 1/2, ..; a root has max|h| below NEWTON_TOL.
NEWTON_ITERS = 60
NEWTON_TRIES = 40
NEWTON_TOL = 1e-13
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
    if int(q) != q or q < 3:
        raise InvalidInputError(f"q must be an integer >= 3, got {q}")
    return 2.0 * (q - 1.0) / (q - 2.0) * math.log(q - 1.0)


def classify_phase(g, q):
    """Phase at effective coupling g: CRITICAL within CRITICAL_BAND of zeta_q, else by side."""
    zeta = critical_temperature(q)
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
    """
    a, b = (q - 1.0) ** 2, 2.0 * (q - 1.0) - g * q
    disc = b * b - 4.0 * a
    if g <= 0.0 or b >= 0.0 or disc < 0.0:
        return 0.0

    def f(u):
        e = math.exp(-g * u)
        return (1.0 - e) / (1.0 + (q - 1.0) * e) - u

    # b * b overflows only when gq > 1e154: u_c ~ log(gq) / g then lies far
    # below 1/2, where f is still positive (f(1/2) = 1/2 once e^{-g/2} underflows)
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

    Q is flat with entries 1/(sq).  nu^i has all s rows equal to phi(u(g))
    with the first and i-th coordinate interchanged; when u(g) = 0 every
    nu^i collapses to Q.  Raises for non-uniform gamma, where no closed
    form is available.

    The small entries (1 - u)/(sq) take 1 - u in the form q e^{-gu} /
    (1 + (q-1) e^{-gu}), equal at the fixed point, because 1 - u cancels
    once u nears 1.  Past g u = 708 e^{-gu} is subnormal and loses
    digits; past about 745 it underflows and they are 0, the nearest
    float to their true value.
    """
    if not params.uniform_gamma:
        raise InvalidInputError("closed-form equilibria require uniform block proportions")
    q, s = params.q, params.s
    Q = np.full((s, q), 1.0 / (s * q), dtype=np.float64)
    u = potts_fixed_point_u(g, q)
    base = phi(u, q, s)
    e = math.exp(-g * u)
    base[1:] = q * e / (1.0 + (q - 1.0) * e) / (s * q)
    nus = []
    for i in range(q):
        row = base.copy()
        row[0], row[i] = row[i], row[0]
        nus.append(np.tile(row, (s, 1)))
    return Q, nus


def critical_residual(mu, params):
    """Residual matrix of the Lagrange critical equations of G on C(gamma).

    Entry (k, c) is beta (mu_kc - gamma_k / q) + alpha sum_{k' != k}
    (mu_k'c - gamma_k' / q) minus log of mu_kc over the geometric mean of
    row k; every interior maximizer must solve these equations.  Requires
    strictly positive entries.
    """
    mu = _block_matrix(mu, params)
    if np.any(mu <= 0.0):
        raise InvalidInputError("critical equations need strictly positive entries")
    dev = mu - params.gamma_array[:, None] / params.q
    log_mu = np.log(mu)
    return interaction_field(dev, params) - (log_mu - log_mu.mean(axis=1, keepdims=True))


def _residual_max(mu, params):
    """Largest critical residual of mu in absolute value, inf unless every entry is positive."""
    if not np.all(mu > 0.0):
        return math.inf
    return float(np.max(np.abs(critical_residual(mu, params))))


def _two_column(r, mu_plus, gamma, q):
    """BLOCK matrices with q-r small columns and r large columns per row.

    Batched over leading axes: (..., s) mu_plus, r an int or a (...) array
    in 1..q-1 (unchecked).  The small value is determined by the row
    constraint, mu_minus = (gamma - r mu_plus) / (q - r), and the small
    columns come first.
    """
    r = np.asarray(r)[..., None]
    mu_minus = (gamma - r * mu_plus) / (q - r)
    large = np.arange(q) >= q - r[..., None]
    return np.where(large, mu_plus[..., None], mu_minus[..., None])


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

    restarts mean-field restarts ran (opts.restarts per column multiplicity
    plus as many full-matrix ones) for ascent_iterations map steps in all,
    max_ascent_iterations the longest; restarts_converged of them stopped
    before MAX_ITER, at a basin centre, on a move below STEP_TOL or at a
    Newton root, basin_stops of those at a basin centre (the flat point or
    a closed-form nu^i, inside the ball where the map provably converges
    to it), newton_handoffs at a Newton root (a two-column restart tries
    that every HANDOFF_EVERY steps until one succeeds or one converges to
    a lower G), and newton_failures two-column endpoints other than a
    basin centre could not be polished to a critical point.
    certificate_margin is sup_G minus the best value any restart reached:
    it is >= -MARGIN for every report.  residual_max is the largest
    critical residual over the maximizers, inf when an entry of one is 0.
    """

    phase: Phase
    g: float
    zeta_q: float
    maximizers: list
    sup_G: float
    residual_max: float
    u: float
    certificate: str
    restarts: int
    ascent_iterations: int
    max_ascent_iterations: int
    restarts_converged: int
    newton_handoffs: int
    basin_stops: int
    newton_failures: int
    certificate_margin: float


def _reduced_gradient(r, mu_plus, params, gamma):
    """Derivative of G along the two-column manifold, one entry per block.

    h_k = dG/dmu at a large entry of row k minus the same at a small entry;
    its zeros are exactly the critical points with this column structure.
    Batched over leading axes of mu_plus, with r a scalar or a (..., 1) array.
    """
    mu_minus = (gamma - r * mu_plus) / (params.q - r)
    col = mu_plus.sum(axis=-1, keepdims=True) - mu_minus.sum(axis=-1, keepdims=True)
    return field_from_sums(mu_plus - mu_minus, col, params) - np.log(mu_plus / mu_minus)


@np.errstate(invalid="ignore", divide="ignore")  # h of a step out of the box is NaN
def _newton_two_column(r, mu_plus, params, gamma, tries=NEWTON_TRIES):
    """Polish two-column points to roots of the reduced gradient, row by row.

    mu_plus is (R, s) with one r per row.  Newton with the analytic
    Jacobian, all rows in one solve per iteration; a row's step is halved
    up to tries - 1 times until it stays in the open box gamma/q < mu_plus
    < gamma/r and shrinks max|h|.  A row fails when no halving does, when
    its Jacobian is singular, or when max|h| is still at least NEWTON_TOL
    after NEWTON_ITERS steps.  Rows do not interact.  Returns (roots, ok).
    """
    q = params.q
    r = np.asarray(r)[:, None]
    lo, hi = gamma / q, gamma / r
    x = np.clip(mu_plus.astype(np.float64), lo + 1e-14, hi - 1e-14)
    eye, q_r, c = np.eye(x.shape[1]), q - r, r / (q - r)
    base = (q / q_r)[..., None] * ((params.beta - params.alpha) * eye + params.alpha)
    h = _reduced_gradient(r, x, params, gamma)
    hnorm = np.maximum.reduce(np.abs(h), axis=1)
    live = hnorm >= NEWTON_TOL
    for _ in range(NEWTON_ITERS):
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        xr, rr = x[rows], r[rows]
        mu_minus = (gamma - rr * xr) / q_r[rows]
        jac = base[rows] - (1.0 / xr + c[rows] / mu_minus)[..., None] * eye
        step = _solve_rows(jac, -h[rows])
        searching, t = np.logical_and.reduce(np.isfinite(step), axis=1), 1.0
        for _ in range(tries):
            y = xr + t * step
            hy = _reduced_gradient(rr, y, params, gamma)
            ny = np.maximum.reduce(np.abs(hy), axis=1)
            good = (searching & np.logical_and.reduce(y > lo, axis=1)
                    & np.logical_and.reduce(y < hi[rows], axis=1) & (ny < hnorm[rows]))
            x[rows[good]], h[rows[good]], hnorm[rows[good]] = y[good], hy[good], ny[good]
            searching &= ~good
            if not searching.any():
                break
            t *= 0.5
        live[rows[searching]] = False
        live &= hnorm >= NEWTON_TOL
    return x, hnorm < NEWTON_TOL


def _solve_rows(jac, rhs):
    """Solve every system of the stack; a singular one gives a row of NaN."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        for i, (a, b) in enumerate(zip(jac, rhs)):
            try:
                out[i] = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                pass
        return out


def _mean_field_map(mu, params, gamma):
    """One mean-field step mu_k -> gamma_k softmax((A mu)_k), batched over leading axes."""
    return gamma[:, None] * softmax(interaction_field(mu, params))


def _basin_norm(v, gamma):
    """N(v) = max_k ||v_k||_1 / gamma_k, batched over leading axes."""
    return np.maximum.reduce(np.add.reduce(np.abs(v), axis=-1) / gamma, axis=-1)


def _contraction(centres, params, gamma):
    """(rho_c, L) of the module docstring at fixed points c = gamma_k p_k,
    batched over leading axes of centres: rho_c is the map's first-order
    contraction at c in the norm N, and L = max_k L_k."""
    top = -np.sort(-centres / gamma[:, None], axis=-1)  # each p_k in descending order
    spread = np.max(top[..., :-1] * (1.0 - top[..., :-1] + top[..., 1:]), axis=-1)
    load = (params.beta - params.alpha) * gamma + params.alpha
    return np.max(load * spread, axis=-1), float(np.max(load))


def _basin_centres(params, gamma):
    """Table of basin centres (C, s, q) and their radii (C,): the flat point
    first, then for uniform gamma with u(g) > 0 the q matrices nu^i in the
    order of equilibrium_matrices.  A radius is 2 (1 - rho_c) / L^2 less
    the share 2 eps / (1 - rho_c) of the centre's residual eps (module
    docstring), 0 when rho_c >= 1 or when that is not positive, and inf
    when L = 0."""
    centres = [np.broadcast_to(gamma[:, None] / params.q, (gamma.size, params.q))]
    g = params.effective_coupling
    if params.uniform_gamma and potts_fixed_point_u(g, params.q) > 0.0:
        centres += equilibrium_matrices(g, params)[1]
    centres = np.stack(centres)
    rho, load = _contraction(centres, params, gamma)
    if load == 0.0:
        return centres, np.full(len(centres), math.inf)
    eps = _basin_norm(_mean_field_map(centres, params, gamma) - centres, gamma)
    gap = np.where(rho < 1.0, 1.0 - rho, np.nan)  # no ball: fmax turns NaN into 0
    radii = np.fmax(2.0 * gap / (load * load) - 2.0 * eps / gap, 0.0)
    return centres, radii


def _basin_hits(y, centres, radii, gamma):
    """Per restart of the batch y, the index into the centre table of the
    basin it lies strictly inside, or -1.  Only the flat point and the
    nu^i of the restart's largest column sum are checked: no other ball
    can hold it (module docstring)."""
    hits = np.full(len(y), -1)
    if radii[0] > 0.0:
        hits[_basin_norm(y - centres[0], gamma) < radii[0]] = 0
    if len(radii) > 1:
        near = 1 + np.argmax(np.add.reduce(y, axis=1), axis=1)
        inside = _basin_norm(y - centres[near], gamma) < radii[near]
        hits[inside] = near[inside]
    return hits


def _multistart(params, gamma, opts):
    """Every restart of the multistart search, as one mean-field batch.

    The first opts.restarts rows per multiplicity r = 1..q-1 (r-major) start
    on the two-column manifold, from mu_plus uniform in its box; the last
    opts.restarts start from Dirichlet rows scaled by gamma, all drawn from
    one generator.  Each step applies _mean_field_map to the running
    restarts, kept as one compact batch.  With 0 <= alpha <= beta, A is PSD
    and the map is the concave-convex procedure: G never falls, the iterates
    stay inside C(gamma), and a two-column point stays two-column with its
    large columns large.  After each step a restart stops at a centre of
    _basin_centres when the step took it strictly inside that centre's
    ball (_basin_hits); otherwise when the step moved it less than
    STEP_TOL.  Every HANDOFF_EVERY steps each running two-column restart
    also tries an undamped Newton finish (_newton_two_column with one try
    per step) and stops at its root when Newton succeeds and the root's G
    is at least its own; a restart whose Newton finish succeeds at a lower
    G tries none again, since its G only rises.  Returns (r_rows, x, fx,
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
    centres, radii = _basin_centres(params, gamma)
    basins = radii.max() > 0.0
    live, xa = np.arange(len(x)), x.copy()  # the running restarts, in order
    for iteration in range(1, MAX_ITER + 1):
        y = _mean_field_map(xa, params, gamma)
        np.abs(np.subtract(y, xa, out=xa), out=xa)  # the old iterates become the move
        stop, xa = ~(np.maximum.reduce(xa, axis=(1, 2)) >= STEP_TOL), y
        if basins:
            hits = _basin_hits(y, centres, radii, gamma)
            ball = hits >= 0
            if ball.any():
                xa[ball], stop[ball], in_basin[live[ball]] = centres[hits[ball]], True, True
        if iteration % HANDOFF_EVERY == 0 and live[0] < r_rows.size:
            two = live[:live.searchsorted(r_rows.size)]
            rows = np.flatnonzero(~stop[:two.size] & ~refused[two])
            r_live = r_rows[two[rows]]
            roots, ok = _newton_two_column(r_live, xa[rows, :, -1], params, gamma, tries=1)
            cand = _two_column(r_live, roots, gamma, q)
            rises = _free_energy(cand, params) >= _free_energy(xa[rows], params)
            refused[two[rows[ok & ~rises]]] = True
            ok &= rises
            xa[rows[ok]], stop[rows[ok]], handed[two[rows[ok]]] = cand[ok], True, True
        if stop.any():
            x[live[stop]], iterations[live[stop]] = xa[stop], iteration
            live, xa = live[~stop], xa[~stop]
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


def _numerical_candidates(params, gamma, opts):
    """Multistart search over every column multiplicity r, plus the flat point.

    Returns (candidates, probe_max, probe_best, stats): Newton-polished
    critical points, the best value seen by any ascent (polished or not),
    the matrix that achieved it, and the search diagnostics of
    EquilibriumReport.  The full-matrix restarts are a safety net for the
    manifold search: their endpoints are value probes, not candidates.
    """
    q = params.q
    r_rows, x, fx, iterations, converged, handed, in_basin = _multistart(params, gamma, opts)
    flat = np.tile(gamma[:, None] / q, (1, q))
    # a restart stopped at a basin centre needs no polish: it ended on the
    # flat point (candidate 0) or on a nu^i, whose uniform-gamma report
    # takes its maximizers in closed form
    rows = np.flatnonzero(~in_basin[:r_rows.size])
    roots, ok = _newton_two_column(r_rows[rows], x[rows, :, -1], params, gamma)
    polished = _two_column(r_rows[rows[ok]], roots[ok], gamma, q)
    polished = polished[np.all(polished > 0.0, axis=(1, 2))]
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
    candidates, probe_max, probe_best, stats = _numerical_candidates(
        params, params.gamma_array, opts)

    if params.uniform_gamma:
        u = potts_fixed_point_u(g, q)
        Q, nus = equilibrium_matrices(g, params)
        phase = classify_phase(g, q)
        best = {Phase.CRITICAL: [Q] + nus, Phase.SUBCRITICAL: [Q],
                Phase.SUPERCRITICAL: nus}[phase]
        sup_G = max(free_energy_G(m, params) for m in best)
    else:
        u = math.nan
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
        certificate_margin=sup_G - probe_max,
        **stats,
    )


def structure_certificate(mu, params, tol=1e-9):
    """Check the structural properties every reported maximizer must satisfy.

    Returns a dict with: strictly positive entries, all rows ordered the
    same way, at most two distinct values per row, and the maximal
    critical-equation residual.
    """
    mu = np.asarray(mu, dtype=np.float64)
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


def two_column_landscape(params, r, mesh=25):
    """Sample G on a mesh of the two-column manifold for a fixed r.

    Each mu_plus_k runs over mesh points of its box, inset by LANDSCAPE_INSET
    of the box width at both ends.  Returns an array with rows (r,
    mu_plus_1, .., mu_plus_s, G).
    """
    gamma = params.gamma_array
    q = params.q
    check_count("r", r, 1)
    if r > q - 1:
        raise InvalidInputError(f"r must lie in 1..{q - 1}, got {r}")
    check_count("mesh", mesh, 1)
    lo, hi = gamma / q, gamma / r
    pad = LANDSCAPE_INSET * (hi - lo)
    axes = np.linspace(lo + pad, hi - pad, mesh, axis=-1)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, gamma.size)
    values = _free_energy(_two_column(r, grid, gamma, q), params)
    return np.column_stack([np.full(values.size, float(r)), grid, values])
