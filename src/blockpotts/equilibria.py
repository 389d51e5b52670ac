"""Maximizers of the free energy functional G on C(gamma).

For uniform block proportions the problem reduces to the classical q-color
Potts functional at effective coupling g = (beta + (s-1) alpha) / s, whose
maximizers are known in closed form: below the critical coupling
zeta_q = 2 (q-1)/(q-2) log(q-1) the flat matrix Q is the unique maximum,
above it the q color-swapped matrices built from the largest fixed point of
u = (1 - e^{-gu}) / (1 + (q-1) e^{-gu}) take over, and at zeta_q both
families tie.  The closed forms are certified numerically: the critical
equation residuals must vanish and a multistart projected ascent over the
two-column manifold (every interior critical point has at most two distinct
values per row, with all rows ordered alike) must find nothing better.

For non-uniform proportions no closed form is known and the same numerical
search is performed on its own; its reports are flagged as carrying no
closed-form certificate.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NonConvergenceError
from .model import interaction_field
from .numutil import project_simplex
from .rates import _free_energy, free_energy_G

# Stopping rules of each projected ascent: at most MAX_ITER iterations; a
# restart stops early on no ascent, a move below STEP_TOL or a projected
# gradient below GRAD_TOL, and its line search gives up below STEP_TOL.
MAX_ITER = 500
GRAD_TOL = 1e-10
STEP_TOL = 1e-12
# How far any ascent may climb above the reported supremum before the
# search raises NonConvergenceError.
MARGIN = 1e-9
# Half-width of the CRITICAL band of g around zeta_q.
CRITICAL_BAND = 1e-9
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


def classify_phase(g, q, band):
    """Phase at effective coupling g: CRITICAL within band of zeta_q, else by side."""
    zeta = critical_temperature(q)
    if abs(g - zeta) <= band:
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

    lo, hi = math.log(0.5 * (math.sqrt(disc) - b)) / g, 1.0
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
    """
    if not params.uniform_gamma:
        raise InvalidInputError("closed-form equilibria require uniform block proportions")
    q, s = params.q, params.s
    Q = np.full((s, q), 1.0 / (s * q), dtype=np.float64)
    u = potts_fixed_point_u(g, q)
    base = phi(u, q, s)
    nus = []
    for i in range(q):
        row = base.copy()
        row[0], row[i] = row[i], row[0]
        nus.append(np.tile(row, (s, 1)))
    return Q, nus


def gradient_G(mu, params):
    """Entrywise gradient of G: (beta-alpha) mu + alpha colsum - log mu - 1."""
    mu = np.asarray(mu, dtype=np.float64)
    return interaction_field(mu, params) - np.log(np.maximum(mu, 1e-300)) - 1.0


def critical_residual(mu, params, gamma=None):
    """Residual matrix of the Lagrange critical equations of G on C(gamma).

    Entry (k, c) is beta (mu_kc - gamma_k / q) + alpha sum_{k' != k}
    (mu_k'c - gamma_k' / q) minus log of mu_kc over the geometric mean of
    row k; every interior maximizer must solve these equations.  Requires
    strictly positive entries.
    """
    gamma = params.gamma_array if gamma is None else np.asarray(gamma, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != (gamma.size, params.q):
        raise InvalidInputError(f"matrix shape {mu.shape}, expected ({gamma.size}, {params.q})")
    if np.any(mu <= 0.0):
        raise InvalidInputError("critical equations need strictly positive entries")
    dev = mu - gamma[:, None] / params.q
    log_mu = np.log(mu)
    return interaction_field(dev, params) - (log_mu - log_mu.mean(axis=1, keepdims=True))


def _two_column(r, mu_plus, gamma, q):
    """two_column_matrix unchecked and batched: (..., s) mu_plus, r an int or (...) array."""
    r = np.asarray(r)[..., None]
    mu_minus = (gamma - r * mu_plus) / (q - r)
    large = np.arange(q) >= q - r[..., None]
    return np.where(large, mu_plus[..., None], mu_minus[..., None])


def two_column_matrix(r, mu_plus, gamma, q):
    """BLOCK matrix with q-r small columns and r large columns per row.

    The small value is determined by the row constraint:
    mu_minus = (gamma - r mu_plus) / (q - r); columns are emitted in
    increasing order (small columns first).
    """
    if not 1 <= r <= q - 1:
        raise InvalidInputError(f"r must lie in 1..{q - 1}, got {r}")
    return _two_column(r, np.asarray(mu_plus, dtype=np.float64),
                       np.asarray(gamma, dtype=np.float64), q)


@dataclass(frozen=True)
class SearchOptions:
    """Restarts per batch of the multistart search and the seed of its starts."""

    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if not self.restarts >= 1:
            raise InvalidInputError(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True)
class EquilibriumReport:
    """Classified maximizer set of G on C(gamma), with what the search did.

    restarts ascents ran (opts.restarts per column multiplicity plus as many
    full-matrix ones) for ascent_iterations in all, max_ascent_iterations
    the longest; restarts_converged of them stopped on a convergence rule
    before MAX_ITER, and newton_failures two-column endpoints could not be
    polished to a critical point.  certificate_margin is sup_G minus the
    best value any ascent reached: it is >= -MARGIN for every report.
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
    newton_failures: int
    certificate_margin: float


def _reduced_gradient(r, mu_plus, params, gamma):
    """Derivative of G along the two-column manifold, one entry per block.

    h_k = dG/dmu at a large entry of row k minus the same at a small entry;
    its zeros are exactly the critical points with this column structure.
    Batched over leading axes of mu_plus, with r a scalar or a (..., 1) array.
    """
    q = params.q
    mu_minus = (gamma - r * mu_plus) / (q - r)
    s_plus = mu_plus.sum(axis=-1, keepdims=True)
    s_minus = mu_minus.sum(axis=-1, keepdims=True)
    d = params.beta - params.alpha
    return (d * (mu_plus - mu_minus) + params.alpha * (s_plus - s_minus)
            - np.log(mu_plus / mu_minus))


def _newton_two_column(r, mu_plus, params, gamma, iters=60):
    """Polish a two-column candidate to a root of the reduced gradient.

    Damped Newton with the analytic Jacobian; returns None when the
    iteration leaves the open box gamma/q < mu_plus < gamma/r or stalls.
    """
    q = params.q
    lo = gamma / q
    hi = gamma / r
    x = np.clip(mu_plus.astype(np.float64), lo + 1e-14, hi - 1e-14)
    d = params.beta - params.alpha
    scale = q / (q - r)
    for _ in range(iters):
        h = _reduced_gradient(r, x, params, gamma)
        hnorm = np.max(np.abs(h))
        if hnorm < 1e-13:
            return x
        mu_minus = (gamma - r * x) / (q - r)
        jac = scale * (d * np.eye(x.size) + params.alpha * np.ones((x.size, x.size)))
        jac -= np.diag(1.0 / x + (r / (q - r)) / mu_minus)
        try:
            step = np.linalg.solve(jac, -h)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        for _ in range(40):
            y = x + t * step
            if (np.all(y > lo) and np.all(y < hi)
                    and np.max(np.abs(_reduced_gradient(r, y, params, gamma))) < hnorm):
                x = y
                break
            t *= 0.5
        else:
            return None
    h = _reduced_gradient(r, x, params, gamma)
    return x if np.max(np.abs(h)) < 1e-13 else None


def _ascend(x0, value, gradient, project):
    """Projected gradient ascent of the R restarts stacked along axis 0 of x0.

    value maps a stack to its R values, gradient to its ascent directions
    and project onto the feasible set.  Each restart has its own step: the
    line search starts from the last accepted step, doubles it on success
    and halves it until the value rises or the step drops below STEP_TOL.
    A restart stops on no ascent, a move below STEP_TOL or a projected
    gradient below GRAD_TOL.  Returns per restart (x, fx, iterations,
    converged), converged meaning stopped by one of those rules.
    """
    x = project(np.asarray(x0, dtype=np.float64))
    fx = value(x)
    axes = tuple(range(1, x.ndim))
    step = np.ones(x.shape[0])
    active = np.ones(x.shape[0], dtype=bool)
    iterations = np.zeros(x.shape[0], dtype=np.int64)
    for _ in range(MAX_ITER):
        if not active.any():
            break
        iterations += active
        grad = gradient(x)
        t = step.copy()
        y, fy = x.copy(), fx.copy()
        searching = active.copy()
        for _ in range(60):
            cand = project(x + np.expand_dims(t, axes) * grad)
            fcand = value(cand)
            up = searching & (fcand > fx)
            y[up], fy[up], step[up] = cand[up], fcand[up], t[up] * 2.0
            searching &= ~up
            t[searching] *= 0.5
            searching &= t >= STEP_TOL
            if not searching.any():
                break
        rose = fy > fx
        moved = np.max(np.abs(y - x), axis=axes)
        x, fx = y, fy
        projected_grad = np.max(np.abs(project(x + grad) - x), axis=axes)
        active &= rose & (moved >= STEP_TOL) & (projected_grad >= GRAD_TOL)
    return x, fx, iterations, ~active


def _multistart(params, gamma, opts):
    """Every ascent of the multistart search, in two batches from one generator.

    First opts.restarts ascents per multiplicity r = 1..q-1 (r-major) in the
    mu_plus box, from uniform points of it; then opts.restarts row-simplex
    ascents over C(gamma), from Dirichlet rows scaled by gamma.  Returns
    (r_rows, two_column, full_matrix): each two-column restart's r and the
    _ascend results of the two batches.
    """
    q, s = params.q, gamma.size
    rng = np.random.default_rng(opts.seed)
    r_rows = np.repeat(np.arange(1, q), opts.restarts)
    r_col = r_rows[:, None]
    lo, hi = gamma / q, gamma / r_col
    x0 = lo + rng.random((r_rows.size, s)) * (hi - lo)
    eps = 1e-11
    box_lo, box_hi = lo * (1.0 + eps) + 1e-15, hi * (1.0 - eps)
    two_column = _ascend(
        x0,
        lambda x: _free_energy(_two_column(r_rows, x, gamma, q), params),
        lambda x: r_col * _reduced_gradient(r_col, x, params, gamma),
        lambda x: np.clip(x, box_lo, box_hi),
    )
    raw = rng.dirichlet(np.ones(q), size=(opts.restarts, s)) * gamma[:, None]
    full_matrix = _ascend(
        raw,
        lambda x: _free_energy(x, params),
        lambda x: gradient_G(x, params),
        lambda x: project_simplex(x, gamma),
    )
    return r_rows, two_column, full_matrix


def _dedupe_matrices(mats, tol=1e-7):
    kept = []
    for m in mats:
        if not any(np.max(np.abs(m - other)) < tol for other in kept):
            kept.append(m)
    return kept


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
    EquilibriumReport.  The full-matrix ascents are a safety net for the
    manifold search: their endpoints are value probes, not candidates.
    """
    q = params.q
    r_rows, (x2, f2, it2, conv2), (xf, ff, itf, convf) = _multistart(params, gamma, opts)
    flat = np.tile(gamma[:, None] / q, (1, q))
    candidates = [flat]
    probe_max, probe_best = _free_energy(flat, params), flat
    failures = 0
    for r, x, fx in zip(r_rows.tolist(), x2, f2):
        if fx > probe_max:
            probe_max, probe_best = fx, _two_column(r, x, gamma, q)
        polished = _newton_two_column(r, x, params, gamma)
        if polished is None:
            failures += 1
            continue
        mat = _two_column(r, polished, gamma, q)
        if np.all(mat > 0.0):
            candidates.append(mat)
            fmat = _free_energy(mat, params)
            if fmat > probe_max:
                probe_max, probe_best = fmat, mat
    for x, fx in zip(xf, ff):
        if fx > probe_max:
            probe_max, probe_best = fx, x
    iterations = np.concatenate([it2, itf])
    stats = {
        "restarts": int(iterations.size),
        "ascent_iterations": int(iterations.sum()),
        "max_ascent_iterations": int(iterations.max()),
        "restarts_converged": int(conv2.sum() + convf.sum()),
        "newton_failures": failures,
    }
    return candidates, float(probe_max), probe_best, stats


def _color_permutations(mats, q):
    """Close a set of matrices under all column permutations (G is symmetric)."""
    out = []
    for m in mats:
        for perm in itertools.permutations(range(q)):
            out.append(m[:, perm])
    return _dedupe_matrices(out)


def maximize_G(params, gamma=None, options=None):
    """Find and classify the maximizers of G on C(gamma).

    Uniform gamma: classify through g against zeta_q, return the closed-form
    maximizer set, and certify it by checking the critical-equation
    residuals and by running the multistart ascent, which must not beat the
    closed-form value by more than MARGIN.
    Non-uniform gamma: numerical search only; the report is flagged as
    carrying no closed-form certificate.
    """
    opts = options or SearchOptions()
    gamma = params.gamma_array if gamma is None else np.asarray(gamma, dtype=np.float64)
    q, s = params.q, params.s
    if gamma.size != s:
        raise InvalidInputError(f"gamma has {gamma.size} entries, expected s={s}")
    g = params.effective_coupling
    zeta = critical_temperature(q)
    uniform = bool(np.max(np.abs(gamma - 1.0 / s)) <= 1e-12)
    candidates, probe_max, probe_best, stats = _numerical_candidates(params, gamma, opts)

    if uniform:
        u = potts_fixed_point_u(g, q)
        Q, nus = equilibrium_matrices(g, params)
        phase = classify_phase(g, q, CRITICAL_BAND)
        best = {Phase.CRITICAL: [Q] + nus, Phase.SUBCRITICAL: [Q],
                Phase.SUPERCRITICAL: nus}[phase]
        sup_G = max(free_energy_G(m, params, gamma) for m in best)
        if probe_max > sup_G + MARGIN:
            raise NonConvergenceError(
                f"multistart ascent found G = {probe_max} above the closed-form "
                f"supremum {sup_G}",
                best=probe_best,
                best_value=probe_max,
            )
        if phase is Phase.CRITICAL:
            best = _sort_maximizers(best)
        certificate = "closed-form, certified by multistart ascent"
    else:
        u = math.nan
        values = _free_energy(np.stack(candidates), params)
        sup_G = float(values.max())
        if probe_max > sup_G + MARGIN:
            raise NonConvergenceError(
                f"ascent reached G = {probe_max} but no polished critical point matches",
                best=probe_best,
                best_value=probe_max,
            )
        best = [m for m, v in zip(candidates, values) if v >= sup_G - 1e-10]
        best = _color_permutations(best, q)
        best = [m for m in best if _free_energy(m, params) >= sup_G - 1e-10]
        best = _sort_maximizers(_dedupe_matrices(best))
        has_flat = any(np.max(np.abs(m - candidates[0])) < 1e-7 for m in best)
        if has_flat and len(best) == 1:
            phase = Phase.SUBCRITICAL
        elif has_flat:
            phase = Phase.CRITICAL
        else:
            phase = Phase.SUPERCRITICAL
        certificate = "numerical, no closed-form certificate"
    residual_max = max(
        float(np.max(np.abs(critical_residual(m, params, gamma)))) for m in best
    )
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


def structure_certificate(mu, params, gamma=None, tol=1e-9):
    """Check the structural properties every reported maximizer must satisfy.

    Returns a dict with: strictly positive entries, all rows ordered the
    same way, at most two distinct values per row, and the maximal
    critical-equation residual.
    """
    gamma = params.gamma_array if gamma is None else np.asarray(gamma, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    positive = bool(np.all(mu > 0.0))
    # a common ordering exists iff the columns are totally ordered entrywise;
    # when it does, sorting columns by their sums realizes it
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
    residual = float(np.max(np.abs(critical_residual(mu, params, gamma)))) if positive else math.inf
    return {
        "positive": positive,
        "common_order": common,
        "at_most_two_values": two_values,
        "residual_max": residual,
    }


def two_column_landscape(params, r, mesh=25, gamma=None):
    """Sample G on a mesh of the two-column manifold for a fixed r.

    Each mu_plus_k runs over mesh points of its box, inset by LANDSCAPE_INSET
    of the box width at both ends.  Returns an array with rows (r,
    mu_plus_1, .., mu_plus_s, G).
    """
    gamma = params.gamma_array if gamma is None else np.asarray(gamma, dtype=np.float64)
    q = params.q
    if not 1 <= r <= q - 1:
        raise InvalidInputError(f"r must lie in 1..{q - 1}, got {r}")
    if mesh < 1:
        raise InvalidInputError(f"mesh must be >= 1, got {mesh}")
    axes = []
    for k in range(gamma.size):
        lo = gamma[k] / q
        hi = gamma[k] / r
        pad = LANDSCAPE_INSET * (hi - lo) if hi > lo else 0.0
        axes.append(np.linspace(lo + pad, hi - pad, mesh) if hi > lo
                    else np.array([lo]))
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, gamma.size)
    values = _free_energy(_two_column(r, grid, gamma, q), params)
    return np.column_stack([np.full(values.size, float(r)), grid, values])
