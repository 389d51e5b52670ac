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
from .rates import free_energy_G


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


def _fixed_point_rhs(u, g, q):
    e = np.exp(-g * u)
    return (1.0 - e) / (1.0 + (q - 1.0) * e)


def potts_fixed_point_u(g, q, grid_points=10_000):
    """Largest solution u in [0, 1) of u = (1 - e^{-gu}) / (1 + (q-1) e^{-gu}).

    The equation can have one to three roots and Newton from a bad start
    misses the largest, so the unit interval is scanned on a grid for sign
    changes of rhs(u) - u and each bracket is bisected; 0 is returned when
    no positive solution exists.
    """
    if g <= 0.0:
        return 0.0
    grid = np.linspace(1e-12, 1.0 - 1e-12, grid_points)
    f = _fixed_point_rhs(grid, g, q) - grid
    roots = [0.0]
    sign_change = np.nonzero(np.diff(np.signbit(f)))[0]
    for j in sign_change:
        lo, hi = grid[j], grid[j + 1]
        flo = f[j]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fmid = _fixed_point_rhs(mid, g, q) - mid
            if (fmid > 0.0) == (flo > 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
            if hi - lo < 1e-15:
                break
        roots.append(0.5 * (lo + hi))
    exact_hits = grid[f == 0.0]
    roots.extend(float(u) for u in exact_hits)
    return max(roots)


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


def two_column_matrix(r, mu_plus, gamma, q):
    """BLOCK matrix with q-r small columns and r large columns per row.

    The small value is determined by the row constraint:
    mu_minus = (gamma - r mu_plus) / (q - r); columns are emitted in
    increasing order (small columns first).
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    mu_plus = np.asarray(mu_plus, dtype=np.float64)
    if not 1 <= r <= q - 1:
        raise InvalidInputError(f"r must lie in 1..{q - 1}, got {r}")
    mu_minus = (gamma - r * mu_plus) / (q - r)
    mat = np.empty((gamma.size, q), dtype=np.float64)
    mat[:, : q - r] = mu_minus[:, None]
    mat[:, q - r :] = mu_plus[:, None]
    return mat


@dataclass(frozen=True)
class SearchOptions:
    """Knobs of the numerical maximization; defaults match the test suite."""

    restarts: int = 32
    seed: int = 0
    max_iter: int = 500
    grad_tol: float = 1e-10
    step_tol: float = 1e-12
    margin: float = 1e-9
    critical_band: float = 1e-9


@dataclass(frozen=True)
class EquilibriumReport:
    """Classified maximizer set of G on C(gamma)."""

    phase: Phase
    g: float
    zeta_q: float
    maximizers: list
    sup_G: float
    residual_max: float
    u: float
    certificate: str


def _reduced_gradient(r, mu_plus, params, gamma):
    """Derivative of G along the two-column manifold, one entry per block.

    h_k = dG/dmu at a large entry of row k minus the same at a small entry;
    its zeros are exactly the critical points with this column structure.
    """
    q = params.q
    mu_minus = (gamma - r * mu_plus) / (q - r)
    s_plus = mu_plus.sum()
    s_minus = mu_minus.sum()
    d = params.beta - params.alpha
    return (
        d * (mu_plus - mu_minus)
        + params.alpha * (s_plus - s_minus)
        - np.log(mu_plus / mu_minus)
    )


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
        accepted = False
        for _ in range(40):
            y = x + t * step
            if np.all(y > lo) and np.all(y < hi):
                hy = _reduced_gradient(r, y, params, gamma)
                if np.max(np.abs(hy)) < hnorm:
                    x = y
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            return None
    h = _reduced_gradient(r, x, params, gamma)
    return x if np.max(np.abs(h)) < 1e-13 else None


def _two_column_value(r, mu_plus, params, gamma):
    return free_energy_G(two_column_matrix(r, mu_plus, gamma, params.q), params, gamma)


def _ascend_two_column(r, x0, params, gamma, opts):
    """Projected gradient ascent of G in the mu_plus box coordinates."""
    q = params.q
    eps = 1e-11
    lo = gamma / q * (1.0 + eps) + 1e-15
    hi = gamma / r * (1.0 - eps)
    x = np.clip(np.asarray(x0, dtype=np.float64), lo, hi)
    fx = _two_column_value(r, x, params, gamma)
    step = 1.0
    for _ in range(opts.max_iter):
        grad = r * _reduced_gradient(r, x, params, gamma)
        t = step
        y, fy = x, fx
        for _ in range(60):
            cand = np.clip(x + t * grad, lo, hi)
            fcand = _two_column_value(r, cand, params, gamma)
            if fcand > fx:
                y, fy, step = cand, fcand, t * 2.0
                break
            t *= 0.5
            if t < opts.step_tol:
                break
        if fy <= fx:
            break
        moved = np.max(np.abs(y - x))
        x, fx = y, fy
        if moved < opts.step_tol:
            break
        pg = np.clip(x + grad, lo, hi) - x
        if np.max(np.abs(pg)) < opts.grad_tol:
            break
    return x, fx


def _project_rows(mat, gamma):
    out = np.empty_like(mat)
    for k in range(gamma.size):
        out[k] = project_simplex(mat[k], total=gamma[k])
    return out


def _ascend_full_matrix(x0, params, gamma, opts):
    """Row-simplex projected gradient ascent of G over all of C(gamma).

    Safety net for the manifold search; its endpoints are used as value
    probes rather than reported maximizers.
    """
    x = _project_rows(np.asarray(x0, dtype=np.float64), gamma)
    fx = free_energy_G(x, params, gamma)
    step = 1.0
    for _ in range(opts.max_iter):
        grad = gradient_G(x, params)
        t = step
        y, fy = x, fx
        for _ in range(60):
            cand = _project_rows(x + t * grad, gamma)
            fcand = free_energy_G(cand, params, gamma)
            if fcand > fx:
                y, fy, step = cand, fcand, t * 2.0
                break
            t *= 0.5
            if t < opts.step_tol:
                break
        if fy <= fx:
            break
        moved = np.max(np.abs(y - x))
        x, fx = y, fy
        if moved < opts.step_tol:
            break
    return x, fx


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

    Returns (candidates, probe_max, probe_best): Newton-polished critical
    points, the best value seen by any ascent (polished or not), and the
    matrix that achieved it.
    """
    q = params.q
    rng = np.random.default_rng(opts.seed)
    flat = np.tile(gamma[:, None] / q, (1, q))
    candidates = [flat]
    probe_max = free_energy_G(flat, params, gamma)
    probe_best = flat
    for r in range(1, q):
        lo = gamma / q
        hi = gamma / r
        for _ in range(opts.restarts):
            x0 = lo + rng.random(gamma.size) * (hi - lo)
            x, fx = _ascend_two_column(r, x0, params, gamma, opts)
            if fx > probe_max:
                probe_max, probe_best = fx, two_column_matrix(r, x, gamma, q)
            polished = _newton_two_column(r, x, params, gamma)
            if polished is None:
                continue
            mat = two_column_matrix(r, polished, gamma, q)
            if np.all(mat > 0.0):
                candidates.append(mat)
                fmat = free_energy_G(mat, params, gamma)
                if fmat > probe_max:
                    probe_max, probe_best = fmat, mat
    for _ in range(opts.restarts):
        raw = rng.dirichlet(np.ones(q), size=gamma.size) * gamma[:, None]
        x, fx = _ascend_full_matrix(raw, params, gamma, opts)
        if fx > probe_max:
            probe_max, probe_best = fx, x
    return candidates, probe_max, probe_best


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
    closed-form value by more than options.margin.
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

    if uniform:
        u = potts_fixed_point_u(g, q)
        Q, nus = equilibrium_matrices(g, params)
        phase = classify_phase(g, q, opts.critical_band)
        maxset = {Phase.CRITICAL: [Q] + nus, Phase.SUBCRITICAL: [Q],
                  Phase.SUPERCRITICAL: nus}[phase]
        values = [free_energy_G(m, params, gamma) for m in maxset]
        sup_G = max(values)
        residual_max = max(
            float(np.max(np.abs(critical_residual(m, params, gamma)))) for m in maxset
        )
        _, probe_max, probe_best = _numerical_candidates(params, gamma, opts)
        if probe_max > sup_G + opts.margin:
            raise NonConvergenceError(
                f"multistart ascent found G = {probe_max} above the closed-form "
                f"supremum {sup_G}",
                best=probe_best,
                best_value=probe_max,
            )
        return EquilibriumReport(
            phase=phase,
            g=g,
            zeta_q=zeta,
            maximizers=_sort_maximizers(maxset) if phase is Phase.CRITICAL else maxset,
            sup_G=sup_G,
            residual_max=residual_max,
            u=u,
            certificate="closed-form, certified by multistart ascent",
        )

    candidates, probe_max, probe_best = _numerical_candidates(params, gamma, opts)
    if not candidates:
        raise NonConvergenceError("no critical point found by the numerical search")
    values = [free_energy_G(m, params, gamma) for m in candidates]
    sup_G = max(values)
    if probe_max > sup_G + opts.margin:
        raise NonConvergenceError(
            f"ascent reached G = {probe_max} but no polished critical point matches",
            best=probe_best,
            best_value=probe_max,
        )
    best = [m for m, v in zip(candidates, values) if v >= sup_G - 1e-10]
    best = _color_permutations(best, q)
    best = [m for m in best if free_energy_G(m, params, gamma) >= sup_G - 1e-10]
    best = _sort_maximizers(_dedupe_matrices(best))
    flat = np.tile(gamma[:, None] / q, (1, q))
    has_flat = any(np.max(np.abs(m - flat)) < 1e-7 for m in best)
    only_flat = has_flat and len(best) == 1
    if only_flat:
        phase = Phase.SUBCRITICAL
    elif has_flat:
        phase = Phase.CRITICAL
    else:
        phase = Phase.SUPERCRITICAL
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
        u=math.nan,
        certificate="numerical, no closed-form certificate",
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


def two_column_landscape(params, r, mesh=25, gamma=None, inset=1e-6):
    """Sample G on a mesh of the two-column manifold for a fixed r.

    Returns an array with rows (r, mu_plus_1, .., mu_plus_s, G).
    """
    gamma = params.gamma_array if gamma is None else np.asarray(gamma, dtype=np.float64)
    q = params.q
    if not 1 <= r <= q - 1:
        raise InvalidInputError(f"r must lie in 1..{q - 1}, got {r}")
    axes = []
    for k in range(gamma.size):
        lo = gamma[k] / q
        hi = gamma[k] / r
        pad = inset * (hi - lo) if hi > lo else 0.0
        axes.append(np.linspace(lo + pad, hi - pad, mesh) if hi > lo
                    else np.array([lo]))
    rows = []
    for point in itertools.product(*axes):
        mu_plus = np.asarray(point)
        value = _two_column_value(r, mu_plus, params, gamma)
        rows.append([float(r), *mu_plus.tolist(), value])
    return np.asarray(rows, dtype=np.float64)
