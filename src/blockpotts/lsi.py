"""Dobrushin-type interdependence matrix, explicit log-Sobolev constants,
and exhaustive verification of the three entropy inequalities on tiny
systems.

The single-site conditionals of the Gibbs measure depend on a configuration
only through leave-one-out counts, so the worst-case total variation
response of site i to a flip at site j (the interdependence matrix J) and
the uniform conditional floor gamma1 can be computed exactly by enumerating
reduced count matrices instead of q^(N-2) configurations.  From measured
gamma1 and gamma2 = 1 - ||J||_{2->2} the explicit constants

    C = 1 / (gamma1 gamma2^2),  sigma2^2 = sigma3^2 = C,
    sigma1^2 = log(1/gamma1) C / log 4

feed three inequalities that are verified here by full-space integration:

    Ent(f^2)  <= 2 sigma1^2 * E |df|^2
    Ent(e^f)  <= sigma2^2 * sum_i E Cov_i(f, e^f)
    Ent(e^f)  <= sigma3^2 / 2 * E |df|^2 e^f

where |df|^2 sums the conditional local variances of f over the sites.
These hold whenever the conditional floor and the norm gap do, so a
violation at any tested observable is a bug, not a tolerance issue.  The
asymptotic smallness condition 2 q beta e^beta < 1 is reported separately.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditionNotMetError, InvalidInputError
from .exact import (
    DEFAULT_SUPPORT_CAP,
    block_compositions,
    exact_observable_distribution,
    full_configuration_distribution,
)
from .glauber import tail_estimate
from .model import field_from_sums
from .numutil import softmax

# Largest q^N the full configuration workspace enumerates.
WORKSPACE_CAP = 4_000_000
# Relative tolerance and iteration budget of the power iteration for the
# two-norm of J.
NORM_TOL = 1e-10
NORM_MAX_ITER = 20_000
# Relative rounding allowance of the inequality checks: the contract is zero
# violations, and this absorbs last-ulp rounding only.
FP_SLACK = 1e-12


def lsi_condition(q, beta):
    """Asymptotic smallness condition 2 q beta e^beta < 1."""
    return 2.0 * q * beta * math.exp(beta) < 1.0


def gamma1_floor(q, beta):
    """Analytic lower bound 1/(1 + (q-1) e^beta) valid for every N.

    Leave-one-out fields lie in [0, beta), so no conditional probability can
    fall below this value.
    """
    return 1.0 / (1.0 + (q - 1.0) * math.exp(beta))


def gamma2_asymptotic(q, beta):
    """Large-N spectral margin 1 - 2 q beta e^beta (may be <= 0)."""
    return 1.0 - 2.0 * q * beta * math.exp(beta)


@dataclass(frozen=True)
class LsiConstants:
    """Explicit constants derived from the conditional floor and norm gap."""

    gamma1: float
    gamma2: float
    C: float
    sigma1_sq: float
    sigma2_sq: float
    sigma3_sq: float


def lsi_constants(gamma1, gamma2):
    """Constants C = 1/(gamma1 gamma2^2), sigma2^2 = sigma3^2 = C, sigma1^2 = log(1/gamma1) C / log 4.

    gamma2 = 1 is admitted: it is what an exactly independent system
    measures (zero interdependence matrix).
    """
    if not 0.0 < gamma1 <= 1.0:
        raise InvalidInputError(f"gamma1 must lie in (0, 1], got {gamma1}")
    if not 0.0 < gamma2 <= 1.0:
        raise InvalidInputError(f"gamma2 must lie in (0, 1], got {gamma2}")
    C = 1.0 / (gamma1 * gamma2 * gamma2)
    return LsiConstants(
        gamma1=gamma1,
        gamma2=gamma2,
        C=C,
        sigma1_sq=math.log(1.0 / gamma1) * C / math.log(4.0),
        sigma2_sq=C,
        sigma3_sq=C,
    )


def asymptotic_constants(q, beta):
    """Constants from the analytic floor and the large-N norm bound.

    Valid for N large enough that the exact norm sits below its asymptote;
    raises when the smallness condition fails outright.
    """
    if not lsi_condition(q, beta):
        raise ConditionNotMetError(
            f"2 q beta e^beta = {2 * q * beta * math.exp(beta):.6g} >= 1"
        )
    return lsi_constants(gamma1_floor(q, beta), gamma2_asymptotic(q, beta))


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


def gamma1_exact(blocks, params, cap=DEFAULT_SUPPORT_CAP):
    """Exact minimum single-site conditional probability over all configurations.

    For a site in block k the conditional is softmax of the leave-one-out
    field, which depends only on the leave-one-out count matrix, so the
    minimum is taken over all count matrices with row sums
    sizes - e_k, for every k.
    """
    best = 1.0
    for ki in range(blocks.s):
        reduced = list(blocks.sizes)
        reduced[ki] -= 1
        fields = _loo_fields_by_color(reduced, ki, params, blocks.N, cap)
        best = min(best, float(softmax(fields, axis=0).min()))
    return best


def interdependence_matrix_exact(blocks, params, cap=DEFAULT_SUPPORT_CAP):
    """Exact N x N matrix of worst-case conditional total variation responses.

    Entry (i, j), i != j, is the supremum over configuration pairs differing
    at site j only of the total variation distance between site i's
    conditionals.  The conditional sees only leave-one-out counts, so the
    supremum reduces to all count matrices of the remaining N-2 sites times
    the q(q-1)/2 unordered color pairs at j; the entry therefore depends on
    (block(i), block(j)) only.  The diagonal is zero and J need not be
    symmetric when block sizes differ.
    """
    q, s = params.q, blocks.s
    first, second = np.triu_indices(q, 1)
    table = np.zeros((s, s), dtype=np.float64)
    for ki in range(s):
        for kj in range(s):
            reduced = list(blocks.sizes)
            reduced[ki] -= 1
            reduced[kj] -= 1
            if min(reduced) < 0:
                continue  # no ordered site pair with these block labels
            base = _loo_fields_by_color(reduced, ki, params, blocks.N, cap)
            boost = (params.beta if ki == kj else params.alpha) / blocks.N
            # probs[a] is site i's conditional when site j has color a
            probs = softmax(base + boost * np.eye(q)[:, :, None], axis=1)
            table[ki, kj] = (0.5 * np.abs(probs[first] - probs[second]).sum(axis=1)).max()
    site_blocks = blocks.site_blocks
    J = table[site_blocks[:, None], site_blocks[None, :]]
    np.fill_diagonal(J, 0.0)
    return J


def matrix_norms(J):
    """(inf_norm, two_norm) of a matrix.

    inf_norm is the maximum absolute row sum; two_norm is the largest
    singular value, obtained by power iteration on J^t J to relative
    tolerance NORM_TOL within NORM_MAX_ITER steps.  The result is checked
    against the interpolation bound two_norm <= sqrt(one_norm * inf_norm).
    """
    J = np.asarray(J, dtype=np.float64)
    inf_norm = float(np.abs(J).sum(axis=1).max()) if J.size else 0.0
    one_norm = float(np.abs(J).sum(axis=0).max()) if J.size else 0.0
    n = J.shape[1]
    v = np.full(n, 1.0 / math.sqrt(n)) if n else np.zeros(0)
    lam = 0.0
    two_norm = 0.0
    for _ in range(NORM_MAX_ITER):
        w = J.T @ (J @ v)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            two_norm = 0.0
            break
        v = w / norm_w
        if abs(norm_w - lam) <= NORM_TOL * max(1.0, norm_w):
            lam = norm_w
            two_norm = math.sqrt(lam)
            break
        lam = norm_w
    else:
        two_norm = math.sqrt(lam)
    cross = math.sqrt(one_norm * inf_norm)
    if two_norm > cross * (1.0 + 1e-9) + 1e-300:
        raise RuntimeError(
            f"power iteration returned {two_norm} above sqrt(one*inf) = {cross}"
        )
    return inf_norm, two_norm


class ConfigWorkspace:
    """Full configuration-space machinery for the exhaustive checks.

    Holds the exact joint law, the index of every single-site recoloring,
    and the exact single-site conditionals of every configuration.
    """

    def __init__(self, blocks, params):
        self.blocks = blocks
        self.params = params
        self.dist = full_configuration_distribution(blocks, params, cap=WORKSPACE_CAP)
        P = len(self.dist)
        N, q = blocks.N, params.q
        place = params.q ** np.arange(N, dtype=np.int64)
        codes = np.arange(P, dtype=np.int64)
        digits = self.dist.configs.astype(np.int64)
        self.flip = (
            codes[:, None, None]
            + (np.arange(q)[None, None, :] - digits[:, :, None]) * place[None, :, None]
        )
        joint = self.dist.probabilities[self.flip]
        self.cond = joint / joint.sum(axis=2, keepdims=True)

    @property
    def probabilities(self):
        return self.dist.probabilities

    def difference_sq_all(self, fvals):
        """|df|^2 at every configuration: summed conditional local variances."""
        diff = fvals[:, None, None] - fvals[self.flip]
        return np.einsum("pic,pic->p", self.cond, diff * diff)

    def covariance_terms(self, fvals):
        """Per-site integrated conditional covariances of (f, e^f), length N."""
        fv = fvals[self.flip]
        ef = np.exp(fv)
        m_f = np.einsum("pic,pic->pi", self.cond, fv)
        m_e = np.einsum("pic,pic->pi", self.cond, ef)
        m_fe = np.einsum("pic,pic->pi", self.cond, fv * ef)
        cov = m_fe - m_f * m_e
        return self.probabilities @ cov


def entropy_functional(f, dist):
    """Ent(f) = E[f log f] - E[f] log E[f] for a nonnegative array f of values
    on the support of an exact law."""
    values = np.asarray(f, dtype=np.float64)
    if np.any(values < 0.0):
        raise InvalidInputError("entropy functional needs a nonnegative observable")
    p = dist.probabilities
    flogf = np.where(values > 0.0, values * np.log(np.maximum(values, 1e-300)), 0.0)
    mean = float(p @ values)
    if mean <= 0.0:
        return 0.0
    return float(p @ flogf - mean * math.log(mean))


@dataclass(frozen=True)
class LsiSuiteReport:
    """Outcome of the exhaustive three-inequality verification."""

    condition_asymptotic: bool
    gamma1: float
    gamma2: float
    inf_norm: float
    two_norm: float
    constants: LsiConstants
    num_observables: int
    worst_slack: dict
    worst_ratio: dict
    violations: int


def _structured_battery(workspace, rng, n_products=8, n_linear=2):
    cfgs = workspace.dist.configs
    counts = workspace.dist.count_matrices
    P, N = cfgs.shape
    q = workspace.params.q
    obs = [np.zeros(P)]
    for i in range(N):
        for c in range(q):
            obs.append((cfgs[:, i] == c).astype(np.float64))
    for k in range(workspace.blocks.s):
        for c in range(q):
            obs.append(counts[:, k, c].astype(np.float64))
    for _ in range(n_products):
        i, j = rng.choice(N, size=2, replace=False)
        c1, c2 = rng.integers(0, q, size=2)
        obs.append(((cfgs[:, i] == c1) & (cfgs[:, j] == c2)).astype(np.float64))
    for _ in range(n_linear):
        coef = rng.standard_normal(N)
        target = rng.integers(0, q, size=N)
        obs.append(((cfgs == target[None, :]).astype(np.float64) * coef[None, :]).sum(axis=1))
    return obs


def verify_lsi_suite(blocks, params, num_f=100, seed=0, amplitude=1.0):
    """Exhaustively verify the three entropy inequalities on a tiny system.

    Uses measured gamma1 (exact conditional floor) and gamma2 = 1 minus the
    exact two-norm of the interdependence matrix, evaluates all integrals by
    full enumeration for num_f centered Gaussian observables plus a
    structured battery (indicators, block counts, products of indicators,
    linear forms), and reports the worst slack of each inequality.  The
    contract is zero violations; FP_SLACK only absorbs last-ulp rounding,
    and a side that is NaN counts as a violation.
    """
    if num_f < 0:
        raise InvalidInputError(f"num_f must be >= 0, got {num_f}")
    if not math.isfinite(amplitude):
        raise InvalidInputError(f"amplitude must be finite, got {amplitude}")
    if not lsi_condition(params.q, params.beta):
        raise ConditionNotMetError(
            f"2 q beta e^beta = {2 * params.q * params.beta * math.exp(params.beta):.6g} >= 1"
        )
    workspace = ConfigWorkspace(blocks, params)
    g1 = gamma1_exact(blocks, params)
    J = interdependence_matrix_exact(blocks, params)
    inf_norm, two_norm = matrix_norms(J)
    g2 = 1.0 - two_norm
    if g2 <= 0.0:
        raise ConditionNotMetError(
            f"interdependence two-norm {two_norm} is not below 1 at N={blocks.N}"
        )
    constants = lsi_constants(g1, g2)

    rng = np.random.default_rng(seed)
    observables = [rng.standard_normal(len(workspace.dist)) * amplitude for _ in range(num_f)]
    observables.extend(_structured_battery(workspace, rng))

    p = workspace.probabilities
    names = ("entropy_f2", "entropy_expf_cov", "entropy_expf_dirichlet")
    worst_slack = {name: math.inf for name in names}
    worst_ratio = {name: 0.0 for name in names}
    violations = 0
    for fvals in observables:
        dsq = workspace.difference_sq_all(fvals)
        ef = np.exp(fvals)
        lhs1 = entropy_functional(fvals * fvals, workspace.dist)
        rhs1 = 2.0 * constants.sigma1_sq * float(p @ dsq)
        lhs23 = float(p @ (ef * fvals) - (p @ ef) * math.log(p @ ef))
        rhs2 = constants.sigma2_sq * float(workspace.covariance_terms(fvals).sum())
        rhs3 = 0.5 * constants.sigma3_sq * float(p @ (dsq * ef))
        for name, lhs, rhs in (
            (names[0], lhs1, rhs1),
            (names[1], lhs23, rhs2),
            (names[2], lhs23, rhs3),
        ):
            slack = rhs - lhs
            worst_slack[name] = min(worst_slack[name], slack)
            if rhs > 0.0:
                worst_ratio[name] = max(worst_ratio[name], lhs / rhs)
            if not lhs <= rhs + FP_SLACK * max(1.0, abs(lhs), abs(rhs)):
                violations += 1
    return LsiSuiteReport(
        condition_asymptotic=lsi_condition(params.q, params.beta),
        gamma1=g1,
        gamma2=g2,
        inf_norm=inf_norm,
        two_norm=two_norm,
        constants=constants,
        num_observables=len(observables),
        worst_slack=worst_slack,
        worst_ratio=worst_ratio,
        violations=violations,
    )


@dataclass(frozen=True)
class ConcentrationRow:
    t: float
    tail: float
    bound: float
    std_error: float
    flagged: bool


def concentration_report(summary, constants, k, c, t_grid, exact_dist=None):
    """Tail of the block-color count against 2 exp(-t^2 / (2 |S_k| sigma3^2)).

    The tail is empirical (from the chain summary) unless an exact law is
    supplied.  A row is flagged when the tail exceeds the bound beyond three
    Monte Carlo standard errors; bounds at or above one can never flag.
    """
    rows = []
    if exact_dist is not None:
        law = exact_observable_distribution(exact_dist, k, c)
        values = np.arange(law.size, dtype=np.float64)
        mean = float(law @ values)
        size_k = law.size - 1
    else:
        size_k = int(summary.samples[0, k].sum())
    for t in np.asarray(t_grid, dtype=np.float64):
        bound = 2.0 * math.exp(-(t * t) / (2.0 * size_k * constants.sigma3_sq))
        if exact_dist is not None:
            tail = float(law[np.abs(values - mean) >= t].sum())
            se = 0.0
        else:
            tail = tail_estimate(summary, k, c, t)
            n = summary.samples.shape[0]
            se = math.sqrt(max(tail * (1.0 - tail), 0.0) / n)
        flagged = bound < 1.0 and tail > bound + 3.0 * se
        rows.append(ConcentrationRow(float(t), tail, bound, se, flagged))
    return rows
