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

Two identities give one softmax per interdependence entry and one moment
pass per site.  (1) Recoloring site j from b to a multiplies color a's
weight in site i's conditional by e^boost, so with p the softmax of the
leave-two-out field, t = expm1(boost) >= 0 and hi, lo the max and min of
p[a], p[b], TV(p_a, p_b) = hi ((1+t)/(1+t hi) - 1/(1+t lo)) =
t hi (1 - hi + (1+t) lo) / ((1+t hi)(1+t lo)), free of cancellation.
(2) With m_f site i's conditional mean of f, sum_c cond_i(c) (f(x) - f_c)^2
= (f(x) - m_f)^2 + sum_c cond_i(c) (f_c - m_f)^2, a sum of squares.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditionNotMetError, InvalidInputError
from .exact import (
    DEFAULT_SUPPORT_CAP,
    block_compositions,
    full_configuration_distribution,
    site_view,
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
# Largest (F, P) float64 block of observables the LSI suite evaluates at
# once: a few such blocks stay in cache, and memory does not grow with the
# number of observables.
CHUNK_BYTES = 1 << 19
# Random indicator products and random linear forms in the structured battery.
BATTERY_PRODUCTS = 8
BATTERY_LINEAR = 2


def lsi_condition(q, beta):
    """Asymptotic smallness condition 2 q beta e^beta < 1."""
    return 2.0 * q * beta * math.exp(beta) < 1.0


def _require_lsi_condition(q, beta):
    if not lsi_condition(q, beta):
        raise ConditionNotMetError(
            f"2 q beta e^beta = {2 * q * beta * math.exp(beta):.6g} >= 1"
        )


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
    _require_lsi_condition(q, beta)
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


def _recoloring_tv(fields, boost):
    """Identity (1): TV(p_a, p_b) for every color pair a < b at site j, shape
    (q(q-1)/2, ...), from site i's leave-two-out fields (q, ...)."""
    p, t = softmax(fields, axis=0), math.expm1(boost)
    first, second = np.triu_indices(len(p), 1)
    hi, lo = np.maximum(p[first], p[second]), np.minimum(p[first], p[second])
    return t * hi * (1.0 - hi + (1.0 + t) * lo) / ((1.0 + t * hi) * (1.0 + t * lo))


def interdependence_matrix_exact(blocks, params, cap=DEFAULT_SUPPORT_CAP):
    """Exact N x N matrix of worst-case conditional total variation responses.

    Entry (i, j), i != j, is the supremum over configuration pairs differing
    at site j only of the total variation distance between site i's
    conditionals.  The conditional sees only leave-one-out counts, so the
    supremum reduces to all count matrices of the remaining N-2 sites times
    the q(q-1)/2 unordered color pairs at j; the entry therefore depends on
    (block(i), block(j)) only, with each distance from identity (1).  The
    diagonal is zero and J need not be symmetric when block sizes differ.
    """
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
            table[ki, kj] = _recoloring_tv(fields, boost).max()
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


def measured_constants(blocks, params):
    """Constants from the measured gamma1 (exact conditional floor) and
    gamma2 = 1 minus the exact two-norm of the interdependence matrix.

    Returns (constants, inf_norm, two_norm); raises ConditionNotMetError
    when the two-norm is not below 1.
    """
    g1 = gamma1_exact(blocks, params)
    inf_norm, two_norm = matrix_norms(interdependence_matrix_exact(blocks, params))
    g2 = 1.0 - two_norm
    if g2 <= 0.0:
        raise ConditionNotMetError(
            f"interdependence two-norm {two_norm} is not below 1 at N={blocks.N}"
        )
    return lsi_constants(g1, g2), inf_norm, two_norm


class ConfigWorkspace:
    """Full configuration-space machinery for the exhaustive checks.

    Holds the exact joint law.  cond, the (P, N, q) array of exact
    single-site conditionals (cond[p, i, c] is the probability of color c at
    site i given the other sites of configuration p), is built on first
    read: local_terms does not need it.  No recoloring index is stored:
    site_view reshapes any per-configuration vector to (q^(N-1-i), q, q^i),
    whose middle axis lists the q recolorings of site i.  On that view site
    i's conditional is the joint law divided by its sum over the middle
    axis, and that sum is the marginal law of the other sites.
    """

    def __init__(self, blocks, params):
        self.blocks = blocks
        self.params = params
        self.dist = full_configuration_distribution(blocks, params, cap=WORKSPACE_CAP)

    @functools.cached_property
    def cond(self):
        N, q = self.blocks.N, self.params.q
        cond = np.empty((len(self.dist), N, q))
        for i in range(N):
            site_cond, _ = self._site_laws(i)
            # whatever color site i has, cond[., i, c] = site_cond[:, c, :]
            site_view(cond[:, i, :].T, i, q)[...] = np.swapaxes(site_cond, 0, 1)[:, :, None]
        return cond

    @property
    def probabilities(self):
        return self.dist.probabilities

    def _site_laws(self, i):
        """Site i's conditional (A, q, B) and the marginal law (A, B) of the
        other sites, on the site-i view."""
        joint = site_view(self.probabilities, i, self.params.q)
        marginal = joint.sum(axis=1)
        return joint / marginal[:, None, :], marginal

    def local_terms(self, fvals):
        """(dsq, cov) for values of shape (..., P): |df|^2 at every
        configuration by identity (2), shape (..., P), and the per-site
        E Cov_i(f, e^f), shape (..., N), from one pass over the conditional
        moments of (f, e^f, f e^f).  Cov_i depends on the other sites only:
        an (A, B) array on the site-i view, weighted by their marginal law."""
        fvals = np.asarray(fvals, dtype=np.float64)
        q = self.params.q
        ef = np.exp(fvals)
        moments = np.stack((fvals, ef, fvals * ef))
        dsq = np.zeros(fvals.shape)
        cov = np.empty(fvals.shape[:-1] + (self.blocks.N,))
        for i in range(self.blocks.N):
            site_cond, marginal = self._site_laws(i)
            m_f, m_e, m_fe = np.einsum("...acb,acb->...ab", site_view(moments, i, q), site_cond)
            cov[..., i] = np.einsum("...ab,ab->...", m_fe - m_f * m_e, marginal)
            sq = np.square(site_view(fvals, i, q) - m_f[..., None, :])
            sq += np.einsum("...acb,acb->...ab", sq, site_cond)[..., None, :]
            site_view(dsq, i, q)[...] += sq
        return dsq, cov


def entropy_functional(f, dist):
    """Ent(f) = E[f log f] - E[f] log E[f] for nonnegative values f on the
    support of an exact law: a float for one (P,) array, an (F,) array for F
    observables given as an (F, P) array."""
    values = np.asarray(f, dtype=np.float64)
    if np.any(values < 0.0):
        raise InvalidInputError("entropy functional needs a nonnegative observable")
    p = dist.probabilities
    flogf = np.where(values > 0.0, values * np.log(np.maximum(values, 1e-300)), 0.0)
    mean = values @ p
    ent = flogf @ p - mean * np.log(np.where(mean > 0.0, mean, 1.0))
    ent = np.where(mean <= 0.0, 0.0, ent)
    return float(ent) if ent.ndim == 0 else ent


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


def _structured_battery(workspace, rng):
    """Indicators, block counts, products of indicators and linear forms,
    one observable at a time, drawing from rng as they are made."""
    cfgs = workspace.dist.configs
    counts = workspace.dist.count_matrices
    P, N = cfgs.shape
    q = workspace.params.q
    yield np.zeros(P)
    for i in range(N):
        for c in range(q):
            yield (cfgs[:, i] == c).astype(np.float64)
    for k in range(workspace.blocks.s):
        for c in range(q):
            yield counts[:, k, c].astype(np.float64)
    for _ in range(BATTERY_PRODUCTS if N >= 2 else 0):  # products need two sites
        i, j = rng.choice(N, size=2, replace=False)
        c1, c2 = rng.integers(0, q, size=2)
        yield ((cfgs[:, i] == c1) & (cfgs[:, j] == c2)).astype(np.float64)
    for _ in range(BATTERY_LINEAR):
        coef = rng.standard_normal(N)
        target = rng.integers(0, q, size=N)
        yield ((cfgs == target[None, :]).astype(np.float64) * coef[None, :]).sum(axis=1)


def _observable_chunks(workspace, rng, num_f, amplitude):
    """The suite's observables as (F, P) arrays of at most CHUNK_BYTES: the
    num_f Gaussian ones, then the structured battery, drawn from rng in
    that order."""
    P = len(workspace.dist)
    rows = max(1, CHUNK_BYTES // (8 * P))
    for start in range(0, num_f, rows):
        yield rng.standard_normal((min(rows, num_f - start), P)) * amplitude
    battery = _structured_battery(workspace, rng)
    while chunk := list(itertools.islice(battery, rows)):
        yield np.stack(chunk)


def verify_lsi_suite(blocks, params, num_f=100, seed=0, amplitude=1.0):
    """Exhaustively verify the three entropy inequalities on a tiny system.

    Uses measured gamma1 (exact conditional floor) and gamma2 = 1 minus the
    exact two-norm of the interdependence matrix, evaluates all integrals by
    full enumeration for num_f centered Gaussian observables plus a
    structured battery (indicators, block counts, products of indicators,
    linear forms), and reports the worst slack and ratio of each
    inequality.  The contract is zero violations; FP_SLACK only absorbs
    last-ulp rounding, and a side that is NaN counts as a violation and
    makes that inequality's worst slack (and ratio) NaN.  Observables are
    evaluated in chunks, so memory does not grow with num_f.
    """
    if num_f < 0:
        raise InvalidInputError(f"num_f must be >= 0, got {num_f}")
    if not math.isfinite(amplitude):
        raise InvalidInputError(f"amplitude must be finite, got {amplitude}")
    _require_lsi_condition(params.q, params.beta)
    workspace = ConfigWorkspace(blocks, params)
    constants, inf_norm, two_norm = measured_constants(blocks, params)

    p = workspace.probabilities
    names = ("entropy_f2", "entropy_expf_cov", "entropy_expf_dirichlet")
    worst_slack = {name: math.inf for name in names}
    worst_ratio = {name: 0.0 for name in names}
    violations = 0
    num_observables = 0
    # e^f can overflow at a large amplitude; the NaN sides that follow are
    # counted as violations and reported as NaN worst values
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for fvals in _observable_chunks(workspace, np.random.default_rng(seed), num_f,
                                        amplitude):
            num_observables += len(fvals)
            dsq, cov = workspace.local_terms(fvals)
            ef = np.exp(fvals)
            mean_ef = ef @ p
            lhs23 = (ef * fvals) @ p - mean_ef * np.log(mean_ef)
            sides = (
                (entropy_functional(fvals * fvals, workspace.dist),
                 2.0 * constants.sigma1_sq * (dsq @ p)),
                (lhs23, constants.sigma2_sq * cov.sum(axis=1)),
                (lhs23, 0.5 * constants.sigma3_sq * ((dsq * ef) @ p)),
            )
            for name, (lhs, rhs) in zip(names, sides):
                worst_slack[name] = float(np.minimum(worst_slack[name], (rhs - lhs).min()))
                ratio = np.where(rhs <= 0.0, 0.0, lhs / rhs)
                worst_ratio[name] = float(np.maximum(worst_ratio[name], ratio.max()))
                tol = FP_SLACK * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
                violations += int(np.count_nonzero(~(lhs <= rhs + tol)))
    return LsiSuiteReport(
        condition_asymptotic=lsi_condition(params.q, params.beta),
        gamma1=constants.gamma1,
        gamma2=constants.gamma2,
        inf_norm=inf_norm,
        two_norm=two_norm,
        constants=constants,
        num_observables=num_observables,
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


def concentration_report(summary, constants, k, c, t_grid):
    """Tail of the block-color count against 2 exp(-t^2 / (2 |S_k| sigma3^2)).

    The tail is empirical, from the chain summary.  A row is flagged when
    the tail exceeds the bound beyond three Monte Carlo standard errors;
    bounds at or above one can never flag.
    """
    rows = []
    size_k = int(summary.samples[0, k].sum())
    n = summary.samples.shape[0]
    for t in np.asarray(t_grid, dtype=np.float64):
        bound = 2.0 * math.exp(-(t * t) / (2.0 * size_k * constants.sigma3_sq))
        tail = tail_estimate(summary, k, c, t)
        se = math.sqrt(max(tail * (1.0 - tail), 0.0) / n)
        flagged = bound < 1.0 and tail > bound + 3.0 * se
        rows.append(ConcentrationRow(float(t), tail, bound, se, flagged))
    return rows
