"""Dobrushin-type interdependence matrix, explicit log-Sobolev constants,
and exhaustive verification of the three entropy inequalities on tiny
systems.

The single-site conditionals of the Gibbs measure depend on a configuration
only through leave-one-out counts, so the worst-case total variation
response of site i to a flip at site j (the interdependence matrix J) can
be computed exactly by enumerating two color-count vectors (identity (3)
below) instead of q^(N-2) configurations.  The uniform conditional floor
gamma1 has a closed form: for a site in block k the leave-one-out field F
satisfies F >= 0 and sum_d F_d = S_k = ((beta - alpha)(n_k - 1) + alpha
(N - 1)) / N for every count matrix of the other sites, so by convexity of
exp on that simplex

    1 / p_c = sum_d e^(F_d - F_c) <= q - 1 + e^(S_k),

with equality when every other site has one color d != c (F = S_k e_d).
S_k grows with n_k because beta >= alpha, so gamma1 = 1 / (q - 1 + e^S)
at the largest block.  From gamma1 and gamma2 = 1 - ||J||_{2->2} the
explicit constants

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

Three identities give one softmax per interdependence entry, one moment
pass per site and one two-axis grid per block size.  (1) Recoloring site j
from b to a multiplies color a's weight in site i's conditional by
e^boost, so with p the softmax of the leave-two-out field, t = expm1(boost)
>= 0 and hi, lo the max and min of p[a], p[b], TV(p_a, p_b) =
hi ((1+t)/(1+t hi) - 1/(1+t lo)) = t hi (1 - hi + (1+t) lo) /
((1+t hi)(1+t lo)), free of cancellation.
(2) With m_f site i's conditional mean of f, sum_c cond_i(c) (f(x) - f_c)^2
= (f(x) - m_f)^2 + sum_c cond_i(c) (f_c - m_f)^2, a sum of squares.
(3) Let site i lie in block k and site j be recolored.  Site i's
leave-two-out field is F_c = ((beta - alpha) x_c + alpha (x_c + y_c)) / N,
with x the color counts of the own = n_k - 2 other sites of block k when j
is in block k (else own = n_k - 1), and y those of the rest = N - n_k
(resp. N - n_k - 1) sites outside block k other than j.  Every composition
of rest sites is a sum of per-block compositions, so comps(own) x
comps(rest) reaches exactly the fields that the count matrices of the N - 2
other sites reach.  J[i, j] therefore depends only on n_k and on whether j
shares i's block, with boost beta / N when it does and alpha / N when not.

The workspace's joint law is exact.full_configuration_distribution, built
on the product grid of per-site-group color-count tables: its sums are
integers below 2^53, exact in float64, so its weights are those of
interaction_form on the count matrices bit for bit, and its peak memory is
its outputs.  It holds no decoded configuration: the structured battery
builds each observable from the configuration codes, an indicator as the
color-c slice of a site view, and a linear form in slabs of its terms.

Every whole-support pass works in slabs of numutil.CHUNK_BYTES: the
interdependence entries take their maxima over slabs of each grid's
leave-two-out fields, and the suite evaluates its observables in (F, P)
chunks, so memory beyond the composition tables and the joint law grows
neither with the support nor with the observables.  Each Gaussian chunk is
scaled in place, and exp_moments writes its three moments into one
preallocated array.  On a site's view the innermost run is q^i elements,
so a site i < N // 2 is evaluated at site N - 1 - i of one copy of the
chunk with its N site axes reversed, against the joint law reversed the
same way (built once per workspace): every site's recoloring axis then has
an inner run of at least q^(N // 2).

The concentration check reads every tail of a t grid from one sort of a
chain's deviations and needs nothing of the sampler but its sample array.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConditionNotMetError, InvalidInputError
from .exact import (
    DEFAULT_SUPPORT_CAP,
    block_compositions,
    full_configuration_distribution,
    site_view,
)
from .model import (check_block_color, check_cap, check_consistent, check_count,
                    field_from_sums, shown_count)
from .numutil import CHUNK_BYTES, LEAF, _xlogx, softmax

# Largest q^N the full configuration workspace enumerates.
WORKSPACE_CAP = 4_000_000
# Most Gaussian observable values num_f * q^N the suite draws and integrates.
MAX_SUITE_VALUES = 1_000_000_000
# Relative rounding allowance of the inequality checks: the contract is zero
# violations, and this absorbs last-ulp rounding only.
FP_SLACK = 1e-12
# Random indicator products and random linear forms in the structured battery.
BATTERY_PRODUCTS = 8
BATTERY_LINEAR = 2


def _exp(x):
    """math.exp(x), or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _smallness(q, beta):
    """2 q beta e^beta for any q, inf where it overflows; beta = 0 gives 0."""
    try:
        return 2.0 * beta * q * _exp(beta)
    except OverflowError:  # q past the float range
        return _exp(math.log(2 * q) + math.log(beta) + beta) if beta > 0.0 else 0.0


def lsi_condition(q, beta):
    """Asymptotic smallness condition 2 q beta e^beta < 1."""
    return _smallness(q, beta) < 1.0


def _require_lsi_condition(q, beta):
    if not lsi_condition(q, beta):
        raise ConditionNotMetError(f"2 q beta e^beta = {_smallness(q, beta):.6g} >= 1")


def gamma1_floor(q, beta):
    """Analytic lower bound 1/(1 + (q-1) e^beta) valid for every N.

    Leave-one-out fields lie in [0, beta), so no conditional probability can
    fall below this value; past the float range of q it is e^-(log(q-1) + beta).
    """
    try:
        return 1.0 / (1.0 + (q - 1.0) * _exp(beta))
    except OverflowError:  # q past the float range: the 1 is negligible
        return math.exp(-math.log(q - 1) - beta)


def gamma2_asymptotic(q, beta):
    """Large-N spectral margin 1 - 2 q beta e^beta (may be <= 0)."""
    return 1.0 - _smallness(q, beta)


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
    raises when the smallness condition fails outright.  The floor is about
    1/q, so past q of about 1e308 it underflows or a constant overflows a
    float; such a q is refused with a CapacityError that names it.
    """
    _require_lsi_condition(q, beta)
    gamma1 = gamma1_floor(q, beta)
    if gamma1 > 0.0:
        constants = lsi_constants(gamma1, gamma2_asymptotic(q, beta))
        if math.isfinite(constants.C) and math.isfinite(constants.sigma1_sq):
            return constants
    raise CapacityError(f"the log-Sobolev constants at q={shown_count(q)} overflow a float",
                        required=q)


def gamma1_exact(blocks, params):
    """Exact minimum single-site conditional probability over all configurations.

    The closed form 1 / (q - 1 + e^top) of the module docstring, with top
    the leave-one-out field of a site in the largest block whose other
    sites all share one color, evaluated as the smallest entry of the
    softmax of that field.
    """
    check_consistent(params, blocks)
    top = field_from_sums(max(blocks.sizes) - 1, blocks.N - 1, params) / blocks.N
    return float(softmax(top * np.eye(params.q), axis=0).min())


def _recoloring_tv(fields, boost):
    """Identity (1): TV(p_a, p_b) for every color pair a < b at site j, shape
    (q(q-1)/2, ...) in the order of np.triu_indices, from site i's
    leave-two-out fields (q, ...).  Each color a meets the view p[a+1:],
    so no pair is gathered into a copy."""
    p, t = softmax(fields, axis=0), math.expm1(boost)
    out = np.empty((len(p) * (len(p) - 1) // 2, *p.shape[1:]))
    row = 0
    for a in range(len(p) - 1):
        rest = p[a + 1:]
        hi, lo = np.maximum(p[a], rest), np.minimum(p[a], rest)
        out[row : row + len(rest)] = (t * hi * (1.0 - hi + (1.0 + t) * lo)
                                      / ((1.0 + t * hi) * (1.0 + t * lo)))
        row += len(rest)
    return out


def _worst_recoloring_tv(own, rest, boost, params, N, cap):
    """Largest identity (1) distance over the grid comps(own) x comps(rest)
    of identity (3), taken on slabs of rows of comps(own) whose fields hold
    about LEAF elements; 0 when a count is negative, since then no site
    pair has these counts."""
    if min(own, rest) < 0:
        return 0.0
    # color-major tables keep each slab's fields C-ordered (q, rows, len(y)):
    # the softmax then sums whole rows, color by color in order, which is
    # both fast and the summation order of a (q, P) field array
    x, y = (np.ascontiguousarray(c.T) for c in block_compositions((own, rest), params.q, cap))
    rows = max(1, LEAF // (params.q * y.shape[1]))
    worst = 0.0
    for lo in range(0, x.shape[1], rows):
        xs = x[:, lo : lo + rows, None]
        fields = field_from_sums(xs, xs + y[:, None, :], params)
        fields /= N
        worst = max(worst, _recoloring_tv(fields, boost).max())
    return worst


def interdependence_matrix_exact(blocks, params, cap=DEFAULT_SUPPORT_CAP):
    """Exact N x N matrix of worst-case conditional total variation responses.

    Entry (i, j), i != j, is the supremum over configuration pairs differing
    at site j only of the total variation distance between site i's
    conditionals, over the q(q-1)/2 unordered color pairs at j, each from
    identity (1).  By identity (3) the entry depends only on the size of
    site i's block and on whether j shares it, so one grid of the color
    counts of i's other block-mates times those of every other site
    outside the block (each grid checked against cap) gives both entries
    of each distinct block size.  The diagonal is zero and J need not be
    symmetric when block sizes differ.
    """
    check_consistent(params, blocks)
    N = blocks.N
    worst = {n: (_worst_recoloring_tv(n - 2, N - n, params.beta / N, params, N, cap),
                 _worst_recoloring_tv(n - 1, N - n - 1, params.alpha / N, params, N, cap))
             for n in dict.fromkeys(blocks.sizes)}
    site_blocks = blocks.site_blocks
    same, other = np.array([worst[n] for n in blocks.sizes])[site_blocks].T
    J = np.where(site_blocks[:, None] == site_blocks, same[:, None], other[:, None])
    np.fill_diagonal(J, 0.0)
    return J


def matrix_norms(J):
    """(inf_norm, two_norm) of a matrix: the maximum absolute row sum and
    the largest singular value, from LAPACK's SVD (np.linalg.norm(J, 2))."""
    J = np.asarray(J, dtype=np.float64)
    if J.size == 0:
        return 0.0, 0.0
    return float(np.abs(J).sum(axis=1).max()), float(np.linalg.norm(J, 2))


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


def _reverse_sites(values, q, N):
    """Per-configuration values (..., q^N) with their N site axes reversed,
    as a contiguous copy of the same shape: site i of values sits at site
    N - 1 - i of the result, so reversing twice gives values back."""
    lead = values.ndim - 1
    sites = values.reshape(*values.shape[:-1], *(q,) * N)
    order = (*range(lead), *range(lead + N - 1, lead - 1, -1))
    return np.ascontiguousarray(sites.transpose(order)).reshape(values.shape)


def _site_laws(probabilities, i, q):
    """Site i's conditional (A, q, B) and the marginal law (A, B) of the
    other sites, on the site-i view of a joint law."""
    joint = site_view(probabilities, i, q)
    marginal = joint.sum(axis=1)
    return joint / marginal[:, None, :], marginal


def _site_terms(moments, probabilities, i, q):
    """Site i's addend of |df|^2 on the site-i view, shape (..., A, q, B),
    and its E Cov_i(f, e^f), shape (...), from the stacked moments and the
    joint law of one layout."""
    site_cond, marginal = _site_laws(probabilities, i, q)
    m_f, m_e, m_fe = np.einsum("...acb,acb->...ab", site_view(moments, i, q), site_cond)
    cov = np.einsum("...ab,ab->...", m_fe - m_f * m_e, marginal)
    sq = np.square(site_view(moments[0], i, q) - m_f[..., None, :])
    sq += np.einsum("...acb,acb->...ab", sq, site_cond)[..., None, :]
    return sq, cov


class ConfigWorkspace:
    """Full configuration-space machinery for the exhaustive checks.

    Holds the exact joint law.  cond, the (P, N, q) array of exact
    single-site conditionals (cond[p, i, c] is the probability of color c at
    site i given the other sites of configuration p), is built on first
    read: local_terms does not need it.  No recoloring index is stored:
    site_view reshapes any per-configuration vector to (q^(N-1-i), q, q^i),
    whose middle axis lists the q recolorings of site i.  On that view site
    i's conditional is the joint law divided by its sum over the middle
    axis, and that sum is the marginal law of the other sites.  The joint
    law with its site axes reversed (site i at site N - 1 - i) is also built
    on first read, by local_terms, which runs the low sites on that layout.
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
            site_cond, _ = _site_laws(self.probabilities, i, q)
            # whatever color site i has, cond[., i, c] = site_cond[:, c, :]
            site_view(cond[:, i, :].T, i, q)[...] = np.swapaxes(site_cond, 0, 1)[:, :, None]
        return cond

    @functools.cached_property
    def _reversed_probabilities(self):
        return _reverse_sites(self.probabilities, self.params.q, self.blocks.N)

    @property
    def probabilities(self):
        return self.dist.probabilities

    def local_terms(self, moments):
        """(dsq, cov) for observables f of shape (..., P), given as
        moments = exp_moments(f): |df|^2 at every configuration by identity
        (2), shape (..., P), and the per-site E Cov_i(f, e^f), shape
        (..., N), from one pass over the conditional moments of
        (f, e^f, f e^f).  Cov_i depends on the other sites only: an (A, B)
        array on the site-i view, weighted by their marginal law.

        A site below N // 2 has a short inner run q^i on its view, so it
        runs at site N - 1 - i of one site-reversed copy of the moments;
        its |df|^2 addends gather in one reversed buffer that is reversed
        back before the high sites add theirs, in the same site order."""
        q, N = self.params.q, self.blocks.N
        half = N // 2
        cov = np.empty(moments.shape[1:-1] + (N,))
        reversed_moments = _reverse_sites(moments, q, N)
        reversed_dsq = np.zeros(moments.shape[1:])
        for i in range(half):
            sq, cov[..., i] = _site_terms(reversed_moments, self._reversed_probabilities,
                                          N - 1 - i, q)
            site_view(reversed_dsq, N - 1 - i, q)[...] += sq
        dsq = _reverse_sites(reversed_dsq, q, N)
        for i in range(half, N):
            sq, cov[..., i] = _site_terms(moments, self.probabilities, i, q)
            site_view(dsq, i, q)[...] += sq
        return dsq, cov


def exp_moments(fvals):
    """(f, e^f, f e^f) of observables f of shape (..., P), as one (3, ..., P)
    array: the moments local_terms averages and the exp-form inequalities
    integrate, each computed once and written in place."""
    fvals = np.asarray(fvals, dtype=np.float64)
    moments = np.empty((3, *fvals.shape))
    moments[0] = fvals
    np.exp(fvals, out=moments[1])
    np.multiply(fvals, moments[1], out=moments[2])
    return moments


def entropy_functional(f, dist):
    """Ent(f) = E[f log f] - E[f] log E[f] for nonnegative values f on the
    support of an exact law, with 0 log 0 = 0 (numutil._xlogx) on both
    sides: a float for one (P,) array, an (F,) array for F observables given
    as an (F, P) array.  A negative value raises InvalidInputError."""
    values = np.asarray(f, dtype=np.float64)
    if np.any(values < 0.0):
        raise InvalidInputError("entropy functional needs a nonnegative observable")
    p = dist.probabilities
    ent = _xlogx(values) @ p - _xlogx(values @ p)
    return float(ent) if ent.ndim == 0 else ent


@dataclass(frozen=True)
class LsiSuiteReport:
    """Outcome of the exhaustive three-inequality verification."""

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
    one observable at a time, drawing from rng as they are made.  Each is
    built from the configuration codes: site i has color c on slice c of
    the middle axis of site i's view, and a linear form lays out the N
    terms of each code as one row of a slab of about LEAF terms and sums
    each row, as over a (P, N) array.  Beyond that slab, only the
    observables being built and the last one yielded are held."""
    q, N = workspace.params.q, workspace.blocks.N
    P = len(workspace.dist)

    def count(sites, c):
        values = np.zeros(P)
        for i in sites:
            site_view(values, i, q)[..., c, :] += 1.0
        return values

    def linear_form(coef, target):
        # a slab is q^m consecutive codes: their m low sites run through all
        # q^m colorings in code order, and the other sites are constant
        m = max(1, min(N, int(math.log(LEAF // N, q))))
        terms = np.empty((q**m, N))
        terms[:, :m] = (np.indices((q,) * m).reshape(m, -1)[::-1].T == target[:m]) * coef[:m]
        values = np.empty(P)
        for lo in range(0, P, q**m):
            terms[:, m:] = (lo // q ** np.arange(m, N) % q == target[m:]) * coef[m:]
            values[lo : lo + q**m] = terms.sum(axis=1)
        return values

    yield np.zeros(P)
    for i in range(N):
        for c in range(q):
            yield count([i], c)
    for lo, hi in itertools.pairwise(workspace.blocks.offsets.tolist()):
        for c in range(q):
            yield count(range(lo, hi), c)
    for _ in range(BATTERY_PRODUCTS if N >= 2 else 0):  # products need two sites
        i, j = rng.choice(N, size=2, replace=False)
        c1, c2 = rng.integers(0, q, size=2)
        yield count([i], c1) * count([j], c2)
    for _ in range(BATTERY_LINEAR):
        coef = rng.standard_normal(N)
        yield linear_form(coef, rng.integers(0, q, size=N))


def _observable_chunks(workspace, rng, num_f, amplitude):
    """The suite's observables as (F, P) arrays of at most CHUNK_BYTES: the
    num_f Gaussian ones, then the structured battery, drawn from rng in
    that order."""
    P = len(workspace.dist)
    rows = max(1, CHUNK_BYTES // (8 * P))
    for start in range(0, num_f, rows):
        chunk = rng.standard_normal((min(rows, num_f - start), P))
        chunk *= amplitude
        yield chunk
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
    evaluated in chunks, so memory does not grow with num_f; time does, and
    num_f q^N above MAX_SUITE_VALUES is refused before any is drawn.
    """
    check_count("num_f", num_f, 0)
    check_count("seed", seed, 0)
    if not math.isfinite(amplitude):
        raise InvalidInputError(f"amplitude must be finite, got {amplitude}")
    _require_lsi_condition(params.q, params.beta)
    workspace = ConfigWorkspace(blocks, params)
    P = len(workspace.dist)
    check_cap(num_f * P, MAX_SUITE_VALUES, f"num_f {num_f} over {P} configurations",
              "observable values")
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
            moments = exp_moments(fvals)
            dsq, cov = workspace.local_terms(moments)
            _, ef, fef = moments
            mean_ef = ef @ p
            lhs23 = fef @ p - _xlogx(mean_ef)
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

    The tail at t is the fraction of the n chain samples with |T_kc - mean|
    >= t.  One sort of those deviations dev gives it for the whole grid as
    (n - searchsorted(dev, t)) / n, so T points cost O((n + T) log n).  A
    row is flagged when the tail exceeds the bound beyond three Monte Carlo
    standard errors; bounds at or above one can never flag.  An empty
    summary or a k or c outside its count matrices is invalid input.
    """
    n, s, q = summary.samples.shape
    if n == 0:
        raise InvalidInputError("chain summary holds no samples")
    check_block_color(k, c, s, q)
    values = summary.samples[:, k, c].astype(np.float64)
    t_grid = np.asarray(t_grid, dtype=np.float64)
    tails = (n - np.searchsorted(np.sort(np.abs(values - values.mean())), t_grid)) / n
    size_k = int(summary.samples[0, k].sum())
    rows = []
    for t, tail in zip(t_grid.tolist(), tails.tolist()):
        bound = 2.0 * math.exp(-(t * t) / (2.0 * size_k * constants.sigma3_sq))
        se = math.sqrt(max(tail * (1.0 - tail), 0.0) / n)
        flagged = bound < 1.0 and tail > bound + 3.0 * se
        rows.append(ConcentrationRow(t, tail, bound, se, flagged))
    return rows
