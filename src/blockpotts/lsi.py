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

where |df|^2 = sum_i sum_c cond_i(c) (f - f with x_i = c)^2.  These hold
whenever the conditional floor and the norm gap do, so a violation at any
tested observable is a bug, not a tolerance issue.  The asymptotic
smallness condition 2 q beta e^beta < 1 is reported separately.

Three identities give one softmax per interdependence entry, one moment
pass per site and one two-axis grid per block size.  (1) Recoloring site j
from b to a multiplies color a's weight in site i's conditional by
e^boost, so with p the softmax of the leave-two-out field, t = expm1(boost)
>= 0 and hi, lo the max and min of p[a], p[b], TV(p_a, p_b) =
hi ((1+t)/(1+t hi) - 1/(1+t lo)) = t hi (1 - hi + (1+t) lo) /
((1+t hi)(1+t lo)), free of cancellation.
(2) With m_i site i's conditional mean, a function of the other sites,
sum_c cond_i(c) (f - f_c)^2 = (f - m_i f)^2 + Var_i f and
E[g Var_i f] = E[(f - m_i f)^2 m_i g], so on site i's views

    E |df|^2              = 2 sum_i E (f - m_i f)^2,
    E |df|^2 e^f          = sum_i E (f - m_i f)^2 (e^f + m_i e^f),
    sum_i E Cov_i(f, e^f) = N E f e^f - sum_i E m_i f m_i e^f.

Squares keep the first two shift invariant.  The third subtracts pairwise
sums of size N E|f e^f|: it rounds to about log2(P) ulps of that, finer
than the per-site form except for an f nearly constant far from 0.
(3) Let site i lie in block k and site j be recolored.  Site i's
leave-two-out field is F_c = ((beta - alpha) x_c + alpha (x_c + y_c)) / N,
with x the color counts of the own = n_k - 2 other sites of block k when j
is in block k (else own = n_k - 1), and y those of the rest = N - n_k
(resp. N - n_k - 1) sites outside block k other than j.  Every composition
of rest sites is a sum of per-block compositions, so comps(own) x
comps(rest) reaches exactly the fields that the count matrices of the N - 2
other sites reach.  J[i, j] therefore depends only on n_k and on whether j
shares i's block, with boost beta / N when it does and alpha / N when not.
Permuting the colors of x and y together maps that grid to itself, so pair
(a, b) at one point is pair (0, 1) at another and pair (0, 1) alone reaches
the worst case (to a few ulps: the softmax adds the q exponentials in
another order).  Swapping colors 0 and 1 keeps pair (0, 1)'s distance bit
for bit (the softmax adds them first; hi, lo are symmetric), so only own
compositions with x_0 >= x_1 are evaluated.

The suite's joint law is exact.full_configuration_distribution, whose
integer grid sums keep interaction_form's weights bit for bit; the
structured battery builds each observable from the configuration codes.
The interdependence maxima run over slabs of numutil.CHUNK_BYTES, and the
suite integrates (F, P) chunks of that size in buffers made once per call,
so beyond the laws its memory grows with neither the support nor num_f.
exact owns the law's grid layout: the split h (exact._low_half), the grid
with its halves swapped (exact._swap_halves, one 2-D transpose of a chunk)
and the codes' colors (exact.code_colors).  A low site i < h, whose view
has a short inner run q^i, is read at site i + N - h of the swapped grid.
The suite's p-weighted means are pairwise np.add.reduce sums and no
integral calls BLAS, so its bits do not depend on the kernel.

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
    _low_half,
    _swap_halves,
    block_compositions,
    code_colors,
    full_configuration_distribution,
    site_view,
)
from .model import (check_block_color, check_cap, check_consistent, check_count, check_finite,
                    field_from_sums, shown_count)
from .numutil import CHUNK_BYTES, LEAF, _xlogx, softmax

# Largest q^N the suite's configuration law enumerates.
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
    """Identity (1) for color pair (0, 1): TV(p_0, p_1) at site j, shape
    (...), from site i's leave-two-out fields (q, ...).  By the color
    symmetry of the module docstring this pair alone gives the worst case."""
    p, t = softmax(fields, axis=0), math.expm1(boost)
    hi, lo = np.maximum(p[0], p[1]), np.minimum(p[0], p[1])
    return t * hi * (1.0 - hi + (1.0 + t) * lo) / ((1.0 + t * hi) * (1.0 + t * lo))


def _worst_recoloring_tv(own, rest, boost, params, N, cap):
    """Largest identity (1) distance of pair (0, 1) over the half of the grid
    comps(own) x comps(rest) of identity (3) with x_0 >= x_1 (the cap counts
    it all), on slabs of rows of comps(own) whose fields hold about LEAF
    elements; 0 when a count is negative, since no site pair has such counts."""
    if min(own, rest) < 0:
        return 0.0
    # color-major tables keep each slab's fields C-ordered (q, rows, len(y)):
    # the softmax then sums whole rows, color by color in order, which is
    # both fast and the summation order of a (q, P) field array
    x, y = (np.ascontiguousarray(c.T) for c in block_compositions((own, rest), params.q, cap))
    x = x[:, x[0] >= x[1]]
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
    conditionals, from identity (1).  By identity (3) the entry depends only
    on the size of site i's block and on whether j shares it, so one grid of
    the color counts of i's other block-mates times those of every other
    site outside the block (each grid checked against cap), at color pair
    (0, 1) on the half that the color symmetry leaves, gives both entries of
    each distinct block size.  The diagonal is zero and J need not be
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


def _site_laws(probabilities, i, q):
    """Site i's conditional (A, q, B) and the marginal law (A, B) of the
    other sites, on the site-i view of a joint law."""
    joint = site_view(probabilities, i, q)
    marginal = joint.sum(axis=1)
    return joint / marginal[:, None, :], marginal


class ConfigWorkspace:
    """The q^N joint law dist (built with cap=WORKSPACE_CAP), its
    probabilities, and cond, the (P, N, q) array of exact single-site
    conditionals (cond[p, i, c] is the probability of color c at site i
    given the other sites of configuration p), built on first read from
    each site's laws (_site_laws).  The suite reads none of them.
    """

    def __init__(self, blocks, params):
        self.dist = full_configuration_distribution(blocks, params, cap=WORKSPACE_CAP)
        self.probabilities = self.dist.probabilities

    @functools.cached_property
    def cond(self):
        N, q = self.dist.blocks.N, self.dist.params.q
        cond = np.empty((len(self.dist), N, q))
        for i in range(N):
            site_cond, _ = _site_laws(self.probabilities, i, q)
            # whatever color site i has, cond[., i, c] = site_cond[:, c, :]
            site_view(cond[:, i, :].T, i, q)[...] = np.swapaxes(site_cond, 0, 1)[:, :, None]
        return cond


class _SitePass:
    """The suite's integrals of chunks of at most `rows` observables f, (F,
    P): Ent(f^2), Ent(e^f) and the three sides of identity (2), each (F,).
    Each site's marginal law is built once; m_i is sum_c p f_c / marginal.
    draws is the f slot of the moment buffer, for chunks written in place.
    """

    def __init__(self, dist, rows):
        q, N, p = dist.params.q, dist.blocks.N, dist.probabilities
        self.q, self.N, self.dist, P = q, N, dist, len(p)
        self.layouts = (p, _swap_halves(p, q, N))
        # (layout, site on that layout, 1 / marginal law of the other sites)
        h = _low_half(N)
        sites = [(1, i + N - h) if i < h else (0, i) for i in range(N)]
        self.laws = [(k, j, 1.0 / site_view(self.layouts[k], j, q).sum(axis=1)) for k, j in sites]
        self.moments, self.dev = np.empty((3, rows, P)), np.empty((rows, P))
        self.draws = self.moments[0]
        # (f, e^f) on the swapped grid, and p e^f on each layout
        self.swapped, self.pe = np.empty((2, 2, rows, P))
        # m_i f, m_i e^f and a scratch slot, on site i's view
        self.means = np.empty((3, rows, P // q))

    def __call__(self, fvals):
        q, N, F = self.q, self.N, len(fvals)
        moments, dev, pe = exp_moments(fvals, self.moments[:, :F]), self.dev[:F], self.pe[:, :F]
        # (f, e^f) on each layout
        stacks = (moments[:2], _swap_halves(moments[:2], q, N, out=self.swapped[:, :F]))
        for layout, p in enumerate(self.layouts):
            np.multiply(stacks[layout][1], p, out=pe[layout])
        mean_fef = np.add.reduce(np.multiply(moments[2], self.layouts[0], out=dev), axis=-1)
        ent_ef = mean_fef - _xlogx(np.add.reduce(pe[0], axis=-1))
        ent_f2 = entropy_functional(np.square(moments[0], out=dev), self.dist)
        dirichlet, weighted, cross = np.zeros((3, F))
        for layout, j, inverse in self.laws:
            p = site_view(self.layouts[layout], j, q)
            m_f, m_e, w = m = self.means[:, :F].reshape(3, F, *inverse.shape)
            np.einsum("zfacb,acb->zfab", site_view(stacks[layout], j, q), p, out=m[:2])
            m_f *= inverse
            # m_i f times the p-weighted sum of e^f is marginal m_i f m_i e^f
            cross += np.add.reduce(np.multiply(m_f, m_e, out=w).reshape(F, -1), axis=-1)
            m_e *= inverse
            sq = site_view(dev, j, q)
            np.subtract(site_view(stacks[layout][0], j, q), m_f[:, :, None, :], out=sq)
            np.square(sq, out=sq)
            # marginal times Var_i f, the weight of m_i e^f in the second side
            var = np.einsum("facb,acb->fab", sq, p, out=w)
            dirichlet += var.sum(axis=(1, 2))
            weighted += np.einsum("facb,facb->f", sq, site_view(pe[layout], j, q))
            weighted += np.einsum("fab,fab->f", var, m_e)
        return ent_f2, ent_ef, 2.0 * dirichlet, weighted, N * mean_fef - cross


def exp_moments(fvals, out=None):
    """(f, e^f, f e^f) of observables f of shape (..., P), written into out
    (a new (3, ..., P) array by default), which fvals may share as out[0]."""
    fvals = np.asarray(fvals, dtype=np.float64)
    moments = np.empty((3, *fvals.shape)) if out is None else out
    moments[0] = fvals
    np.exp(moments[0], out=moments[1])
    np.multiply(moments[0], moments[1], out=moments[2])
    return moments


def entropy_functional(f, dist):
    """Ent(f) = E[f log f] - E[f] log E[f] for nonnegative values f on the
    support of an exact law, with 0 log 0 = 0 (numutil._xlogx) on both
    sides: a float for one (P,) array, an (F,) array for an (F, P) array.
    Means are pairwise np.add.reduce sums, so a batch row equals the one-row
    call bit for bit on any BLAS kernel.  A negative value raises
    InvalidInputError."""
    values = np.asarray(f, dtype=np.float64)
    if np.any(values < 0.0):
        raise InvalidInputError("entropy functional needs a nonnegative observable")
    p = dist.probabilities
    weighted = _xlogx(values)
    mean_xlogx = np.add.reduce(np.multiply(weighted, p, out=weighted), axis=-1)
    ent = mean_xlogx - _xlogx(np.add.reduce(np.multiply(values, p, out=weighted), axis=-1))
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


def _structured_battery(dist, rng):
    """Indicators, block counts, products of indicators and linear forms,
    one observable at a time, drawing from rng as they are made.  Each is
    built from the configuration codes: site i has color c on slice c of
    the middle axis of site i's view, and a linear form lays out the N
    terms of each code as one row of a slab of about LEAF terms and sums
    each row, as over a (P, N) array.  Beyond that slab, only the
    observables being built and the last one yielded are held."""
    q, N, P = dist.params.q, dist.blocks.N, len(dist)

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
        terms[:, :m] = (code_colors(np.arange(q**m), np.arange(m), q) == target[:m]) * coef[:m]
        values = np.empty(P)
        for lo in range(0, P, q**m):
            terms[:, m:] = (code_colors(lo, np.arange(m, N), q) == target[m:]) * coef[m:]
            values[lo : lo + q**m] = terms.sum(axis=1)
        return values

    yield np.zeros(P)
    for i in range(N):
        for c in range(q):
            yield count([i], c)
    for lo, hi in itertools.pairwise(dist.blocks.offsets.tolist()):
        for c in range(q):
            yield count(range(lo, hi), c)
    for _ in range(BATTERY_PRODUCTS if N >= 2 else 0):  # products need two sites
        i, j = rng.choice(N, size=2, replace=False)
        c1, c2 = rng.integers(0, q, size=2)
        yield count([i], c1) * count([j], c2)
    for _ in range(BATTERY_LINEAR):
        coef = rng.standard_normal(N)
        yield linear_form(coef, rng.integers(0, q, size=N))


def _observable_chunks(dist, rng, num_f, amplitude, out):
    """The suite's observables, the num_f Gaussian ones and then the
    structured battery, drawn from rng in that order into (F, P) slices of out."""
    rows = len(out)
    for start in range(0, num_f, rows):
        chunk = rng.standard_normal(out=out[: min(rows, num_f - start)])
        chunk *= amplitude
        yield chunk
    battery = _structured_battery(dist, rng)
    while chunk := list(itertools.islice(battery, rows)):
        yield np.stack(chunk, out=out[: len(chunk)])


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
    amplitude = check_finite("amplitude", amplitude)
    _require_lsi_condition(params.q, params.beta)
    dist = full_configuration_distribution(blocks, params, cap=WORKSPACE_CAP)
    P = len(dist)
    check_cap(num_f * P, MAX_SUITE_VALUES, f"num_f {num_f} over {P} configurations",
              "observable values")
    constants, inf_norm, two_norm = measured_constants(blocks, params)

    names = ("entropy_f2", "entropy_expf_cov", "entropy_expf_dirichlet")
    worst_slack = {name: math.inf for name in names}
    worst_ratio = {name: 0.0 for name in names}
    violations = num_observables = 0
    site_pass = _SitePass(dist, max(1, CHUNK_BYTES // (8 * P)))
    # e^f can overflow at a large amplitude; the NaN sides that follow are
    # counted as violations and reported as NaN worst values
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for fvals in _observable_chunks(dist, np.random.default_rng(seed), num_f, amplitude,
                                        site_pass.draws):
            num_observables += len(fvals)
            ent_f2, ent_ef, dirichlet, weighted, cov = site_pass(fvals)
            sides = ((ent_f2, 2.0 * constants.sigma1_sq * dirichlet),
                     (ent_ef, constants.sigma2_sq * cov),
                     (ent_ef, 0.5 * constants.sigma3_sq * weighted))
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
