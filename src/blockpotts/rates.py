"""Entropies, large-deviation rate functions, and the free energy functional.

Two normalizations of blocks-by-colors matrices appear side by side:

* ROW matrices: every row is a probability vector (the law of a block's
  empirical color distribution).  Domain of the entropy rate I and of J.
* BLOCK matrices: row k sums to gamma_k, i.e. membership in C(gamma); mass
  is measured against the whole system.  Domain of J' and of the free
  energy functional G.

The two pictures are linked by nu' = diag(gamma) nu and J(nu) = J'(nu').
Every sum m log m goes through numutil._xlogx, with 0 log 0 = 0.
Rate evaluations carry an explicit feasibility tag instead of silently
propagating float infinities, so callers must handle the infeasible case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import check_finite, interaction_form
from .numutil import _xlogx

FEASIBILITY_TOL = 1e-10


def _clean_rows(nu, totals):
    """Clip and rescale the rows of the C-contiguous float64 matrix nu to sum to
    totals (one per row, or a scalar) when every row is within FEASIBILITY_TOL
    of its scaled simplex, with no entry below -FEASIBILITY_TOL; else None,
    as for any NaN or infinite entry.  An entry above 1 / FEASIBILITY_TOL is
    refused before any row is summed, so no sum overflows; with totals that
    are proportions, a feasible row has none.  Only a negative entry costs a
    copy.
    """
    tol = FEASIBILITY_TOL
    lowest = np.minimum.reduce(nu, axis=None, initial=math.inf)
    highest = np.maximum.reduce(nu, axis=None, initial=-math.inf)
    if not (lowest >= -tol and highest <= 1.0 / tol):
        return None
    sums = np.add.reduce(nu, axis=1)
    # the s deviations, all finite here, are compared in Python: two numpy
    # calls on so small an array cost more than the list
    if not max(map(abs, (sums - totals).tolist()), default=0.0) <= tol:
        return None
    if lowest < 0.0:
        nu = np.maximum(nu, 0.0)
        sums = np.add.reduce(nu, axis=1)
    return nu * (totals / sums)[:, None]


def _block_matrix(mu, params):
    """mu as a C-contiguous float64 (s, q) matrix; InvalidInputError for any other shape."""
    mu = np.ascontiguousarray(mu, dtype=np.float64)
    if mu.shape != (params.s, params.q):
        raise InvalidInputError(f"matrix shape {mu.shape}, expected ({params.s}, {params.q})")
    return mu


def _vector(v):
    """v as a C-contiguous float64 (1, n) row; InvalidInputError unless v is 1-D."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise InvalidInputError(f"expected a vector, got shape {v.shape}")
    return np.ascontiguousarray(v[None])


def relative_entropy(nu):
    """Relative entropy of a color distribution against the uniform one.

    Equals sum_c nu_c log(q nu_c), lies in [0, log q], and is infinite for
    vectors that are not probability distributions (the usual convention
    for rate functions).  Raises InvalidInputError unless nu is 1-D.
    """
    return rate_I(_vector(nu), (1.0,))


def rate_I(nu, gamma):
    """Entropy rate of the block empirical color matrix: sum_k gamma_k H(nu_k | uniform)."""
    nu = np.ascontiguousarray(nu, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    if nu.ndim != 2 or nu.shape[0] != gamma.size:
        raise InvalidInputError(f"matrix shape {nu.shape} does not match {gamma.size} blocks")
    clean = _clean_rows(nu, 1.0)
    if clean is None:
        return math.inf
    return _entropy_rate(clean, gamma)


def _entropy_rate(clean, gamma):
    """rate_I of ROW matrices already cleaned by _clean_rows."""
    # the builtin sum adds the blocks in order, as a running total does
    return float(sum(gamma * (np.add.reduce(_xlogx(clean), axis=1) + math.log(clean.shape[1]))))


def _free_energy(mu, params):
    """G of (..., s, q) float64 matrices already on C(gamma), one value per matrix.

    Internal: no validation, for callers that build their points on C(gamma).
    """
    return 0.5 * interaction_form(mu, params) - np.add.reduce(_xlogx(mu), axis=(-2, -1))


def free_energy_G(mu, params):
    """Free energy functional G(mu) = <mu, mu>_A / 2 - sum mu log mu on C(gamma).

    mu must be a BLOCK matrix: entry-wise nonnegative with row k summing to
    gamma_k (within 1e-10; inputs inside the tolerance are renormalized).
    Zero entries are allowed, with 0 log 0 = 0.  Any other shape, and any
    NaN or infinite entry, raises InvalidInputError.
    """
    gamma = params.gamma_array
    mu = _block_matrix(mu, params)
    clean = _clean_rows(mu, gamma)
    if clean is None:
        raise InvalidInputError(f"matrix is not on C(gamma), finite nonnegative rows "
                                f"summing to {gamma}: {mu.tolist()}")
    return float(_free_energy(clean, params))


def potts_functional(v, g):
    """Single-community Potts target G^P(v) = g/2 sum v_c^2 - sum v_c log v_c.

    With g = (beta + (s-1) alpha) / s this governs the uniform-block model:
    a BLOCK matrix whose rows all equal v/s has G = G^P(v) + log s.  A g
    that is no finite number is invalid input.
    """
    g = check_finite("g", g)
    clean = _clean_rows(_vector(v), 1.0)
    if clean is None:
        raise InvalidInputError(f"v is not a probability vector: {v}")
    v = clean[0]
    return float(0.5 * g * float(np.dot(v, v)) - np.add.reduce(_xlogx(v)))


@dataclass(frozen=True)
class RateEvaluation:
    """Value of a rate function at a point, with an explicit feasibility tag.

    value == math.inf exactly when feasible is False; sup_G records the
    normalizing supremum that was supplied by the caller.
    """

    feasible: bool
    value: float
    sup_G: float
    argument: np.ndarray


def rate_J_prime(nu, params, sup_G):
    """LDP rate of the mass matrix M'_N: J'(nu) = sup_G - G(nu) on C(gamma), else infinite.

    sup_G is the maximum of G over C(gamma); computing it is the equilibrium
    solver's job and it is passed in explicitly so sweeps do not recompute it.
    A matrix of any shape other than (s, q) raises InvalidInputError.
    """
    nu = _block_matrix(nu, params)
    clean = _clean_rows(nu, params.gamma_array)
    if clean is None:
        return RateEvaluation(False, math.inf, sup_G, nu)
    return RateEvaluation(True, float(sup_G - float(_free_energy(clean, params))), sup_G, clean)


def rate_J(nu, params, sup_term):
    """LDP rate of the block empirical matrix M_N under the Gibbs measure.

    J(nu) = -[<Gamma nu, Gamma nu>_A / 2 - I(nu)] + sup_term for ROW
    matrices nu, infinite otherwise.  sup_term is the supremum of the
    bracket over ROW matrices, sup_G - log q + sum_k gamma_k log gamma_k
    with sup_G the supremum of G over C(gamma); the constant follows from
    sum (Gamma nu) log(Gamma nu) = I(nu) - log q + sum_k gamma_k log gamma_k.
    The change of variables gives J(nu) = J'(Gamma nu).  A matrix of any
    shape other than (s, q) raises InvalidInputError.
    """
    gamma = params.gamma_array
    nu = _block_matrix(nu, params)
    clean = _clean_rows(nu, 1.0)
    if clean is None:
        return RateEvaluation(False, math.inf, sup_term, nu)
    scaled = gamma[:, None] * clean
    bracket = 0.5 * float(interaction_form(scaled, params)) - _entropy_rate(clean, gamma)
    return RateEvaluation(True, float(-bracket + sup_term), sup_term, clean)
