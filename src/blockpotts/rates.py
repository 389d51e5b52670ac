"""Entropies, large-deviation rate functions, and the free energy functional.

Two normalizations of blocks-by-colors matrices appear side by side:

* ROW matrices: every row is a probability vector (the law of a block's
  empirical color distribution).  Domain of the entropy rate I and of J.
* BLOCK matrices: row k sums to gamma_k, i.e. membership in C(gamma); mass
  is measured against the whole system.  Domain of J' and of the free
  energy functional G.

The two pictures are linked by nu' = diag(gamma) nu and J(nu) = J'(nu').
Rate evaluations carry an explicit feasibility tag instead of silently
propagating float infinities, so callers must handle the infeasible case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import interaction_form

FEASIBILITY_TOL = 1e-10


def _entropy_term(m, axis=None):
    """sum m log m over axis (default: all of m), with 0 log 0 := 0 taken explicitly."""
    m = np.asarray(m, dtype=np.float64)
    return np.sum(np.where(m > 0.0, m * np.log(np.maximum(m, 1e-300)), 0.0), axis=axis)


def _clean_rows(nu, totals):
    """Clip and rescale every row of nu, row k to sum to totals[k], when each
    row is within FEASIBILITY_TOL of its scaled simplex: no entry below
    -FEASIBILITY_TOL and a row sum within FEASIBILITY_TOL of its total.

    Returns None when nu is not a matrix with one row per total or any row
    is infeasible (negative mass or wrong total).
    """
    nu = np.ascontiguousarray(nu, dtype=np.float64)
    if nu.ndim != 2 or nu.shape[0] != totals.size:
        return None
    tol = FEASIBILITY_TOL
    if np.any(nu < -tol) or np.any(np.abs(nu.sum(axis=1) - totals) > tol):
        return None
    nu = np.maximum(nu, 0.0)
    return nu * (totals / nu.sum(axis=1))[:, None]


def relative_entropy(nu):
    """Relative entropy of a color distribution against the uniform one.

    Equals sum_c nu_c log(q nu_c), lies in [0, log q], and is infinite for
    vectors that are not probability distributions (the usual convention
    for rate functions).
    """
    nu = np.asarray(nu, dtype=np.float64)
    clean = _clean_rows(nu[None], np.ones(1))
    if clean is None:
        return math.inf
    return _entropy_term(clean) + math.log(nu.size)


def rate_I(nu, gamma):
    """Entropy rate of the block empirical color matrix: sum_k gamma_k H(nu_k | uniform)."""
    nu = np.asarray(nu, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    if nu.ndim != 2 or nu.shape[0] != gamma.size:
        raise InvalidInputError(f"matrix shape {nu.shape} does not match {gamma.size} blocks")
    clean = _clean_rows(nu, np.ones(gamma.size))
    if clean is None:
        return math.inf
    # the builtin sum adds the blocks in order, as a running total does
    return sum(gamma * (_entropy_term(clean, axis=1) + math.log(nu.shape[1])))


def _free_energy(mu, params):
    """G of (..., s, q) matrices already on C(gamma), one value per matrix.

    Internal: no validation, for callers that build their points on C(gamma).
    """
    return 0.5 * interaction_form(mu, params) - _entropy_term(mu, axis=(-2, -1))


def free_energy_G(mu, params, gamma=None):
    """Free energy functional G(mu) = <mu, mu>_A / 2 - sum mu log mu on C(gamma).

    mu must be a BLOCK matrix: entry-wise nonnegative with row k summing to
    gamma_k (within 1e-10; inputs inside the tolerance are renormalized).
    Zero entries are allowed, with 0 log 0 = 0.
    """
    gamma = params.gamma_array if gamma is None else np.asarray(gamma, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != (gamma.size, params.q):
        raise InvalidInputError(f"matrix shape {mu.shape}, expected ({gamma.size}, {params.q})")
    clean = _clean_rows(mu, gamma)
    if clean is None:
        raise InvalidInputError(
            f"matrix violates the C(gamma) constraint: row sums {mu.sum(axis=1)} vs {gamma}"
        )
    return float(_free_energy(clean, params))


def potts_functional(v, g):
    """Single-community Potts target G^P(v) = g/2 sum v_c^2 - sum v_c log v_c.

    With g = (beta + (s-1) alpha) / s this governs the uniform-block model:
    a BLOCK matrix whose rows all equal v/s has G = G^P(v) + log s.
    """
    v = np.asarray(v, dtype=np.float64)
    clean = _clean_rows(v[None], np.ones(1))
    if clean is None:
        raise InvalidInputError(f"v is not a probability vector: {v}")
    return 0.5 * g * float(np.dot(clean[0], clean[0])) - _entropy_term(clean)


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


def rate_J_prime(nu, params, sup_G, gamma=None):
    """LDP rate of the mass matrix M'_N: J'(nu) = sup_G - G(nu) on C(gamma), else infinite.

    sup_G is the maximum of G over C(gamma); computing it is the equilibrium
    solver's job and it is passed in explicitly so sweeps do not recompute it.
    """
    gamma = params.gamma_array if gamma is None else np.asarray(gamma, dtype=np.float64)
    clean = _clean_rows(nu, gamma)
    if clean is None:
        return RateEvaluation(False, math.inf, sup_G, np.asarray(nu, dtype=np.float64))
    if clean.shape[1] != params.q:
        raise InvalidInputError(f"matrix shape {clean.shape}, expected ({gamma.size}, {params.q})")
    return RateEvaluation(True, sup_G - float(_free_energy(clean, params)), sup_G, clean)


def rate_J(nu, params, sup_term, gamma=None):
    """LDP rate of the block empirical matrix M_N under the Gibbs measure.

    J(nu) = -[<Gamma nu, Gamma nu>_A / 2 - I(nu)] + sup_term for ROW
    matrices nu, infinite otherwise.  sup_term is the supremum of the
    bracket over ROW matrices, sup_G - log q + sum_k gamma_k log gamma_k
    with sup_G the supremum of G over C(gamma); the constant follows from
    sum (Gamma nu) log(Gamma nu) = I(nu) - log q + sum_k gamma_k log gamma_k.
    The change of variables gives J(nu) = J'(Gamma nu).
    """
    gamma = params.gamma_array if gamma is None else np.asarray(gamma, dtype=np.float64)
    clean = _clean_rows(nu, np.ones(gamma.size))
    if clean is None:
        return RateEvaluation(False, math.inf, sup_term, np.asarray(nu, dtype=np.float64))
    scaled = gamma[:, None] * clean
    bracket = 0.5 * float(interaction_form(scaled, params)) - rate_I(clean, gamma)
    return RateEvaluation(True, -bracket + sup_term, sup_term, clean)
