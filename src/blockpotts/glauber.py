"""Heat-bath (Glauber) dynamics for large systems.

One update resamples a single site from its exact conditional distribution
given the rest.  The conditional is a softmax of the leave-one-out field

    F_c = (beta * b~_{k(i),c} + alpha * sum_{k != k(i)} b~_{k,c}) / N,

where b~ are the counts excluding the updated site, so maintaining the
count matrix incrementally makes every update O(q).  Fields are bounded by
beta, hence every conditional entry is at least 1/(1 + (q-1) e^beta) and
the softmax cannot overflow; max subtraction is applied anyway to keep the
convention uniform across the codebase.

Reproducibility contract: randomness comes from numpy's PCG64 generator.
run_chain consumes, per sweep, one block of N site indices (random scan
only) followed by one block of N uniforms; identical seeds therefore give
identical trajectories on any platform, and chains with distinct seeds
share no state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import check_consistent, count_matrix, interaction_field, validate_config
from .numutil import softmax


@dataclass
class ChainState:
    """Mutable single-owner state of one chain; never share mid-run.

    counts always equals count_matrix(config); run_chain can audit that
    invariant periodically when asked to.
    """

    config: np.ndarray
    counts: np.ndarray
    step: int
    rng: np.random.Generator
    blocks: "BlockStructure"
    params: "ModelParams"

    @classmethod
    def from_config(cls, config, blocks, params, rng):
        config = validate_config(config, blocks, params.q).copy()
        return cls(
            config=config,
            counts=count_matrix(config, blocks, params.q),
            step=0,
            rng=rng,
            blocks=blocks,
            params=params,
        )


@dataclass(frozen=True)
class ChainSummary:
    """Thinned count-matrix samples of one chain plus running summaries."""

    samples: np.ndarray
    sweep_count: int
    seed: int
    acceptance: float
    empirical_M_prime: np.ndarray


def conditional_field(state, site):
    """Leave-one-out field F of length q; softmax(F) is the site's conditional."""
    if not 0 <= site < state.blocks.N:
        raise InvalidInputError(f"site {site} out of range [0, {state.blocks.N})")
    k = state.blocks.block_of(site)
    B = state.counts.copy()
    B[k, state.config[site]] -= 1
    return interaction_field(B, state.params)[k] / state.blocks.N


def heat_bath_step(state, site):
    """Resample one site from its exact conditional; counts stay in sync, O(q).

    Reference single-step implementation; run_chain inlines the identical
    update in a tight loop with its own RNG consumption order.
    """
    probs = softmax(conditional_field(state, site))
    u = state.rng.random()
    new = int(min(np.searchsorted(np.cumsum(probs), u, side="right"), probs.size - 1))
    old = int(state.config[site])
    k = state.blocks.block_of(site)
    state.counts[k, old] -= 1
    state.counts[k, new] += 1
    state.config[site] = new
    state.step += 1
    return state


def _initial_config(init, blocks, q, rng):
    if isinstance(init, str):
        if init != "random":
            raise InvalidInputError(f"unknown init value {init!r}")
        return rng.integers(0, q, size=blocks.N, dtype=np.int64)
    if isinstance(init, (int, np.integer)):
        if not 0 <= init < q:
            raise InvalidInputError(f"uniform color {init} out of range [0, {q})")
        return np.full(blocks.N, int(init), dtype=np.int64)
    return validate_config(init, blocks, q).copy()


def run_chain(blocks, params, sweeps, thin=1, seed=0, init="random",
              burn_in=None, systematic=False, audit=False):
    """Run sweeps x N heat-bath updates and record thinned count matrices.

    Sites are chosen by uniform random scan (or cyclically when systematic
    is set).  burn_in extra sweeps are run first without recording, default
    10 percent of sweeps; one count-matrix sample is recorded at the end of
    every thin-th recorded sweep, so len(samples) == sweeps // thin.  With
    audit set, the maintained counts are checked against a recount every
    10^4 updates.
    """
    check_consistent(params, blocks)
    if sweeps < 1:
        raise InvalidInputError(f"sweeps must be >= 1, got {sweeps}")
    if thin < 1:
        raise InvalidInputError(f"thin must be >= 1, got {thin}")
    if burn_in is None:
        burn_in = sweeps // 10
    if burn_in < 0:
        raise InvalidInputError(f"burn_in must be >= 0, got {burn_in}")
    N, q, s = blocks.N, params.q, blocks.s

    rng = np.random.default_rng(seed)
    config = _initial_config(init, blocks, q, rng)
    counts = count_matrix(config, blocks, params.q)

    # plain-python mirrors of the state keep the inner loop free of numpy
    # per-element overhead
    cfg = config.tolist()
    cnt = [row.tolist() for row in counts]
    tot = counts.sum(axis=0).tolist()
    block_of = blocks.site_blocks.tolist()
    # interaction_field inlined on scalars: a numpy call per update costs more than the update
    ci = (params.beta - params.alpha) / N
    co = params.alpha / N
    exp = math.exp
    colors = range(q)

    samples = []
    updates_done = 0
    audit_every = 10_000

    for sweep in range(-burn_in, sweeps):
        if systematic:
            sites = range(N)
        else:
            sites = rng.integers(0, N, size=N).tolist()
        us = rng.random(N).tolist()
        for i, u in zip(sites, us):
            k = block_of[i]
            row = cnt[k]
            old = cfg[i]
            row[old] -= 1
            tot[old] -= 1
            fmax = None
            fields = []
            for c in colors:
                f = ci * row[c] + co * tot[c]
                fields.append(f)
                if fmax is None or f > fmax:
                    fmax = f
            weights = [exp(f - fmax) for f in fields]
            target = u * sum(weights)
            acc = 0.0
            new = q - 1
            for c in colors:
                acc += weights[c]
                if target < acc:
                    new = c
                    break
            row[new] += 1
            tot[new] += 1
            cfg[i] = new
            updates_done += 1
            if audit and updates_done % audit_every == 0:
                fresh = count_matrix(np.asarray(cfg), blocks, q)
                if not np.array_equal(fresh, np.asarray(cnt)):
                    raise AssertionError("maintained counts diverged from recount")
        if sweep >= 0 and (sweep + 1) % thin == 0:
            samples.append([r[:] for r in cnt])

    samples = np.asarray(samples, dtype=np.int64).reshape(len(samples), s, q)
    empirical = samples.mean(axis=0) / N if len(samples) else np.zeros((s, q))
    return ChainSummary(
        samples=samples,
        sweep_count=sweeps,
        seed=seed,
        acceptance=1.0,
        empirical_M_prime=empirical,
    )


def tail_estimate(summary, k, c, t):
    """Empirical frequency of |T_{k,c} - mean| >= t over the recorded samples."""
    if summary.samples.size == 0:
        raise InvalidInputError("chain summary holds no samples")
    values = summary.samples[:, k, c].astype(np.float64)
    mean = values.mean()
    return float(np.mean(np.abs(values - mean) >= t))
