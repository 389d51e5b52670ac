"""Heat-bath (Glauber) dynamics for large systems.

One update resamples a single site from its exact conditional distribution
given the rest.  The conditional is a softmax of the leave-one-out field

    F_c = (beta * b~_{k(i),c} + alpha * sum_{k != k(i)} b~_{k,c}) / N,

where b~ are the counts excluding the updated site, so maintaining the
count matrix incrementally makes every update O(q).  run_chain never calls
exp in its loop: with row = b~_{k(i),.} and tot the leave-one-out column
sums, F_c = ci * row[c] + co * tot[c] for ci = (beta - alpha) / N and
co = alpha / N, so exp(F_c) is a product of two table entries (see
_weight_tables).  The tables are centred, which keeps every weight within
[e^(-beta/2), e^(beta/2)]; beta above MAX_BETA is rejected because those
bounds would leave the float range.

Reproducibility contract: randomness comes from numpy's PCG64 generator.
run_chain draws in chunks of m = max(1, CHUNK_UPDATES // N) sweeps (the
last chunk may be shorter): per chunk, one block of m*N site indices
followed by one block of m*N uniforms.  The chunking depends only on N
and the sweep counts, so the same seed gives the same samples, byte for
byte, on any platform, and chains with distinct seeds share no state.

The module holds only the sampler; statistics of its samples, such as the
tails of lsi.concentration_report, live with the code that needs them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import InvalidInputError
from .model import check_consistent, count_matrix, validate_config

# Updates drawn per RNG chunk: large enough that the two numpy calls per
# chunk cost little next to its updates, small enough that the drawn
# python lists stay a few hundred kB.
CHUNK_UPDATES = 4096

# Largest beta whose weight tables are finite: every weight lies within
# [e^(-beta/2), e^(beta/2)] and exp overflows just above e^709.
MAX_BETA = 1400.0


@dataclass(frozen=True)
class ChainSummary:
    """Thinned count-matrix samples of one chain, (len, s, q) int64."""

    samples: np.ndarray


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


def _weight_tables(blocks, params):
    """Tables ein, eout with exp(F_c) proportional to ein[row[c]] * eout[tot[c]].

    ein[r] = exp(ci (r - n_max/2)) for r = 0..n_max and eout[t] =
    exp(co (t - N/2)) for t = 0..N, with ci = (beta - alpha)/N and co =
    alpha/N.  The centring is a common factor of all q weights, so it
    cancels from the conditional and bounds every weight by e^(beta/2),
    which is finite for beta <= MAX_BETA (check_run_options).
    """
    N = blocks.N
    n_max = max(blocks.sizes)
    ci = (params.beta - params.alpha) / N
    co = params.alpha / N
    ein = [math.exp(ci * (r - n_max / 2)) for r in range(n_max + 1)]
    eout = [math.exp(co * (t - N / 2)) for t in range(N + 1)]
    return ein, eout


def check_run_options(blocks, params, sweeps, thin, burn_in):
    """Reject what run_chain cannot run; returns burn_in, default sweeps // 10."""
    check_consistent(params, blocks)
    if params.beta > MAX_BETA:
        raise InvalidInputError(
            f"beta must be <= {MAX_BETA} for the heat-bath weight tables, got {params.beta}"
        )
    if sweeps < 1:
        raise InvalidInputError(f"sweeps must be >= 1, got {sweeps}")
    if thin < 1:
        raise InvalidInputError(f"thin must be >= 1, got {thin}")
    if burn_in is None:
        burn_in = sweeps // 10
    if burn_in < 0:
        raise InvalidInputError(f"burn_in must be >= 0, got {burn_in}")
    return burn_in


def run_chain(blocks, params, sweeps, thin=1, seed=0, init="random", burn_in=None):
    """Run sweeps x N heat-bath updates and record thinned count matrices.

    Sites are chosen by uniform random scan.  burn_in extra sweeps are run
    first without recording, default 10 percent of sweeps; one count-matrix
    sample is recorded at the end of every thin-th recorded sweep, so
    len(samples) == sweeps // thin.
    """
    burn_in = check_run_options(blocks, params, sweeps, thin, burn_in)
    ein, eout = _weight_tables(blocks, params)
    N, q, s = blocks.N, params.q, blocks.s

    rng = np.random.default_rng(seed)
    config = _initial_config(init, blocks, q, rng)
    counts = count_matrix(config, blocks, params.q)

    # plain-python mirrors of the state keep the inner loop free of numpy
    # per-element overhead; row_of[i] is the count row of site i's block
    cfg = config.tolist()
    cnt = [row.tolist() for row in counts]
    tot = counts.sum(axis=0).tolist()
    row_of = [cnt[k] for k in blocks.site_blocks.tolist()]
    cum = [0.0] * q
    colors = range(q)
    last = q - 1
    chunk = max(1, CHUNK_UPDATES // N)

    samples = []  # flat: s * q counts per recorded sweep
    record = samples.extend
    for first in range(-burn_in, sweeps, chunk):
        stop = min(first + chunk, sweeps)
        n = (stop - first) * N
        draws = zip(rng.integers(0, N, size=n).tolist(), rng.random(n).tolist())
        for sweep in range(first, stop):
            for i, u in islice(draws, N):
                row = row_of[i]
                old = cfg[i]
                row[old] -= 1
                tot[old] -= 1
                acc = 0.0
                for c in colors:
                    acc += ein[row[c]] * eout[tot[c]]
                    cum[c] = acc
                new = bisect_right(cum, u * acc)
                if new > last:
                    new = last
                row[new] += 1
                tot[new] += 1
                cfg[i] = new
            if sweep >= 0 and (sweep + 1) % thin == 0:
                for r in cnt:
                    record(r)

    return ChainSummary(samples=np.asarray(samples, dtype=np.int64).reshape(-1, s, q))

