"""Heat-bath (Glauber) dynamics for large systems.

One update resamples a single site from its exact conditional distribution
given the rest.  The conditional is a softmax of the leave-one-out field

    F_c = (beta * b~_{k(i),c} + alpha * sum_{k != k(i)} b~_{k,c}) / N,

where b~ are the counts excluding the updated site, so maintaining the
count matrix incrementally makes every update O(q).  No update calls exp:
with row = b~_{k(i),.} and tot the leave-one-out column sums, F_c = ci *
row[c] + co * tot[c] for ci = (beta - alpha) / N and co = alpha / N, so
exp(F_c) is a product of two table entries (see _weight_tables).  The
tables are centred, which keeps every weight within [e^(-beta/2),
e^(beta/2)]; beta above MAX_BETA is rejected because those bounds would
leave the float range.

The new color is drawn by inverse CDF: with cumulative weights c_0 <= ..
<= c_{q-1} and a uniform u, it is the first m with u * c_{q-1} < c_m (q-1
if rounding leaves none), which is bisect_right's index on the list of
c_m.  The sweeps of one RNG chunk run in a function that _sweeps compiles
once per q, on the first run_chain at that q.  Up to UNROLL_MAX_Q colors
its color loop is unrolled: c_0 .. c_{q-1} are locals summed left to
right as the loop sums them, and a balanced tree of u * c_{q-1} < c_m
tests picks m.  The same float operations in the same order make the same
floats, and the tree lands on the same index as bisect_right, so the
samples do not depend on the bound.  Above it the function holds the plain
loop: the unrolled source grows linearly in q (a build takes about 3 ms at
q = 64, 11 ms at 256 and 51 ms at 1024) while its gain over the loop
shrinks.

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

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import InvalidInputError
from .model import check_cap, check_consistent, check_count, count_matrix, validate_config

# Updates drawn per RNG chunk: large enough that the two numpy calls per
# chunk cost little next to its updates, small enough that the drawn
# python lists stay a few hundred kB.
CHUNK_UPDATES = 4096

# Largest beta whose weight tables are finite: every weight lies within
# [e^(-beta/2), e^(beta/2)] and exp overflows just above e^709.
MAX_BETA = 1400.0

# Largest q whose sweep function unrolls the color loop (see _sweeps).
UNROLL_MAX_Q = 64

# Most sites a chain may have: run_chain holds about 180 bytes per site (its
# weight tables and plain-python mirrors of the state), so 10^7 sites take
# about 1.8 GB.
MAX_SITES = 10_000_000


@dataclass(frozen=True)
class ChainSummary:
    """Thinned count-matrix samples of one chain, (len, s, q) int64."""

    samples: np.ndarray


def _initial_config(init, blocks, q, rng):
    if isinstance(init, str):
        if init != "random":
            raise InvalidInputError(f"unknown init value {init!r}")
        return rng.integers(0, q, size=blocks.N, dtype=np.int64)
    if isinstance(init, (int, np.integer)) and not isinstance(init, bool):
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
    """Reject what run_chain cannot run; returns burn_in, default sweeps // 10.

    A system of more than MAX_SITES sites is refused with a CapacityError
    before any table is built.
    """
    check_consistent(params, blocks)
    check_cap(blocks.N, MAX_SITES, "the heat-bath chain", "sites")
    if params.beta > MAX_BETA:
        raise InvalidInputError(
            f"beta must be <= {MAX_BETA} for the heat-bath weight tables, got {params.beta}"
        )
    check_count("sweeps", sweeps, 1)
    check_count("thin", thin, 1)
    if burn_in is None:
        burn_in = sweeps // 10
    check_count("burn_in", burn_in, 0)
    return burn_in


def _pick_unrolled(q):
    """Lines setting new from u: the cumulative weights in locals c0 ..
    c{q-1}, summed left to right as the loop does, then a balanced tree of
    x < c_m tests over 0..q-1, which lands on the first m with x < c_m, or
    on q-1 when there is none: bisect_right's index, clamped."""
    lines = ["c0 = ein[row[0]] * eout[tot[0]]"]
    lines += [f"c{c} = c{c - 1} + ein[row[{c}]] * eout[tot[{c}]]" for c in range(1, q)]
    lines.append(f"x = u * c{q - 1}")

    def tree(lo, hi, depth):
        pad = "    " * depth
        if lo == hi:
            return [f"{pad}new = {lo}"]
        mid = (lo + hi) // 2
        return ([f"{pad}if x < c{mid}:"] + tree(lo, mid, depth + 1)
                + [f"{pad}else:"] + tree(mid + 1, hi, depth + 1))

    return lines + tree(0, q - 1, 0)


_PICK_LOOP = """\
acc = 0.0
for c in range({q}):
    acc += ein[row[c]] * eout[tot[c]]
    cum[c] = acc
new = bisect_right(cum, u * acc)
if new > {last}:
    new = {last}"""

_SWEEPS = """\
def sweeps(draws, first, stop, N, thin, cfg, row_of, tot, cnt, ein, eout, record):
    cum = [0.0] * {q}  # the plain loop's cumulative weights
    for sweep in range(first, stop):
        for i, u in islice(draws, N):
            row = row_of[i]
            old = cfg[i]
            row[old] -= 1
            tot[old] -= 1
{pick}
            row[new] += 1
            tot[new] += 1
            cfg[i] = new
        if sweep >= 0 and (sweep + 1) % thin == 0:
            for r in cnt:
                record(r)
"""


@functools.cache
def _sweeps(q):
    """The compiled function that runs sweeps first..stop-1 of one RNG chunk
    at q colors: every update, and the thinned recording of the counts.

    Its source is built from the integer q alone.  Up to UNROLL_MAX_Q the
    color loop is unrolled (_pick_unrolled); above it the body is the
    plain loop over a cumulative list and bisect_right, whose source does
    not grow with q.  The bound keeps builds small: the CLI admits q up to
    2^20 (cli.MAX_ENTRIES) and the library any q, while an unrolled build
    costs about 13 kB and 40 us per color (150 ms and 53 MB at q = 4096),
    so one at 2^20 would take about 40 s and 14 GB.  Built on the first
    run_chain at q, never at import.
    """
    q = int(q)
    if q <= UNROLL_MAX_Q:
        pick = _pick_unrolled(q)
    else:
        pick = _PICK_LOOP.format(q=q, last=q - 1).splitlines()
    source = _SWEEPS.format(q=q, pick="\n".join(" " * 12 + line for line in pick))
    namespace = {"islice": islice, "bisect_right": bisect_right}
    exec(compile(source, f"<blockpotts.glauber._sweeps({q})>", "exec"), namespace)
    return namespace["sweeps"]


def run_chain(blocks, params, sweeps, thin=1, seed=0, init="random", burn_in=None):
    """Run sweeps x N heat-bath updates and record thinned count matrices.

    Sites are chosen by uniform random scan.  burn_in extra sweeps are run
    first without recording, default 10 percent of sweeps; one count-matrix
    sample is recorded at the end of every thin-th recorded sweep, so
    len(samples) == sweeps // thin.
    """
    burn_in = check_run_options(blocks, params, sweeps, thin, burn_in)
    check_count("seed", seed, 0)
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
    run_sweeps = _sweeps(q)
    chunk = max(1, CHUNK_UPDATES // N)

    samples = []  # flat: s * q counts per recorded sweep
    for first in range(-burn_in, sweeps, chunk):
        stop = min(first + chunk, sweeps)
        n = (stop - first) * N
        draws = zip(rng.integers(0, N, size=n).tolist(), rng.random(n).tolist())
        run_sweeps(draws, first, stop, N, thin, cfg, row_of, tot, cnt, ein, eout,
                   samples.extend)

    return ChainSummary(samples=np.asarray(samples, dtype=np.int64).reshape(-1, s, q))
