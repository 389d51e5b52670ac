"""Exact Gibbs computations for small systems.

The energy depends on a configuration only through its count matrix, so the
Gibbs law of the count matrix can be computed exactly by enumerating the
compositions of each block size into q colors and attaching multinomial
multiplicities: the weight of a count matrix B is

    prod_k multinomial(|S_k|; B[k, :]) * exp(-H(B)).

The support is the product of the blocks' composition sets, and the weight
splits over it: the log multinomial is a sum of per-block terms, and

    <B, A B> = (beta - alpha) sum_k |B_k|^2 + alpha |sum_k B_k|^2,
    |sum_k B_k|^2 = sum_k |B_k|^2 + 2 sum_{k<l} B_k . B_l,

so the law is built on the (P_0, .., P_{s-1}) grid of per-block
compositions from per-block vectors and one P_k x P_l Gram matrix per
block pair, never from the materialised support.  It is built in slabs of
block-0 compositions, each about numutil.CHUNK_BYTES per temporary, written
into the preallocated weights, so the memory beyond the outputs is set by
the slab, not by the support size.  The law holds the per-block
composition tables, not the support: the (P, s, q) int16 support is built
only when its `support` attribute is first read (blocks of 2^15 sites or
more are refused), and the support size is checked against the cap before
anything is enumerated.

Everything is normalized in log space.  This module is the brute-force
oracle for the sampler, the rate functions and the log-Sobolev checks; for
tiny N a full q^N configuration enumeration is also provided so the two
routes can be cross-checked against each other.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidInputError
from .model import (capped_count, check_block_color, check_cap, check_consistent,
                    form_from_sums, interaction_form)
from .numutil import LEAF, log_factorials

DEFAULT_SUPPORT_CAP = 10_000_000
INT16_MAX = np.iinfo(np.int16).max


def enumerate_block_compositions(n, q):
    """All vectors (b_1, .., b_q) of nonnegative integers summing to n.

    Emitted in colexicographic order (last coordinate varies slowest), with
    no duplicates; the stable order is part of the output contract.  The
    number of rows is C(n+q-1, q-1).  Built by stars and bars: the q-1 bar
    positions among n+q-1 slots come in lexicographic order, and the gaps
    between them, read from the last gap back, are the composition.
    """
    if n < 0 or q < 1:
        raise InvalidInputError(f"need n >= 0 and q >= 1, got n={n}, q={q}")
    rows = math.comb(n + q - 1, q - 1)
    bars = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(n + q - 1), q - 1)), dtype=np.int64,
        count=rows * (q - 1)).reshape(rows, q - 1)
    edges = np.hstack([np.full((rows, 1), -1), bars, np.full((rows, 1), n + q - 1)])
    return np.ascontiguousarray((np.diff(edges, axis=1) - 1)[:, ::-1])


def block_compositions(sizes, q, cap):
    """The composition table of each block, (P_k, q) int64, in block order.

    The support size P = prod_k C(sizes[k]+q-1, q-1) is checked against cap
    before anything is enumerated, and a CapacityError names it; a cap
    below 1 is invalid input.  Blocks of
    2^15 sites or more are refused too, since the support stores int16
    counts (at q >= 3 such a block alone has over 5e8 compositions).
    """
    sizes = [int(n) for n in sizes]
    if not sizes or min(sizes) < 0 or q < 1:
        raise InvalidInputError(f"need sizes >= 0 and q >= 1, got sizes={sizes}, q={q}")
    required = capped_count([(n + q - 1, n) for n in sizes], cap)
    check_cap(required, cap, "count-matrix support", "matrices")
    if max(sizes) > INT16_MAX:
        raise CapacityError(
            f"block size {max(sizes)} exceeds {INT16_MAX}, the largest int16 count",
            required=required,
        )
    return [enumerate_block_compositions(n, q) for n in sizes]


def _fill_support(comps):
    """The (P, s, q) int16 product of per-block composition tables, block 0
    outermost.  Each composition is copied as one 2q-byte row."""
    shape = [c.shape[0] for c in comps]
    s, q = len(comps), comps[0].shape[1]
    row = np.dtype((np.void, 2 * q))
    support = np.empty((*shape, s, q), dtype=np.int16)
    rows = support.view(row)[..., 0]
    for k, c in enumerate(comps):
        rows[..., k] = c.astype(np.int16).view(row)[:, 0].reshape(
            [-1 if j == k else 1 for j in range(s)])
    return support.reshape(-1, s, q)


@dataclass(frozen=True)
class ExactDistribution:
    """Exact Gibbs law of the count matrix.

    compositions holds each block's (P_k, q) int64 composition table, in
    the order of enumerate_block_compositions.  The law lives on their
    product grid (P_0, .., P_{s-1}), flattened with block 0 outermost:
    point i is the count matrix whose row k is compositions[k][i_k] for the
    grid index (i_0, .., i_{s-1}) of i, and
    probabilities[i] = exp(log_weights[i] - log_Z).  support, the (P, s, q)
    int16 array of those count matrices, is built on its first read and
    kept.
    """

    compositions: tuple
    log_weights: np.ndarray
    log_Z: float
    probabilities: np.ndarray
    params: "ModelParams"
    blocks: "BlockStructure"

    def __len__(self):
        return math.prod(c.shape[0] for c in self.compositions)

    @functools.cached_property
    def support(self):
        return _fill_support(self.compositions)


def exact_distribution(blocks, params, cap=DEFAULT_SUPPORT_CAP):
    """Exact Gibbs distribution over count matrices.

    The support has prod_k C(|S_k|+q-1, q-1) entries; a CapacityError naming
    the required size is raised, before any enumeration, when that exceeds
    cap.  Multinomial coefficients are accumulated from a table of
    log-factorials so block sizes well beyond 170 stay finite, and the law
    is normalized by one exp pass (_normalize).  Couplings so large that a
    weight overflows make log_Z infinite, and are refused with an
    InvalidInputError.

    The weights are built on the block product grid (P_0, .., P_{s-1}): the
    log multinomial and sum B^2 are outer sums of per-block vectors, and
    |colsum B|^2 adds 2 C_k C_l^T to sum B^2 for each block pair k < l (C_k
    the composition table of block k).  Both sums are taken in float64 from
    float64 copies of the tables, the Gram products by BLAS: every term is
    an integer below 2^53, so they are exact, and the weights are those of
    interaction_form on the materialised support, bit for bit, without its
    (P, s, q) temporaries.  They are written slab by slab, each slab a run
    of block-0 compositions of about CHUNK_BYTES per temporary (one block-0
    row at least), so beyond the outputs (16 bytes per point) memory does
    not grow with P.
    """
    check_consistent(params, blocks)
    comps = block_compositions(blocks.sizes, params.q, cap)
    s = len(comps)
    log_fact = log_factorials(max(blocks.sizes))
    log_mult = [log_fact[n] - log_fact[c].sum(axis=1) for n, c in zip(blocks.sizes, comps)]
    tables = [c.astype(np.float64) for c in comps]
    squares = [np.square(t).sum(axis=1) for t in tables]
    # the Gram matrices without block 0 are shared by every slab
    grams = {(k, l): tables[k] @ tables[l].T for k, l in itertools.combinations(range(1, s), 2)}
    rest = math.prod(c.shape[0] for c in comps[1:])
    step = max(1, LEAF // rest)
    log_weights = np.empty(comps[0].shape[0] * rest)
    for lo in range(0, comps[0].shape[0], step):
        head = slice(lo, lo + step)
        slab_sq = functools.reduce(np.add.outer, [squares[0][head], *squares[1:]])
        col_sq = slab_sq.copy()
        for k, l in itertools.combinations(range(s), 2):
            gram = tables[0][head] @ tables[l].T if k == 0 else grams[k, l]
            on_axes = [1] * s
            on_axes[k], on_axes[l] = gram.shape
            col_sq += 2 * gram.reshape(on_axes)
        out = log_weights[lo * rest : lo * rest + slab_sq.size].reshape(slab_sq.shape)
        with np.errstate(over="ignore"):
            out[...] = form_from_sums(slab_sq, col_sq, params)
        out /= 2.0 * blocks.N
        out += functools.reduce(np.add.outer, [log_mult[0][head], *log_mult[1:]])
    log_Z, probabilities = _normalize(log_weights, params)
    return ExactDistribution(
        compositions=tuple(comps),
        log_weights=log_weights,
        log_Z=log_Z,
        probabilities=probabilities,
        params=params,
        blocks=blocks,
    )


def _normalize(log_weights, params):
    """(log_Z, probabilities) of log_weights by one exp pass.

    exp(log_weights - m), m the largest log weight, is summed by numpy's
    pairwise np.add.reduce (within (log2 P + 26) 2^-53 relative of the exact
    sum of these nonnegative terms) and divided by that sum in place, and
    log_Z = m + log(sum).  A +inf weight, from couplings that overflow the
    form, leaves nothing to normalize and is refused.
    """
    m = float(np.max(log_weights))
    if not math.isfinite(m):
        raise InvalidInputError(
            f"log_Z is {m}: alpha={params.alpha}, beta={params.beta} "
            "overflow the Gibbs weights")
    probabilities = np.subtract(log_weights, m)
    np.exp(probabilities, out=probabilities)
    total = np.add.reduce(probabilities)
    probabilities /= total
    return m + math.log(total), probabilities


@dataclass(frozen=True)
class ConfigurationDistribution:
    """Exact Gibbs law over all q^N configurations (tiny N only).

    Configuration index p encodes colors base q with site 0 as the least
    significant digit; configs[p] is the decoded color vector and
    count_matrices[p] its count matrix.
    """

    configs: np.ndarray
    count_matrices: np.ndarray
    log_weights: np.ndarray
    log_Z: float
    probabilities: np.ndarray
    params: "ModelParams"
    blocks: "BlockStructure"

    def __len__(self):
        return self.configs.shape[0]


def site_view(values, site, q):
    """Per-configuration values (..., q^N) as (..., q^(N-1-site), q, q^site).

    Configuration codes are sum_i x_i q^i, so axis -2 lists the q colors of
    `site` with every other site fixed.  Splitting one axis never copies, so
    writing to the result writes to values, strided or not.
    """
    return values.reshape(*values.shape[:-1], -1, q, q**site)


def full_configuration_distribution(blocks, params, cap=DEFAULT_SUPPORT_CAP):
    """Enumerate all q^N configurations and their exact Gibbs probabilities.

    q^N is checked against cap (at least 1) before anything is allocated.
    Couplings that overflow a weight are refused as in exact_distribution.
    """
    check_consistent(params, blocks)
    q, N = params.q, blocks.N
    required = capped_count(itertools.repeat((q, 1), N), cap)
    check_cap(required, cap, "full enumeration", "configurations")
    configs = np.empty((required, N), dtype=np.int8)
    for i in range(N):
        site_view(configs[:, i], i, q)[...] = np.arange(q)[:, None]
    counts = np.empty((required, blocks.s, q), dtype=np.int16)
    for k, (lo, hi) in enumerate(itertools.pairwise(blocks.offsets)):
        for c in range(q):
            counts[:, k, c] = np.count_nonzero(configs[:, lo:hi] == c, axis=1)
    with np.errstate(over="ignore"):
        log_weights = interaction_form(counts, params) / (2.0 * N)
    log_Z, probabilities = _normalize(log_weights, params)
    return ConfigurationDistribution(
        configs=configs,
        count_matrices=counts,
        log_weights=log_weights,
        log_Z=log_Z,
        probabilities=probabilities,
        params=params,
        blocks=blocks,
    )


def exact_observable_distribution(dist, k, c):
    """Marginal law of the block-color count b_{k,c} under an exact law.

    Returns an array of length |S_k| + 1 whose index v holds P(b_{k,c} = v):
    the law of block k's composition, summed out of the product grid, then
    binned by its color-c count.
    """
    comps = dist.compositions
    check_block_color(k, c, len(comps), dist.params.q)
    grid = dist.probabilities.reshape([t.shape[0] for t in comps])
    block_law = grid.sum(axis=tuple(j for j in range(len(comps)) if j != k))
    return np.bincount(comps[k][:, c], weights=block_law, minlength=dist.blocks.sizes[k] + 1)
