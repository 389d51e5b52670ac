"""Exact Gibbs computations for small systems.

The energy depends on a configuration only through its count matrix, so the
Gibbs law of the count matrix can be computed exactly by enumerating the
compositions of each block size into q colors and attaching multinomial
multiplicities: the weight of a count matrix B is

    prod_k multinomial(|S_k|; B[k, :]) * exp(-H(B)).

Both exact laws here live on a product grid of integer count tables
(_grid_log_weights): each table lists the color counts of some sites of one
block, a grid point takes one row of every table, and row k of its count
matrix is the sum of block k's rows.  The form

    <B, A B> = (beta - alpha) sum_k |B_k|^2 + alpha |sum_k B_k|^2

then splits into per-table vectors and one Gram matrix per table pair.
Every such sum is an integer below 2^53, so the float64 weights equal
those of interaction_form's int64 sums bit for bit.  They are built in
slabs of about numutil.CHUNK_BYTES per temporary, so memory beyond the
outputs is set by the slab, not by the grid.

The count-matrix law (exact_distribution) takes one table per block, its
compositions, with the log multinomial a sum of per-block terms.  It holds
those tables, not the support: the (P, s, q) int16 support is built only
when its `support` attribute is first read (blocks of 2^15 sites or more
are refused), and the support size is checked against the cap before
anything is enumerated.

The q^N configuration law (full_configuration_distribution), for tiny N,
splits each block into at most two contiguous site groups of at most
ceil(n_k / 2) sites, one table per group, so no table grows like q^N.  It
holds its weights only, indexed by the configuration code sum_i x_i q^i:
no configuration or count matrix is decoded, so its peak memory is its
outputs, 16 bytes per configuration, plus the weights' slabs.

Everything is normalized in log space, by one exp pass.  This module is
the brute-force oracle for the sampler, the rate functions and the
log-Sobolev checks; the two routes can be cross-checked against each
other.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidInputError
from .model import (capped_count, check_block_color, check_cap, check_consistent,
                    form_from_sums)
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
    outermost.  Each composition is copied as one 2q-byte record into every
    point whose block-k grid index is its row."""
    shape = [c.shape[0] for c in comps]
    s, q = len(comps), comps[0].shape[1]
    support = np.empty((*shape, s, q), dtype=np.int16)
    row = np.dtype((np.void, 2 * q))
    for k, c in enumerate(comps):
        on_axis = [1] * s
        on_axis[k] = shape[k]
        support[..., k, :].view(row)[..., 0] = c.astype(np.int16).view(row).reshape(on_axis)
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

    The weights are built by _grid_log_weights on the block product grid
    (P_0, .., P_{s-1}), one composition table per block: the weights are
    those of interaction_form on the materialised support, bit for bit,
    without its (P, s, q) temporaries, and beyond the outputs (16 bytes per
    point) memory does not grow with P.
    """
    check_consistent(params, blocks)
    comps = block_compositions(blocks.sizes, params.q, cap)
    log_fact = log_factorials(max(blocks.sizes))
    log_mult = [log_fact[n] - log_fact[c].sum(axis=1) for n, c in zip(blocks.sizes, comps)]
    log_weights = _grid_log_weights(comps, range(len(comps)), log_mult, params, blocks.N)
    log_Z, probabilities = _normalize(log_weights, params)
    return ExactDistribution(
        compositions=tuple(comps),
        log_weights=log_weights,
        log_Z=log_Z,
        probabilities=probabilities,
        params=params,
        blocks=blocks,
    )


def _grid_log_weights(tables, block_of, log_mult, params, N):
    """Log weights on the product grid of integer count tables, flattened
    with tables[0] outermost.

    Table j is a (P_j, q) array of color counts of some sites of block
    block_of[j]; a grid point is one row of every table, and its count
    matrix has as row k the sum of the rows of block k's tables.  So, with
    t_j the row of table j,

        sum B^2 = sum_j |t_j|^2 + 2 sum_{j<l, same block} t_j . t_l,
        |colsum B|^2 = sum_j |t_j|^2 + 2 sum_{j<l} t_j . t_l,

    outer sums of per-table vectors plus one P_j x P_l Gram matrix per
    table pair, taken in float64 (the Gram products by BLAS) and exact,
    every term an integer below 2^53.  The form (form_from_sums), / 2N and,
    unless log_mult is None, the outer sum of the per-table log
    multiplicities follow in that order.  Each slab is a run of rows of
    table 0 of about LEAF points (one row at least).
    """
    tables = [t.astype(np.float64) for t in tables]
    squares = [np.square(t).sum(axis=1) for t in tables]
    pairs = list(itertools.combinations(range(len(tables)), 2))
    same = [(j, l) for j, l in pairs if block_of[j] == block_of[l]]
    across = [(j, l) for j, l in pairs if block_of[j] != block_of[l]]
    # the doubled Gram matrices without table 0 are shared by every slab
    grams = {(j, l): 2.0 * (tables[j] @ tables[l].T) for j, l in pairs if j > 0}
    rest = math.prod(t.shape[0] for t in tables[1:])
    step = max(1, LEAF // rest)
    log_weights = np.empty(tables[0].shape[0] * rest)

    def on_grid(j, l, head):
        gram = 2.0 * (tables[0][head] @ tables[l].T) if j == 0 else grams[j, l]
        on_axes = [1] * len(tables)
        on_axes[j], on_axes[l] = gram.shape
        return gram.reshape(on_axes)

    for lo in range(0, tables[0].shape[0], step):
        head = slice(lo, lo + step)
        slab_sq = functools.reduce(np.add.outer, [squares[0][head], *squares[1:]])
        for j, l in same:
            slab_sq += on_grid(j, l, head)
        col_sq = slab_sq.copy()
        for j, l in across:
            col_sq += on_grid(j, l, head)
        out = log_weights[lo * rest : lo * rest + slab_sq.size].reshape(slab_sq.shape)
        with np.errstate(over="ignore"):
            out[...] = form_from_sums(slab_sq, col_sq, params)
        out /= 2.0 * N
        if log_mult is not None:
            out += functools.reduce(np.add.outer, [log_mult[0][head], *log_mult[1:]])
    return log_weights


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

    Entry p of log_weights and probabilities belongs to the configuration
    whose code sum_i x_i q^i is p, site 0 the least significant digit; the
    code is the only form of a configuration the law holds, and site_view
    lists the recolorings of any site on it.
    """

    log_weights: np.ndarray
    log_Z: float
    probabilities: np.ndarray
    params: "ModelParams"
    blocks: "BlockStructure"

    def __len__(self):
        return len(self.probabilities)


def site_view(values, site, q):
    """Per-configuration values (..., q^N) as (..., q^(N-1-site), q, q^site).

    Configuration codes are sum_i x_i q^i, so axis -2 lists the q colors of
    `site` with every other site fixed.  Splitting one axis never copies, so
    writing to the result writes to values, strided or not.
    """
    return values.reshape(*values.shape[:-1], -1, q, q**site)


def _site_groups(blocks):
    """(block, lo, hi) of every site group, in site order: each block split
    into at most two contiguous runs of at most ceil(n_k / 2) sites."""
    for k, (lo, hi) in enumerate(itertools.pairwise(blocks.offsets.tolist())):
        mid = (lo + hi + 1) // 2
        yield k, lo, mid
        if mid < hi:
            yield k, mid, hi


def full_configuration_distribution(blocks, params, cap=DEFAULT_SUPPORT_CAP):
    """Enumerate all q^N configurations and their exact Gibbs probabilities.

    q^N is checked against cap (at least 1) before anything is allocated.
    Couplings that overflow a weight are refused as in exact_distribution.

    A group of g sites has q^g colorings, coded base q with its lowest site
    least significant, and a (q^g, q) table of their color counts.
    Configuration codes put site 0 lowest, so with the last group outermost
    the grid's flat index is the configuration code.
    """
    check_consistent(params, blocks)
    q, N = params.q, blocks.N
    required = capped_count(itertools.repeat((q, 1), N), cap)
    check_cap(required, cap, "full enumeration", "configurations")
    groups = list(_site_groups(blocks))[::-1]
    colorings = [np.arange(q ** (hi - lo))[:, None] // q ** np.arange(hi - lo) % q
                 for _, lo, hi in groups]
    tables = [(c[:, :, None] == np.arange(q)).sum(axis=1, dtype=np.int16) for c in colorings]
    log_weights = _grid_log_weights(tables, [k for k, _, _ in groups], None, params, N)
    log_Z, probabilities = _normalize(log_weights, params)
    return ConfigurationDistribution(
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
