"""Exact Gibbs computations for small systems.

The energy depends on a configuration only through its count matrix, so the
Gibbs law of the count matrix can be computed exactly by enumerating the
compositions of each block size into q colors and attaching multinomial
multiplicities: the weight of a count matrix B is

    prod_k multinomial(|S_k|; B[k, :]) * exp(-H(B)).

Both exact laws live on the grid of two integer tables of (P, s, q)
partial count matrices (_grid_log_weights): a point takes a row a of the
outer table and a row b of the inner one, and has count matrix B = a + b.
The form

    <B, A B> = (beta - alpha) sum_k |B_k|^2 + alpha |sum_k B_k|^2

needs sum B^2 = |a|^2 + |b|^2 + 2 a.b, a.b over the blocks both tables
touch, and |colsum B|^2, the same of the column sums: each is one BLAS
product of per-row vectors, [a, |a|^2, 1] against [2b, 1, |b|^2].  Every
term is an integer below 2^53, so the float64 sums are exact and the
weights equal those of interaction_form's int64 sums bit for bit.  They
are built in slabs of outer rows of about numutil.CHUNK_BYTES per
temporary, so memory beyond the outputs and the tables is the slab's.

The count-matrix law (exact_distribution) takes the product of blocks
0..s-2 (_product_table) as the outer table and the last block as the inner
one (for s = 1, the block against one zero row).  Its log multinomial is a
sum of per-block terms; each side's runs left to right, so the two sides
add to the bits of one left-to-right sum.  The law holds the per-block
composition tables: the (P, s, q) int16 support, their product, is built
only when its `support` attribute is first read (blocks of 2^15 sites or
more are refused), and the support size is checked against the cap before
anything is enumerated.

The q^N configuration law (full_configuration_distribution), for tiny N,
takes the high half of the sites as the outer table and the low half as
the inner one, so the grid's flat index is the configuration code
sum_i x_i q^i and no table has more than q^ceil(N/2) rows.  Its weights
are normalized in place and only the probabilities are kept, so its peak
memory is that output, 8 bytes per configuration, plus the weights' slabs.
This module owns that layout: code_colors, site_view, _low_half, _swap_halves.

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
from .model import (_whole_at_least, capped_count, check_block_color, check_cap,
                    check_consistent, form_from_sums)
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
    if not (_whole_at_least(n, 0) and _whole_at_least(q, 1)):
        raise InvalidInputError(f"need integers n >= 0 and q >= 1, got n={n}, q={q}")
    n, q = int(n), int(q)
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
    below 1, and sizes (any iterable) or a q that are not whole numbers,
    are invalid input.  Blocks of 2^15 sites or more are refused too, since
    the support stores int16 counts (at q >= 3 such a block alone has over
    5e8 compositions).
    """
    sizes = list(sizes)
    if not (sizes and all(_whole_at_least(n, 0) for n in sizes) and _whole_at_least(q, 1)):
        raise InvalidInputError(f"need integer sizes >= 0 and q >= 1, got sizes={sizes}, q={q}")
    sizes, q = list(map(int, sizes)), int(q)
    required = capped_count([(n + q - 1, n) for n in sizes], cap)
    check_cap(required, cap, "count-matrix support", "matrices")
    if max(sizes) > INT16_MAX:
        raise CapacityError(
            f"block size {max(sizes)} exceeds {INT16_MAX}, the largest int16 count",
            required=required,
        )
    return [enumerate_block_compositions(n, q) for n in sizes]


def _product_table(tables):
    """The (P, s, q) int16 product of s per-block (P_k, q) count tables,
    block 0 outermost: row k of point i is tables[k][i_k] for the grid
    index (i_0, .., i_{s-1}) of i.  Each row is copied as one 2q-byte
    record into every point whose block-k grid index is its row."""
    shape = [t.shape[0] for t in tables]
    s, q = len(tables), tables[0].shape[1]
    product = np.empty((*shape, s, q), dtype=np.int16)
    row = np.dtype((np.void, 2 * q))
    for k, t in enumerate(tables):
        on_axis = [1] * s
        on_axis[k] = shape[k]
        product[..., k, :].view(row)[..., 0] = t.astype(np.int16).view(row).reshape(on_axis)
    return product.reshape(-1, s, q)


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
        return _product_table(self.compositions)


def exact_distribution(blocks, params, cap=DEFAULT_SUPPORT_CAP):
    """Exact Gibbs distribution over count matrices.

    The support has prod_k C(|S_k|+q-1, q-1) entries; a CapacityError naming
    the required size is raised, before any enumeration, when that exceeds
    cap.  Multinomial coefficients are accumulated from a table of
    log-factorials so block sizes well beyond 170 stay finite, and the law
    is normalized by one exp pass (_normalize).  Couplings so large that a
    weight overflows make log_Z infinite, and are refused with an
    InvalidInputError.

    The weights, built on the two-table grid of the module docstring, are
    those of interaction_form on the materialised support, bit for bit.
    """
    check_consistent(params, blocks)
    comps = block_compositions(blocks.sizes, params.q, cap)
    log_fact = log_factorials(max(blocks.sizes))
    log_mult = [log_fact[n] - log_fact[c].sum(axis=1) for n, c in zip(blocks.sizes, comps)]
    split = max(len(comps) - 1, 1)
    zero = [np.zeros((1, params.q), dtype=np.int64)]
    outer = _product_table(comps[:split] + zero * (len(comps) - split))
    inner = _product_table(zero * split + comps[split:])
    # (lm_0 + .. + lm_{s-2}) + lm_{s-1}: the bits of one left-to-right fold
    sides = [functools.reduce(np.add.outer, log_mult[:split]).ravel(),
             functools.reduce(np.add.outer, log_mult[split:], np.zeros(1)).ravel()]
    log_weights = _grid_log_weights(outer, inner, sides, params, blocks.N)
    log_Z, probabilities = _normalize(log_weights, params)
    return ExactDistribution(
        compositions=tuple(comps),
        log_weights=log_weights,
        log_Z=log_Z,
        probabilities=probabilities,
        params=params,
        blocks=blocks,
    )


def _grid_log_weights(outer, inner, log_mult, params, N):
    """Log weights on the grid of two integer (P, s, q) tables of partial
    count matrices, flattened with outer outermost: point (i, j) has the
    count matrix outer[i] + inner[j].  Its two sums are the BLAS products
    of the module docstring; the form (form_from_sums), / 2N and, unless
    log_mult is None, log_mult[0][i] + log_mult[1][j] follow in that order.
    Each slab is a run of outer rows of about LEAF points (one row at
    least), its vectors written over two buffers made once.
    """
    s, q = outer.shape[1:]
    shared = np.repeat(outer.any(axis=(0, 2)) & inner.any(axis=(0, 2)), q)
    to_columns = np.tile(np.eye(q), (s, 1))
    widths = (np.count_nonzero(shared), q)

    def vectors(table, left):
        # [x, |x|^2, 1] per row, x the shared counts and the column sums, by
        # einsum and matmul: numpy reduces short axes row by row
        t = table.reshape(len(table), -1).astype(np.float64)
        shared_vec, col_vec = (v[: len(t)] for v in left)
        shared_vec[:, :-2] = t[:, shared]
        col = np.matmul(t, to_columns, out=col_vec[:, :-2])
        np.einsum("ij,ij->i", t, t, out=shared_vec[:, -2])
        np.einsum("ij,ij->i", col, col, out=col_vec[:, -2])
        return shared_vec, col_vec

    right = [np.column_stack([2.0 * v[:, :-2], v[:, -1], v[:, -2]]).T
             for v in vectors(inner, [np.ones((len(inner), w + 2)) for w in widths])]
    step = max(1, LEAF // len(inner))
    # made once: fresh per-slab vectors page-fault anew where the inner table is short
    left = [np.ones((min(step, len(outer)), w + 2)) for w in widths]
    log_weights = np.empty((len(outer), len(inner)))
    for lo in range(0, len(outer), step):
        head = slice(lo, lo + step)
        # the first sum goes straight to the output slab, one temporary fewer
        slab_sq, col_sq = (np.matmul(a, b, out=o) for a, b, o in
                           zip(vectors(outer[head], left), right, (log_weights[head], None)))
        with np.errstate(over="ignore"):
            np.divide(form_from_sums(slab_sq, col_sq, params), 2.0 * N, out=log_weights[head])
        if log_mult is not None:
            log_weights[head] += np.add.outer(log_mult[0][head], log_mult[1])
    return log_weights.ravel()


def _normalize(log_weights, params, out=None):
    """(log_Z, probabilities) of log_weights by one exp pass, written into
    out (a new array by default), which may be log_weights itself.

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
    probabilities = np.subtract(log_weights, m, out=out)
    np.exp(probabilities, out=probabilities)
    total = np.add.reduce(probabilities)
    probabilities /= total
    return m + math.log(total), probabilities


@dataclass(frozen=True)
class ConfigurationDistribution:
    """Exact Gibbs law over all q^N configurations (tiny N only).

    Entry p of probabilities belongs to the configuration whose code
    sum_i x_i q^i is p, site 0 the least significant digit; the code is the
    only form of a configuration the law holds, and site_view lists the
    recolorings of any site on it.  No weights are kept: 8 bytes per code.
    """

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


def code_colors(codes, sites, q):
    """Colors (*codes.shape, len(sites)) at sites of the coded configurations: base-q digits."""
    return np.asarray(codes)[..., None] // q ** np.asarray(sites) % q


def _low_half(N):
    """h, the low sites 0..h-1 of the q^N law's (q^(N-h), q^h) grid."""
    return N // 2


def _swap_halves(values, q, N, out=None):
    """Per-configuration values (..., q^N) on the law's (q^(N-h), q^h) grid
    with its two axes swapped, written into out (a new array by default)
    and returned: a low site i < h of values sits at site i + N - h of the
    result, and a high site i at site i - h."""
    lead, low = values.shape[:-1], q ** _low_half(N)
    out = np.empty(values.shape) if out is None else out
    np.copyto(out.reshape(*lead, low, -1), values.reshape(*lead, -1, low).swapaxes(-1, -2))
    return out


def _site_table(site_block, s, q):
    """(q^g, s, q) int16 color counts of g sites in blocks site_block, row c
    the coloring coded c, its first site least significant."""
    g = len(site_block)
    codes = np.arange(q**g)
    table = np.zeros((q**g, s, q), dtype=np.int16)
    np.add.at(table, (codes[:, None], site_block, code_colors(codes, np.arange(g), q)), 1)
    return table


def full_configuration_distribution(blocks, params, cap=DEFAULT_SUPPORT_CAP):
    """Enumerate all q^N configurations and their exact Gibbs probabilities.

    q^N is checked against cap (at least 1) before anything is allocated.
    Couplings that overflow a weight are refused as in exact_distribution.

    The weights are built on the two-table grid of the module docstring,
    whose flat index is the configuration code, and normalized in place.
    """
    check_consistent(params, blocks)
    q, N = params.q, blocks.N
    required = capped_count(itertools.repeat((q, 1), N), cap)
    check_cap(required, cap, "full enumeration", "configurations")
    sites, h = blocks.site_blocks, _low_half(N)
    halves = [_site_table(half, blocks.s, q) for half in (sites[h:], sites[:h])]
    weights = _grid_log_weights(*halves, None, params, N)
    log_Z, probabilities = _normalize(weights, params, out=weights)
    return ConfigurationDistribution(log_Z=log_Z, probabilities=probabilities, params=params,
                                     blocks=blocks)


def exact_observable_distribution(dist, k, c):
    """Marginal law of the block-color count b_{k,c} under the count-matrix
    law of exact_distribution; any other law is invalid input.

    Returns an array of length |S_k| + 1 whose index v holds P(b_{k,c} = v):
    the law of block k's composition, summed out of the product grid, then
    binned by its color-c count.
    """
    if not isinstance(dist, ExactDistribution):
        raise InvalidInputError(f"need a law of exact_distribution, got {type(dist).__name__}")
    comps = dist.compositions
    check_block_color(k, c, len(comps), dist.params.q)
    grid = dist.probabilities.reshape([t.shape[0] for t in comps])
    block_law = grid.sum(axis=tuple(j for j in range(len(comps)) if j != k))
    return np.bincount(comps[k][:, c], weights=block_law, minlength=dist.blocks.sizes[k] + 1)
