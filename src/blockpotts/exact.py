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
block pair, never from the materialised support.  The support itself is
returned as int16 counts (blocks of 2^15 sites or more are refused), and
its size is checked against the cap before anything is enumerated.

Everything is normalized in log space.  This module is the brute-force
oracle for the sampler, the rate functions and the log-Sobolev checks; for
tiny N a full q^N configuration enumeration is also provided so the two
routes can be cross-checked against each other.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidInputError
from .model import check_consistent, form_from_sums, interaction_form
from .numutil import log_factorials, logsumexp_tree

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
    before anything is enumerated, and a CapacityError names it.  Blocks of
    2^15 sites or more are refused too, since the support stores int16
    counts (at q >= 3 such a block alone has over 5e8 compositions).
    """
    sizes = [int(n) for n in sizes]
    if not sizes or min(sizes) < 0 or q < 1:
        raise InvalidInputError(f"need sizes >= 0 and q >= 1, got sizes={sizes}, q={q}")
    required = math.prod(math.comb(n + q - 1, q - 1) for n in sizes)
    if required > cap:
        raise CapacityError(
            f"count-matrix support needs {required} matrices, cap is {cap}",
            required=required,
        )
    if max(sizes) > INT16_MAX:
        raise CapacityError(
            f"block size {max(sizes)} exceeds {INT16_MAX}, the largest int16 count",
            required=required,
        )
    return [enumerate_block_compositions(n, q) for n in sizes]


def _fill_support(comps):
    """The (P, s, q) int16 product of per-block composition tables, block 0
    outermost."""
    shape = [c.shape[0] for c in comps]
    s, q = len(comps), comps[0].shape[1]
    support = np.empty((*shape, s, q), dtype=np.int16)
    for k, c in enumerate(comps):
        support[..., k, :] = c.reshape([-1 if j == k else 1 for j in range(s)] + [q])
    return support.reshape(-1, s, q)


def count_matrix_support(sizes, q, cap):
    """All count matrices with row sums `sizes`, as a (P, s, q) int16 array.

    Rows are compositions in the order of enumerate_block_compositions,
    block 0 outermost, so the support is the product grid
    (P_0, .., P_{s-1}) of per-block compositions, flattened.
    P = prod_k C(sizes[k]+q-1, q-1); a CapacityError naming P is raised,
    before any enumeration, when it exceeds cap.
    """
    return _fill_support(block_compositions(sizes, q, cap))


@dataclass(frozen=True)
class ExactDistribution:
    """Exact Gibbs law of the count matrix.

    support is a (P, s, q) int16 array enumerating every count matrix,
    ordered colexicographically per block with block 0 outermost: the
    flattened product grid (P_0, .., P_{s-1}) of per-block compositions.
    probabilities[i] = exp(log_weights[i] - log_Z).
    """

    support: np.ndarray
    log_weights: np.ndarray
    log_Z: float
    probabilities: np.ndarray
    params: "ModelParams" = None
    blocks: "BlockStructure" = None

    def __len__(self):
        return self.support.shape[0]


def exact_distribution(blocks, params, cap=DEFAULT_SUPPORT_CAP):
    """Exact Gibbs distribution over count matrices.

    The support has prod_k C(|S_k|+q-1, q-1) entries; a CapacityError naming
    the required size is raised, before any enumeration, when that exceeds
    cap.  Multinomial coefficients are accumulated from a table of
    log-factorials so block sizes well beyond 170 stay finite, and the
    normalization uses the pairwise-tree log-sum-exp, making log_Z
    bit-reproducible.

    The weights are built on the block product grid (P_0, .., P_{s-1}): the
    log multinomial and sum B^2 are outer sums of per-block vectors, and
    |colsum B|^2 adds 2 C_k C_l^T to sum B^2 for each block pair k < l (C_k
    the composition table of block k).  Both sums are exact int64, so the
    weights are those of interaction_form on the materialised support, bit
    for bit, without its (P, s, q) temporaries.
    """
    check_consistent(params, blocks)
    comps = block_compositions(blocks.sizes, params.q, cap)
    s = len(comps)
    log_fact = log_factorials(max(blocks.sizes))
    log_mult = functools.reduce(
        np.add.outer, [log_fact[n] - log_fact[c].sum(axis=1) for n, c in zip(blocks.sizes, comps)])
    squares = functools.reduce(np.add.outer, [np.square(c).sum(axis=1) for c in comps])
    col_sq = squares.copy()
    for k, l in itertools.combinations(range(s), 2):
        gram = comps[k] @ comps[l].T
        on_axes = [1] * s
        on_axes[k], on_axes[l] = gram.shape
        col_sq += 2 * gram.reshape(on_axes)
    log_weights = form_from_sums(squares, col_sq, params).ravel()
    del squares, col_sq
    log_weights /= 2.0 * blocks.N
    log_weights += log_mult.ravel()
    log_Z = logsumexp_tree(log_weights)
    probabilities = log_weights - log_Z
    np.exp(probabilities, out=probabilities)
    return ExactDistribution(
        support=_fill_support(comps),
        log_weights=log_weights,
        log_Z=log_Z,
        probabilities=probabilities,
        params=params,
        blocks=blocks,
    )


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
    params: "ModelParams" = None
    blocks: "BlockStructure" = None

    def __len__(self):
        return self.configs.shape[0]


def full_configuration_distribution(blocks, params, cap=DEFAULT_SUPPORT_CAP):
    """Enumerate all q^N configurations and their exact Gibbs probabilities."""
    check_consistent(params, blocks)
    q, N = params.q, blocks.N
    required = q**N
    if required > cap:
        raise CapacityError(
            f"full enumeration needs {required} configurations, cap is {cap}",
            required=required,
        )
    codes = np.arange(required, dtype=np.int64)
    place = q ** np.arange(N, dtype=np.int64)
    configs = (codes[:, None] // place[None, :]) % q
    onehot = (configs[:, :, None] == np.arange(q)).astype(np.int16)
    counts = np.add.reduceat(onehot, blocks.offsets[:-1], axis=1)
    log_weights = interaction_form(counts, params) / (2.0 * N)
    log_Z = logsumexp_tree(log_weights)
    probabilities = np.exp(log_weights - log_Z)
    return ConfigurationDistribution(
        configs=configs.astype(np.int8),
        count_matrices=counts.astype(np.int16),
        log_weights=log_weights,
        log_Z=log_Z,
        probabilities=probabilities,
        params=params,
        blocks=blocks,
    )


def exact_observable_distribution(dist, k, c):
    """Marginal law of the block-color count b_{k,c} under an exact law.

    Returns an array of length |S_k| + 1 whose index v holds P(b_{k,c} = v).
    """
    if not 0 <= k < dist.support.shape[1]:
        raise InvalidInputError(f"block index {k} out of range")
    if not 0 <= c < dist.support.shape[2]:
        raise InvalidInputError(f"color index {c} out of range")
    size_k = int(dist.support[0, k].sum())
    return np.bincount(
        dist.support[:, k, c].astype(np.int64),
        weights=dist.probabilities,
        minlength=size_k + 1,
    )


def export_csv(dist, path):
    """Write the exact law as CSV with a JSON comment header.

    The first line is '# ' + a JSON object carrying the model constants and
    log_Z; then a header row b_1_1,..,b_s_q,log_weight,probability with
    1-based block and color indices, and one row per support point.
    """
    s = dist.support.shape[1]
    q = dist.support.shape[2]
    header = {
        "q": q,
        "s": s,
        "alpha": dist.params.alpha,
        "beta": dist.params.beta,
        "gamma": list(dist.params.gamma),
        "sizes": list(dist.blocks.sizes),
        "log_Z": dist.log_Z,
    }
    cols = [f"b_{k + 1}_{c + 1}" for k in range(s) for c in range(q)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(header) + "\n")
        fh.write(",".join(cols + ["log_weight", "probability"]) + "\n")
        flat = dist.support.reshape(len(dist), s * q)
        for row, lw, p in zip(flat, dist.log_weights, dist.probabilities):
            cells = [str(int(v)) for v in row]
            cells.append(format(float(lw), ".17g"))
            cells.append(format(float(p), ".17g"))
            fh.write(",".join(cells) + "\n")
