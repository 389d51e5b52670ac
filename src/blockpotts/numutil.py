"""Small numeric helpers: stable softmax, tree log-sum-exp, log-factorials,
and the one slab size of every whole-support pass.

CHUNK_BYTES bounds the temporaries of each pass over a support (the tree
log-sum-exp here, the exact law's weights, the LSI minima and maxima, the
LSI suite's observables): a few such slabs stay in cache, and the memory
of a pass beyond its outputs does not grow with the support.
"""

import math

import numpy as np

CHUNK_BYTES = 1 << 19
# float64 elements per slab, a power of two so that leaves of the pairwise
# tree align with it
LEAF = CHUNK_BYTES // 8


def _pairwise_sum(t, scratch):
    """Sum of t by the level-by-level pairwise tree: each level adds
    neighbours (0,1), (2,3), .. and carries an odd last element up.  t is
    overwritten; scratch holds at least (t.size + 1) // 2 elements."""
    n = t.size
    while n > 1:
        half = n // 2
        np.add(t[: 2 * half : 2], t[1 : 2 * half : 2], out=scratch[:half])
        if n % 2:
            scratch[half] = t[n - 1]
        t, scratch, n = scratch, t, half + n % 2
    return t[0]


def logsumexp_tree(x):
    """log(sum(exp(x))) with max shift and a fixed pairwise reduction tree.

    The pairwise tree keeps the reduction order independent of how the input
    might be chunked, so the result is bit-reproducible, and it bounds the
    accumulated rounding error by O(log n) ulps.

    The tree is evaluated leaf by leaf: element i at level L of the tree
    sums x[i 2^L : (i+1) 2^L], so each aligned run of LEAF elements is a
    whole subtree, and an odd carry only ever comes from the last, short
    leaf.  exp(x - max) and each leaf's sum go through one reused
    LEAF-sized buffer, then the leaf sums are summed by the same tree.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size == 0:
        return -np.inf
    m = np.max(x)
    if not np.isfinite(m):
        return float(m)
    buf = np.empty(min(x.size, LEAF))
    scratch = np.empty((buf.size + 1) // 2)
    leaves = np.empty(-(-x.size // LEAF))
    for j, lo in enumerate(range(0, x.size, LEAF)):
        t = buf[: min(LEAF, x.size - lo)]
        np.subtract(x[lo : lo + t.size], m, out=t)
        np.exp(t, out=t)
        leaves[j] = _pairwise_sum(t, scratch)
    total = _pairwise_sum(leaves, np.empty((leaves.size + 1) // 2))
    return float(m + np.log(total))


def softmax(x, axis=-1):
    """Normalized exponentials of x along axis, with max subtraction; x is never written."""
    e = np.subtract(x, np.maximum.reduce(x, axis=axis, keepdims=True), dtype=np.float64)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=axis, keepdims=True), out=e)


def log_factorials(n):
    """Array of log(k!) for k = 0..n."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
