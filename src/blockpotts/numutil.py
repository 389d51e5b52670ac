"""Small numeric helpers: stable softmax, log-factorials, and the one slab
size of every whole-support pass.

CHUNK_BYTES bounds the temporaries of each pass over a support (the exact
law's weights, the LSI minima and maxima, the LSI suite's observables): a
few such slabs stay in cache, and the memory of a pass beyond its outputs
does not grow with the support.
"""

import math

import numpy as np

CHUNK_BYTES = 1 << 19
# float64 elements per slab
LEAF = CHUNK_BYTES // 8


def softmax(x, axis=-1):
    """Normalized exponentials of x along axis, with max subtraction; x is never written."""
    e = np.subtract(x, np.maximum.reduce(x, axis=axis, keepdims=True), dtype=np.float64)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=axis, keepdims=True), out=e)


def log_factorials(n):
    """Array of log(k!) for k = 0..n."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
