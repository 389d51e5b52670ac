"""Small numeric helpers: stable softmax, log-factorials, the one x log x
of every entropy, and the one slab size of every whole-support pass.

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
    return np.divide(e, np.add.reduce(e, axis=axis, keepdims=True), out=e)


def _xlogx(m):
    """m log m entry-wise for a nonnegative array, with the 0 log 0 = 0 of
    every entropy: a zero entry times the finite log(1e-300) needs no mask.
    The product is written over the log, which saves an array one temporary."""
    out = np.log(np.maximum(m, 1e-300))
    out *= m
    return out


def log_factorials(n):
    """Array of log(k!) for k = 0..n."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
