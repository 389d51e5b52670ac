"""Small numeric helpers: stable softmax, tree log-sum-exp, log-factorials."""

import math

import numpy as np


def logsumexp_tree(x):
    """log(sum(exp(x))) with max shift and a fixed pairwise reduction tree.

    The pairwise tree keeps the reduction order independent of how the input
    might be chunked, so the result is bit-reproducible, and it bounds the
    accumulated rounding error by O(log n) ulps.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size == 0:
        return -np.inf
    m = np.max(x)
    if not np.isfinite(m):
        return float(m)
    t = np.exp(x - m)
    while t.size > 1:
        half = t.size // 2
        pair = t[: 2 * half : 2] + t[1 : 2 * half : 2]
        if t.size % 2:
            pair = np.concatenate([pair, t[-1:]])
        t = pair
    return float(m + np.log(t[0]))


def softmax(x, axis=-1):
    """Normalized exponentials of x along axis, evaluated with max subtraction."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def log_factorials(n):
    """Array of log(k!) for k = 0..n."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])

