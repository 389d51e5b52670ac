"""Small numeric helpers: stable softmax, tree log-sum-exp, log-factorials,
simplex projection."""

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


def project_simplex(x, total=1.0):
    """Euclidean projection of every row x[..., :] onto {y >= 0, sum(y) = total}.

    total is a scalar or an array broadcasting against x[..., 0].
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    u = np.sort(x, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - np.asarray(total, dtype=np.float64)[..., None]
    # last index where the sorted entry still exceeds the running threshold
    rho = n - 1 - np.argmax((u * np.arange(1, n + 1) > css)[..., ::-1], axis=-1)
    theta = np.take_along_axis(css, rho[..., None], axis=-1) / (rho[..., None] + 1.0)
    return np.maximum(x - theta, 0.0)
