"""Reference kernels that track the speed the host gives this process.

On a shared host the CPU speed a process sees drifts by tens of percent
over seconds, in wall and CPU time alike, so raw times of the same code
spread far wider than any useful regression bound.  run.py times a fixed
kernel right before and right after every operation (and every set-up
probe) and divides the operation's time by the mean of the two.  The
quotient is the operation's time in kernel units, and it stays put while
the host's speed moves.  Multiplying it by the kernel's nominal time turns
it back into seconds at the reference speed.

The kernels use only Python and numpy, never blockpotts, so a change to
the program does not change them.  Their parts mirror the kinds of work
the workloads do, because the host slows each kind by a different amount:

    python       interpreter-bound Python: a loop over a dict
    tiny_numpy   many calls on an 8-element array, per-call overhead
    wide_numpy   arithmetic on a 4 MB array, cache and memory bound
    fresh_array  a 32 MB array above the allocator's mmap threshold,
                 so every call takes fresh pages from the kernel

The "interpreter" kernel (python, tiny_numpy) fits work on tiny arrays;
the "full" kernel (all four) fits large arrays and process start-up.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter

import numpy as np

_TINY = np.linspace(0.0, 1.0, 8)


def _python_part():
    table = {}
    acc = 0.0
    for i in range(18000):
        key = i & 127
        table[key] = table.get(key, 0) + 1
        acc += (i * 7 % 13) * 0.5
    return acc + len(table)


def _tiny_numpy_part():
    acc = 0.0
    row = _TINY.copy()
    for i in range(600):
        row[i & 7] = i * 0.001
        w = np.exp(row - row.max())
        acc += float(w[i & 7] / w.sum())
    return acc


@functools.cache
def _wide_array():
    # built on first use: the interpreter kernel never holds its 4 MB
    return np.linspace(0.0, 1.0, 1 << 19)


def _wide_numpy_part():
    wide = _wide_array()
    return float(np.exp(wide * 0.5).sum() + (wide * wide).sum())


def _fresh_array_part():
    return float(np.full((1 << 22) + 4096, 0.5).sum())


PARTS = {"python": _python_part, "tiny_numpy": _tiny_numpy_part,
         "wide_numpy": _wide_numpy_part, "fresh_array": _fresh_array_part}

# Median seconds of each part on the reference machine (Intel Xeon at
# 2.1 GHz, Python 3.11, numpy 2.4), the speed kernel units convert back to.
NOMINAL_S = {"python": 0.0028, "tiny_numpy": 0.0026, "wide_numpy": 0.0023,
             "fresh_array": 0.0090}

KERNELS = {"interpreter": ("python", "tiny_numpy"), "full": tuple(PARTS)}


def nominal_s(kernel):
    """Seconds the kernel takes at the reference speed."""
    return sum(NOMINAL_S[part] for part in KERNELS[kernel])


def time_kernel(kernel):
    """Seconds each part of the kernel took, in KERNELS order."""
    out = []
    for part in KERNELS[kernel]:
        start = perf_counter()
        PARTS[part]()
        out.append(perf_counter() - start)
    return out


def kernel_units(op_s, kernel_s):
    """Each operation's time in kernel units, the median over passes.

    op_s[p][i] is operation i's seconds in pass p; kernel_s[p][j] holds the
    kernel's part times taken before operation j (and, for j = len(op_s[p]),
    after the last one).  An operation's time is divided by the mean kernel
    time of the calls right before and right after it.
    """
    per_op = zip(*([op / (0.5 * (sum(kernel[i]) + sum(kernel[i + 1])))
                    for i, op in enumerate(ops)]
                   for ops, kernel in zip(op_s, kernel_s)))
    return [statistics.median(values) for values in per_op]
