"""Block spin Potts model primitives.

Sites 0..N-1 are partitioned into s contiguous blocks and each site carries
one of q colors.  Every ordered pair of equal-color sites (the diagonal
i == j included) contributes -beta/(2N) when both sites share a block and
-alpha/(2N) otherwise.  Because only the number of equal-color pairs enters,
the energy is the quadratic form H = -<B, A B> / (2N) of the blocks-by-colors
count matrix B (interaction_form), which is therefore the sufficient
statistic of the model.

Conventions: colors and sites are 0-based in memory; the CLI and its
outputs use 1-based colors.  All value types are immutable after construction and all
operations are pure functions, so everything here is safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, InvalidInputError

GAMMA_SUM_TOL = 1e-12
# Digits of the largest count that is built and printed in full: Python
# prints no int past 4300 digits, and 3^(10^7) takes seconds to build.
SHOWN_DIGITS = 1000


def _whole_at_least(x, least):
    """True when x equals an integer >= least and is no bool; int() refuses NaN and infinities."""
    try:
        return not isinstance(x, (bool, np.bool_)) and int(x) == x and x >= least
    except (ValueError, OverflowError):
        return False


def check_whole(name, value, least):
    """int(value), after refusing what is no whole number >= least: 3.0 passes, True or 2.5 not."""
    if not _whole_at_least(value, least):
        raise InvalidInputError(f"{name} must be an integer >= {least}, got {value}")
    return int(value)


def check_finite(name, value):
    """float(value), after refusing a value that is no finite real number."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):  # no number, or an int past the float range
        x = math.nan
    if not math.isfinite(x):
        raise InvalidInputError(f"{name} must be a finite number, got {value!r}")
    return x


@dataclass(frozen=True)
class ModelParams:
    """Model constants: q colors, s blocks, couplings (alpha, beta), proportions gamma.

    The ferromagnetic regime of interest is 0 < alpha < beta.  The boundary
    cases alpha == beta (block structure invisible to the energy) and
    alpha == beta == 0 (product measure) are accepted because they make
    useful sanity oracles; note the closed-form equilibrium analysis and the
    common-ordering argument behind it require alpha > 0.
    """

    q: int
    s: int
    alpha: float
    beta: float
    gamma: tuple

    def __post_init__(self):
        object.__setattr__(self, "q", check_whole("q", self.q, 3))
        object.__setattr__(self, "s", check_whole("s", self.s, 1))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        if not (self.beta >= 0.0 and np.isfinite(self.beta)):
            raise InvalidInputError(f"beta must be finite and >= 0, got {self.beta}")
        if not (0.0 <= self.alpha <= self.beta):
            raise InvalidInputError(
                f"need 0 <= alpha <= beta, got alpha={self.alpha}, beta={self.beta}"
            )
        gamma = tuple(float(g) for g in self.gamma)
        object.__setattr__(self, "gamma", gamma)
        if len(gamma) != self.s:
            raise InvalidInputError(f"gamma has {len(gamma)} entries, expected s={self.s}")
        if any(not (0.0 < g < 1.0) for g in gamma) and self.s > 1:
            raise InvalidInputError(f"each gamma_k must lie in (0,1), got {gamma}")
        if self.s == 1 and abs(gamma[0] - 1.0) > GAMMA_SUM_TOL:
            raise InvalidInputError(f"s=1 requires gamma=(1,), got {gamma}")
        if abs(sum(gamma) - 1.0) > GAMMA_SUM_TOL:
            raise InvalidInputError(f"gamma must sum to 1 within {GAMMA_SUM_TOL}, got {gamma}")

    @cached_property
    def gamma_array(self):
        return np.asarray(self.gamma, dtype=np.float64)

    @property
    def uniform_gamma(self):
        """True when every block proportion equals 1/s (within 1e-12)."""
        return bool(np.max(np.abs(self.gamma_array - 1.0 / self.s)) <= 1e-12)

    @property
    def effective_coupling(self):
        """g = (beta + (s-1) alpha) / s, the single parameter of the uniform phase diagram."""
        return (self.beta + (self.s - 1) * self.alpha) / self.s


@dataclass(frozen=True)
class BlockStructure:
    """Concrete block sizes |S_k| of a finite system, laid out contiguously.

    Sites 0..sizes[0]-1 form block 0, the next sizes[1] sites block 1, etc.
    The contiguous layout means the block of a site is found by prefix sums
    and no per-site map needs to be stored in hot loops.
    """

    sizes: tuple

    def __post_init__(self):
        sizes = tuple(self.sizes)
        bad = [n for n in sizes if not _whole_at_least(n, 1)]  # 3.0 is a size; NaN is not
        if len(sizes) == 0 or bad:
            raise InvalidInputError(
                f"sizes must be positive integers, got {bad[0] if bad else sizes}")
        object.__setattr__(self, "sizes", tuple(int(n) for n in sizes))

    @property
    def s(self):
        return len(self.sizes)

    @cached_property
    def N(self):
        return int(sum(self.sizes))

    @cached_property
    def offsets(self):
        """Start index of each block plus the terminal N, length s+1."""
        return np.concatenate([[0], np.cumsum(self.sizes)]).astype(np.int64)

    @cached_property
    def site_blocks(self):
        """Array of length N mapping each site to its block index."""
        return np.repeat(np.arange(self.s, dtype=np.int64), self.sizes)


def check_consistent(params, blocks):
    """Raise unless params and blocks agree on the number of blocks."""
    if params.s != blocks.s:
        raise InvalidInputError(
            f"params has s={params.s} blocks but structure has {blocks.s}"
        )


def _integer(value):
    """True for an int or numpy integer that is no bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_block_color(k, c, s, q):
    """Raise unless block k is an integer in 0..s-1 and color c one in
    0..q-1; a bool or a float is no index."""
    for name, index, count in (("block", k, s), ("color", c, q)):
        if not _integer(index):
            raise InvalidInputError(f"{name} index must be an integer, got {index!r}")
        if not 0 <= index < count:
            raise InvalidInputError(f"{name} index {index} out of range 0..{count - 1}")


def check_count(name, value, low):
    """Refuse a value that is not an integer (bools included) or is below low."""
    if not _integer(value):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidInputError(f"{name} must be >= {low}, got {value}")


def check_cap(required, cap, what, unit):
    """Raise InvalidInputError for a cap below 1, CapacityError for required
    above it.  A count of more than SHOWN_DIGITS digits, exact or the lower
    bound of capped_count, is named only as such."""
    if cap < 1:
        raise InvalidInputError(f"cap must be >= 1, got {cap}")
    if required > cap:
        raise CapacityError(f"{what} needs {shown_count(required)} {unit}, cap is {cap}",
                            required=required)


def shown_count(count):
    """count as a capacity message names it: an int of more than
    SHOWN_DIGITS digits only as such."""
    if isinstance(count, int) and count > 10**SHOWN_DIGITS:
        return f"more than 10^{SHOWN_DIGITS}"
    return count


def capped_count(binomials, cap):
    """prod C(m, k) over the (m, k) pairs, or, once the product passes
    max(cap, 10^SHOWN_DIGITS), the partial product that passed it.  C(m, k)
    is built as C(m - k + i, i) for i = 1..k, k <= m - k, so each step at
    least doubles the product and any count takes a few thousand at most."""
    bound, total = max(cap, 10**SHOWN_DIGITS), 1
    for m, k in binomials:
        k, part = min(k, m - k), 1
        for i in range(1, k + 1):
            part = part * (m - k + i) // i
            if total * part > bound:
                return total * part
        total *= part
    return total


def validate_config(config, blocks, q):
    """Return config as an int64 array after checking its length and that
    every entry is a whole number in [0, q): whole-valued floats pass, as
    block sizes do, and nothing is truncated or parsed."""
    try:
        config = np.asarray(config)
    except ValueError as exc:  # a ragged nest of sequences
        raise InvalidInputError(f"configuration is not a list of colors: {exc}") from None
    if config.ndim != 1 or config.size != blocks.N:
        raise InvalidInputError(f"configuration has length {config.size}, expected N={blocks.N}")
    numeric = config.dtype.kind in "biuf"
    bad = config[~(np.isfinite(config) & (np.trunc(config) == config))] if numeric else config
    if bad.size:
        raise InvalidInputError(f"colors must be whole numbers, got {bad[:1].tolist()[0]!r}")
    if config.size and (config.min() < 0 or config.max() >= q):
        raise InvalidInputError(f"colors must lie in [0, {q}), got range "
                                f"[{config.min()}, {config.max()}]")
    return config.astype(np.int64, copy=False)


def count_matrix(config, blocks, q):
    """Count matrix B with B[k, c] = number of sites of color c in block k.

    Row k sums to |S_k| by construction.
    """
    config = validate_config(config, blocks, q)
    off = blocks.offsets
    out = np.zeros((blocks.s, q), dtype=np.int64)
    for k in range(blocks.s):
        out[k] = np.bincount(config[off[k]:off[k + 1]], minlength=q)
    return out


def _column_sums(mu, dtype=None):
    # On C-ordered input both forms add the rows in order and give the same
    # bits; each runs where it is the faster (best-of timeit, one BLAS
    # thread, numpy 2.4, 2-core Xeon).  One (s, q) matrix, as G and J' see
    # it, takes add.reduce: 1.0 us against einsum's 1.8 us at (2, 3).  A
    # batch takes einsum, which skips add.reduce's per-matrix overhead:
    # 23 us against 150 us at (2500, 2, 3).
    if mu.ndim == 2:
        return np.add.reduce(mu, axis=0, dtype=dtype)
    return np.einsum("...kc->...c", mu, dtype=dtype)


def interaction_field(mu, params):
    """The map mu -> A mu, batched over leading axes of (..., s, q) matrices.

    A is the s-by-s block interaction matrix with beta on and alpha off the
    diagonal, so (A mu)[k] = (beta - alpha) mu[k] + alpha * colsum(mu).  On
    a leave-one-out count matrix, row k divided by N is the field whose
    softmax is the conditional law of a site in block k.
    """
    mu = np.ascontiguousarray(mu)
    return field_from_sums(mu, _column_sums(mu)[..., None, :], params)


def field_from_sums(own, col, params):
    """(A mu)[k] from the row mu[k] and colsum(mu): (beta - alpha) own + alpha col.

    The one place the field's coefficients are applied, so a caller that
    builds the column sums another way gets the same bits as
    interaction_field.  own and col broadcast against each other.
    """
    return (params.beta - params.alpha) * own + params.alpha * col


def interaction_form(mu, params):
    """Quadratic form <mu, A mu> = (beta-alpha) sum mu^2 + alpha |colsum mu|^2.

    Batched over leading axes of (..., s, q) matrices.  One matrix and a
    batch take different numpy forms (_column_sums and the comment below)
    with the same bits; input in another layout is read from a C-ordered
    copy, so it gets them too.  Integer input is summed exactly in int64
    (so int16 counts cannot wrap) and is never copied to float64; float
    input keeps its own dtype.
    """
    mu = np.ascontiguousarray(mu)
    acc = np.int64 if mu.dtype.kind in "iu" else None
    col = _column_sums(mu, acc)
    squares = np.add.reduce(np.square(mu, dtype=acc), axis=(-2, -1))
    # |colsum|^2 is one dot product per matrix.  One matrix takes col @ col;
    # a batch takes the stacked (1, q) by (q, 1) matmul, which reduces each
    # product with that same dot, so a batch gives the bits of its matrices
    # one at a time.  On one matrix at q = 3 col @ col takes 0.8 us and the
    # stacked form 1.25 us (timed as in _column_sums).
    if mu.ndim == 2:
        col_sq = col @ col
    else:
        col_sq = (col[..., None, :] @ col[..., None])[..., 0, 0]
    return form_from_sums(squares, col_sq, params)


def form_from_sums(squares, col_sq, params):
    """<mu, A mu> from its two sums: squares = sum mu^2 and col_sq = |colsum mu|^2.

    The one place the form's coefficients are applied, so a caller that
    builds exact integer sums another way gets the same bits as
    interaction_form.
    """
    return (params.beta - params.alpha) * squares + params.alpha * col_sq


def model_to_json(params, blocks=None):
    """Single JSON document describing params and, unless None, block sizes."""
    doc = {
        "q": params.q,
        "s": params.s,
        "alpha": params.alpha,
        "beta": params.beta,
        "gamma": list(params.gamma),
    }
    if blocks is not None:
        check_consistent(params, blocks)
        doc["sizes"] = list(blocks.sizes)
    return doc
