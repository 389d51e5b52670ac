"""Fuzz of the public numeric entry points: each call returns a value it
can stand behind or raises InvalidInputError, CapacityError or
ConditionNotMetError, never another exception or a numpy warning (pytest
turns warnings into errors).

Scalars are what a caller can pass by mistake: integers from -10 to 10^6,
10^160 and 10^400; NaN, the infinities, signed zeros, 2.5, 1e300 and a
subnormal; and bools.  Huge q goes only to critical_temperature,
classify_phase and potts_fixed_point_u.  A function that allocates arrays
of q or s x q entries draws q <= 10^4, and equilibrium_matrices, which
allocates q matrices of s x q, draws q <= 100.  enumerate_block_compositions,
whose output has no cap, draws n <= 40 and q <= 8 and skips the pairs of
more than 10^5 rows, a table of gigabytes at (40, 8).  Matrices are a
small model's own with one entry replaced by NaN, an infinity or a finite
value of magnitude at most 1e6, zero and negatives included.

Hypothesis runs derandomized, and each case that an earlier version
mishandled is an explicit example.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blockpotts import (
    BlockStructure,
    ModelParams,
    Phase,
    asymptotic_constants,
    classify_phase,
    concentration_report,
    critical_residual,
    critical_temperature,
    enumerate_block_compositions,
    equilibrium_matrices,
    exact_distribution,
    exact_observable_distribution,
    potts_fixed_point_u,
    potts_functional,
    run_chain,
    structure_certificate,
)
from blockpotts.errors import CapacityError, ConditionNotMetError, InvalidInputError
from blockpotts.exact import block_compositions

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)
REFUSALS = (InvalidInputError, CapacityError, ConditionNotMetError)
NAN, INF = math.nan, math.inf
SPECIAL_FLOATS = (NAN, INF, -INF, 0.0, -0.0, 2.5, 1e300, 5e-324)
# a small model's law and chain, for the block and color indices
BLOCKS = BlockStructure(sizes=(2, 3))
PARAMS = ModelParams(q=3, s=2, alpha=0.05, beta=0.1, gamma=(0.4, 0.6))
LAW = exact_distribution(BLOCKS, PARAMS)
SUMMARY = run_chain(BLOCKS, PARAMS, sweeps=20, seed=1)
CONSTANTS = asymptotic_constants(3, 0.1)


def scalars(top=None):
    """Integers from -10 to 10^6 and past the float range, the special
    floats and bools; with top, no finite number above it."""
    ints = st.integers(-10, 10**6 if top is None else top)
    if top is None:
        ints = ints | st.sampled_from([10**160, 10**400])
    floats = [x for x in SPECIAL_FLOATS if top is None or not abs(x) > top or math.isinf(x)]
    return ints | st.sampled_from(floats) | st.booleans()


def entries():
    """NaN, the infinities, or a finite value of magnitude at most 1e6."""
    return st.sampled_from([NAN, INF, -INF, 0.0, -1.0]) | st.floats(-1e6, 1e6)


def refused(call, *args):
    """call(*args), or None when it raises one of the package's refusals."""
    try:
        return call(*args)
    except REFUSALS:
        return None


def finite(x):
    """True for a number that is a finite float."""
    try:
        return math.isfinite(float(x))
    except OverflowError:
        return False


def whole(x, least):
    """True for a whole number >= least that is no bool."""
    if isinstance(x, bool) or isinstance(x, float) and not math.isfinite(x):
        return False
    return x == int(x) and x >= least


def index(x):
    """True for an int that is no bool."""
    return isinstance(x, int) and not isinstance(x, bool)


@st.composite
def models(draw, max_q, uniform=False):
    q, s = draw(st.integers(3, max_q)), draw(st.integers(1, 3))
    alpha, beta = sorted(draw(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0))))
    weights = [1.0] * s if uniform else draw(st.lists(st.floats(1.0, 4.0), min_size=s,
                                                      max_size=s))
    gamma = tuple(w / sum(weights) for w in weights[:-1])
    return ModelParams(q=q, s=s, alpha=alpha, beta=beta, gamma=(*gamma, 1.0 - sum(gamma)))


@SETTINGS
@given(scalars())
@example(NAN)
@example(INF)
@example(10**400)
def test_critical_temperature(q):
    zeta = refused(critical_temperature, q)
    assert zeta is None or whole(q, 3) and finite(zeta) and zeta > 0.0


@SETTINGS
@given(scalars(), scalars())
@example(NAN, 3)
@example(3.0, 10**400)
@example(3.0, 1e300)
def test_classify_phase(g, q):
    phase = refused(classify_phase, g, q)
    assert phase is None or finite(g) and whole(q, 3) and isinstance(phase, Phase)


@SETTINGS
@given(scalars(), scalars())
@example(NAN, 3)
@example(3.0, 10**160)
@example(3.0, 1e300)
def test_potts_fixed_point_u(g, q):
    u = refused(potts_fixed_point_u, g, q)
    assert u is None or finite(g) and whole(q, 3) and 0.0 <= u < 1.0


@SETTINGS
@given(scalars(), models(max_q=100, uniform=True))
@example(NAN, ModelParams(q=3, s=2, alpha=1.0, beta=2.0, gamma=(0.5, 0.5)))
def test_equilibrium_matrices(g, params):
    matrices = refused(equilibrium_matrices, g, params)
    if matrices is not None:
        Q, nus = matrices
        assert finite(g) and all(np.all(np.isfinite(m)) and np.all(m >= 0.0) for m in [Q, *nus])


@SETTINGS
@given(scalars(), st.integers(1, 10**4), st.none() | st.tuples(st.integers(0), entries()))
@example(NAN, 3, None)
def test_potts_functional(g, q, replaced):
    v = np.full(q, 1.0 / q)
    if replaced is not None:
        v[replaced[0] % q] = replaced[1]
    value = refused(potts_functional, v, g)
    assert value is None or finite(g) and finite(value)


@SETTINGS
@given(models(max_q=6), st.integers(0), entries())
@example(ModelParams(q=3, s=2, alpha=1.0, beta=2.0, gamma=(0.5, 0.5)), 0, NAN)
@example(ModelParams(q=3, s=2, alpha=1.0, beta=2.0, gamma=(0.5, 0.5)), 0, INF)
def test_critical_residual_and_structure_certificate(params, at, entry):
    mu = np.tile(params.gamma_array[:, None] / params.q, (1, params.q))
    mu.flat[at % mu.size] = entry
    residual = refused(critical_residual, mu, params)
    assert residual is None or np.all(np.isfinite(residual))
    certificate = refused(structure_certificate, mu, params)
    assert certificate is None or np.all(np.isfinite(mu))


@SETTINGS
@given(st.lists(scalars(), max_size=3), scalars(top=10**4))
@example([2.5], 3)
@example([True, 2], 3)
def test_block_compositions(sizes, q):
    tables = refused(block_compositions, sizes, q, 100)
    if tables is not None:
        assert whole(q, 1) and all(whole(n, 0) for n in sizes)
        assert [len(t) for t in tables] == [math.comb(int(n) + int(q) - 1, int(n))
                                             for n in sizes]


def test_block_compositions_take_any_iterable_of_sizes():
    want = block_compositions([2, 3], 3, 100)
    for sizes in (np.array([2, 3]), np.array([2.0, 3.0]), (n for n in (2, 3))):
        got = block_compositions(sizes, 3, 100)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)) and len(got) == 2


@SETTINGS
@given(scalars(top=40), scalars(top=8))
@example(2.5, 3)
@example(3, True)
def test_enumerate_block_compositions(n, q):
    if whole(n, 0) and whole(q, 1):
        assume(math.comb(int(n) + int(q) - 1, int(q) - 1) <= 10**5)
    table = refused(enumerate_block_compositions, n, q)
    if table is not None:
        assert whole(n, 0) and whole(q, 1)
        assert table.shape[1] == q and np.all(table.sum(axis=1) == n)


@SETTINGS
@given(scalars(), scalars())
@example(True, 0)
@example(1.0, 0)
@example(0, 2.0)
def test_exact_observable_distribution(k, c):
    law = refused(exact_observable_distribution, LAW, k, c)
    if law is not None:
        assert index(k) and index(c)
        assert abs(law.sum() - 1.0) <= 1e-12


@SETTINGS
@given(scalars(), scalars())
@example(True, 0)
@example(0, 1.0)
def test_concentration_report(k, c):
    rows = refused(concentration_report, SUMMARY, CONSTANTS, k, c, [0.0, 1.0, 2.0])
    assert rows is None or index(k) and index(c) and len(rows) == 3
