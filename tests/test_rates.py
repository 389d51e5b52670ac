"""Entropies, rate functions, and the free energy functional."""

import math

import numpy as np
import pytest

from blockpotts import (
    InvalidInputError,
    ModelParams,
    free_energy_G,
    maximize_G,
    potts_functional,
    rate_I,
    rate_J,
    rate_J_prime,
    relative_entropy,
)

from blockpotts import rates
from blockpotts.model import interaction_form
from blockpotts.rates import FEASIBILITY_TOL, _free_energy

from oracles import (
    clean_rows_by_any,
    entropy_term_by_sum,
    free_energy_by_wrappers,
    interaction_form_by_issubdtype,
    sup_term_for_J,
)


P2 = ModelParams(q=3, s=2, alpha=0.5, beta=1.0, gamma=(0.5, 0.5))


def random_row_matrix(rng, s=2, q=3):
    return rng.dirichlet(np.ones(q), size=s)


def test_relative_entropy_uniform_is_zero():
    assert relative_entropy(np.full(3, 1 / 3)) == pytest.approx(0.0, abs=1e-15)


def test_relative_entropy_point_mass_is_log_q():
    assert relative_entropy([1.0, 0.0, 0.0]) == pytest.approx(math.log(3), abs=1e-15)


def test_relative_entropy_half_half():
    assert relative_entropy([0.5, 0.5, 0.0]) == pytest.approx(
        math.log(3) - math.log(2), abs=1e-15
    )


def test_relative_entropy_infeasible_gives_infinity():
    assert math.isinf(relative_entropy([0.5, 0.2, 0.2]))
    assert math.isinf(relative_entropy([1.2, -0.2, 0.0]))


def test_relative_entropy_range():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.dirichlet(np.ones(4))
        h = relative_entropy(v)
        assert -1e-12 <= h <= math.log(4) + 1e-12


def test_rate_I_trivial_values():
    gamma = np.array([0.5, 0.5])
    uniform = np.full((2, 3), 1 / 3)
    assert rate_I(uniform, gamma) == pytest.approx(0.0, abs=1e-15)
    point = np.array([[1.0, 0, 0], [1.0, 0, 0]])
    assert rate_I(point, gamma) == pytest.approx(math.log(3), abs=1e-15)
    mixed = np.array([[1.0, 0, 0], [1 / 3, 1 / 3, 1 / 3]])
    assert rate_I(mixed, gamma) == pytest.approx(0.5 * math.log(3), abs=1e-14)


def test_rate_I_nonnegative_zero_only_at_uniform():
    rng = np.random.default_rng(1)
    gamma = np.array([0.3, 0.7])
    for _ in range(200):
        nu = random_row_matrix(rng)
        val = rate_I(nu, gamma)
        assert val >= -1e-12
        if val < 1e-12:
            assert np.max(np.abs(nu - 1 / 3)) < 1e-4


def test_free_energy_single_block_pure_entropy():
    p = ModelParams(q=3, s=1, alpha=0.0, beta=0.0, gamma=(1.0,))
    assert free_energy_G(np.full((1, 3), 1 / 3), p) == pytest.approx(math.log(3), abs=1e-14)


def test_free_energy_flat_matrix_closed_form():
    # two routes to G(Q): direct evaluation and g/(2q) + log(sq)
    for (s, beta, alpha) in ((2, 1.0, 0.5), (3, 2.0, 0.4), (1, 1.5, 0.0)):
        p = ModelParams(q=3, s=s, alpha=alpha, beta=beta,
                        gamma=tuple([1.0 / s] * s))
        g = (beta + (s - 1) * alpha) / s
        Q = np.full((s, 3), 1.0 / (3 * s))
        assert free_energy_G(Q, p) == pytest.approx(
            g / 6.0 + math.log(3 * s), rel=1e-13
        )


def test_free_energy_column_permutation_invariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        mu = rng.dirichlet(np.ones(3), size=2) * 0.5
        perm = rng.permutation(3)
        assert free_energy_G(mu, P2) == pytest.approx(
            free_energy_G(mu[:, perm], P2), abs=1e-13
        )


def test_free_energy_block_constraint_violation_is_error():
    with pytest.raises(InvalidInputError):
        free_energy_G(np.full((2, 3), 1 / 3), P2)  # rows sum to 1, not 1/2


def test_potts_functional_uniform_value():
    for g in (0.0, 1.0, 3.0):
        assert potts_functional(np.full(3, 1 / 3), g) == pytest.approx(
            g / 6.0 + math.log(3), abs=1e-14
        )


def test_potts_functional_g_zero_maximized_at_uniform():
    rng = np.random.default_rng(3)
    ref = potts_functional(np.full(3, 1 / 3), 0.0)
    for _ in range(300):
        v = rng.dirichlet(np.ones(3))
        assert potts_functional(v, 0.0) <= ref + 1e-12


def test_potts_reduction_identity():
    # rows all v/s: G = G^P(v) + log s at g = (beta + (s-1) alpha)/s
    rng = np.random.default_rng(4)
    for _ in range(50):
        v = rng.dirichlet(np.ones(3))
        mu = np.tile(v / 2.0, (2, 1))
        g = (1.0 + 0.5) / 2.0
        assert free_energy_G(mu, P2) - math.log(2) == pytest.approx(
            potts_functional(v, g), abs=1e-12
        )


def test_rearrangement_never_decreases_G():
    # opposite row orders lose against sorting both rows the same way
    rng = np.random.default_rng(5)
    for _ in range(100):
        mu = rng.dirichlet(np.ones(3), size=2) * 0.5
        opposed = np.vstack([np.sort(mu[0]), np.sort(mu[1])[::-1]])
        aligned = np.vstack([np.sort(mu[0]), np.sort(mu[1])])
        assert free_energy_G(aligned, P2) >= free_energy_G(opposed, P2) - 1e-12


@pytest.fixture(scope="module")
def sup_G_subcritical():
    return maximize_G(P2).sup_G


def test_rate_J_prime_zero_at_maximizer(sup_G_subcritical):
    Q = np.full((2, 3), 1 / 6)
    ev = rate_J_prime(Q, P2, sup_G_subcritical)
    assert ev.feasible
    assert abs(ev.value) <= 1e-10


def test_rate_J_prime_infeasible_outside_C_gamma(sup_G_subcritical):
    ev = rate_J_prime(np.full((2, 3), 1 / 3), P2, sup_G_subcritical)
    assert not ev.feasible
    assert math.isinf(ev.value)


def test_rate_J_prime_positive_away_from_maximizer(sup_G_subcritical):
    rng = np.random.default_rng(6)
    Q = np.full((2, 3), 1 / 6)
    for _ in range(100):
        nu = rng.dirichlet(np.ones(3), size=2) * 0.5
        ev = rate_J_prime(nu, P2, sup_G_subcritical)
        assert ev.value >= -1e-10
        if np.max(np.abs(nu - Q)) > 1e-3:
            assert ev.value > 0.0


def test_rate_J_equals_J_prime_after_scaling(sup_G_subcritical):
    rng = np.random.default_rng(7)
    gamma = np.array([0.5, 0.5])
    sup_term = sup_term_for_J(sup_G_subcritical, 3, gamma)
    for _ in range(100):
        nu = random_row_matrix(rng)
        j = rate_J(nu, P2, sup_term)
        jp = rate_J_prime(gamma[:, None] * nu, P2, sup_G_subcritical)
        assert j.feasible and jp.feasible
        assert j.value == pytest.approx(jp.value, abs=1e-11)


def test_rate_J_minimizer_and_infeasible(sup_G_subcritical):
    gamma = np.array([0.5, 0.5])
    sup_term = sup_term_for_J(sup_G_subcritical, 3, gamma)
    uniform = np.full((2, 3), 1 / 3)
    assert rate_J(uniform, P2, sup_term).value == pytest.approx(0.0, abs=1e-10)
    bad = rate_J(np.array([[0.9, 0.2, 0.1], [0.2, 0.4, 0.4]]), P2, sup_term)
    assert not bad.feasible and math.isinf(bad.value)


def test_rate_J_cleans_its_rows_once(monkeypatch, sup_G_subcritical):
    calls = []
    clean_rows = rates._clean_rows

    def counted(*args):
        calls.append(args)
        return clean_rows(*args)

    monkeypatch.setattr(rates, "_clean_rows", counted)
    sup_term = sup_term_for_J(sup_G_subcritical, 3, P2.gamma_array)
    for nu in ([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]], [[0.9, 0.2, 0.1], [0.2, 0.4, 0.4]]):
        calls.clear()
        rate_J(np.array(nu), P2, sup_term)
        assert len(calls) == 1


PIN_MODELS = [
    P2,
    ModelParams(q=4, s=3, alpha=1.5, beta=3.5, gamma=(0.2, 0.3, 0.5)),
    ModelParams(q=9, s=2, alpha=1.0, beta=2.0, gamma=(0.4, 0.6)),
    ModelParams(q=64, s=3, alpha=0.8, beta=2.6, gamma=(0.25, 0.35, 0.4)),
]


def _pin_points(params, seed, n=80):
    """BLOCK matrices on and around C(gamma): Dirichlet rows, rows with exact
    zeros, an entry or a row sum just inside or outside FEASIBILITY_TOL,
    and Fortran-ordered copies."""
    rng = np.random.default_rng(seed)
    gamma, tol = params.gamma_array, FEASIBILITY_TOL
    points = []
    for i in range(n):
        shape = np.full(params.q, rng.choice([0.2, 1.0, 5.0]))
        m = rng.dirichlet(shape, size=params.s) * gamma[:, None]
        k = rng.integers(params.s)
        if i % 5 == 1:
            m[:, rng.integers(params.q)] = 0.0
            m *= (gamma / m.sum(axis=1))[:, None]
        elif i % 5 == 2:
            moved = m[k, 0] + tol * rng.choice([0.5, 0.999, 1.001])
            m[k, 0] -= moved
            m[k, 1] += moved
        elif i % 5 == 3:
            m[k, -1] += tol * rng.choice([-1.001, -0.9, 0.9, 1.001])
        elif i % 5 == 4:
            m = np.asfortranarray(m)
        points.append(m)
    return points


@pytest.mark.parametrize("params", PIN_MODELS, ids=["q3s2", "q4s3-nonuniform", "q9s2", "q64s3"])
def test_rate_functions_equal_the_wrapper_formulas_bit_for_bit(params):
    # the np.any/np.sum forms of the clean-up, entropy and form (oracles)
    # against the package's direct ufunc reductions, on C(gamma), on exact
    # zeros and at the tolerance edge, compared with ==
    gamma, q, s = params.gamma_array, params.q, params.s
    sup = 2.5
    sup_term = sup_term_for_J(sup, q, gamma)
    cleaned = []
    for m in _pin_points(params, seed=q):
        ref = clean_rows_by_any(m, gamma)
        jp = rate_J_prime(m, params, sup)
        if ref is None:
            with pytest.raises(InvalidInputError):
                free_energy_G(m, params)
            assert not jp.feasible and jp.value == math.inf
        else:
            cleaned.append(ref)
            g_ref = float(free_energy_by_wrappers(ref, params))
            assert free_energy_G(m, params) == g_ref
            assert jp.feasible and jp.value == sup - g_ref
            assert np.array_equal(jp.argument, ref)
        rows = m / gamma[:, None]
        row_ref = clean_rows_by_any(rows, np.ones(s))
        j = rate_J(rows, params, sup_term)
        assert j.feasible == (row_ref is not None)
        if row_ref is not None:
            # rate_I cleans the rows it is given, so its reference cleans
            # row_ref again; J takes I of the rows it cleaned once
            again = clean_rows_by_any(row_ref, np.ones(s))
            i_ref = sum(gamma * (entropy_term_by_sum(again, axis=1) + math.log(q)))
            assert rate_I(row_ref, gamma) == i_ref
            i_once = sum(gamma * (entropy_term_by_sum(row_ref, axis=1) + math.log(q)))
            form = interaction_form_by_issubdtype(gamma[:, None] * row_ref, params)
            assert j.value == -(0.5 * float(form) - i_once) + sup_term
        v_ref = clean_rows_by_any(rows[0][None], np.ones(1))
        if v_ref is None:
            assert relative_entropy(rows[0]) == math.inf
        else:
            ent = entropy_term_by_sum(v_ref)
            assert relative_entropy(rows[0]) == ent + math.log(q)
            dot = float(np.dot(v_ref[0], v_ref[0]))
            assert potts_functional(rows[0], 2.7) == 0.5 * 2.7 * dot - ent
    assert len(cleaned) >= 40
    batch = np.stack(cleaned)
    assert np.array_equal(_free_energy(batch, params), free_energy_by_wrappers(batch, params))


@pytest.mark.parametrize("dtype", [np.int16, np.uint8, np.int64, np.float64])
def test_interaction_form_equals_the_issubdtype_form(dtype):
    # integer counts are summed in int64 whatever their own width
    rng = np.random.default_rng(12)
    batch = rng.integers(0, 250, size=(6, 3, 4)).astype(dtype)
    want = interaction_form_by_issubdtype(batch, P2)
    assert np.array_equal(interaction_form(batch, P2), want)
    assert interaction_form(batch[0], P2) == want[0]


@pytest.mark.parametrize("dtype", [np.int16, np.uint8, np.int64, np.float64])
@pytest.mark.parametrize("s", [1, 2, 5, 12])
@pytest.mark.parametrize("q", [3, 17, 64, 257])
def test_one_matrix_form_equals_its_row_of_a_batch(q, s, dtype):
    # one matrix takes add.reduce and col @ col, a batch einsum and the
    # stacked matmul: the same bits, and those of the issubdtype form; a
    # Fortran-ordered matrix too, whose contiguous axis would otherwise be
    # summed out of row order once s reaches numpy's pairwise blocks
    rng = np.random.default_rng(1000 * q + s)
    params = ModelParams(q=q, s=s, alpha=0.7, beta=2.3, gamma=tuple(np.full(s, 1.0 / s)))
    if dtype is np.float64:
        # entries over ten orders of magnitude, so any change of order shows
        batch = rng.random((4, s, q)) * 10.0 ** rng.integers(-5, 5, size=(4, s, q))
    else:
        batch = rng.integers(0, 250, size=(4, s, q)).astype(dtype)
    want = interaction_form_by_issubdtype(batch, params)
    assert np.array_equal(interaction_form(batch, params), want)
    for m, w in zip(batch, want):
        one = interaction_form(m, params)
        assert one == w and one == interaction_form_by_issubdtype(m, params)
        assert interaction_form(np.asfortranarray(m), params) == w


# a NaN, an infinity of either sign, and finite entries whose sum overflows
BAD_ROWS = {
    "nan": [0.5, math.nan, 0.5],
    "+inf": [0.5, math.inf, 0.5],
    "-inf": [0.5, -math.inf, 0.5],
    "overflow": [1e308, 1e308, 0.0],
}


@pytest.mark.parametrize("row", BAD_ROWS.values(), ids=BAD_ROWS.keys())
def test_non_finite_entries_are_off_C_gamma(row, sup_G_subcritical):
    # an error for G, infeasible with value inf for J' and J, and no
    # RuntimeWarning (the suite turns warnings into failures); the other
    # row is feasible, so the bad row alone is refused
    gamma = P2.gamma_array
    rows = np.array([row, [1.0, 0.0, 0.0]])
    # the rows scaled by gamma, and as they are: [[1e308, 1e308, 0], [1, 0, 0]]
    for mu in (rows * gamma[:, None], rows):
        with pytest.raises(InvalidInputError):
            free_energy_G(mu, P2)
        jp = rate_J_prime(mu, P2, sup_G_subcritical)
        assert not jp.feasible and jp.value == math.inf
    j = rate_J(rows, P2, sup_term_for_J(sup_G_subcritical, 3, gamma))
    assert not j.feasible and j.value == math.inf
    assert rate_I(rows, gamma) == math.inf
    assert relative_entropy(row) == math.inf
    with pytest.raises(InvalidInputError):
        potts_functional(row, 1.0)


def test_inf_of_both_signs_in_one_row_is_off_C_gamma(sup_G_subcritical):
    mu = np.array([[math.inf, -math.inf, 0.5], [0.5, 0.0, 0.0]])
    with pytest.raises(InvalidInputError):
        free_energy_G(mu, P2)
    assert not rate_J_prime(mu, P2, sup_G_subcritical).feasible


@pytest.mark.parametrize("shape", [(2, 4), (2, 2), (3, 3), (1, 3), (6,), (1, 2, 3)])
def test_rates_refuse_any_shape_but_s_by_q(shape, sup_G_subcritical):
    mu = np.full(shape, 1.0 / 6)
    with pytest.raises(InvalidInputError):
        free_energy_G(mu, P2)
    with pytest.raises(InvalidInputError):
        rate_J_prime(mu, P2, sup_G_subcritical)
    with pytest.raises(InvalidInputError):
        rate_J(np.full(shape, 1.0 / shape[-1]), P2, 0.0)


@pytest.mark.parametrize("nu", [np.full((1, 3), 1 / 3), np.full((3, 3), 1 / 3), 1.0])
def test_relative_entropy_refuses_a_non_vector(nu):
    with pytest.raises(InvalidInputError):
        relative_entropy(nu)


def test_every_rate_value_is_a_python_float(sup_G_subcritical):
    gamma = P2.gamma_array
    rows = np.array([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
    sup_term = sup_term_for_J(sup_G_subcritical, 3, gamma)
    values = [
        relative_entropy(rows[0]),
        rate_I(rows, gamma),
        free_energy_G(gamma[:, None] * rows, P2),
        potts_functional(rows[0], 1.5),
        rate_J_prime(gamma[:, None] * rows, P2, sup_G_subcritical).value,
        rate_J(rows, P2, sup_term).value,
        rate_J_prime(rows, P2, sup_G_subcritical).value,
        rate_J(2.0 * rows, P2, sup_term).value,
        relative_entropy([0.5, 0.2, 0.2]),
        rate_I(2.0 * rows, gamma),
    ]
    assert [type(v) for v in values] == [float] * len(values)
