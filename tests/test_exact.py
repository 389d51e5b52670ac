"""Exact partition function, count-matrix law, conditionals, and marginals."""

import dataclasses
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from blockpotts import (
    BlockStructure,
    CapacityError,
    ConfigWorkspace,
    InvalidInputError,
    ModelParams,
    enumerate_block_compositions,
    exact_distribution,
    exact_observable_distribution,
    full_configuration_distribution,
    interdependence_matrix_exact,
)
from blockpotts.cli import main
from blockpotts.exact import _grid_log_weights, _site_table
from blockpotts.numutil import CHUNK_BYTES

import oracles
from oracles import count_matrix_support


def exact_cli(q, sizes, path):
    """Write the exact law at alpha 0.5, beta 1.0 through `blockpotts exact`."""
    assert main(["exact", "--q", str(q), "--sizes", ",".join(map(str, sizes)),
                 "--alpha", "0.5", "--beta", "1.0", "--out", str(path)]) == 0


def make(q, sizes, alpha, beta):
    total = sum(sizes)
    gamma = tuple(n / total for n in sizes)
    if len(sizes) == 1:
        gamma = (1.0,)
    p = ModelParams(q=q, s=len(sizes), alpha=alpha, beta=beta, gamma=gamma)
    return p, BlockStructure(sizes=sizes)


def test_compositions_trivial_cases():
    assert enumerate_block_compositions(0, 3).tolist() == [[0, 0, 0]]
    assert enumerate_block_compositions(2, 2).tolist() == [[2, 0], [1, 1], [0, 2]]


def test_compositions_count_stars_and_bars():
    assert enumerate_block_compositions(10, 3).shape[0] == 66  # C(12, 2)


def test_compositions_colex_order_no_duplicates():
    comp = enumerate_block_compositions(5, 4)
    assert np.all(comp.sum(axis=1) == 5)
    seen = {tuple(row) for row in comp}
    assert len(seen) == comp.shape[0] == math.comb(8, 3)
    reversed_rows = [tuple(row[::-1]) for row in comp]
    assert reversed_rows == sorted(reversed_rows)


@pytest.mark.parametrize("q", range(1, 7))
def test_compositions_match_recursive_reference(q):
    for n in range(16):
        comp = enumerate_block_compositions(n, q)
        assert comp.shape[0] == math.comb(n + q - 1, q - 1)
        assert comp.dtype == np.int64
        assert np.array_equal(comp, oracles.recursive_compositions(n, q))


def test_compositions_reject_invalid_input():
    with pytest.raises(InvalidInputError):
        enumerate_block_compositions(-1, 3)
    with pytest.raises(InvalidInputError):
        enumerate_block_compositions(3, 0)


def test_log_Z_two_sites_closed_form():
    p, b = make(3, (2,), 0.0, 1.0)
    dist = exact_distribution(b, p)
    assert dist.log_Z == pytest.approx(math.log(3 * math.e + 6 * math.exp(0.5)), abs=1e-13)


def test_probabilities_sum_to_one_and_match_weights():
    p, b = make(3, (3, 2), 0.4, 1.1)
    dist = exact_distribution(b, p)
    assert abs(dist.probabilities.sum() - 1.0) <= 1e-12
    assert np.allclose(dist.probabilities,
                       np.exp(dist.log_weights - dist.log_Z), rtol=0, atol=1e-15)
    n_expected = math.comb(3 + 2, 2) * math.comb(2 + 2, 2)
    assert len(dist) == n_expected


def test_zero_couplings_give_multinomial_law():
    p, b = make(3, (4, 2), 0.0, 0.0)
    dist = exact_distribution(b, p)
    for i in range(len(dist)):
        expected = 1.0
        for k, n in enumerate(b.sizes):
            row = dist.support[i, k]
            coeff = math.factorial(n)
            for v in row:
                coeff //= math.factorial(int(v))
            expected *= coeff / 3**n
        assert dist.probabilities[i] == pytest.approx(expected, rel=1e-12)


def test_count_law_matches_full_enumeration_N6():
    p, b = make(3, (3, 3), 0.5, 1.0)
    dist = exact_distribution(b, p)
    law = oracles.brute_count_law(b.sizes, 3, 0.5, 1.0)
    tv = 0.0
    for i in range(len(dist)):
        key = tuple(int(v) for v in dist.support[i].ravel())
        tv += abs(dist.probabilities[i] - law.pop(key, 0.0))
    tv += sum(abs(v) for v in law.values())
    assert 0.5 * tv <= 1e-13


def test_full_configuration_distribution_agrees_with_compositions():
    for sizes, beta in (((4,), 0.7), ((2, 3), 1.3)):
        p, b = make(3, sizes, beta / 2, beta)
        dist = exact_distribution(b, p)
        full = full_configuration_distribution(b, p)
        assert full.log_Z == pytest.approx(dist.log_Z, abs=1e-12)
        # push forward configurations onto count matrices
        _, counts = oracles.decoded_configurations(b, 3)
        acc = {}
        for i in range(len(full)):
            key = tuple(int(v) for v in counts[i].ravel())
            acc[key] = acc.get(key, 0.0) + full.probabilities[i]
        tv = 0.0
        for i in range(len(dist)):
            key = tuple(int(v) for v in dist.support[i].ravel())
            tv += abs(dist.probabilities[i] - acc.pop(key, 0.0))
        tv += sum(abs(v) for v in acc.values())
        assert 0.5 * tv <= 1e-12


def test_log_Z_monotone_in_beta():
    for sizes in ((4,), (2, 2), (3, 2)):
        for beta in (0.1, 0.5, 1.0, 2.0):
            p1, b = make(3, sizes, beta / 2, beta)
            p2, _ = make(3, sizes, beta / 2, beta + 0.1)
            assert exact_distribution(b, p2).log_Z > exact_distribution(b, p1).log_Z


def test_capacity_error_names_required_size():
    p, b = make(3, (8, 8), 0.2, 0.5)
    required = math.comb(8 + 2, 2) ** 2
    with pytest.raises(CapacityError) as err:
        exact_distribution(b, p, cap=required - 1)
    assert err.value.required == required
    assert str(required) in str(err.value)


def test_capacity_checked_before_enumeration():
    # 500001500001 compositions of 10^6 sites into 3 colors: enumerating
    # them first would never return
    p, b = make(3, (10**6,), 0.2, 0.5)
    for route in (exact_distribution, interdependence_matrix_exact):
        start = time.perf_counter()
        with pytest.raises(CapacityError) as err:
            route(b, p, cap=10)
        assert time.perf_counter() - start < 1.0
        assert str(err.value.required) in str(err.value)
    with pytest.raises(CapacityError, match="500001500001"):
        exact_distribution(b, p, cap=10)


@pytest.mark.parametrize("cap", [float("nan"), 0.5, True, "5", None])
@pytest.mark.parametrize("route", [exact_distribution, full_configuration_distribution,
                                   interdependence_matrix_exact])
def test_cap_that_is_no_number_at_least_one_is_refused(route, cap):
    # NaN compares False with every count, so a NaN cap would admit any law
    p, b = make(3, (4, 4), 0.2, 0.5)
    with pytest.raises(InvalidInputError, match="cap must be a number >= 1"):
        route(b, p, cap=cap)


def test_block_size_beyond_int16_is_capacity_error():
    # q=2 keeps the support small, so only the int16 count limit can refuse it
    assert count_matrix_support((2**15 - 1,), 2, cap=10**6).dtype == np.int16
    with pytest.raises(CapacityError, match="int16"):
        count_matrix_support((2**15,), 2, cap=10**6)


def test_support_is_int16_product_of_block_compositions():
    sizes, q = (3, 1, 2), 3
    support = count_matrix_support(sizes, q, cap=1000)
    assert support.dtype == np.int16
    comps = [enumerate_block_compositions(n, q) for n in sizes]
    rows = [np.concatenate(parts) for parts in itertools.product(*comps)]
    assert np.array_equal(support.reshape(len(rows), -1), np.array(rows))


def test_exact_peak_memory_per_support_point():
    p, b = make(3, (40, 40), 0.5, 1.0)
    tracemalloc.start()
    try:
        dist = exact_distribution(b, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the probabilities take 8 bytes per point, and the slabs and the
    # tables less than 3 more at this P
    assert peak / len(dist) <= 20


def test_exact_law_peak_is_its_probabilities():
    # the weights are normalized in place, so the probabilities' 8 bytes
    # per point are the only P-sized array; the slabs and the tables add
    # about half a byte per point at P = 3 575 881
    p, b = make(3, (60, 60), 0.5, 1.0)
    tracemalloc.start()
    try:
        dist = exact_distribution(b, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(dist) <= 10


def test_law_keeps_log_Z_and_probabilities_and_builds_log_weights_on_read():
    p, b = make(3, (3, 1, 2), 0.4, 1.1)
    dist = exact_distribution(b, p)
    assert [f.name for f in dataclasses.fields(dist)] == [
        "compositions", "log_Z", "probabilities", "params", "blocks"]
    assert "log_weights" not in vars(dist)
    log_weights = dist.log_weights
    assert dist.log_weights is log_weights
    assert np.allclose(np.exp(log_weights - dist.log_Z), dist.probabilities, rtol=1e-14, atol=0)


def test_law_holds_composition_tables_and_builds_support_on_read():
    p, b = make(3, (3, 1, 2), 0.4, 1.1)
    dist = exact_distribution(b, p)
    assert "support" not in vars(dist)
    assert [c.shape for c in dist.compositions] == [(10, 3), (3, 3), (6, 3)]
    assert len(dist) == 180
    support = dist.support
    assert np.array_equal(support, count_matrix_support(b.sizes, 3, cap=1000))
    assert dist.support is support


# every weight is built from the composition tables, each slab's sums in
# float64 by BLAS; all of them are integers below 2^53, so every output
# equals, as doubles, the earlier int64 slab loop's
@pytest.mark.parametrize("q, sizes", [
    (3, (60, 60)), (3, (40, 40)), (4, (5, 6, 7)), (5, (4, 3, 2, 5)), (3, (2, 23, 21)),
    (3, (9,)), (3, (1, 1)), (3, (1, 2)), (3, (400,)), (4, (3, 3, 3, 3)),
])
def test_exact_law_equals_int64_slab_loop(q, sizes):
    p, b = make(q, sizes, 0.5, 1.0)
    dist = exact_distribution(b, p)
    log_weights, log_Z, probabilities = oracles.exact_law_int64_slabs(b, p)
    assert np.array_equal(dist.log_weights, log_weights)
    assert dist.log_Z == log_Z
    assert np.array_equal(dist.probabilities, probabilities)


# the configuration law's sums are taken in float64 from the two half-site
# integer count tables, all integers below 2^53, so the weights on that grid
# and every output equal the count_nonzero route's; the law keeps no
# weights, so they are rebuilt from the high and low halves' tables.  At
# (2, 5, 2) the middle block straddles the halves
@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (0.0, 0.0)])
@pytest.mark.parametrize("q, sizes", [
    (3, (5, 5)), (3, (4, 4)), (3, (9,)), (3, (1, 1)), (3, (1, 2)), (4, (2, 3, 2)),
    (5, (3, 2, 1, 2)), (3, (1,) * 9), (3, (2, 5, 2)), (4, (1,) * 6),
])
def test_configuration_law_equals_count_nonzero_route(q, sizes, alpha, beta):
    p, b = make(q, sizes, alpha, beta)
    full = full_configuration_distribution(b, p)
    log_weights, log_Z, probabilities = oracles.full_configurations_by_count_nonzero(b, p)
    site_block, h = np.repeat(np.arange(b.s), b.sizes), b.N // 2
    halves = [_site_table(group, b.s, q) for group in (site_block[h:], site_block[:h])]
    assert np.array_equal(_grid_log_weights(*halves, None, p, b.N), log_weights)
    assert full.log_Z == log_Z
    assert np.array_equal(full.probabilities, probabilities)


@pytest.mark.parametrize("sizes", [(7, 6), (1,) * 13])
def test_configuration_law_peak_memory_is_its_outputs(sizes):
    # N = 13: 1.6e6 configurations, 8 bytes each in the probabilities, the
    # weights normalized in place; no table holds more than one half's 3^7
    # colorings and the weights' temporaries are slabs, so nothing else
    # grows with q^N
    p, b = make(3, sizes, 0.5, 1.0)
    tracemalloc.start()
    try:
        full = full_configuration_distribution(b, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= full.probabilities.nbytes + 4 * CHUNK_BYTES


@pytest.mark.parametrize("q, sizes", [(3, (4, 4)), (3, (30, 30)), (4, (3, 2, 4))])
def test_export_csv_bytes_equal_row_by_row_writer(q, sizes, tmp_path):
    p, b = make(q, sizes, 0.5, 1.0)
    dist = exact_distribution(b, p)
    exact_cli(q, sizes, tmp_path / "slabs.csv")
    oracles.export_csv_on_support(dist, tmp_path / "rows.csv")
    assert (tmp_path / "slabs.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("q, sizes", [
    (3, (3, 3)), (3, (4, 4)), (3, (40, 40)), (4, (5, 6, 7)), (3, (2, 23, 21)), (3, (9,)),
])
def test_observable_distribution_matches_bincount_over_support(q, sizes):
    # the block law is summed out of the product grid, not binned point by
    # point, so the sums run in another order: equal to rounding only
    p, b = make(q, sizes, 0.5, 1.0)
    dist = exact_distribution(b, p)
    for k in range(b.s):
        for c in range(q):
            law = exact_observable_distribution(dist, k, c)
            assert law.shape == (sizes[k] + 1,)
            assert np.max(np.abs(law - oracles.observable_law_on_support(dist, k, c))) <= 1e-13


@pytest.mark.parametrize("alpha, beta", [(0.5, 1e308), (1e308, 1e308)])
def test_overflowing_couplings_are_invalid_input(alpha, beta):
    # a weight overflows to +inf exactly when log_Z does; the overflow
    # must be refused before any warning (the test settings turn warnings
    # into errors)
    p, b = make(3, (3, 3), alpha, beta)
    for route in (exact_distribution, full_configuration_distribution):
        with pytest.raises(InvalidInputError, match="log_Z is inf"):
            route(b, p)


def workspace_conditional(ws, config, site):
    """The conditional law of one site in the configuration workspace, which
    indexes configurations base q with site 0 least significant."""
    code = int(np.dot(config, ws.dist.params.q ** np.arange(ws.dist.blocks.N)))
    return ws.cond[code, site]


def test_conditional_uniform_cases():
    p, b = make(3, (2, 2), 0.0, 0.0)
    cond = workspace_conditional(ConfigWorkspace(b, p), [0, 1, 2, 0], 1)
    assert np.allclose(cond, 1 / 3, atol=1e-15)
    # single site: every color has the same self energy
    p1, b1 = make(3, (1,), 0.0, 2.0)
    assert np.allclose(workspace_conditional(ConfigWorkspace(b1, p1), [1], 0), 1 / 3,
                       atol=1e-15)


def test_conditional_pair_ratio():
    # completing (1,1,.) with the same color adds 4 ordered equal pairs
    p, b = make(3, (3,), 0.0, 1.0)
    cond = workspace_conditional(ConfigWorkspace(b, p), [0, 0, 2], 2)
    assert cond[0] / cond[1] == pytest.approx(math.exp(2.0 / 3.0), rel=1e-13)


def test_conditional_matches_joint_ratio():
    rng = np.random.default_rng(5)
    p, b = make(3, (3, 3), 0.45, 0.9)
    ws = ConfigWorkspace(b, p)
    for _ in range(25):
        cfg = rng.integers(0, 3, size=6)
        site = int(rng.integers(0, 6))
        cond = workspace_conditional(ws, cfg, site)
        brute = oracles.brute_conditional(cfg.tolist(), site, b.sizes, 3, 0.45, 0.9)
        assert np.max(np.abs(cond - np.asarray(brute))) <= 1e-12


def test_observable_distribution_refuses_the_configuration_law():
    # the q^N law has no composition tables: it is named as the wrong law,
    # not met with an AttributeError
    p, b = make(3, (2, 2), 0.5, 1.0)
    with pytest.raises(InvalidInputError, match="exact_distribution"):
        exact_observable_distribution(full_configuration_distribution(b, p), 0, 0)


def test_observable_distribution_binomial_at_zero_coupling():
    p, b = make(3, (5, 3), 0.0, 0.0)
    dist = exact_distribution(b, p)
    for k, n in enumerate(b.sizes):
        for c in range(3):
            law = exact_observable_distribution(dist, k, c)
            assert law.size == n + 1
            assert np.max(np.abs(law - oracles.binomial_pmf(n, 1 / 3))) <= 1e-13


def test_observable_distribution_matches_full_enumeration():
    p, b = make(3, (3, 3), 0.5, 1.0)
    dist = exact_distribution(b, p)
    full = full_configuration_distribution(b, p)
    _, counts = oracles.decoded_configurations(b, 3)
    for (k, c) in ((0, 0), (1, 2)):
        law = exact_observable_distribution(dist, k, c)
        acc = np.zeros(b.sizes[k] + 1)
        for i in range(len(full)):
            acc[counts[i, k, c]] += full.probabilities[i]
        assert np.max(np.abs(law - acc)) <= 1e-13
        assert law.sum() == pytest.approx(1.0, abs=1e-12)


def test_export_csv_round_trip(tmp_path):
    import json

    p, b = make(3, (2, 2), 0.5, 1.0)
    dist = exact_distribution(b, p)
    path = tmp_path / "exact.csv"
    exact_cli(3, (2, 2), path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0][2:])
    assert header["log_Z"] == pytest.approx(dist.log_Z)
    assert lines[1].split(",")[:3] == ["b_1_1", "b_1_2", "b_1_3"]
    assert len(lines) == 2 + len(dist)
    probs = [float(line.split(",")[-1]) for line in lines[2:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
