import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from triframe.basis import (
    DomainError,
    SpectralVector,
    basis_eval,
    basis_matrix,
    degree_cutoff,
    lambda_vector,
    tri_dim,
)
from triframe.quadrature import (
    DEFAULT_GENERATOR,
    DEFAULT_SHIFT,
    GRAM_BLOCK,
    QuadratureRule,
    _gauss_jacobi,
    exactness_degree,
    gauss_reference_rule,
    generalized_tightness_residual,
    gram_matrix,
    kronecker_lattice,
    lattice_size,
    rule_from_dict,
    rule_to_dict,
)
from triframe.transform import FrameletSystem, dft, reference_system

# values recorded from the shipped default lattice (generator frac sqrt2 /
# frac sqrt3, zero shift, fold); tracked as regressions
KRON5_P10_INTEGRAL = 0.02132713693153225
KRON5_CUTOFF15_MAX_OFFDIAG = 0.5478357136907673
KRON4_TIGHTNESS_RESIDUAL = 0.5859631976315396
GRAM_TREND_CUTOFF5 = {3: 1.570561, 4: 0.504498, 5: 0.121755, 6: 0.028050}


def _p10(points):
    return np.asarray([basis_eval((1, 0), p) for p in np.atleast_2d(points)])


@pytest.mark.parametrize("j,count", [(0, 2), (3, 65), (5, 1025), (6, 4097)])
def test_lattice_counts(j, count):
    rule = kronecker_lattice(j)
    assert rule.size == count == lattice_size(j)
    assert np.all(rule.weights == 1.0 / count)


def test_lattice_membership_is_exact():
    for strategy in ("fold", "intersect"):
        rule = kronecker_lattice(4, strategy=strategy)
        assert (rule.nodes >= 0.0).all()
        assert (rule.nodes.sum(axis=1) <= 1.0).all()


def test_lattice_determinism():
    a = kronecker_lattice(4)
    b = kronecker_lattice(4)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)


def test_lattice_strategies_differ_but_share_size():
    fold = kronecker_lattice(3, strategy="fold")
    inter = kronecker_lattice(3, strategy="intersect")
    assert fold.size == inter.size == 65
    assert not np.array_equal(fold.nodes, inter.nodes)


def test_lattice_intersect_budget_error():
    # a near-constant stream stuck outside the triangle exhausts the budget
    with pytest.raises(ValueError, match="intersect"):
        kronecker_lattice(2, generator=(1e-9, 1e-9), shift=(0.999, 0.999),
                          strategy="intersect")


def test_lattice_unknown_strategy():
    with pytest.raises(ValueError):
        kronecker_lattice(2, strategy="reflect")


@settings(max_examples=40, deadline=None)
@given(
    g1=st.floats(0.01, 0.99),
    g2=st.floats(0.01, 0.99),
    s1=st.floats(0.0, 0.999),
    s2=st.floats(0.0, 0.999),
)
def test_lattice_fold_always_lands_in_triangle(g1, g2, s1, s2):
    rule = kronecker_lattice(2, generator=(g1, g2), shift=(s1, s2))
    assert (rule.nodes >= 0.0).all()
    assert (rule.nodes.sum(axis=1) <= 1.0).all()
    assert abs(rule.weights.sum() - 1.0) < 1e-12


def test_gauss_reference_normalization():
    rule = gauss_reference_rule(0)
    assert np.sum(rule.weights * np.ones(rule.size)) == pytest.approx(1.0, abs=1e-15)


def test_gauss_reference_centroid_integral():
    # normalized measure gives integral of x1 equal to 1/3 (symbolic oracle)
    rule = gauss_reference_rule(2)
    val = np.sum(rule.weights * rule.nodes[:, 0])
    assert val.real == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert val.imag == 0.0


@pytest.mark.parametrize("degree", list(range(0, 42, 2)))
def test_gauss_reference_exactness(degree):
    rule = gauss_reference_rule(degree)
    assert exactness_degree(rule, 1e-12, max_degree=degree + 4) >= degree


def test_gauss_reference_gram_identity():
    rule = gauss_reference_rule(20)
    gram = gram_matrix(rule, 10)
    assert gram.max_deviation_from_identity() < 1e-12


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, 0.0)])
def test_gauss_jacobi_matches_scipy(a, b):
    from scipy.special import roots_jacobi

    for n in range(1, 66):
        nodes, weights = _gauss_jacobi(n, a, b)
        ref_nodes, ref_weights = roots_jacobi(n, a, b)
        assert_allclose(nodes, ref_nodes, rtol=0.0, atol=1e-15)
        assert_allclose(
            weights / weights.sum(), ref_weights / ref_weights.sum(), rtol=1e-11, atol=0.0
        )


@pytest.mark.parametrize("degree", [7, 31, 63, 127])
def test_gauss_reference_integrates_monomials(degree):
    # normalized area measure: the mean of x1^a x2^b is 2 a! b! / (a+b+2)!
    rule = gauss_reference_rule(degree)
    powers = np.arange(degree + 1)
    x1, x2 = (rule.nodes[:, k, None] ** powers for k in (0, 1))
    moments = (x1 * rule.weights[:, None]).T @ x2
    for i, j in np.ndindex(moments.shape):
        if i + j <= degree:
            exact = 2 * math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)
            assert moments[i, j] == pytest.approx(exact, rel=1e-12, abs=0.0), (i, j)


def test_integrate_zero_mean_member():
    rule = gauss_reference_rule(2)
    assert abs(np.sum(rule.weights * _p10(rule.nodes))) < 1e-14


def test_integrate_kronecker_low_discrepancy_regression():
    rule = kronecker_lattice(5)
    val = np.sum(rule.weights * _p10(rule.nodes))
    assert abs(val) <= 0.05
    assert val.real == pytest.approx(KRON5_P10_INTEGRAL, abs=1e-12)


def test_exactness_degree_centroid():
    rule = QuadratureRule(
        nodes=np.array([[1.0 / 3.0, 1.0 / 3.0]]), weights=np.array([1.0])
    )
    assert exactness_degree(rule, 1e-12) == 1


def test_exactness_degree_stops_at_its_cap():
    # exact to degree 20, so every cutoff the search tests passes
    assert exactness_degree(gauss_reference_rule(20), 1e-12, max_degree=10) == 10


def test_exactness_degree_kronecker():
    assert exactness_degree(kronecker_lattice(4), 1e-12) == 0


def test_negative_weight_rule():
    rule = _negative_weight_rule()
    assert exactness_degree(rule, 1e-12) == 3
    table = basis_matrix(rule.nodes, 2)
    gram = gram_matrix(rule, 2).entries
    assert_allclose(gram, table.T @ np.diag(rule.weights) @ table, rtol=0, atol=1e-14)
    # exact to degree 3, so the degree-1 block is the identity
    assert_allclose(gram[:3, :3], np.eye(3), rtol=0, atol=1e-14)
    with pytest.raises(DomainError, match="positive weights"):
        rule.weighted_basis(2)
    # point values are sqrt(w)-scaled, so the rule has none
    with pytest.raises(DomainError, match="positive weights"):
        dft(SpectralVector(1, np.zeros(tri_dim(1))), 2, rule)


def _negative_weight_rule():
    # the classic 4-point degree-3 rule: centroid weight -27/48, three 25/48
    return QuadratureRule(
        nodes=np.array([[1.0 / 3.0, 1.0 / 3.0], [0.2, 0.2], [0.6, 0.2], [0.2, 0.6]]),
        weights=np.array([-27.0, 25.0, 25.0, 25.0]) / 48.0,
    )


@pytest.mark.parametrize(
    "rule, cutoff",
    [
        (kronecker_lattice(6), 31),  # 4097 nodes: uneven blocks
        (gauss_reference_rule(30), 15),  # 256 nodes: one block
        (_negative_weight_rule(), 2),
    ],
    ids=["lattice-4097", "gauss-256", "negative-weight"],
)
def test_blocked_gram_matches_the_dense_product(rule, cutoff):
    assert rule.size % GRAM_BLOCK != 0
    table = basis_matrix(rule.nodes, cutoff)
    want = table.T @ np.diag(rule.weights) @ table
    assert np.abs(gram_matrix(rule, cutoff).entries - want).max() <= 1e-13


def test_gram_never_holds_the_full_table():
    rule = kronecker_lattice(6)
    table_bytes = rule.size * tri_dim(31) * 8  # 16.5 MiB
    tracemalloc.start()
    try:
        gram_matrix(rule, 31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # node factors 2.0 MiB, the Gram and one block product 2.1 MiB each, one
    # block table (1366 of the 4097 nodes) 5.5 MiB: 12.0 MiB measured
    assert peak < 14 * 2**20 < table_bytes


@pytest.mark.parametrize("j, degree", [(3, 7), (5, 31), (6, 63)])
def test_reference_rule_exactness_degree(j, degree):
    # a Gauss rule with n points per direction is exact to degree 2n - 1
    rule = gauss_reference_rule(2 * degree_cutoff(j))
    assert exactness_degree(rule, 1e-12, max_degree=2 * degree_cutoff(j) + 2) == degree


def test_levels_of_a_reference_system_share_node_factors(bank):
    # reference_system's levels: replace keeps the node and weight arrays
    rule = gauss_reference_rule(8)
    levels = [replace(rule, level=j) for j in range(3)]
    FrameletSystem(bank, levels)
    assert all(r.nodes is rule.nodes and r.weights is rule.weights for r in levels)
    factors = levels[0].node_factors(4)
    for other in levels[1:]:
        for mine, shared in zip(other.node_factors(4), factors):
            assert np.shares_memory(mine, shared)
    # the unleveled base rule is no level of the system and keeps its own pair
    for mine, shared in zip(rule.node_factors(4), factors):
        assert not np.shares_memory(mine, shared) and np.array_equal(mine, shared)
    # no Gram is cached: each call builds a fresh one, which its caller owns
    first, second = (gram_matrix(level, 4).entries for level in levels[1:])
    assert first is not second and first.flags.writeable
    assert np.array_equal(first, second)
    assert [r.level for r in levels] == [0, 1, 2] and rule.level is None
    # reference_system builds its levels so: every level reads one pair
    sys_ = reference_system(bank, 3)
    pair = sys_.rule(3).node_factors(degree_cutoff(3))
    for level in sys_.rules:
        for mine, shared in zip(level.node_factors(degree_cutoff(level.level)), pair):
            assert np.shares_memory(mine, shared)


# a generator other than the default, with a shift
_SHIFTED = ((0.7548776662466927, 0.5698402909980532), (0.3, 0.6))


@pytest.mark.parametrize("strategy", ["fold", "intersect"])
@pytest.mark.parametrize("generator, shift", [(DEFAULT_GENERATOR, DEFAULT_SHIFT), _SHIFTED])
def test_level_j_lattice_is_the_first_nodes_of_level_8(strategy, generator, shift):
    # so the levels of a system can read windows of the top level's factors
    top = kronecker_lattice(8, generator, shift, strategy).nodes
    for j in range(9):
        nodes = kronecker_lattice(j, generator, shift, strategy).nodes
        assert np.array_equal(nodes, top[: lattice_size(j)])


def test_gram_cutoff_zero():
    gram = gram_matrix(kronecker_lattice(2), 0)
    assert gram.entries.shape == (1, 1)
    assert gram.entries[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_gram_conjugate_symmetry():
    gram = gram_matrix(kronecker_lattice(3), 6).entries
    assert np.abs(gram - np.conj(gram).T).max() < 1e-13


def test_gram_kronecker_regression():
    gram = gram_matrix(kronecker_lattice(5), 15).entries
    off = np.abs(gram - np.diag(np.diag(gram))).max()
    assert off == pytest.approx(KRON5_CUTOFF15_MAX_OFFDIAG, abs=1e-9)
    assert off < 0.6


def test_gram_deviation_trend_soft():
    # low-discrepancy quality improves with level (factor-1.5 slack)
    devs = {
        j: gram_matrix(kronecker_lattice(j), 5).max_deviation_from_identity()
        for j in (3, 4, 5, 6)
    }
    for j in (3, 4, 5):
        assert devs[j + 1] <= 1.5 * devs[j]
    for j, dev in devs.items():
        assert dev == pytest.approx(GRAM_TREND_CUTOFF5[j], abs=1e-5)


def test_generalized_tightness_exact_rules(bank):
    for j in (2, 3, 4):
        cutoff = degree_cutoff(j)
        rule = gauss_reference_rule(2 * cutoff)
        residual = generalized_tightness_residual(rule, rule, bank, j, cutoff)
        assert residual < 1e-10


def test_generalized_tightness_cutoff_zero(bank):
    rule = kronecker_lattice(1)
    assert generalized_tightness_residual(rule, rule, bank, 1, 0) < 1e-14


def test_generalized_tightness_kronecker_regression(bank):
    residual = generalized_tightness_residual(
        kronecker_lattice(3), kronecker_lattice(4), bank, 4, degree_cutoff(4)
    )
    assert residual == pytest.approx(KRON4_TIGHTNESS_RESIDUAL, abs=1e-9)
    assert residual < 0.65


@pytest.mark.parametrize("exact", [False, True])
def test_generalized_tightness_matches_the_out_of_place_sum(bank, exact):
    j, cutoff = 4, degree_cutoff(4)
    if exact:
        rule_lo = rule_hi = gauss_reference_rule(2 * cutoff)
    else:
        rule_lo, rule_hi = kronecker_lattice(j - 1), kronecker_lattice(j)
    gram_lo = gram_matrix(rule_lo, cutoff).entries
    gram_hi = gram_matrix(rule_hi, cutoff).entries
    xi = lambda_vector(cutoff) / 2.0**j
    combo = np.outer(bank.low(xi), bank.low(xi)) * gram_lo
    for high in bank.highs:
        combo += np.outer(high(xi), high(xi)) * gram_hi
    scaling = bank.scaling_low(xi)
    want = np.abs(combo - gram_hi)[np.outer(scaling, scaling) != 0.0].max()
    got = generalized_tightness_residual(rule_lo, rule_hi, bank, j, cutoff)
    if exact:
        # one node set: the same elementwise sums in the same order, the same bits
        assert got == want
        return
    # two node sets: the coarse Gram is summed node by node from the
    # mask-scaled table and added after the fine terms, another rounding
    # order of each entry's sum of n terms: rule_lo.size node terms, r
    # high-pass terms and the fine Gram.  Two orders of a sum of n terms
    # differ by at most (n - 1) * eps * sum|term| (each lies within
    # (n - 1) * eps / 2 of the exact sum).  Masks are at most 1 with squares
    # summing to 1, and a positive-weight Gram entry is at most its largest
    # diagonal entry, so sum|term| <= max|gram_lo| + 2 * max|gram_hi|.  Four
    # more count the roundings of scaling a table entry and of each product.
    n = rule_lo.size + bank.r + 1
    c = (n - 1) + 4
    scale = np.abs(gram_lo).max() + 2 * np.abs(gram_hi).max()
    assert abs(got - want) <= c * np.finfo(float).eps * scale


def test_generalized_tightness_cutoff_guard(bank):
    with pytest.raises(DomainError):
        generalized_tightness_residual(
            kronecker_lattice(3), kronecker_lattice(4), bank, 4, degree_cutoff(4) + 1
        )


def test_rule_serialization_round_trip():
    rule = kronecker_lattice(3)
    doc = rule_to_dict(rule)
    text = json.dumps(doc, default=np.ndarray.tolist)
    back = rule_from_dict(json.loads(text))
    assert np.array_equal(back.nodes, rule.nodes)
    assert np.array_equal(back.weights, rule.weights)
    assert back.kind == rule.kind and back.level == rule.level
    assert json.dumps(rule_to_dict(back), default=np.ndarray.tolist) == text


def test_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(nodes=np.array([[0.2, 0.2]]), weights=np.array([0.0]))
    with pytest.raises(DomainError):
        QuadratureRule(nodes=np.array([[0.8, 0.8]]), weights=np.array([1.0]))
    with pytest.raises(ValueError):
        QuadratureRule(
            nodes=np.array([[0.2, 0.2], [0.1, 0.1]]),
            weights=np.array([0.7, 0.3]),
            kind="kronecker_lattice",
            level=0,
        )


def test_node_factors_cache_the_widest_cutoff():
    rule = kronecker_lattice(2)
    small = rule.node_factors(3)
    full = rule.node_factors(6)
    part = rule.node_factors(3)
    # one pair, built again at the wider cutoff
    assert [f.shape for f in rule._factors.pair] == [(7, rule.size)] * 2
    for p, f, s in zip(part, full, small):
        # the smaller cutoff reads contiguous leading rows of the cached pair
        assert p.shape == (4, rule.size) and p.flags.c_contiguous
        assert np.shares_memory(p, f) and np.array_equal(p, s)
    # the weighted table is built on each call, and agrees with the scalar oracle
    table = rule.weighted_basis(6)
    assert table.shape == (rule.size, tri_dim(6))
    assert not np.shares_memory(table, rule.weighted_basis(6))
    expected = math.sqrt(rule.weights[0]) * basis_eval((2, 1), rule.nodes[0])
    assert_allclose(table[0, 4], expected, rtol=1e-12)


@pytest.mark.parametrize(
    "generator, shift",
    [
        ((math.nan, 0.5), (0.0, 0.0)),
        ((math.inf, 0.5), (0.0, 0.0)),
        ((0.4, 0.6), (0.0, -math.inf)),
    ],
)
def test_kronecker_lattice_refuses_non_finite_parameters(generator, shift):
    for strategy in ("fold", "intersect"):
        with pytest.raises(ValueError, match="must be finite"):
            kronecker_lattice(2, generator, shift, strategy)


def test_rule_refuses_non_finite_nodes_and_weights():
    nodes = np.array([[0.2, 0.2], [0.1, 0.3]])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="1 node"):
            QuadratureRule(np.array([[0.2, 0.2], [bad, 0.3]]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="weights must be finite"):
            QuadratureRule(nodes, np.array([0.5, bad]))


def test_exactness_tolerance_must_be_finite_and_positive():
    rule = gauss_reference_rule(4)
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            exactness_degree(rule, tol)
