import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import eval_jacobi

from triframe.basis import (
    DomainError,
    SpectralVector,
    basis_eval,
    basis_matrix,
    degree_cutoff,
    eigenvalue,
    expansion_values,
    jacobi_eval,
    laplace_beltrami_apply,
    lambda_vector,
    linear_index,
    max_degree_within,
    tri_dim,
)
from triframe import basis
from triframe.quadrature import gauss_reference_rule, kronecker_lattice


def test_jacobi_degree_zero_is_one():
    for tau, gamma, t in [(0.0, 0.0, 0.3), (1.5, -0.5, -1.0), (3.0, 0.0, 1.0)]:
        assert jacobi_eval(tau, gamma, 0, t) == 1.0


def test_jacobi_degree_one_closed_form():
    # P_1^(a,b)(t) = ((a+b+2) t + (a-b)) / 2
    for t in [-1.0, -0.25, 0.0, 0.5, 1.0]:
        assert_allclose(jacobi_eval(1.0, 0.0, 1, t), (3.0 * t + 1.0) / 2.0, rtol=1e-15)
    assert jacobi_eval(1.0, 0.0, 1, 1.0) == 2.0


def test_jacobi_legendre_value():
    # Legendre P_2(0) = -1/2
    assert_allclose(jacobi_eval(0.0, 0.0, 2, 0.0), -0.5, rtol=1e-15)


def test_jacobi_matches_scipy_reference():
    rng = np.random.default_rng(5)
    for _ in range(50):
        tau = rng.uniform(-0.9, 4.0)
        gamma = rng.uniform(-0.9, 4.0)
        ell = int(rng.integers(0, 25))
        t = rng.uniform(-1.0, 1.0)
        assert_allclose(
            jacobi_eval(tau, gamma, ell, t),
            eval_jacobi(ell, tau, gamma, t),
            rtol=1e-10,
            atol=1e-12,
        )


def test_jacobi_array_argument():
    t = np.linspace(-1, 1, 7)
    assert_allclose(jacobi_eval(0.0, 0.0, 3, t), eval_jacobi(3, 0.0, 0.0, t), rtol=1e-12)


def test_jacobi_domain_errors():
    with pytest.raises(DomainError):
        jacobi_eval(-1.0, 0.0, 2, 0.5)
    with pytest.raises(DomainError):
        jacobi_eval(0.0, -1.5, 2, 0.5)
    with pytest.raises(DomainError):
        jacobi_eval(0.0, 0.0, -1, 0.5)


def test_basis_constant_member():
    for x in [(0.0, 0.0), (0.3, 0.3), (1.0, 0.0), (0.0, 1.0)]:
        assert basis_eval((0, 0), x) == pytest.approx(1.0, abs=1e-15)


def test_basis_degree_one_closed_form():
    # (1, 0) member is sqrt(2) * (3 x1 - 1); zero at the centroid
    for x1, x2 in [(0.1, 0.2), (0.5, 0.25), (0.9, 0.05)]:
        assert_allclose(
            basis_eval((1, 0), (x1, x2)),
            math.sqrt(2.0) * (3.0 * x1 - 1.0),
            rtol=1e-14,
        )
    assert basis_eval((1, 0), (1 / 3, 1 / 3)) == pytest.approx(0.0, abs=1e-15)


def test_basis_degenerate_corner():
    # (1 - x1)^m factor kills every m >= 1 member at the x1 = 1 corner
    assert basis_eval((3, 2), (1.0, 0.0)) == 0.0
    assert basis_eval((5, 1), (1.0, 0.0)) == 0.0
    # m = 0 members stay finite: sqrt(l+1) * P^(1,0)_l(1) = sqrt(l+1) * (l+1)
    assert_allclose(basis_eval((2, 0), (1.0, 0.0)), math.sqrt(3.0) * 3.0, rtol=1e-14)


def test_basis_domain_error():
    with pytest.raises(DomainError):
        basis_eval((1, 0), (0.7, 0.5))
    with pytest.raises(DomainError):
        basis_eval((1, 0), (-1e-6, 0.2))
    with pytest.raises(DomainError):
        basis_eval((1, 2), (0.2, 0.2))
    # within tolerance is fine
    basis_eval((1, 0), (-1e-13, 0.2))


def test_basis_matrix_matches_scalar_eval():
    rng = np.random.default_rng(2)
    pts = []
    while len(pts) < 20:
        p = rng.uniform(0, 1, 2)
        if p.sum() <= 1.0:
            pts.append(p)
    pts += [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]
    pts = np.asarray(pts)
    cutoff = 8
    table = basis_matrix(pts, cutoff)
    for i, p in enumerate(pts):
        for ell in range(cutoff + 1):
            for m in range(ell + 1):
                assert_allclose(
                    table[i, linear_index(ell, m)],
                    basis_eval((ell, m), p),
                    rtol=1e-11,
                    atol=1e-11,
                )


def test_basis_matrix_matches_scalar_eval_at_cutoff_63():
    # interior points, the hypotenuse x1 + x2 = 1 and points within 1e-13 of
    # the x1 = 1 corner, where the (1-x1)^m factors vanish
    interior = np.random.default_rng(63).dirichlet(np.ones(3), size=3)[:, :2]
    x1 = np.array([0.0, 0.3, 0.77])
    hypotenuse = np.column_stack((x1, 1.0 - x1))
    corner = [(1 - 1e-13, 0.0), (1 - 1e-13, 1e-13), (1 - 5e-14, 2.5e-14), (1.0, 0.0)]
    pts = np.vstack((interior, hypotenuse, corner))
    cutoff = 63
    table = basis_matrix(pts, cutoff)
    indices = [(ell, m) for ell in range(cutoff + 1) for m in range(ell + 1)]
    for row, p in zip(table, pts):
        want = np.array([basis_eval(idx, p) for idx in indices])
        # the Chebyshev form of the radial factors carries rounding of the
        # order of its coefficients (up to ~500 in l1 norm at cutoff 63)
        assert np.abs(row - want).max() <= 1e-13 * np.abs(want).max()


def _points_with_shared_x1():
    """Random points plus the corner (1, 0), both edges through it, the
    hypotenuse and columns of points sharing one x1 value."""
    rng = np.random.default_rng(5)
    inner = rng.dirichlet(np.ones(3), size=30)[:, :2]
    x1 = np.repeat([0.0, 0.2, 0.5, 0.9], 5)
    frac = np.tile([0.0, 0.25, 0.5, 0.75, 1.0], 4)
    columns = np.column_stack((x1, frac * (1.0 - x1)))
    corner = [[1.0, 0.0], [0.0, 1.0], [0.6, 0.0], [0.6, 0.4], [1.0 - 1e-15, 0.0]]
    return np.vstack((inner, columns, corner))


@pytest.mark.parametrize("complex_coeffs", [False, True])
def test_expansion_values_match_table(complex_coeffs):
    pts = _points_with_shared_x1()
    assert np.unique(pts[:, 0]).size < pts.shape[0]
    cutoff = 14
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(tri_dim(cutoff))
    if complex_coeffs:
        coeffs = coeffs + 1j * rng.standard_normal(tri_dim(cutoff))
    want = basis_matrix(pts, cutoff) @ coeffs
    got = expansion_values(pts, coeffs, cutoff)
    assert got.dtype == want.dtype
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("complex_coeffs", [False, True])
def test_fixed_order_sum_matches_the_index_order_loop(complex_coeffs):
    # reference: each row C[m, a] * Tu[a] added in index order, times Pv[m],
    # the orders added in index order; same bits at every count of points > 1
    from triframe.basis import _conversion, _parts, collapsed_factors, factored_sum

    pts = _points_with_shared_x1()
    cutoff = 14
    rng = np.random.default_rng(12)
    coeffs = rng.standard_normal(tri_dim(cutoff))
    if complex_coeffs:
        coeffs = coeffs + 1j * rng.standard_normal(tri_dim(cutoff))
    tu, pv = collapsed_factors(pts, cutoff)
    conv, rows = _conversion(cutoff)
    parts = _parts(coeffs)
    grid = np.concatenate((parts, np.zeros((len(parts), 1))), axis=1)[:, rows]
    cheb = np.einsum("mad,pmd->pma", conv, grid)
    want = np.zeros((len(parts), len(pts)))
    for p, m in np.ndindex(cheb.shape[:2]):
        g = np.zeros(len(pts))
        for c, row in zip(cheb[p, m], tu):
            g += c * row
        want[p] += g * pv[m]
    got = _parts(factored_sum((tu, pv), coeffs, cutoff, fixed_order=True))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 4097, 16385])
def test_node_blocks_cover_the_range_in_order(n):
    for size in (1, 3, 2048, 4096, 8192, 20000):
        blocks = basis.node_blocks(n, size)
        assert [k for cols in blocks for k in range(n)[cols]] == list(range(n))
        widths = [cols.stop - cols.start for cols in blocks]
        assert max(widths) <= size
        assert max(widths) - min(widths) <= 1


def _lattice_and_coeffs(level: int, complex_coeffs: bool):
    """A level's lattice, its cutoff and random coefficients at that cutoff."""
    cutoff = degree_cutoff(level)
    rule = kronecker_lattice(level)
    rng = np.random.default_rng(level)
    coeffs = rng.standard_normal(tri_dim(cutoff))
    if complex_coeffs:
        coeffs = coeffs + 1j * rng.standard_normal(tri_dim(cutoff))
    return rule, cutoff, coeffs


@pytest.mark.parametrize("complex_coeffs", [False, True])
def test_sum_over_many_node_blocks_matches_one_block(monkeypatch, complex_coeffs):
    rule, cutoff, coeffs = _lattice_and_coeffs(7, complex_coeffs)
    factors = rule.node_factors(cutoff)
    monkeypatch.setattr(basis, "PRODUCT_BYTES", 1 << 30)
    whole = basis.factored_sum(factors, coeffs, cutoff)
    monkeypatch.setattr(basis, "PRODUCT_BYTES", 1 << 16)  # 64 or 128 nodes a block
    blocked = basis.factored_sum(factors, coeffs, cutoff)
    assert blocked.dtype == whole.dtype
    assert np.abs(blocked - whole).max() <= 1e-14 * np.abs(whole).max()
    indices = [(ell, m) for ell in range(cutoff + 1) for m in range(ell + 1)]
    for k in np.random.default_rng(1).choice(rule.size, 4, replace=False):
        terms = coeffs * [basis_eval(idx, rule.nodes[k]) for idx in indices]
        assert abs(blocked[k] - terms.sum()) <= 1e-12 * np.abs(terms).sum()


@pytest.mark.parametrize("complex_values", [False, True])
def test_adjoint_over_many_node_blocks_matches_the_table(monkeypatch, complex_values):
    rule, cutoff = kronecker_lattice(6), degree_cutoff(6)
    rng = np.random.default_rng(6)
    values = rng.standard_normal(rule.size)
    if complex_values:
        values = values + 1j * rng.standard_normal(rule.size)
    monkeypatch.setattr(basis, "PRODUCT_BYTES", 1 << 16)
    got = basis.factored_adjoint(rule.node_factors(cutoff), values, cutoff)
    want = basis_matrix(rule.nodes, cutoff).T @ values
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_synthesis_holds_one_product_buffer():
    rule, cutoff, coeffs = _lattice_and_coeffs(7, True)
    factors = rule.node_factors(cutoff)
    basis.factored_sum(factors, coeffs, cutoff)  # builds the cached conversion
    tracemalloc.start()
    try:
        basis.factored_sum(factors, coeffs, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (128, 16385) product of the whole level would take 16 MiB
    assert peak < basis.PRODUCT_BYTES + (2 << 20)


def test_expansion_values_rejects_bad_input():
    with pytest.raises(ValueError):
        expansion_values([(0.2, 0.2)], np.ones(tri_dim(3) - 1), 3)
    with pytest.raises(DomainError):
        expansion_values([(0.8, 0.8)], np.ones(tri_dim(3)), 3)


def test_expansion_values_near_the_x1_corner_match_scalar_oracle():
    # inside the simplex tolerance; 2*x2/(1-x1) - 1 reaches about +-19..+-37
    pts = np.array([(1 - 1e-13, 9.9e-13), (1 - 1e-13, -9e-13), (1 - 5e-14, 9e-13)])
    cutoff = 31
    coeffs = np.random.default_rng(0).standard_normal(tri_dim(cutoff))
    indices = [(ell, m) for ell in range(cutoff + 1) for m in range(ell + 1)]

    def oracle(points):
        return np.array([sum(c * basis_eval(i, p) for c, i in zip(coeffs, indices))
                         for p in points])

    got = expansion_values(pts, coeffs, cutoff)
    # the clipped ratio moves x2, by under 1e-12, onto the triangle's edge
    moved = np.column_stack((pts[:, 0], np.clip(pts[:, 1], 0.0, 1.0 - pts[:, 0])))
    want = oracle(moved)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # the degree-31 sum changes by ~6e-10 relative over that move
    want = oracle(pts)
    assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()


def test_nan_point_is_refused():
    for pts in ([(np.nan, 0.2)], [(0.2, np.nan)], [(0.1, 0.1), (np.nan, np.nan)]):
        with pytest.raises(DomainError, match="outside the simplex"):
            expansion_values(pts, np.ones(tri_dim(3)), 3)
        with pytest.raises(DomainError, match="outside the simplex"):
            basis_matrix(pts, 3)


def test_orthonormality_under_exact_rule():
    # reference-rule integral of products reproduces the identity
    rule = gauss_reference_rule(24)
    table = basis_matrix(rule.nodes, 12)
    gram = (table * rule.weights[:, None]).T @ table
    assert np.abs(gram - np.eye(tri_dim(12))).max() < 1e-10


def test_eigenvalue_examples():
    assert eigenvalue(0) == 0.0
    assert_allclose(eigenvalue(2), math.sqrt(8.0), rtol=1e-15)
    assert_allclose(eigenvalue(31), math.sqrt(1023.0), rtol=1e-15)
    assert all(eigenvalue(l + 1) > eigenvalue(l) for l in range(40))


def test_degree_cutoff_examples():
    assert degree_cutoff(1) == 0
    assert degree_cutoff(3) == 3
    assert degree_cutoff(6) == 31


@pytest.mark.parametrize("j", range(13))
def test_degree_cutoff_brackets_eigenvalue(j):
    cap = 2.0 ** (j - 1)
    cut = degree_cutoff(j)
    assert eigenvalue(cut) <= cap < eigenvalue(cut + 1)
    assert max_degree_within(cap) == cut


def test_max_degree_within_edges():
    assert max_degree_within(-0.5) == -1
    assert max_degree_within(0.0) == 0
    assert max_degree_within(eigenvalue(7)) == 7


def test_laplace_beltrami_constant():
    val = laplace_beltrami_apply(lambda p: 1.0, (0.3, 0.3), 1e-3)
    assert abs(val) < 1e-8


def test_laplace_beltrami_degree_one():
    x = (0.3, 0.3)
    f = lambda p: basis_eval((1, 0), p)
    got = laplace_beltrami_apply(f, x, 1e-4)
    want = -3.0 * f(x)
    assert abs(got - want) / abs(want) < 1e-4
    # independent symbolic oracle for sqrt(2) (3 x1 - 1): only the first-order
    # x1 term survives
    assert_allclose(want, (1.0 - 3.0 * x[0]) * 3.0 * math.sqrt(2.0), rtol=1e-12)


def test_laplace_beltrami_degree_two():
    f = lambda p: basis_eval((2, 1), p)
    # (0.2, 0.4) is a root of this member (the x1 factor vanishes at 0.2), so
    # the eigen-relation is checked there with an absolute floor and again at
    # a point where the value is away from zero
    x = (0.2, 0.4)
    got = laplace_beltrami_apply(f, x, 1e-4)
    want = -8.0 * f(x)
    assert want == 0.0
    assert abs(got - want) < 1e-3
    x = (0.25, 0.4)
    got = laplace_beltrami_apply(f, x, 1e-4)
    want = -8.0 * f(x)
    assert abs(got - want) / abs(want) < 1e-3


def _interior_points(count, rng, margin=0.02):
    pts = []
    while len(pts) < count:
        p = rng.uniform(margin, 1 - margin, 2)
        if p.sum() <= 1.0 - margin:
            pts.append(p)
    return pts


def test_eigenfunction_property():
    rng = np.random.default_rng(99)
    pts = _interior_points(20, rng)
    for ell in range(6):
        lam_sq = ell * (ell + 2)
        for m in range(ell + 1):
            f = lambda p, i=(ell, m): basis_eval(i, p)
            for x in pts:
                ref = f(x)
                if abs(ref) < 1e-6:
                    continue
                got = laplace_beltrami_apply(f, x, 1e-4)
                assert abs(got + lam_sq * ref) <= 1e-3 * max(abs(lam_sq * ref), 1e-12)


def test_laplace_beltrami_stencil_domain_error():
    # past the x1 = 0 edge, the x2 = 0 edge and the hypotenuse; 1e-13 past an
    # edge, as the stencil has tolerance 0; a NaN step
    for x, h in [((1e-5, 0.4), 1e-3), ((0.4, 1e-5), 1e-3), ((0.5, 0.4995), 1e-3),
                 ((1e-3, 0.4), 1e-3 + 1e-13), ((0.3, 0.3), np.nan)]:
        with pytest.raises(DomainError, match="^finite-difference stencil leaves the simplex$"):
            laplace_beltrami_apply(lambda p: 1.0, x, h)


@pytest.mark.parametrize("ell,m", [(2, 1), (4, 0), (5, 3), (8, 8)])
def test_degree_consistency_on_lines(ell, m):
    # restriction to a line is a univariate polynomial of degree <= ell:
    # interpolating through ell+1 points reproduces an (ell+2)-th one
    a = np.array([0.05, 0.10])
    b = np.array([0.70, 0.25])
    ts = 0.5 * (1.0 - np.cos(np.pi * np.arange(ell + 1) / max(ell, 1)))
    if ell == 0:
        ts = np.array([0.0])
    samples = [basis_eval((ell, m), a + t * (b - a)) for t in ts]
    poly = np.polynomial.polynomial.Polynomial.fit(ts, samples, deg=ell)
    t_extra = 0.37
    want = basis_eval((ell, m), a + t_extra * (b - a))
    scale = max(abs(want), max(abs(s) for s in samples), 1e-12)
    assert abs(poly(t_extra) - want) / scale < 1e-7


def test_spectral_vector_dense_storage():
    vec = SpectralVector(4, np.zeros(tri_dim(4)))
    assert vec.coeffs.shape == (tri_dim(4),)
    assert tri_dim(4) == 5 * 6 // 2
    coeffs = np.zeros(tri_dim(3), dtype=complex)
    coeffs[linear_index(2, 1)] = 1.5 + 2j
    vec = SpectralVector(3, coeffs)
    assert vec.coeffs[linear_index(2, 1)] == 1.5 + 2j
    assert vec.coeffs[linear_index(3, 0)] == 0j
    with pytest.raises(ValueError):
        SpectralVector(3, np.zeros(7, dtype=complex))


def test_spectral_vector_resized():
    coeffs = np.zeros(tri_dim(2))
    coeffs[linear_index(0, 0)] = 1.0
    coeffs[linear_index(2, 2)] = 3.0
    up = SpectralVector(2, coeffs).resized(4)
    assert up.cutoff == 4
    assert up.coeffs[linear_index(2, 2)] == 3.0 and up.coeffs[linear_index(4, 1)] == 0j
    down = up.resized(1)
    assert down.cutoff == 1 and down.coeffs[linear_index(0, 0)] == 1.0


def test_lambda_vector_layout():
    lam = lambda_vector(3)
    assert lam.shape == (tri_dim(3),)
    assert lam[0] == 0.0
    assert_allclose(lam[linear_index(2, 1)], eigenvalue(2), rtol=1e-15)
    assert_allclose(lam[linear_index(3, 3)], eigenvalue(3), rtol=1e-15)
