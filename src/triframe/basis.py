"""Orthonormal polynomial basis on the unit triangle.

The basis members are weighted tensor products of Jacobi polynomials in
collapsed coordinates, orthonormal for the normalized area measure on
T2 = {x1 >= 0, x2 >= 0, x1 + x2 <= 1}.  Each degree-ell member is an
eigenfunction of the triangle's Laplace-Beltrami operator, which attaches
the spectral location sqrt(ell*(ell+2)) used by the filter banks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

SIMPLEX_TOL = 1e-12
# Distance from the x1 = 1 corner below which the collapsed ratio coordinate
# 2*x2/(1-x1) - 1 degenerates; the continuous limit of the product is used.
_CORNER_EPS = 1e-14
#: bytes of the product buffer factored_sum and factored_adjoint hold: they
#: walk the nodes in blocks whose (parts * (cutoff + 1), width) product fits
PRODUCT_BYTES = 4 << 20


class DomainError(ValueError):
    """Argument outside the domain an operation is defined on."""


def tri_dim(cutoff: int) -> int:
    """Number of basis members with degree <= cutoff (0 for cutoff < 0)."""
    if cutoff < 0:
        return 0
    return (cutoff + 1) * (cutoff + 2) // 2


def linear_index(ell: int, m: int) -> int:
    """Position of (ell, m) in degree-major ordering."""
    if not 0 <= m <= ell:
        raise DomainError(f"invalid basis index ({ell}, {m})")
    return ell * (ell + 1) // 2 + m


@lru_cache(maxsize=None)
def lambda_vector(cutoff: int) -> np.ndarray:
    """Eigenvalue sqrt(ell*(ell+2)) of every linear index (read-only)."""
    ells = np.repeat(np.arange(cutoff + 1.0), np.arange(1, cutoff + 2))
    out = np.sqrt(ells * (ells + 2.0))
    out.flags.writeable = False
    return out


def eigenvalue(ell: int) -> float:
    """Square-rooted Laplace-Beltrami eigenvalue of the degree-ell space."""
    if ell < 0:
        raise DomainError("degree must be nonnegative")
    return math.sqrt(ell * (ell + 2))


def degree_cutoff(j: int) -> int:
    """Largest degree whose eigenvalue fits under 2**(j-1).

    Exact integer arithmetic: ell*(ell+2) <= 4**(j-1) iff
    (ell+1)**2 <= 4**(j-1) + 1.
    """
    if j < 0:
        raise DomainError("level must be nonnegative")
    if j == 0:
        return 0
    return math.isqrt(4 ** (j - 1) + 1) - 1


def max_degree_within(bound: float) -> int:
    """Largest ell with eigenvalue(ell) <= bound, or -1 when bound < 0."""
    if bound < 0:
        return -1
    ell = max(int(math.sqrt(bound * bound + 1.0) - 1.0), 0)
    while eigenvalue(ell + 1) <= bound:
        ell += 1
    while ell > 0 and eigenvalue(ell) > bound:
        ell -= 1
    return ell


def _jacobi_next(n: int, tau: float, gamma: float, t, p1, p0):
    """One forward step of the Jacobi three-term recurrence (degree n >= 2)."""
    c = 2.0 * n + tau + gamma
    a1 = 2.0 * n * (n + tau + gamma) * (c - 2.0)
    a2 = (c - 1.0) * (tau * tau - gamma * gamma)
    a3 = (c - 1.0) * c * (c - 2.0)
    a4 = 2.0 * (n + tau - 1.0) * (n + gamma - 1.0) * c
    return ((a2 + a3 * t) * p1 - a4 * p0) / a1


def jacobi_eval(tau: float, gamma: float, ell: int, t):
    """Unnormalized Jacobi polynomial of degree ell at t, weight (1-t)^tau (1+t)^gamma.

    Forward three-term recurrence; stable for the moderate degrees used here.
    t may be a scalar or an ndarray.
    """
    if tau <= -1.0 or gamma <= -1.0:
        raise DomainError("Jacobi parameters must satisfy tau > -1 and gamma > -1")
    if ell < 0:
        raise DomainError("degree must be nonnegative")
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    p0 = np.ones_like(arr)
    if ell == 0:
        return float(p0) if scalar else p0
    p1 = 0.5 * ((tau + gamma + 2.0) * arr + (tau - gamma))
    for n in range(2, ell + 1):
        p1, p0 = _jacobi_next(n, tau, gamma, arr, p1, p0), p1
    return float(p1) if scalar else p1


def basis_eval(idx, x) -> float:
    """Value of the orthonormal triangle polynomial (ell, m) at one point."""
    ell, m = idx
    if not 0 <= m <= ell:
        raise DomainError(f"invalid basis index ({ell}, {m})")
    ((x1, x2),) = _checked_points(x).tolist()
    norm = math.sqrt((ell + 1) * (2 * m + 1))
    radial = float(jacobi_eval(2.0 * m + 1.0, 0.0, ell - m, 2.0 * x1 - 1.0))
    if m == 0:
        return norm * radial
    omx = 1.0 - x1
    if omx < _CORNER_EPS:
        # continuous limit: the (1-x1)^m factor kills every m >= 1 member
        return 0.0
    ratio = 2.0 * x2 / omx - 1.0
    angular = float(jacobi_eval(0.0, 0.0, m, ratio))
    return norm * radial * omx**m * angular


def _checked_points(points, noun: str = "point") -> np.ndarray:
    """Points as a float (n, 2) array, checked against the simplex; an error
    counts the outside ones as noun(s)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError("points must have shape (n, 2)")
    # written as "not inside", so a NaN coordinate is refused too
    inside = (
        (pts[:, 0] >= -SIMPLEX_TOL)
        & (pts[:, 1] >= -SIMPLEX_TOL)
        & (pts[:, 0] + pts[:, 1] <= 1.0 + SIMPLEX_TOL)
    )
    if not inside.all():
        raise DomainError(f"{int((~inside).sum())} {noun}(s) outside the simplex")
    return pts


def _radial_factors(t: np.ndarray, m: int, cutoff: int):
    """Yield (linear index, sqrt((ell+1)(2m+1)) * P^(2m+1,0)_(ell-m)(t)) for
    ell = m..cutoff: the normalized radial factor of each order-m member."""
    tau = 2.0 * m + 1.0
    jac0 = np.zeros_like(t)
    jac1 = np.ones_like(t)  # Jacobi P^(2m+1,0)_d(t), d running
    for d in range(cutoff - m + 1):
        if d == 1:
            jac1, jac0 = 0.5 * ((tau + 2.0) * t + tau), jac1
        elif d > 1:
            jac1, jac0 = _jacobi_next(d, tau, 0.0, t, jac1, jac0), jac1
        ell = d + m
        yield linear_index(ell, m), math.sqrt((ell + 1) * (2 * m + 1)) * jac1


def basis_matrix(points, cutoff: int) -> np.ndarray:
    """Table of all basis values with degree <= cutoff at many points.

    Returns shape (npoints, tri_dim(cutoff)), columns in degree-major (ell, m)
    order: the transposed view of _factor_table's C-contiguous
    (tri_dim(cutoff), npoints) array at the points' collapsed_factors.
    """
    pts = _checked_points(points)
    return _factor_table(collapsed_factors(pts, cutoff), cutoff).T


def collapsed_factors(points, cutoff: int) -> tuple:
    """Node factors of the synthesis engine, (cutoff + 1, npoints) arrays
    Tu[a] = T_a(2*x1 - 1) and Pv[m] = P_m(2*x2/(1-x1) - 1) (Chebyshev, Legendre).

    Member (ell, m) is g_lm(x1) * Pv[m], g_lm of degree ell and carrying
    (1-x1)^m, so Pv[m >= 1] is 0 at the x1 = 1 corner, the continuous limit.
    The ratio is clipped to [-1, 1], which moves x2 onto the triangle: near
    that corner a point within SIMPLEX_TOL of it can put the ratio far
    outside, where Pv[m] grows like |ratio|^m and g_lm * Pv[m] loses every
    digit.
    """
    pts = np.asarray(points, dtype=float)
    omx = 1.0 - pts[:, 0]
    corner = omx < _CORNER_EPS
    t = 2.0 * pts[:, 0] - 1.0
    ratio = np.clip(2.0 * pts[:, 1] / np.where(corner, 1.0, omx) - 1.0, -1.0, 1.0)
    tu = np.ones((cutoff + 1, pts.shape[0]))
    pv = np.ones_like(tu)
    tu[1:2], pv[1:2] = t, ratio
    for a in range(2, cutoff + 1):
        tu[a] = 2.0 * t * tu[a - 1] - tu[a - 2]
        pv[a] = _jacobi_next(a, 0.0, 0.0, ratio, pv[a - 1], pv[a - 2])
    pv[1:, corner] = 0.0
    return tu, pv


@lru_cache(maxsize=16)
def _conversion(cutoff: int) -> tuple:
    """Read-only (A, rows): column d of A[m] holds the Chebyshev coefficients
    of g_(m+d)m (its values at the Chebyshev-Gauss points, projected onto
    T_0..T_cutoff), rows[m, d] its linear index; tri_dim(cutoff) pads both.
    """
    theta = math.pi * (np.arange(cutoff + 1) + 0.5) / (cutoff + 1)
    t = np.cos(theta)
    project = np.cos(np.outer(np.arange(cutoff + 1), theta)) * (2.0 / (cutoff + 1))
    project[0] /= 2.0
    conv = np.zeros((cutoff + 1,) * 3)
    rows = np.full((cutoff + 1,) * 2, tri_dim(cutoff))
    for m in range(cutoff + 1):
        rows[m, : cutoff + 1 - m], radial = zip(*_radial_factors(t, m, cutoff))
        values = np.array(radial).T * ((1.0 - t) / 2.0)[:, None] ** m  # g at the points
        conv[m, :, : cutoff + 1 - m] = project @ values
    conv.flags.writeable = rows.flags.writeable = False
    return conv, rows


def _factor_table(factors: tuple, cutoff: int) -> np.ndarray:
    """Values of every member with degree <= cutoff at the points of
    factors = (Tu, Pv), as a C-contiguous (tri_dim(cutoff), n) array in
    degree-major order.

    The rows of order m are (A_m.T @ Tu) * Pv[m]: one GEMM per order over the
    cached conversion, O(n * L * dim) flops.
    """
    tu, pv = (f[: cutoff + 1] for f in factors)
    conv, rows = _conversion(cutoff)
    out = np.empty((tri_dim(cutoff), tu.shape[1]))
    for m in range(cutoff + 1):
        order = conv[m, :, : cutoff + 1 - m].T @ tu
        order *= pv[m]
        out[rows[m, : cutoff + 1 - m]] = order
    return out


def _parts(arr) -> np.ndarray:
    """A complex array's real and imaginary parts as rows; a real one as a row."""
    arr = np.asarray(arr)
    return np.stack((arr.real, arr.imag)) if arr.dtype.kind == "c" else arr[None]


def _joined(parts: np.ndarray) -> np.ndarray:
    """Inverse of _parts."""
    if len(parts) == 1:
        return parts[0]
    out = np.empty(parts.shape[1:], dtype=complex)
    out.real, out.imag = parts
    return out


def node_blocks(n: int, size: int) -> list:
    """Consecutive slices covering range(n) in order, as few as keep each at
    most size long, their widths within 1 of each other."""
    count = max(-(-n // size), 1)
    return [slice(n * b // count, n * (b + 1) // count) for b in range(count)]


def _product_blocks(rows: int, n: int) -> tuple:
    """The node blocks of an engine call over n nodes whose product has the
    given rows, and one buffer that holds the widest block's product."""
    blocks = node_blocks(n, max(PRODUCT_BYTES // (8 * rows), 1))
    return blocks, np.empty(rows * -(-n // len(blocks)))


def factored_sum(factors: tuple, coeffs, cutoff: int, fixed_order: bool = False) -> np.ndarray:
    """Values sum_i coeffs[i] * phi_i at the points of factors = (Tu, Pv).

    sum over m of (C @ Tu)[m] * Pv[m], C[m] = A_m @ c_m: one GEMM per node
    block, O(n * L^2) flops, and O(n + L^3) memory for n points besides the
    factors: the blocks' products share one buffer of at most PRODUCT_BYTES.
    fixed_order sums one order at a time with numpy's einsum, without BLAS:
    the same bits under any threading.
    """
    tu, pv = (f[: cutoff + 1] for f in factors)
    conv, rows = _conversion(cutoff)
    parts = _parts(coeffs)
    grid = np.concatenate((parts, np.zeros((len(parts), 1))), axis=1)[:, rows]
    if not fixed_order:
        cheb = (conv @ grid[..., None]).reshape(-1, cutoff + 1)
        out = np.empty((len(parts), tu.shape[1]))
        blocks, buffer = _product_blocks(len(cheb), tu.shape[1])
        for cols in blocks:
            width = cols.stop - cols.start
            prod = buffer[: len(cheb) * width].reshape(len(cheb), width)
            np.matmul(cheb, tu[:, cols], out=prod)
            prod = prod.reshape(len(parts), cutoff + 1, width)
            np.einsum("pmn,mn->pn", prod, pv[:, cols], out=out[:, cols])
        return _joined(out)
    # einsum without optimize runs numpy's C loops: for n > 1 points it adds
    # C[m, a] * Tu[a] in index order; the orders are added in index order
    cheb = np.einsum("mad,pmd->pma", conv, grid)
    return _joined(sum(np.einsum("pa,an->pn", cheb[:, m], tu) * pv[m] for m in range(cutoff + 1)))


def factored_adjoint(factors: tuple, values, cutoff: int) -> np.ndarray:
    """Adjoint of factored_sum: sum_k values[k] * phi_i(x_k) for every i,
    as A_m.T @ ((Pv * values) @ Tu.T)[m], in the same cost and memory."""
    tu, pv = (f[: cutoff + 1] for f in factors)
    conv, rows = _conversion(cutoff)
    parts = _parts(values)
    cheb = np.zeros((len(parts) * (cutoff + 1), cutoff + 1))
    blocks, buffer = _product_blocks(len(cheb), tu.shape[1])
    for cols in blocks:
        width = cols.stop - cols.start
        prod = buffer[: len(cheb) * width].reshape(len(parts), cutoff + 1, width)
        np.multiply(parts[:, None, cols], pv[:, cols], out=prod)
        cheb += prod.reshape(len(cheb), width) @ tu[:, cols].T
    out = np.empty((len(parts), tri_dim(cutoff) + 1))
    out[:, rows] = (cheb.reshape(len(parts), cutoff + 1, 1, -1) @ conv)[:, :, 0]
    return _joined(out[:, :-1])


def expansion_values(points, coeffs, cutoff: int) -> np.ndarray:
    """Values at many points of sum_i coeffs[i] * (basis member i), without a table.

    Equals basis_matrix(points, cutoff) @ coeffs up to rounding.  factored_sum
    runs over blocks of 8192 points, so memory stays O(npoints + cutoff^3).
    Real or complex coefficients.
    """
    pts = _checked_points(points)
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (tri_dim(cutoff),):
        raise ValueError(
            f"expected {tri_dim(cutoff)} coefficients for cutoff {cutoff}, "
            f"got {coeffs.shape}"
        )
    return np.concatenate([
        factored_sum(collapsed_factors(block, cutoff), coeffs, cutoff)
        for block in np.array_split(pts, len(pts) // 8192 + 1)
    ])


def laplace_beltrami_apply(f: Callable, x, h: float) -> float:
    """O(h^2) central-difference application of the triangle Laplace-Beltrami
    operator to a scalar field at an interior point.

    The point should sit at distance > 2h from the boundary; the nine-point
    stencil is required to stay inside the closed triangle.
    """
    if h <= 0:
        raise DomainError("step must be positive")
    ((x1, x2),) = _checked_points(x).tolist()
    stencil = (x1, x2) + h * np.array([(i, k) for i in (-1, 0, 1) for k in (-1, 0, 1)])
    # written as "not inside", so a NaN step is refused too
    if not ((stencil >= 0.0).all() and (stencil.sum(axis=1) <= 1.0).all()):
        raise DomainError("finite-difference stencil leaves the simplex")

    def fv(i, k):
        return float(f((x1 + i * h, x2 + k * h)))

    f00 = float(f((x1, x2)))
    d1 = (fv(1, 0) - fv(-1, 0)) / (2.0 * h)
    d2 = (fv(0, 1) - fv(0, -1)) / (2.0 * h)
    d11 = (fv(1, 0) - 2.0 * f00 + fv(-1, 0)) / (h * h)
    d22 = (fv(0, 1) - 2.0 * f00 + fv(0, -1)) / (h * h)
    d12 = (fv(1, 1) - fv(1, -1) - fv(-1, 1) + fv(-1, -1)) / (4.0 * h * h)
    return (
        x1 * (1.0 - x1) * d11
        + x2 * (1.0 - x2) * d22
        - 2.0 * x1 * x2 * d12
        + (1.0 - 3.0 * x1) * d1
        + (1.0 - 3.0 * x2) * d2
    )


@dataclass
class SpectralVector:
    """Dense complex coefficients over all (ell, m) with ell <= cutoff."""

    cutoff: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (tri_dim(self.cutoff),):
            raise ValueError(
                f"expected {tri_dim(self.cutoff)} coefficients for cutoff "
                f"{self.cutoff}, got {self.coeffs.shape}"
            )

    def resized(self, cutoff: int) -> "SpectralVector":
        """Copy truncated or zero-padded to a new cutoff."""
        out = np.zeros(tri_dim(cutoff), dtype=complex)
        keep = min(tri_dim(cutoff), tri_dim(self.cutoff))
        out[:keep] = self.coeffs[:keep]
        return SpectralVector(cutoff, out)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))
