"""Quadrature rules on the triangle.

Two families: equal-weight triangular Kronecker lattices (low-discrepancy,
used as framelet translation points) and a polynomial-exact reference rule
built by collapsed-coordinate tensorization (the oracle for exactness and
orthonormality checks).  Gram matrices quantify how far a rule is from
integrating basis products exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import (
    PRODUCT_BYTES,
    DomainError,
    _checked_points,
    _factor_table,
    basis_matrix,
    collapsed_factors,
    degree_cutoff,
    factored_adjoint,
    jacobi_eval,
    lambda_vector,
    node_blocks,
    tri_dim,
)

#: default lattice generator: fractional parts of sqrt(2) and sqrt(3)
DEFAULT_GENERATOR = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0)
DEFAULT_SHIFT = (0.0, 0.0)

KIND_KRONECKER = "kronecker_lattice"
KIND_GAUSS = "gauss_reference"
KIND_CUSTOM = "custom"

#: most nodes gram_matrix tabulates at once: its block table takes
#: tri_dim(cutoff) * GRAM_BLOCK * 8 bytes
GRAM_BLOCK = 2048


def lattice_size(j: int) -> int:
    """Node count 2**(2j) + 1 of the level-j lattice."""
    if j < 0:
        raise DomainError("level must be nonnegative")
    return 4**j + 1


class _NodeFactors:
    """basis.collapsed_factors of one node array, one pair built at the widest
    cutoff asked for, at least `cutoff`, and shared by every rule whose nodes
    lead that array (see share_node_factors)."""

    def __init__(self, nodes: np.ndarray):
        self.nodes = nodes
        self.cutoff = 0
        self.pair = None

    def window(self, cutoff: int, size: int) -> tuple:
        """Rows 0..cutoff of the first size columns, as views of the pair."""
        if self.pair is None or cutoff >= len(self.pair[0]):
            self.pair = collapsed_factors(self.nodes, max(cutoff, self.cutoff))
        return tuple(f[: cutoff + 1, :size] for f in self.pair)


@dataclass
class QuadratureRule:
    """Weighted node set on the triangle.

    Treated as immutable after construction; the synthesis engine's node
    factors (one pair, see node_factors) are built lazily and cached.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str = KIND_CUSTOM
    level: int | None = None
    generator_meta: dict = field(default_factory=dict)
    _factors: _NodeFactors = field(repr=False, compare=False, init=False)

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=float)
        self.weights = np.ascontiguousarray(self.weights, dtype=float)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise ValueError("nodes must have shape (N, 2)")
        if self.weights.shape != (self.nodes.shape[0],):
            raise ValueError("weights must match nodes in length")
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")
        if np.any(self.weights == 0.0):
            raise ValueError("weights must be nonzero")
        _checked_points(self.nodes, "node")
        if self.kind == KIND_KRONECKER:
            if self.level is None:
                raise ValueError("lattice rules carry a level")
            n = self.size
            if n != lattice_size(self.level):
                raise ValueError(
                    f"level-{self.level} lattice must have {lattice_size(self.level)} nodes"
                )
            if not np.allclose(self.weights, 1.0 / n, rtol=0.0, atol=0.0):
                raise ValueError("lattice weights must all equal 1/N")
        self._factors = _NodeFactors(self.nodes)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def node_factors(self, cutoff: int) -> tuple:
        """basis.collapsed_factors of the nodes, rows 0..cutoff: views of the
        one cached pair, which share_node_factors may share with other rules."""
        return self._factors.window(cutoff, self.size)

    def sqrt_weights(self) -> np.ndarray:
        """Square roots of the weights, which scale synthesized point values."""
        if np.any(self.weights < 0.0):
            raise DomainError("sqrt-weighted values need positive weights")
        return np.sqrt(self.weights)

    def weighted_basis(self, cutoff: int) -> np.ndarray:
        """sqrt(weight)-scaled basis table, shape (N, tri_dim(cutoff)), built
        on each call."""
        table = basis_matrix(self.nodes, cutoff)
        table *= self.sqrt_weights()[:, None]
        return table

    def clear_cache(self) -> None:
        """Drop the node factors, for every rule that shares them."""
        self._factors.pair = None


def _unit_square_stream(generator, shift, count: int) -> np.ndarray:
    g1, g2 = float(generator[0]), float(generator[1])
    s1, s2 = float(shift[0]), float(shift[1])
    i = np.arange(count, dtype=float)
    return np.stack(((i * g1 + s1) % 1.0, (i * g2 + s2) % 1.0), axis=1)


def kronecker_lattice(
    j: int,
    generator=DEFAULT_GENERATOR,
    shift=DEFAULT_SHIFT,
    strategy: str = "fold",
) -> QuadratureRule:
    """Equal-weight triangular Kronecker lattice with 2**(2j) + 1 nodes.

    strategy "fold" reflects unit-square points with x + y > 1 through
    (1-x, 1-y); "intersect" walks the lattice stream and keeps the first
    points that land in the triangle, failing after 8N candidates.
    Deterministic (bit-identical) for fixed parameters.
    """
    n = lattice_size(j)
    if not np.isfinite(np.asarray([generator, shift], dtype=float)).all():
        raise ValueError("lattice generator and shift must be finite")
    if strategy == "fold":
        pts = _unit_square_stream(generator, shift, n)
        over = pts.sum(axis=1) > 1.0
        pts[over] = 1.0 - pts[over]
    elif strategy == "intersect":
        budget = 8 * n
        candidates = _unit_square_stream(generator, shift, budget)
        inside = candidates.sum(axis=1) <= 1.0
        if inside.sum() < n:
            raise ValueError(
                f"intersect strategy found only {int(inside.sum())} of {n} "
                f"nodes within {budget} candidates"
            )
        pts = candidates[inside][:n]
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return QuadratureRule(
        nodes=pts,
        weights=np.full(n, 1.0 / n),
        kind=KIND_KRONECKER,
        level=j,
        generator_meta={
            "generator": [float(generator[0]), float(generator[1])],
            "shift": [float(shift[0]), float(shift[1])],
            "strategy": strategy,
        },
    )


def share_node_factors(rules: list, cutoff: int) -> None:
    """Let every rule whose nodes are the leading nodes of the last rule's
    read the last rule's node factors, built at least to cutoff.

    Row a of the factors comes only from rows a-1 and a-2, so a window of the
    shared pair holds the bits of a pair built for the rule itself.
    """
    top = rules[-1]
    top._factors.cutoff = cutoff
    for rule in rules[:-1]:
        if rule.nodes is top.nodes or np.array_equal(rule.nodes, top.nodes[: rule.size]):
            rule._factors = top._factors


def _gauss_jacobi(n: int, a: float, b: float) -> tuple:
    """Gauss-Jacobi rule of n nodes for the weight (1-t)^a (1+t)^b on [-1, 1]:
    ascending nodes and their weights up to one common factor.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix, polished by one Newton step on P_n^(a,b).  The weights come
    from the derivative formula w_i ~ 1 / ((1 - x_i^2) P_n'(x_i)^2), with
    P_n^(a,b)' = (n+a+b+1)/2 * P_(n-1)^(a+1,b+1).
    """
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s[1:] * (s[1:] + 2.0))
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    slope = 0.5 * (n + a + b + 1.0) * jacobi_eval(a + 1.0, b + 1.0, n - 1, x)
    x -= jacobi_eval(a, b, n, x) / slope
    # P_n' at the polished nodes, less its constant factor
    slope = jacobi_eval(a + 1.0, b + 1.0, n - 1, x)
    return x, 1.0 / ((1.0 - x) * (1.0 + x) * slope * slope)


def gauss_reference_rule(degree: int) -> QuadratureRule:
    """Rule exact for all triangle polynomials up to the requested degree.

    Collapsed-coordinate tensorization: Gauss-Jacobi with weight (1-t) in the
    x1 direction times Gauss-Legendre in the ratio direction, mapped through
    (x1, x2) = (u, (1-u) v); the Jacobian is absorbed by the Jacobi weight and
    the weights are normalized to sum to 1 (normalized area measure).
    """
    if degree < 0:
        raise DomainError("degree must be nonnegative")
    if degree > 128:
        raise DomainError("reference rule capped at degree 128")
    npts = degree // 2 + 1
    tu, wu = _gauss_jacobi(npts, 1.0, 0.0)
    tv, wv = _gauss_jacobi(npts, 0.0, 0.0)
    u = 0.5 * (tu + 1.0)
    v = 0.5 * (tv + 1.0)
    x1 = np.repeat(u, npts)
    x2 = (1.0 - x1) * np.tile(v, npts)
    w = np.repeat(wu, npts) * np.tile(wv, npts)
    w /= w.sum()
    return QuadratureRule(nodes=np.stack((x1, x2), axis=1), weights=w, kind=KIND_GAUSS)


def exactness_degree(rule: QuadratureRule, tol: float, max_degree: int = 60) -> int:
    """Largest degree L (capped at max_degree) such that every basis member
    of degree <= L integrates to its exact value within tol; -1 when even
    constants fail.

    Constants integrate to 1; every other member has zero mean, so exactness
    on the orthonormal basis is equivalent to exactness on polynomials.  The
    search grows the tested cutoff geometrically so inexact rules exit early.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    cap = max_degree + 1
    cutoff = min(8, cap)
    while True:
        # the engine's adjoint applied to the weights: the weighted sums
        err = factored_adjoint(rule.node_factors(cutoff), rule.weights, cutoff)
        err[0] -= 1.0  # constants integrate to 1, the other members to 0
        err = np.abs(err)
        for ell in range(cutoff + 1):
            if err[tri_dim(ell - 1) : tri_dim(ell)].max() > tol:
                return ell - 1
        if cutoff == cap:
            return max_degree
        cutoff = min(2 * cutoff, cap)


@dataclass
class GramMatrix:
    """Quadrature approximations of all pairwise basis inner products."""

    cutoff: int
    entries: np.ndarray

    def __post_init__(self):
        dim = tri_dim(self.cutoff)
        if self.entries.shape != (dim, dim):
            raise ValueError("entries must be square over the linearized basis")

    def max_deviation_from_identity(self) -> float:
        """max |entries - identity|, with no (dim, dim) temporary."""
        dim = len(self.entries)
        # a view of the off-diagonal entries: in row-major order every
        # (dim + 1)-th entry is diagonal, so past the first they end the rows
        # of a (dim - 1, dim + 1) reshape
        off = self.entries.reshape(-1)[1:].reshape(dim - 1, dim + 1)[:, :-1]
        diagonal = np.abs(np.diagonal(self.entries) - 1.0)
        return float(np.max([off.max(initial=0.0), -off.min(initial=0.0), diagonal.max()]))


def _block_gram(tu, pv, weights, cutoff: int, scale, out: np.ndarray) -> np.ndarray:
    """S @ table @ diag(weights) @ table.T @ S for one block of nodes, written
    into out, the table built from their factors (Tu, Pv) and S = diag(scale)
    (the identity when scale is None); the table is freed on return."""
    positive = np.all(weights > 0.0)
    if positive:
        pv = pv * np.sqrt(weights)
    table = _factor_table((tu, pv), cutoff)
    if scale is not None:
        table *= scale[:, None]
    if positive:
        # sqrt(w) is folded into Pv, and the basis is real, so table @ table.T
        # lets BLAS take the symmetric (SYRK) path
        return np.matmul(table, table.T, out=out)
    return np.matmul(table, (table * weights).T, out=out)


def _add_gram(rule: QuadratureRule, cutoff: int, out: np.ndarray, scale=None) -> None:
    """Add the rule's Gram at cutoff, its rows and columns scaled by scale
    when given, into out: one _block_gram per block of at most GRAM_BLOCK
    nodes, every block's product written into one reused (dim, dim) buffer."""
    tu, pv = rule.node_factors(cutoff)
    product = np.empty_like(out)
    for cols in node_blocks(rule.size, GRAM_BLOCK):
        out += _block_gram(tu[:, cols], pv[:, cols], rule.weights[cols], cutoff, scale, product)


def gram_matrix(rule: QuadratureRule, cutoff: int) -> GramMatrix:
    """Matrix of weighted sums of basis products over the rule's nodes.

    Equals the identity exactly when the rule is polynomial-exact to degree
    2*cutoff; for the real-valued basis the matrix is real symmetric.  Built
    on each call.  The sum runs over blocks of at most GRAM_BLOCK nodes of
    rule.node_factors, so it holds O(GRAM_BLOCK * dim + dim^2) memory, never
    the (N, dim) table.
    """
    if cutoff < 0:
        raise DomainError("cutoff must be nonnegative")
    entries = np.zeros((tri_dim(cutoff),) * 2)
    _add_gram(rule, cutoff, entries)
    return GramMatrix(cutoff, entries)


def _masked_sum_in_place(gram: np.ndarray, masks: list) -> None:
    """Overwrite gram with the sum over masks of outer(mask, mask) * gram,
    less gram: a few rows at a time, so the temporaries take at most
    2 * PRODUCT_BYTES, term by term in the order of the sum."""
    for rows in node_blocks(len(gram), max(PRODUCT_BYTES // (8 * len(gram)), 1)):
        block = gram[rows]
        combo = np.zeros_like(block)
        term = np.empty_like(block)
        for mask in masks:
            np.multiply.outer(mask[rows], mask, out=term)
            term *= block
            combo += term
        combo -= block
        block[...] = combo


def generalized_tightness_residual(
    rule_lo: QuadratureRule,
    rule_hi: QuadratureRule,
    bank,
    j: int,
    cutoff: int,
    gram_hi: GramMatrix | None = None,
) -> float:
    """Residual of the tightness condition for possibly inexact rules.

    For every basis pair whose low-pass scaling values at scale j are both
    nonzero, the low-pass mask couples the coarse rule's Gram entry and the
    high-pass masks couple the fine rule's; a tight system reproduces the fine
    Gram entry.  Returns the maximum absolute defect.

    gram_hi, when given, is gram_matrix(rule_hi, cutoff), and its entries are
    overwritten: the fine Gram is turned into the defect in place.  The
    coarse Gram is never formed: its block products, scaled by the low-pass
    mask, are added into the defect, unless both rules are one node set,
    whose one Gram serves both terms.
    """
    if j < 1:
        raise DomainError("scale j must be >= 1")
    if cutoff > degree_cutoff(j):
        raise DomainError("cutoff exceeds the level-j spectral cap")
    xi = lambda_vector(cutoff) / 2.0**j
    low = bank.low(xi)
    qualifies = bank.scaling_low(xi) != 0.0
    if not qualifies.any():
        return 0.0
    if gram_hi is None:
        gram_hi = gram_matrix(rule_hi, cutoff)
    defect = gram_hi.entries
    # one node set and weights, as the levels of a reference system hold
    shared = rule_lo.nodes is rule_hi.nodes and rule_lo.weights is rule_hi.weights
    _masked_sum_in_place(defect, ([low] if shared else []) + [high(xi) for high in bank.highs])
    if not shared:
        _add_gram(rule_lo, cutoff, defect, scale=low)
    np.abs(defect, out=defect)
    # the largest defect over the qualifying rows and columns
    return float(defect.max(axis=1, where=qualifies, initial=0.0)[qualifies].max())


def rule_to_dict(rule: QuadratureRule) -> dict:
    meta = rule.generator_meta
    return {
        "kind": rule.kind,
        "level": rule.level,
        "generator": meta.get("generator"),
        "shift": meta.get("shift"),
        "strategy": meta.get("strategy"),
        "nodes": rule.nodes,
        "weights": rule.weights,
    }


def rule_from_dict(doc: dict) -> QuadratureRule:
    meta = {
        key: doc[key]
        for key in ("generator", "shift", "strategy")
        if doc.get(key) is not None
    }
    return QuadratureRule(
        nodes=np.asarray(doc["nodes"], dtype=float),
        weights=np.asarray(doc["weights"], dtype=float),
        kind=doc["kind"],
        level=doc.get("level"),
        generator_meta=meta,
    )
