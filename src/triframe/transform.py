"""Framelet transforms: analysis, decomposition, reconstruction, DFTs.

Every coefficient sequence carries its spectral representation alongside the
point values; the transform algebra acts on spectra (where decomposition and
reconstruction are exact identities) and point values are a synthesized view
computed lazily from the carrying rule by the engine of `basis` (factored_sum;
the adjoint DFT is factored_adjoint).  High-pass coefficients at framelet
level j live on the level-(j+1) rule because their scaling symbols occupy a
band twice as wide as the low-pass one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .basis import (
    SpectralVector,
    basis_matrix,
    degree_cutoff,
    expansion_values,
    factored_adjoint,
    factored_sum,
    lambda_vector,
    max_degree_within,
    tri_dim,
)
from .filters import FilterBank, SpectralSymbol
from . import filters as _filters
from . import quadrature as _quadrature
from .quadrature import QuadratureRule

#: residual allowed for the mask partition identity of a usable bank
PARTITION_TOL = 1e-12
_PARTITION_GRID = np.linspace(0.0, 0.5, 2049)


def _synthesis(rule: QuadratureRule, u: SpectralVector, fixed_order: bool = False) -> np.ndarray:
    """Point values sqrt(w_k) * sum_i u_i * phi_i(x_k) at the rule's nodes."""
    values = factored_sum(rule.node_factors(u.cutoff), u.coeffs, u.cutoff, fixed_order)
    values *= rule.sqrt_weights()
    return values


@dataclass(eq=False)
class CoefficientSequence:
    """Framelet coefficients over one rule's nodes, held as their spectrum.

    The point values are synthesized from the spectrum on their first read,
    one engine call per sequence, and kept.
    """

    rule: QuadratureRule
    spectral: SpectralVector
    _values: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.spectral is None:
            raise ValueError("a sequence needs its spectrum")

    @property
    def level(self) -> int:
        if self.rule.level is None:
            raise ValueError("carrying rule has no level")
        return self.rule.level

    @property
    def values(self) -> np.ndarray:
        """Point values sqrt(w_k) * sum of spectrum * basis at node k."""
        if self._values is None:
            self._values = _synthesis(self.rule, self.spectral)
        return self._values

    def __len__(self) -> int:
        return self.rule.size


def _point_values(seq: CoefficientSequence, fixed_order: bool) -> np.ndarray:
    """seq.values, or with fixed_order the engine's fixed-order sum: the same
    bits under any BLAS threading, in O(N) memory."""
    return _synthesis(seq.rule, seq.spectral, True) if fixed_order else seq.values


def require_partition(bank: FilterBank) -> None:
    """Refuse a bank whose masks do not partition unity on [0, 1/2]."""
    residual = _filters.check_partition(bank, _PARTITION_GRID)
    # written as "not within", so a NaN residual is refused too
    if not residual <= PARTITION_TOL:
        raise ValueError(f"bank violates the partition identity (residual {residual:.3e})")


@dataclass
class FrameletSystem:
    """A filter bank with one quadrature rule per level 0..J.

    Every level whose nodes lead the level-J rule's reads the level-J node
    factors, built at least to degree_cutoff(J).
    """

    bank: FilterBank
    rules: list

    def __post_init__(self):
        if not self.rules:
            raise ValueError("a framelet system needs at least one rule")
        for j, rule in enumerate(self.rules):
            if rule.level != j:
                raise ValueError(f"rule at position {j} carries level {rule.level}")
        require_partition(self.bank)
        _quadrature.share_node_factors(self.rules, degree_cutoff(self.J))

    @property
    def J(self) -> int:
        return len(self.rules) - 1

    @property
    def r(self) -> int:
        return self.bank.r

    def rule(self, j: int) -> QuadratureRule:
        if not 0 <= j <= self.J:
            raise IndexError(f"no rule at level {j} (system has levels 0..{self.J})")
        return self.rules[j]


def kronecker_system(
    bank: FilterBank,
    levels: int,
    generator=_quadrature.DEFAULT_GENERATOR,
    shift=_quadrature.DEFAULT_SHIFT,
    strategy: str = "fold",
) -> FrameletSystem:
    """Framelet system over equal-weight Kronecker lattices for levels
    0..levels; both strategies walk one point stream, so each level's nodes
    lead the top level's."""
    rules = [_quadrature.kronecker_lattice(j, generator, shift, strategy) for j in range(levels + 1)]
    return FrameletSystem(bank, rules)


def reference_system(bank: FilterBank, levels: int) -> FrameletSystem:
    """Framelet system whose every level uses one polynomial-exact rule.

    Used as the oracle family: exact to degree 2 * degree_cutoff(levels).
    """
    base = _quadrature.gauss_reference_rule(2 * degree_cutoff(levels))
    return FrameletSystem(bank, [replace(base, level=j) for j in range(levels + 1)])


def _symbol_cutoff(symbol: SpectralSymbol, j: int, base_cutoff: int) -> int:
    """Largest degree the symbol can pass at scale j, capped by base_cutoff."""
    return min(base_cutoff, max_degree_within(2.0**j * symbol.support[1]))


def _filtered_spectrum(f: SpectralVector, symbol: SpectralSymbol, j: int) -> SpectralVector:
    cut = _symbol_cutoff(symbol, j, f.cutoff)
    gains = symbol(lambda_vector(cut) / 2.0**j)
    return SpectralVector(cut, gains * f.coeffs[: tri_dim(cut)])


def analyze_lowpass(sys: FrameletSystem, f: SpectralVector, j: int) -> CoefficientSequence:
    """Level-j low-pass framelet coefficients of a band-limited function."""
    return CoefficientSequence(
        sys.rule(j), _filtered_spectrum(f, sys.bank.scaling_low, j)
    )


def analyze(sys: FrameletSystem, f: SpectralVector, j: int):
    """Level-j low- and high-pass framelet coefficients of a band-limited function.

    The high-pass sequences live on the level-(j+1) rule, so j must be below
    the system's top level.
    """
    low = analyze_lowpass(sys, f, j)
    rule_hi = sys.rule(j + 1)
    highs = [
        CoefficientSequence(rule_hi, _filtered_spectrum(f, sym, j))
        for sym in sys.bank.scaling_highs
    ]
    return low, highs


def convolve(v: CoefficientSequence, symbol: SpectralSymbol) -> CoefficientSequence:
    """Multiply the spectrum by symbol values at eigenvalue / 2**level.

    Every symbol is real, so the mask is its own adjoint.
    """
    return CoefficientSequence(v.rule, _filtered_spectrum(v.spectral, symbol, v.level))


def _moved(sys: FrameletSystem, v: CoefficientSequence, j: int) -> CoefficientSequence:
    """v's spectrum truncated to eigenvalues <= 2**(v.level - 1), on the level-j rule."""
    cut = min(v.spectral.cutoff, max_degree_within(2.0 ** (v.level - 1)))
    return CoefficientSequence(sys.rule(j), v.spectral.resized(cut))


def downsample(sys: FrameletSystem, v: CoefficientSequence) -> CoefficientSequence:
    """Truncate the spectrum to eigenvalues <= 2**(j-1) and move one level down."""
    if v.level < 1:
        raise ValueError("cannot downsample a level-0 sequence")
    return _moved(sys, v, v.level - 1)


def upsample(sys: FrameletSystem, v: CoefficientSequence) -> CoefficientSequence:
    """Truncate the spectrum to eigenvalues <= 2**(j-2) and move one level up."""
    return _moved(sys, v, v.level + 1)


def decompose(sys: FrameletSystem, v: CoefficientSequence):
    """One-level decomposition: (low at level j-1, r highs on the level-j rule)."""
    j = v.level
    if j < 1:
        raise ValueError("cannot decompose below level 1")
    low = downsample(sys, convolve(v, sys.bank.low))
    highs = [convolve(v, sym) for sym in sys.bank.highs]
    return low, highs


def reconstruct(
    sys: FrameletSystem, low: CoefficientSequence, highs: Sequence[CoefficientSequence]
) -> CoefficientSequence:
    """Exact inverse of decompose on the carried spectra."""
    j = low.level + 1
    if len(highs) != sys.r:
        raise ValueError(f"expected {sys.r} high-pass sequences, got {len(highs)}")
    for h in highs:
        if h.level != j:
            raise ValueError(
                f"high-pass sequence at rule level {h.level}, expected {j}"
            )
    terms = [convolve(upsample(sys, low), sys.bank.low)]
    terms += [convolve(h, sym) for h, sym in zip(highs, sys.bank.highs)]
    cut = max(t.spectral.cutoff for t in terms)
    coeffs = np.zeros(tri_dim(cut), dtype=complex)
    for t in terms:
        coeffs[: tri_dim(t.spectral.cutoff)] += t.spectral.coeffs
    return CoefficientSequence(sys.rule(j), SpectralVector(cut, coeffs))


@dataclass
class FrameletTree:
    """Multi-level coefficient set: base low-pass plus details per level.

    details[j] holds the r high-pass sequences of framelet level j, carried
    by the level-(j+1) rule.
    """

    base: CoefficientSequence
    details: list

    @property
    def J(self) -> int:
        return len(self.details)

    @property
    def r(self) -> int:
        return len(self.details[0]) if self.details else 0

    def coefficient_count(self) -> int:
        return len(self.base) + sum(len(h) for highs in self.details for h in highs)


def multilevel_decompose(sys: FrameletSystem, v: CoefficientSequence) -> FrameletTree:
    """Iterate decompose from the sequence's level down to level 0.

    Nothing is synthesized: each sequence's values wait for their first read,
    so the intermediate low-pass sequences, which are not part of the tree,
    never are.
    """
    top = v.level
    if top < 1:
        raise ValueError("multilevel decomposition needs a level >= 1 input")
    details = [None] * top
    current = v
    for j in range(top, 0, -1):
        current, highs = decompose(sys, current)
        details[j - 1] = highs
    return FrameletTree(base=current, details=details)


def multilevel_reconstruct(sys: FrameletSystem, tree: FrameletTree) -> CoefficientSequence:
    """Iterate reconstruct from level 0 back up to the tree's top level."""
    current = tree.base
    for highs in tree.details:
        current = reconstruct(sys, current, highs)
    return current


def dft(u: SpectralVector, j: int, rule: QuadratureRule) -> np.ndarray:
    """Synthesis of a spectral vector onto the rule's nodes.

    Cost O(N * L^2) for cutoff L; the cutoff must fit the level-j spectral cap.
    """
    if u.cutoff > degree_cutoff(j):
        raise ValueError(
            f"cutoff {u.cutoff} exceeds level-{j} cap {degree_cutoff(j)}"
        )
    return _synthesis(rule, u)


def adjoint_dft(values, j: int, rule: QuadratureRule) -> SpectralVector:
    """Adjoint of dft: weighted conjugate-basis sums over the nodes."""
    values = np.ascontiguousarray(values, dtype=complex)
    if values.shape != (rule.size,):
        raise ValueError(
            f"expected {rule.size} point values, got {values.shape}"
        )
    cut = degree_cutoff(j)
    weighted = values * rule.sqrt_weights()
    return SpectralVector(cut, factored_adjoint(rule.node_factors(cut), weighted, cut))


def parseval_report(sys: FrameletSystem, f: SpectralVector, levels: int) -> dict:
    """Per-level energy balance of the frame.

    For each j < levels, compares the level-(j+1) low-pass energy against the
    level-j low-pass plus high-pass energies; the top entry compares the
    level-`levels` low-pass energy against the spectral norm of f.  With
    polynomial-exact rules the residuals vanish (to roundoff) whenever f is
    band-limited; the top residual additionally needs the band inside the
    flat region of the low-pass scaling symbol (cutoff <= degree_cutoff(levels - 1)).
    """
    if not 1 <= levels <= sys.J:
        raise ValueError(f"levels must lie in 1..{sys.J}")

    def energy(seq: CoefficientSequence) -> float:
        return float(np.vdot(seq.values, seq.values).real)

    low_energy = [energy(analyze_lowpass(sys, f, j)) for j in range(levels + 1)]
    rows = []
    for j in range(levels):
        _, highs = analyze(sys, f, j)
        high_energy = [energy(h) for h in highs]
        residual = abs(low_energy[j + 1] - low_energy[j] - sum(high_energy))
        rows.append(
            {
                "j": j,
                "low_next": low_energy[j + 1],
                "low": low_energy[j],
                "high": high_energy,
                "residual": residual,
            }
        )
    norm_sq = f.norm() ** 2
    return {
        "levels": rows,
        "top": {
            "low": low_energy[levels],
            "f_norm_sq": norm_sq,
            "residual": abs(low_energy[levels] - norm_sq),
        },
        "max_level_residual": max(row["residual"] for row in rows),
    }


def _framelet_coefficients(
    sys: FrameletSystem, kind: str, j: int, k: int, n: int
) -> SpectralVector:
    """Spectral expansion of one framelet: symbol gains times the weighted
    basis row at its translation node."""
    if kind == "low":
        rule = sys.rule(j)
        symbol = sys.bank.scaling_low
    elif kind == "high":
        if not 1 <= n <= sys.r:
            raise IndexError(f"high-pass channel {n} out of range 1..{sys.r}")
        rule = sys.rule(j + 1)
        symbol = sys.bank.scaling_highs[n - 1]
    else:
        raise ValueError(f"kind must be 'low' or 'high', got {kind!r}")
    if not 0 <= k < rule.size:
        raise IndexError(f"node index {k} out of range for {rule.size} nodes")
    cut = max_degree_within(2.0**j * symbol.support[1])
    row = basis_matrix(rule.nodes[k : k + 1], cut)[0] * np.sqrt(rule.weights[k])
    return _filtered_spectrum(SpectralVector(cut, row), symbol, j)


def framelet_values(
    sys: FrameletSystem, kind: str, j: int, k: int, points, n: int = 1
) -> np.ndarray:
    """Values at the points of the level-j framelet translated at node k,
    summed without a basis table.

    kind "low" uses the level-j rule; kind "high" (channel n) uses the
    level-(j+1) rule.  Real-valued for the shipped bank.
    """
    coeffs = _framelet_coefficients(sys, kind, j, k, n)
    # the basis is real, so the real part of the sum needs only the real
    # parts of the coefficients
    return expansion_values(points, coeffs.coeffs.real, coeffs.cutoff)


def triangle_grid(resolution: int) -> np.ndarray:
    """Uniform resolution x resolution grid on [0,1]^2 clipped to the triangle."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    axis = np.linspace(0.0, 1.0, resolution)
    # row by row, never the full square: point (axis[i], axis[k]) is kept
    # when axis[i] + axis[k] <= 1.0, in row-major order
    rows = [axis[x + axis <= 1.0] for x in axis]
    counts = [len(row) for row in rows]
    pts = np.empty((sum(counts), 2))
    pts[:, 0] = np.repeat(axis, counts)
    np.concatenate(rows, out=pts[:, 1])
    return pts


def relative_difference(a: CoefficientSequence, b: CoefficientSequence) -> float:
    """Largest deviation between the two spectra, zero-padded to the larger
    cutoff, relative to the larger spectrum's largest entry; inf when the
    sequences are not on one node set (one rule, or equal nodes and weights).

    Point values are a linear image of the spectrum on the carrying rule, so
    the spectra decide and nothing is synthesized: no engine call, no BLAS,
    the same bits under any threading.
    """
    one_node_set = a.rule is b.rule or (
        np.array_equal(a.rule.nodes, b.rule.nodes)
        and np.array_equal(a.rule.weights, b.rule.weights)
    )
    if not one_node_set:
        return float("inf")
    cut = max(a.spectral.cutoff, b.spectral.cutoff)
    sa = a.spectral.resized(cut).coeffs
    sb = b.spectral.resized(cut).coeffs
    scale = max(
        np.abs(sa).max(initial=0.0), np.abs(sb).max(initial=0.0), np.finfo(float).tiny
    )
    return float(np.abs(sa - sb).max(initial=0.0) / scale)


def _complex_pairs(arr: np.ndarray) -> np.ndarray:
    """The (n, 2) float64 array of [re, im] pairs that cli writes as JSON."""
    arr = np.asarray(arr, dtype=complex)
    return np.column_stack((arr.real, arr.imag))


def _pairs_to_array(pairs) -> np.ndarray:
    try:
        data = np.asarray(pairs, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"non-finite number in [re, im] pairs ({exc})") from None
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("expected a list of [re, im] pairs")
    if not np.isfinite(data).all():
        raise ValueError("non-finite number in [re, im] pairs")
    return data[:, 0] + 1j * data[:, 1]


def sequence_to_dict(
    seq: CoefficientSequence, channel: str = "low", j: int | None = None,
    n: int | None = None, *, fixed_order: bool = False,
) -> dict:
    doc = {
        "channel": channel,
        "j": seq.level if j is None else j,
        "rule_ref": f"{seq.rule.kind}/{seq.rule.level}",
        "v": _complex_pairs(_point_values(seq, fixed_order)),
        "spectral": {
            "cutoff": seq.spectral.cutoff,
            "coeffs": _complex_pairs(seq.spectral.coeffs),
        },
    }
    if n is not None:
        doc["n"] = n
    return doc


def sequence_from_dict(doc: dict, sys: FrameletSystem) -> CoefficientSequence:
    """The sequence of a document valid under cli.SEQUENCE_SCHEMA, on the rule
    of its position: level j for a low-pass entry, j + 1 for a high-pass one.
    Its rule_ref must name that rule.  Its point values v are checked for form,
    finite and one per node, and not read back: the values are the spectrum's
    synthesis."""
    level = int(doc["j"]) + (doc["channel"] == "high")
    rule = sys.rule(level)
    if doc["rule_ref"] != f"{rule.kind}/{level}":
        raise ValueError(
            f"{doc['channel']}-pass entry at j={doc['j']} is on rule "
            f"'{rule.kind}/{level}', not '{doc['rule_ref']}'"
        )
    if _pairs_to_array(doc["v"]).shape != (rule.size,):
        raise ValueError("values must match the rule's node count")
    spectral = SpectralVector(
        int(doc["spectral"]["cutoff"]), _pairs_to_array(doc["spectral"]["coeffs"])
    )
    return CoefficientSequence(rule, spectral)


def tree_to_dict(tree: FrameletTree, *, fixed_order: bool = False) -> dict:
    levels = [sequence_to_dict(tree.base, "low", 0, fixed_order=fixed_order)]
    for j, highs in enumerate(tree.details):
        for n, seq in enumerate(highs, start=1):
            levels.append(sequence_to_dict(seq, "high", j, n, fixed_order=fixed_order))
    return {"J": tree.J, "r": tree.r, "levels": levels}


def _position(channel: str, j: int, n: int | None) -> str:
    return f"({channel}, j={j})" if n is None else f"({channel}, j={j}, n={n})"


def tree_from_dict(doc: dict, sys: FrameletSystem) -> FrameletTree:
    """The tree of a document valid under cli.TREE_SCHEMA, whose entries take
    the positions (low, j=0) and (high, j, n), j < J, 1 <= n <= r, once each."""
    J = int(doc["J"])
    r = int(doc["r"])
    if J > sys.J:
        raise ValueError(f"tree top level {J} exceeds system level {sys.J}")
    if r != sys.r:
        raise ValueError(f"tree has r={r}, the bank has {sys.r} high-pass masks")
    slots = dict.fromkeys(
        [("low", 0, None)] + [("high", j, n) for j in range(J) for n in range(1, r + 1)]
    )
    for entry in doc["levels"]:
        key = (entry["channel"], int(entry["j"]), entry.get("n"))
        if key not in slots:
            raise ValueError(
                f"coefficient tree has no position {_position(*key)}; its positions are "
                f"(low, j=0) and (high, j, n) for j < {J} and 1 <= n <= {r}"
            )
        if slots[key] is not None:
            raise ValueError(f"coefficient tree has a duplicate entry {_position(*key)}")
        seq = slots[key] = sequence_from_dict(entry, sys)
        # the cutoff reconstruct keeps: upsample's for the low-pass entry,
        # convolve's for a high-pass one; the schema counts n = 1.0 an integer
        n = key[2]
        reads = max_degree_within(
            2.0**seq.level * sys.bank.highs[int(n) - 1].support[1] if n else 2.0 ** (seq.level - 1)
        )
        if seq.spectral.cutoff > reads:
            raise ValueError(
                f"coefficient tree entry {_position(*key)} carries cutoff "
                f"{seq.spectral.cutoff}; reconstruction reads at most cutoff {reads} there"
            )
    missing = [_position(*key) for key, seq in slots.items() if seq is None]
    if missing:
        raise ValueError(f"coefficient tree is missing entries {', '.join(missing)}")
    seqs = iter(slots.values())
    return FrameletTree(next(seqs), [[next(seqs) for _ in range(r)] for _ in range(J)])
