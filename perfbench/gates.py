"""Correctness gates applied to every op, outside the timed region.

A gate raises `GateFailure`; the harness counts the op as failed.  Point
values are checked against the scalar `basis_eval` path, which builds no
basis tables, so a defect in the table or synthesis code cannot hide itself.
"""

from __future__ import annotations

import json
import math

import numpy as np

from triframe import basis

ROUNDTRIP_TOL = 1e-12
ANALYSIS_TOL = 1e-12
POINT_TOL = 1e-10
REFERENCE_TOL = 1e-10


class GateFailure(Exception):
    """An op produced output that fails a correctness gate."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


def _reject_constant(name: str):
    raise GateFailure(f"non-strict JSON constant {name}")


def load_strict_json(path) -> dict:
    """Parse JSON, refusing NaN and Infinity."""
    with open(path) as handle:
        return json.load(handle, parse_constant=_reject_constant)


def pairs_to_complex(pairs) -> np.ndarray:
    data = np.asarray(pairs, dtype=float)
    require(data.ndim == 2 and data.shape[1] == 2, "expected [re, im] pairs")
    return data[:, 0] + 1j * data[:, 1]


def require_finite(value, what: str) -> None:
    require(
        isinstance(value, (int, float)) and math.isfinite(value),
        f"{what} is not a finite number: {value!r}",
    )


def relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Max deviation relative to the larger max-magnitude of the two."""
    if actual.shape != expected.shape:
        return math.inf
    scale = max(
        np.abs(actual).max(initial=0.0),
        np.abs(expected).max(initial=0.0),
        np.finfo(float).tiny,
    )
    return float(np.abs(actual - expected).max(initial=0.0) / scale)


class ScalarBasis:
    """Rows of basis values from `basis_eval`, one point at a time, cached."""

    def __init__(self):
        self._rows: dict[tuple, np.ndarray] = {}

    def row(self, point, cutoff: int) -> np.ndarray:
        key = (float(point[0]), float(point[1]))
        cached = self._rows.get(key)
        if cached is None or cached.shape[0] < basis.tri_dim(cutoff):
            cached = np.array([
                basis.basis_eval((ell, m), key)
                for ell in range(cutoff + 1)
                for m in range(ell + 1)
            ])
            self._rows[key] = cached
        return cached[: basis.tri_dim(cutoff)]


class LatticeReference:
    """Seeded sample nodes of each lattice level with scalar basis rows.

    `synthesize(level, k, spectral)` is the reference point value
    sqrt(w_k) * sum_i c_i phi_i(x_k) of a sequence carried by that level.
    """

    def __init__(self, sys_, rng: np.random.Generator, per_level: int):
        self.sys = sys_
        self.scalar = ScalarBasis()
        self.nodes: dict[int, np.ndarray] = {}
        for level in range(sys_.J + 1):
            rule = sys_.rule(level)
            picks = rng.choice(rule.size, size=min(per_level, rule.size), replace=False)
            self.nodes[level] = np.sort(picks)
            for k in self.nodes[level]:
                self.scalar.row(rule.nodes[k], basis.degree_cutoff(level))

    def synthesize(self, level: int, k: int, spectral: basis.SpectralVector) -> complex:
        rule = self.sys.rule(level)
        row = self.scalar.row(rule.nodes[k], spectral.cutoff)
        return complex(np.sqrt(rule.weights[k]) * (row @ spectral.coeffs))

    def check_values(self, label, level: int, values: np.ndarray,
                     spectral: basis.SpectralVector, rng: np.random.Generator) -> None:
        """One seeded sample node of `values` against the scalar path."""
        require(values.shape == (self.sys.rule(level).size,),
                f"{label}: {values.shape[0]} values on level {level}")
        k = int(rng.choice(self.nodes[level]))
        expected = self.synthesize(level, k, spectral)
        scale = max(np.abs(values).max(), np.finfo(float).tiny)
        err = abs(values[k] - expected) / scale
        require(err <= POINT_TOL,
                f"{label}: point value at node {k} off by {err:.3e} relative")


def check_tree(entries, expected, reference: LatticeReference,
               rng: np.random.Generator) -> None:
    """Gate a coefficient tree given as (label, level, cutoff, coeffs, values).

    `expected` maps each label to the spectrum the spectral algebra gives for
    the op's input; every label must appear exactly once.
    """
    seen = set()
    for label, level, cutoff, coeffs, values in entries:
        require(label in expected and label not in seen, f"unexpected tree entry {label}")
        seen.add(label)
        want = expected[label]
        require(cutoff == want.cutoff, f"{label}: cutoff {cutoff}, expected {want.cutoff}")
        err = relative_error(coeffs, want.coeffs)
        require(err <= ANALYSIS_TOL, f"{label}: spectrum off by {err:.3e} relative")
        reference.check_values(label, level, values, want, rng)
    require(seen == set(expected), f"tree is missing {sorted(set(expected) - seen)}")


def _labelled_sequences(tree):
    """(label, sequence) of every sequence of a FrameletTree, as in its file."""
    yield ("low", 0, None), tree.base
    for j, highs in enumerate(tree.details):
        for n, seq in enumerate(highs, start=1):
            yield ("high", j, n), seq


def expected_tree(tree) -> dict:
    """label -> spectrum of a FrameletTree built by the spectral algebra."""
    return {label: seq.spectral for label, seq in _labelled_sequences(tree)}


def tree_entries_from_doc(doc: dict):
    """(label, level, cutoff, coeffs, values) of every entry of a tree file."""
    for entry in doc["levels"]:
        label = (entry["channel"], entry["j"], entry.get("n"))
        level = int(entry["rule_ref"].rsplit("/", 1)[1])
        yield (label, level, entry["spectral"]["cutoff"],
               pairs_to_complex(entry["spectral"]["coeffs"]),
               pairs_to_complex(entry["v"]))


def tree_entries_from_object(tree):
    """(label, level, cutoff, coeffs, values) of every sequence of a FrameletTree."""
    for label, seq in _labelled_sequences(tree):
        yield label, seq.level, seq.spectral.cutoff, seq.spectral.coeffs, seq.values
