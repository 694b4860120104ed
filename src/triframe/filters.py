"""Closed-form filter banks acting on the triangle's spectral axis.

A spectral symbol is a piecewise closed-form even function of xi evaluated at
sqrt(ell*(ell+2)) / 2**j by the transforms.  The shipped bank has one
low-pass and two high-pass masks built from a quartic transition polynomial,
together with the scaling-function symbols they refine.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

DEFAULT_BANK_NAME = "dau2-simplex-r2"

_HALF_PI = 0.5 * math.pi


def nu(t):
    """Transition polynomial t**4 * (35 - 84 t + 70 t**2 - 20 t**3).

    Rises monotonically from 0 to 1 on [0, 1] with nu(t) + nu(1-t) = 1.
    """
    t = np.asarray(t, dtype=float)
    out = t**4 * (35.0 + t * (-84.0 + t * (70.0 - 20.0 * t)))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Piece:
    """One branch of a piecewise symbol on [lo, hi).

    kind is one of: const; cos_nu, sin_nu, cos2_nu, cossin_nu, which apply
    cos, sin, cos**2 or cos*sin to (pi/2) * nu(scale*|xi| + offset).
    """

    lo: float
    hi: float
    kind: str
    value: float = 0.0
    scale: float = 0.0
    offset: float = 0.0

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "const":
            return np.full_like(t, self.value)
        arg = _HALF_PI * nu(self.scale * t + self.offset)
        if self.kind == "cos_nu":
            return np.cos(arg)
        if self.kind == "sin_nu":
            return np.sin(arg)
        if self.kind == "cos2_nu":
            return np.cos(arg) ** 2
        if self.kind == "cossin_nu":
            return np.cos(arg) * np.sin(arg)
        raise ValueError(f"unknown piece kind {self.kind!r}")


@dataclass(frozen=True)
class SpectralSymbol:
    """Even piecewise function of xi, identically zero outside its support.

    Pieces are half-open intervals, the last one closed at its right endpoint.
    """

    pieces: tuple[Piece, ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a symbol needs at least one piece")

    @property
    def support(self) -> tuple[float, float]:
        """The span of the pieces."""
        return min(p.lo for p in self.pieces), max(p.hi for p in self.pieces)

    def __call__(self, xi):
        t = np.abs(np.asarray(xi, dtype=float))
        scalar = t.ndim == 0
        if scalar:
            t = t[None]
        out = np.zeros_like(t)
        last = len(self.pieces) - 1
        for i, piece in enumerate(self.pieces):
            if i == last:
                mask = (t >= piece.lo) & (t <= piece.hi)
            else:
                mask = (t >= piece.lo) & (t < piece.hi)
            if mask.any():
                out[mask] = piece.evaluate(t[mask])
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class FilterBank:
    """One low-pass and r high-pass masks with their scaling symbols."""

    low: SpectralSymbol
    highs: tuple[SpectralSymbol, ...]
    scaling_low: SpectralSymbol
    scaling_highs: tuple[SpectralSymbol, ...]
    name: str = "custom"

    def __post_init__(self):
        if not self.highs:
            raise ValueError("a bank needs at least one high-pass mask")
        if len(self.highs) != len(self.scaling_highs):
            raise ValueError("each high-pass mask needs a scaling symbol")
        if self.scaling_low.support[1] > 0.5:
            raise ValueError("low-pass scaling symbol must be supported in [0, 1/2]")
        for sym in self.scaling_highs:
            if sym.support[1] > 1.0:
                raise ValueError("high-pass scaling symbols must be supported in [0, 1]")

    @property
    def r(self) -> int:
        return len(self.highs)


def default_bank() -> FilterBank:
    """The shipped two-high-pass bank.

    The low-pass mask is flat below 1/8, rolls off through the transition
    polynomial on [1/8, 1/4] and vanishes beyond; the high-passes pick up the
    complementary energy so the three masks partition unity on [0, 1/2].
    """
    low = SpectralSymbol(
        pieces=(
            Piece(0.0, 0.125, "const", value=1.0),
            Piece(0.125, 0.25, "cos_nu", scale=8.0, offset=-1.0),
        ),
    )
    high1 = SpectralSymbol(
        pieces=(
            Piece(0.125, 0.25, "sin_nu", scale=8.0, offset=-1.0),
            Piece(0.25, 0.5, "cos_nu", scale=4.0, offset=-1.0),
        ),
    )
    high2 = SpectralSymbol(pieces=(Piece(0.25, 0.5, "sin_nu", scale=4.0, offset=-1.0),))
    scaling_low = SpectralSymbol(
        pieces=(
            Piece(0.0, 0.25, "const", value=1.0),
            Piece(0.25, 0.5, "cos_nu", scale=4.0, offset=-1.0),
        ),
    )
    scaling_high1 = SpectralSymbol(
        pieces=(
            Piece(0.25, 0.5, "sin_nu", scale=4.0, offset=-1.0),
            Piece(0.5, 1.0, "cos2_nu", scale=2.0, offset=-1.0),
        ),
    )
    scaling_high2 = SpectralSymbol(
        pieces=(Piece(0.5, 1.0, "cossin_nu", scale=2.0, offset=-1.0),)
    )
    return FilterBank(
        low=low,
        highs=(high1, high2),
        scaling_low=scaling_low,
        scaling_highs=(scaling_high1, scaling_high2),
        name=DEFAULT_BANK_NAME,
    )


def check_partition(bank: FilterBank, grid) -> float:
    """Max deviation of |low|^2 + sum |high_n|^2 from 1 over the grid."""
    xi = np.asarray(grid, dtype=float)
    if xi.size == 0:
        raise ValueError("grid must be nonempty")
    total = bank.low(xi) ** 2
    for high in bank.highs:
        total = total + high(xi) ** 2
    return float(np.abs(total - 1.0).max())


def check_refinement(bank: FilterBank, grid) -> float:
    """Max residual of the refinement identities over the grid.

    scaling_low(2 xi) = low(xi) * scaling_low(xi) and the analogous identity
    for every high-pass channel.
    """
    xi = np.asarray(grid, dtype=float)
    if xi.size == 0:
        raise ValueError("grid must be nonempty")
    base = bank.scaling_low(xi)
    residual = np.abs(bank.scaling_low(2.0 * xi) - bank.low(xi) * base).max()
    for high, scaling in zip(bank.highs, bank.scaling_highs):
        res = np.abs(scaling(2.0 * xi) - high(xi) * base).max()
        residual = max(residual, res)
    return float(residual)


def _symbol_to_dict(symbol: SpectralSymbol) -> dict:
    return {"pieces": [asdict(p) for p in symbol.pieces]}


def _symbol_from_dict(doc: dict) -> SpectralSymbol:
    return SpectralSymbol(
        pieces=tuple(
            Piece(
                float(p["lo"]), float(p["hi"]), p["kind"],
                **{key: float(p[key]) for key in ("value", "scale", "offset") if key in p},
            )
            for p in doc["pieces"]
        )
    )


def bank_to_dict(bank: FilterBank) -> dict:
    return {
        "name": bank.name,
        "low": _symbol_to_dict(bank.low),
        "highs": [_symbol_to_dict(s) for s in bank.highs],
        "scaling_low": _symbol_to_dict(bank.scaling_low),
        "scaling_highs": [_symbol_to_dict(s) for s in bank.scaling_highs],
    }


def bank_from_dict(doc: dict) -> FilterBank:
    """Inverse of bank_to_dict; doc must be valid under cli.BANK_SCHEMA, and
    unknown keys are ignored."""
    return FilterBank(
        low=_symbol_from_dict(doc["low"]),
        highs=tuple(map(_symbol_from_dict, doc["highs"])),
        scaling_low=_symbol_from_dict(doc["scaling_low"]),
        scaling_highs=tuple(map(_symbol_from_dict, doc["scaling_highs"])),
        name=doc.get("name", "custom"),
    )
