"""Per-layer tracing of triframe from outside its source tree.

`Tracer.install()` replaces the public functions of `basis`, `quadrature`,
`filters`, `transform` and `cli` with wrappers that record a span (layer,
start, end, parent) and a few shape-derived counters, and `uninstall()` puts
the originals back.  Every alias a caller looks up is patched: `quadrature`
and `transform` import `basis_matrix` by name, `cli` reaches `transform.*`
and `quadrature.*` through the modules, and the package re-exports most
names.  FLOP and byte counters are computed from array shapes, not measured.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

import triframe
from triframe import basis, cli, filters, quadrature, transform

#: layers whose self time per op is reported as `<layer>.s`
LAYERS = (
    "basis.basis_matrix",
    "quadrature.weighted_basis",
    "quadrature.kronecker_lattice",
    "quadrature.gram_matrix",
    "quadrature.exactness_degree",
    "quadrature.generalized_tightness_residual",
    "transform.synthesis",
    "transform.spectral",
    "transform.framelet_values",
    "transform.serialize",
    "transform.deserialize",
    "cli.schema_validate",
    "cli.json_load",
    "cli.json_write",
    "cli.csv_write",
    "cli.main",
    "filters.symbol_eval",
    "filters.check_partition",
)

# (owner, attribute) pairs patched for each layer; a module appears once per
# place a caller can look the function up.
_FUNCTIONS = {
    "basis.basis_matrix": [
        (basis, "basis_matrix"), (quadrature, "basis_matrix"),
        (transform, "basis_matrix"), (triframe, "basis_matrix"),
    ],
    "quadrature.kronecker_lattice": [
        (quadrature, "kronecker_lattice"), (triframe, "kronecker_lattice"),
    ],
    "quadrature.gram_matrix": [
        (quadrature, "gram_matrix"), (triframe, "gram_matrix"),
    ],
    "quadrature.exactness_degree": [
        (quadrature, "exactness_degree"), (triframe, "exactness_degree"),
    ],
    "quadrature.generalized_tightness_residual": [
        (quadrature, "generalized_tightness_residual"),
        (triframe, "generalized_tightness_residual"),
    ],
    "transform.synthesis": [
        (transform, "dft"), (triframe, "dft"),
        (transform, "adjoint_dft"), (triframe, "adjoint_dft"),
    ],
    "transform.spectral": [
        (transform, "analyze_lowpass"), (triframe, "analyze_lowpass"),
        (transform, "multilevel_decompose"), (triframe, "multilevel_decompose"),
        (transform, "multilevel_reconstruct"), (triframe, "multilevel_reconstruct"),
    ],
    "transform.framelet_values": [
        (transform, "framelet_values"), (triframe, "framelet_values"),
    ],
    "transform.serialize": [
        (transform, "tree_to_dict"), (transform, "sequence_to_dict"),
    ],
    "transform.deserialize": [
        (transform, "tree_from_dict"), (transform, "sequence_from_dict"),
    ],
    "cli.json_load": [(cli, "_load_json")],
    "cli.json_write": [(cli, "_write_json")],
    "cli.csv_write": [(cli, "_write_csv")],
    "cli.main": [(cli, "main")],
    "filters.symbol_eval": [(filters.SpectralSymbol, "__call__")],
    "filters.check_partition": [
        (filters, "check_partition"), (triframe, "check_partition"),
    ],
}


class Tracer:
    """Spans and counters of the ops run while installed.

    A span is [op, layer, start, end, parent index]; spans of one op share
    the op number.  Spans stay in memory until `dump` writes them out.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def _open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.op, layer, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.counts[layer + ".calls"] += 1
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer: str, fn, meter=None):
        signature = inspect.signature(fn) if meter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if meter is not None:
                meter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # -- counters computed from shapes ---------------------------------
    def _meter_basis_matrix(self, args, table):
        self.counts["basis.basis_matrix.cells"] += table.size

    def _meter_gram(self, args, gram):
        dim = gram.entries.shape[0]
        self.counts["quadrature.gram_matrix.flops"] += 2.0 * args["rule"].size * dim * dim

    def _meter_apply(self, rows: int, cols: int, is_complex: bool) -> None:
        # complex input is applied as two real matrix-vector products
        passes = 2 if is_complex else 1
        self.counts["transform.synthesis.flops"] += passes * 2.0 * rows * cols
        self.counts["transform.synthesis.bytes"] += passes * 8.0 * rows * cols

    def _meter_dft(self, args, values):
        self._meter_apply(args["rule"].size, basis.tri_dim(args["u"].cutoff), True)

    def _meter_adjoint(self, args, spectral):
        self._meter_apply(args["rule"].size, basis.tri_dim(spectral.cutoff), True)

    def _meter_json_write(self, args, _):
        self.counts["cli.json_bytes"] += os.path.getsize(args["path"])

    # -- wrappers that need the state before the call -----------------
    def _wrap_weighted_basis(self, fn):
        layer = "quadrature.weighted_basis"

        @functools.wraps(fn)
        def traced(rule, cutoff):
            built = self.counts["basis.basis_matrix.calls"]
            idx = self._open(layer)
            try:
                table = fn(rule, cutoff)
            finally:
                self._close(idx)
            if self.counts["basis.basis_matrix.calls"] > built:
                self.counts[layer + ".misses"] += 1
                self.counts[layer + ".bytes_built"] += table.nbytes
            else:
                self.counts[layer + ".hits"] += 1
            return table

        return traced

    def _wrap_values(self, fget):
        layer = "transform.synthesis"

        @functools.wraps(fget)
        def traced(seq):
            fresh = seq._values is None
            idx = self._open(layer)
            try:
                values = fget(seq)
            finally:
                self._close(idx)
            if fresh:
                self._meter_apply(
                    seq.rule.size, basis.tri_dim(seq.spectral.cutoff),
                    values.dtype.kind == "c",
                )
            return values

        return traced

    def _traced_validator(self, factory):
        tracer = self

        class Validator:
            def __init__(self, schema, *args, **kwargs):
                self._inner = factory(schema, *args, **kwargs)

            def validate(self, instance):
                idx = tracer._open("cli.schema_validate")
                try:
                    return self._inner.validate(instance)
                finally:
                    tracer._close(idx)

        return Validator

    # -- install / uninstall --------------------------------------------
    def _patch(self, owner, name, replacement) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Patch every traced alias; the originals are kept for uninstall."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        meters = {
            "basis_matrix": self._meter_basis_matrix,
            "gram_matrix": self._meter_gram,
            "dft": self._meter_dft,
            "adjoint_dft": self._meter_adjoint,
            "_write_json": self._meter_json_write,
        }
        wrapped: dict[int, object] = {}
        for layer, places in _FUNCTIONS.items():
            for owner, name in places:
                fn = owner.__dict__[name]
                # one wrapper per function object, shared by all its aliases
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(layer, fn, meters.get(name))
                self._patch(owner, name, wrapped[id(fn)])
        rule_cls = quadrature.QuadratureRule
        self._patch(
            rule_cls, "weighted_basis",
            self._wrap_weighted_basis(rule_cls.__dict__["weighted_basis"]),
        )
        seq_cls = transform.CoefficientSequence
        self._patch(
            seq_cls, "values",
            property(self._wrap_values(seq_cls.__dict__["values"].fget)),
        )
        self._patch(
            cli, "Draft202012Validator",
            self._traced_validator(cli.__dict__["Draft202012Validator"]),
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- reporting -------------------------------------------------------
    def self_times(self) -> tuple[dict, dict]:
        """(layer -> total self seconds, op -> seconds covered by root spans)."""
        child = [0.0] * len(self.spans)
        for op, layer, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        per_layer: dict[str, float] = defaultdict(float)
        covered: dict[int, float] = defaultdict(float)
        for i, (op, layer, start, end, parent) in enumerate(self.spans):
            per_layer[layer] += end - start - child[i]
            if parent is None:
                covered[op] += end - start
        return per_layer, covered

    def dump(self) -> list[dict]:
        return [
            {"op": op, "layer": layer, "start": start, "end": end, "parent": parent}
            for op, layer, start, end, parent in self.spans
        ]
