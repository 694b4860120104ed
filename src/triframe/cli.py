"""Command-line front end: lattices, transforms, diagnostics, figure data.

Artifacts are JSON (rules, spectral vectors, coefficient trees, reports) and
CSV (sampled grids).  Outputs are written atomically; exit code 0 means
success, 2 a validation failure and 3 a numerical-tolerance failure in a
check command or a round trip.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import basis, filters, quadrature, transform

MAX_LEVEL = 8
MAX_GRID = 2048

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3
# transform --roundtrip exits EXIT_TOLERANCE when its relative residual exceeds this
ROUNDTRIP_TOL = 1e-12


class ToleranceFailure(Exception):
    """A check command exceeded its numerical tolerance."""


class ValidationError(Exception):
    """A refused input, printed with the JSON path of the offending field, if any."""

    def __init__(self, message: str, absolute_path=()):
        super().__init__(message)
        self.message = message
        self.absolute_path = absolute_path


_PAIR = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}

SPECTRAL_SCHEMA = {
    "type": "object",
    "required": ["cutoff", "coeffs"],
    "properties": {
        "cutoff": {"type": "integer", "minimum": 0},
        "coeffs": {"type": "array", "items": _PAIR},
    },
    "additionalProperties": False,
}

SEQUENCE_SCHEMA = {
    "type": "object",
    "required": ["channel", "j", "rule_ref", "v", "spectral"],
    "properties": {
        "channel": {"enum": ["low", "high"]},
        "j": {"type": "integer", "minimum": 0},
        "n": {"type": "integer", "minimum": 1},
        "rule_ref": {"type": "string"},
        "v": {"type": "array", "items": _PAIR},
        "spectral": SPECTRAL_SCHEMA,
    },
    "additionalProperties": False,
}

TREE_SCHEMA = {
    "type": "object",
    "required": ["J", "r", "levels"],
    "properties": {
        "J": {"type": "integer", "minimum": 1},
        "r": {"type": "integer", "minimum": 1},
        "levels": {"type": "array", "items": SEQUENCE_SCHEMA, "minItems": 2},
    },
    "additionalProperties": False,
}

_SYMBOL = {
    "type": "object",
    "required": ["pieces"],
    "properties": {
        "pieces": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["lo", "hi", "kind"],
                "properties": {
                    "lo": {"type": "number"},
                    "hi": {"type": "number"},
                    "kind": {"enum": ["const", "cos_nu", "sin_nu", "cos2_nu", "cossin_nu"]},
                    "value": {"type": "number"},
                    "scale": {"type": "number"},
                    "offset": {"type": "number"},
                },
            },
        },
    },
}

# unknown keys are ignored
BANK_SCHEMA = {
    "type": "object",
    "required": ["low", "highs", "scaling_low", "scaling_highs"],
    "properties": {
        "name": {"type": "string"},
        "low": _SYMBOL,
        "highs": {"type": "array", "items": _SYMBOL},
        "scaling_low": _SYMBOL,
        "scaling_highs": {"type": "array", "items": _SYMBOL},
    },
}

# the JSON types the schemas name, as Draft 2020-12 reads them: a bool is no
# number, and an integer may be spelled as a float (1.0)
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "integer": lambda x: _TYPES["number"](x) and (isinstance(x, int) or x.is_integer()),
}
# orjson.loads yields exactly these types for a JSON number; type(True) is bool
_NUMERIC = (int, float)


def _faults(schema: dict, doc, path: tuple):
    """A ValidationError for each fault of doc under schema, in Draft 2020-12
    order (keywords in schema order, depth first) and in the wording of the
    reference validator the tests compare against.  A keyword the schemas
    above do not use raises where it applies."""
    for keyword, value in schema.items():
        message = None
        if keyword == "type" and isinstance(value, str) and value in _TYPES:
            if not _TYPES[value](doc):
                message = f"{doc!r} is not of type {value!r}"
        elif keyword == "enum":
            if doc not in value:
                message = f"{doc!r} is not one of {value!r}"
        elif keyword == "minimum":
            if _TYPES["number"](doc) and doc < value:
                message = f"{doc!r} is less than the minimum of {value!r}"
        elif keyword == "minItems":
            if isinstance(doc, list) and len(doc) < value:
                message = f"{doc!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif keyword == "maxItems":
            if isinstance(doc, list) and len(doc) > value:
                message = f"{doc!r} {'is expected to be empty' if value == 0 else 'is too long'}"
        elif keyword == "required":
            if isinstance(doc, dict):
                for name in value:
                    if name not in doc:
                        yield ValidationError(f"{name!r} is a required property", path)
        elif keyword == "additionalProperties" and value is False:
            extras = isinstance(doc, dict) and sorted(
                (name for name in doc if name not in schema.get("properties", {})), key=str
            )
            if extras:
                message = (f"Additional properties are not allowed ({', '.join(map(repr, extras))}"
                           f" {'was' if len(extras) == 1 else 'were'} unexpected)")
        elif keyword == "properties":
            if isinstance(doc, dict):
                for name, sub in value.items():
                    if name in doc:
                        yield from _faults(sub, doc[name], (*path, name))
        elif keyword == "items" and isinstance(value, dict):
            pairs = value is _PAIR  # one typed pass; only a refused pair is walked
            for i, item in enumerate(doc if isinstance(doc, list) else ()):
                if not (pairs and type(item) is list and len(item) == 2
                        and type(item[0]) in _NUMERIC and type(item[1]) in _NUMERIC):
                    yield from _faults(value, item, (*path, i))
        else:
            raise NotImplementedError(f"schema keyword {keyword!r}: {value!r}")
        if message is not None:
            yield ValidationError(message, path)


class Draft202012Validator:
    """The schemas' validator: iter_errors yields every fault, validate raises
    the first."""

    def __init__(self, schema: dict):
        self.schema = schema

    def iter_errors(self, doc):
        return _faults(self.schema, doc, ())

    def validate(self, doc) -> None:
        for err in self.iter_errors(doc):
            raise err


def _validate(schema: dict, doc) -> None:
    """Refuse doc, with its first fault's message and path, unless it meets schema."""
    try:
        Draft202012Validator(schema).validate(doc)
    except RecursionError:  # a message reprs the deepest nesting
        raise ValidationError("document nested too deeply") from None


def _cgroup_memory_limits(
    proc: Path = Path("/proc/self/cgroup"), mount: Path = Path("/sys/fs/cgroup")
):
    """Memory limits of this process's cgroup and its ancestors (v1 or v2)."""
    try:
        entries = proc.read_text().splitlines()
    except OSError:
        return
    for entry in entries:
        _, controllers, path = entry.split(":", 2)
        if controllers == "":
            root, name = mount, "memory.max"
        elif "memory" in controllers.split(","):
            root, name = mount / "memory", "memory.limit_in_bytes"
        else:
            continue
        parts = Path(path).parts[1:]
        for depth in range(len(parts), -1, -1):
            try:
                yield int((root.joinpath(*parts[:depth]) / name).read_text())
            except (OSError, ValueError):  # absent, or "max" for no limit
                pass


def table_budget_bytes() -> int:
    """Largest footprint a command may count: half of the memory limit.

    The limit is physical memory, or the cgroup limit when that is lower.  The
    other half is headroom for what the count leaves out: the lower levels,
    the artifacts' Python objects and the interpreter.
    """
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return min([physical, *_cgroup_memory_limits()]) // 2


def _check_table_budget(command: str, level: int) -> None:
    """Refuse, before building anything, a level whose largest arrays cannot fit.

    Each command counts the level-J rule's node factors, two (L+1, N) arrays.
    transform adds the engine's product buffer, basis.PRODUCT_BYTES;
    gen-lattice and diagnostics add the engine's (L+1)^3 conversion, one
    node block's table in quadrature.gram_matrix, that block's product and
    the Gram, which diagnostics turns in place into the tightness defect.
    """
    n = quadrature.lattice_size(level)
    cutoff = basis.degree_cutoff(level)
    dim = basis.tri_dim(cutoff)
    need = 16 * n * (cutoff + 1)
    if command == "transform":
        need += basis.PRODUCT_BYTES
    else:
        need += 8 * ((cutoff + 1) ** 3 + dim * min(n, quadrature.GRAM_BLOCK) + 2 * dim**2)
    budget = table_budget_bytes()
    if need > budget:
        raise ValidationError(
            f"{command} at level {level} needs {need / 1e9:.2f} GB, over the "
            f"budget of {budget / 1e9:.2f} GB (half of the memory limit)"
        )


def _resolve_out(out: str | None, default_name: str) -> Path:
    if out is not None:
        return Path(out)
    return Path(os.environ.get("FRAMELET_DATA_DIR", ".")) / default_name


def _atomic_write(path: Path, chunks) -> None:
    """Write the bytes of chunks, in turn, to a temp file renamed to path.

    Mode 0o666 gives the artifact 0o666 & ~umask, as a plain open() would.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(4).hex()}"
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# rows of an array formatted per orjson call, so no artifact's text is held whole
_CHUNK_ROWS = 1024


def _float_text(block: np.ndarray) -> bytes:
    """The nested-list text orjson writes for a C-contiguous float64 array,
    with each number spelled repr(float(v)).

    orjson prints repr's shortest digits (Ryu), but spells nonzero magnitudes
    below 1e-4 or from 1e16 on its own way and writes NaN and infinities as
    null.  Those positions are set to NaN, and each null orjson writes for
    them is replaced by the value's repr.
    """
    import orjson

    magnitude = np.abs(block)
    respelled = ((magnitude < 1e-4) | ~(magnitude < 1e16)) & (block != 0.0)
    if not respelled.any():
        return orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
    parts = orjson.dumps(
        np.where(respelled, np.nan, block), option=orjson.OPT_SERIALIZE_NUMPY
    ).split(b"null")
    text = [b""] * (2 * len(parts) - 1)
    text[::2] = parts
    text[1::2] = [repr(v).encode() for v in block[respelled].tolist()]
    return b"".join(text)


def _json_array(arr: np.ndarray):
    """json.dumps(arr.tolist(), allow_nan=False) of a float64 array, in pieces."""
    if arr.dtype != np.float64:
        raise TypeError(f"arrays are written as float64, not {arr.dtype}")
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        json.dumps(float(bad[0]), allow_nan=False)  # raises json's own ValueError
    yield b"["
    for start in range(0, len(arr), _CHUNK_ROWS):
        chunk = np.ascontiguousarray(arr[start:start + _CHUNK_ROWS])
        yield (b", " if start else b"") + _float_text(chunk)[1:-1].replace(b",", b", ")
    yield b"]"


def _json_chunks(obj):
    """json.dumps(obj, allow_nan=False) in pieces, for documents with str keys
    whose float64 arrays stand for the nested lists of their tolist()."""
    if isinstance(obj, np.ndarray):
        yield from _json_array(obj)
    elif isinstance(obj, dict):
        sep = b"{"
        for key, value in obj.items():
            yield sep + json.dumps(key).encode() + b": "
            yield from _json_chunks(value)
            sep = b", "
        yield b"}" if obj else b"{}"
    elif isinstance(obj, (list, tuple)):
        sep = b"["
        for value in obj:
            yield sep
            yield from _json_chunks(value)
            sep = b", "
        yield b"]" if obj else b"[]"
    else:
        yield json.dumps(obj, allow_nan=False).encode()


def _write_json(path: Path, doc: dict) -> None:
    # no indent, json's default separators; NaN and Infinity are refused, so
    # no artifact holds them
    _atomic_write(path, itertools.chain(_json_chunks(doc), [b"\n"]))


def _write_csv(path: Path, header: list, columns) -> None:
    """One row per index of the equal-length columns, each value repr(float(v))."""
    columns = [np.asarray(col, dtype=float) for col in columns]

    def rows():
        yield (",".join(header) + "\n").encode()
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            block = np.column_stack([col[start:start + _CHUNK_ROWS] for col in columns])
            # [a,b,c,d] -> a,b\nc,d\n: every len(columns)-th comma and the
            # closing bracket end a row
            text = np.frombuffer(_float_text(block.ravel()), dtype=np.uint8)[1:].copy()
            text[-1] = ord("\n")
            text[np.flatnonzero(text == ord(","))[len(columns) - 1::len(columns)]] = ord("\n")
            yield text.tobytes()

    _atomic_write(path, rows())


def _load_json(path: str) -> dict:
    """Parse strict JSON: orjson refuses NaN, Infinity and any number that
    overflows a double as malformed JSON, with a line and column."""
    import orjson

    return orjson.loads(Path(path).read_bytes())


def _load_bank(name: str) -> filters.FilterBank:
    if name == filters.DEFAULT_BANK_NAME:
        return filters.default_bank()
    if not os.path.exists(name):
        raise ValidationError(f"unknown bank {name!r} (not the shipped name or a file)")
    doc = _load_json(name)
    _validate(BANK_SCHEMA, doc)
    bank = filters.bank_from_dict(doc)
    if bank.name == filters.DEFAULT_BANK_NAME and bank != filters.default_bank():
        raise ValidationError(f"the name {bank.name!r} is reserved for the shipped bank")
    return bank


def _build_system(args, levels: int, rules: str = "kronecker") -> transform.FrameletSystem:
    bank = _load_bank(args.bank)
    if rules == "reference":
        return transform.reference_system(bank, levels)
    return transform.kronecker_system(bank, levels, args.generator, args.shift, args.strategy)


def cmd_gen_lattice(args: argparse.Namespace) -> int:
    _check_table_budget(args.command, args.level)
    rule = quadrature.kronecker_lattice(args.level, args.generator, args.shift, args.strategy)
    out = _resolve_out(args.out, f"lattice_j{args.level}.json")
    _write_json(out, quadrature.rule_to_dict(rule))
    cutoff = basis.degree_cutoff(args.level)
    deviation = quadrature.gram_matrix(rule, cutoff).max_deviation_from_identity()
    print(f"nodes: {rule.size}")
    print(f"gram deviation at cutoff {cutoff}: {deviation:.6e}")
    print(f"wrote {out}")
    return EXIT_OK


def _spectral_from_doc(doc: dict, levels: int) -> basis.SpectralVector:
    _validate(SPECTRAL_SCHEMA, doc)
    cutoff = int(doc["cutoff"])
    cap = basis.degree_cutoff(levels)
    if cutoff > cap:
        raise ValidationError(
            f"spectral cutoff {cutoff} exceeds the level-{levels} cap {cap}"
        )
    return basis.SpectralVector(cutoff, transform._pairs_to_array(doc["coeffs"]))


def cmd_transform(args: argparse.Namespace) -> int:
    _check_table_budget(args.command, args.level)
    doc = _load_json(args.input)
    sys_ = _build_system(args, args.level)
    if args.mode in ("decompose", "roundtrip"):
        f = _spectral_from_doc(doc, args.level)
        top = transform.analyze_lowpass(sys_, f, args.level)
        tree = transform.multilevel_decompose(sys_, top)
        out = _resolve_out(args.out, f"tree_J{args.level}.json")
        _write_json(out, transform.tree_to_dict(tree, fixed_order=args.bit_repro))
        print(f"coefficients: {tree.coefficient_count()}")
        print(f"wrote {out}")
        if args.mode == "roundtrip":
            recon = transform.multilevel_reconstruct(sys_, tree)
            residual = transform.relative_difference(top, recon)
            print(f"round-trip residual: {residual:.3e}")
            if not residual <= ROUNDTRIP_TOL:
                raise ToleranceFailure(
                    f"round-trip residual {residual:.3e} exceeds tolerance {ROUNDTRIP_TOL:.1e}"
                )
    else:
        _validate(TREE_SCHEMA, doc)
        tree = transform.tree_from_dict(doc, sys_)
        recon = transform.multilevel_reconstruct(sys_, tree)
        out = _resolve_out(args.out, f"coefficients_j{recon.level}.json")
        _write_json(
            out, transform.sequence_to_dict(recon, channel="low", fixed_order=args.bit_repro)
        )
        print(f"reconstructed level {recon.level} ({len(recon)} coefficients)")
        print(f"wrote {out}")
    return EXIT_OK


def cmd_diagnostics(args: argparse.Namespace) -> int:
    if args.level < 1:
        raise ValidationError("diagnostics needs level >= 1")
    _check_table_budget(args.command, args.level)
    sys_ = _build_system(args, args.level, args.rules)
    bank = sys_.bank
    grid = np.linspace(0.0, 0.5, 10001)
    partition = filters.check_partition(bank, grid)
    refinement = filters.check_refinement(bank, grid)

    levels, tightness = [], []
    cap = 2 * basis.degree_cutoff(args.level) + 2
    for j in range(args.level + 1):
        rule = sys_.rule(j)
        cutoff = basis.degree_cutoff(j)
        gram = quadrature.gram_matrix(rule, cutoff)
        levels.append(
            {
                "j": j,
                "nodes": rule.size,
                "gram_deviation": gram.max_deviation_from_identity(),
                "exactness_degree": quadrature.exactness_degree(
                    rule, args.tol, max_degree=cap
                ),
            }
        )
        if j >= 1:
            # turns the level's one Gram into the tightness defect
            residual = quadrature.generalized_tightness_residual(
                sys_.rule(j - 1), rule, bank, j, cutoff, gram
            )
            tightness.append({"j": j, "residual": residual})
        del gram  # before the next level's is built
    band = basis.degree_cutoff(args.level - 1)
    rng = np.random.default_rng(0)
    f = basis.SpectralVector(
        band,
        rng.standard_normal(basis.tri_dim(band))
        + 1j * rng.standard_normal(basis.tri_dim(band)),
    )
    parseval = transform.parseval_report(sys_, f, args.level)

    report = {
        "bank": bank.name,
        "rules": args.rules,
        "tolerance": args.tol,
        "partition_residual": partition,
        "refinement_residual": refinement,
        "levels": levels,
        "generalized_tightness": tightness,
        "parseval": {
            "band_cutoff": band,
            "seed": 0,
            "levels": parseval["levels"],
            "top_residual": parseval["top"]["residual"],
        },
        "notes": [
            "transforms synthesize by collapsed-coordinate sum factorization,"
            " O(N_j * L_j^2) per level for degree cutoff L_j; a fast basis"
            " transform is not implemented, so FFT-speed scaling is not reproduced",
        ],
    }
    out = _resolve_out(args.out, f"diagnostics_J{args.level}.json")
    _write_json(out, report)

    print(f"bank {bank.name}: partition residual {partition:.3e}, "
          f"refinement residual {refinement:.3e}")
    for row in levels:
        print(
            f"level {row['j']}: {row['nodes']} nodes, exactness degree "
            f"{row['exactness_degree']}, gram deviation {row['gram_deviation']:.3e}"
        )
    for row in tightness:
        print(f"tightness residual at j={row['j']}: {row['residual']:.3e}")
    print(f"parseval top residual: {report['parseval']['top_residual']:.3e}")
    print(f"wrote {out}")

    if partition > args.tol or refinement > args.tol:
        raise ToleranceFailure(
            f"mask identities exceed tolerance {args.tol:.1e} "
            f"(partition {partition:.3e}, refinement {refinement:.3e})"
        )
    if args.rules == "reference":
        # exact rules make these vanish to roundoff, so they certify the frame;
        # lattice rules are inexact by design and only report them
        worst = {
            "gram deviation": np.max([row["gram_deviation"] for row in levels]),
            "tightness": np.max([row["residual"] for row in tightness]),
            "parseval": np.max(
                [row["residual"] for row in parseval["levels"]] + [parseval["top"]["residual"]]
            ),
        }
        if not all(value <= args.tol for value in worst.values()):
            details = ", ".join(f"{name} {value:.3e}" for name, value in worst.items())
            raise ToleranceFailure(
                f"reference residuals exceed tolerance {args.tol:.1e} ({details})"
            )
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    if not 2 <= args.grid <= MAX_GRID:
        raise ValidationError(f"grid resolution must lie in 2..{MAX_GRID}")
    if args.kind == "masks":
        bank = _load_bank(args.bank)
        transform.require_partition(bank)
        xi = np.linspace(0.0, 0.5, args.grid)
        columns = [xi, bank.low(xi)]
        header = ["xi", "a_hat"]
        for n, high in enumerate(bank.highs, start=1):
            columns.append(high(xi))
            header.append(f"b{n}_hat")
        out = _resolve_out(args.out, f"masks_{args.grid}.csv")
        _write_csv(out, header, columns)
        print(f"wrote {out}")
        return EXIT_OK

    if args.kind == "low":
        kind, n = "low", 1
        levels = args.level
    else:
        kind, n = "high", int(args.kind[-1])
        levels = args.level + 1
    if levels > MAX_LEVEL:
        raise ValidationError("sampling a high-pass at the top level exceeds the level guard")
    sys_ = _build_system(args, levels)
    pts = transform.triangle_grid(args.grid)
    values = transform.framelet_values(sys_, kind, args.level, args.node, pts, n=n)
    out = _resolve_out(args.out, f"framelet_{args.kind}_j{args.level}_k{args.node}.csv")
    _write_csv(out, ["x1", "x2", "value"], (pts[:, 0], pts[:, 1], values))
    print(f"wrote {out}")
    return EXIT_OK


def _add_lattice_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--generator", nargs=2, type=float, metavar=("G1", "G2"),
        default=list(quadrature.DEFAULT_GENERATOR),
        help="lattice generator pair (default: frac sqrt2, frac sqrt3)",
    )
    parser.add_argument(
        "--shift", nargs=2, type=float, metavar=("S1", "S2"),
        default=list(quadrature.DEFAULT_SHIFT), help="lattice shift pair",
    )
    parser.add_argument(
        "--strategy", choices=["fold", "intersect"], default="fold",
        help="mapping of unit-square lattice points into the triangle",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triframe",
        description="Tight framelet transforms on the unit triangle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-lattice", help="generate a Kronecker lattice rule")
    p_gen.add_argument("--level", "-j", type=int, required=True)
    _add_lattice_args(p_gen)
    p_gen.add_argument("--out", default=None)

    p_tr = sub.add_parser("transform", help="multi-level framelet transforms")
    mode = p_tr.add_mutually_exclusive_group(required=True)
    mode.add_argument("--decompose", action="store_const", dest="mode", const="decompose")
    mode.add_argument("--reconstruct", action="store_const", dest="mode", const="reconstruct")
    mode.add_argument("--roundtrip", action="store_const", dest="mode", const="roundtrip")
    p_tr.add_argument("--level", "-j", type=int, required=True, help="top level J")
    p_tr.add_argument("--input", required=True, help="spectral vector or tree JSON")
    p_tr.add_argument("--bank", default=filters.DEFAULT_BANK_NAME)
    p_tr.add_argument(
        "--bit-repro", action="store_true",
        help="sum written point values in a fixed order: same bytes under any BLAS threading",
    )
    _add_lattice_args(p_tr)
    p_tr.add_argument("--out", default=None)

    p_diag = sub.add_parser("diagnostics", help="tightness and exactness report")
    p_diag.add_argument("--level", "-j", type=int, default=4)
    p_diag.add_argument("--tol", type=float, default=1e-12)
    p_diag.add_argument("--rules", choices=["kronecker", "reference"], default="kronecker")
    p_diag.add_argument("--bank", default=filters.DEFAULT_BANK_NAME)
    _add_lattice_args(p_diag)
    p_diag.add_argument("--out", default=None)

    p_sample = sub.add_parser("sample", help="sample framelets or masks to CSV")
    p_sample.add_argument(
        "--kind", required=True, choices=["low", "high1", "high2", "masks"]
    )
    p_sample.add_argument("--level", "-j", type=int, default=5)
    p_sample.add_argument("--node", "-k", type=int, default=0)
    p_sample.add_argument("--grid", type=int, default=256)
    p_sample.add_argument("--bank", default=filters.DEFAULT_BANK_NAME)
    _add_lattice_args(p_sample)
    p_sample.add_argument("--out", default=None)

    return parser


_COMMANDS = {
    "gen-lattice": cmd_gen_lattice,
    "transform": cmd_transform,
    "diagnostics": cmd_diagnostics,
    "sample": cmd_sample,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not 0 <= args.level <= MAX_LEVEL:
            raise ValidationError(f"level must lie in 0..{MAX_LEVEL}")
        return _COMMANDS[args.command](args)
    except ToleranceFailure as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except ValidationError as exc:
        location = "/".join(str(p) for p in exc.absolute_path)
        where = f" at /{location}" if location else ""
        print(f"validation error{where}: {exc.message}", file=sys.stderr)
        return EXIT_VALIDATION
    except json.JSONDecodeError as exc:
        print(
            f"malformed JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    except (basis.DomainError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
