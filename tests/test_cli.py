import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from triframe import basis, cli, quadrature
from triframe.basis import degree_cutoff, tri_dim
from triframe.filters import FilterBank, bank_to_dict, default_bank
from triframe.quadrature import kronecker_lattice, lattice_size, rule_from_dict, rule_to_dict
from triframe.transform import triangle_grid


def _write_spectral(path, cutoff, rng=None):
    if rng is None:
        coeffs = [[1.0, 0.0]] + [[0.0, 0.0]] * (tri_dim(cutoff) - 1)
    else:
        coeffs = [
            [float(a), float(b)]
            for a, b in rng.standard_normal((tri_dim(cutoff), 2))
        ]
    path.write_text(json.dumps({"cutoff": cutoff, "coeffs": coeffs}))


def test_gen_lattice(tmp_path, capsys):
    out = tmp_path / "rule.json"
    assert cli.main(["gen-lattice", "-j", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    want = rule_to_dict(kronecker_lattice(3))
    assert doc == json.loads(json.dumps(want, default=np.ndarray.tolist))
    assert len(doc["nodes"]) == 65
    rule = rule_from_dict(doc)
    assert rule.size == 65
    captured = capsys.readouterr().out
    assert "nodes: 65" in captured
    assert "gram deviation" in captured


def test_gen_lattice_json_round_trips_bitexactly(tmp_path):
    out = tmp_path / "rule.json"
    cli.main(["gen-lattice", "-j", "2", "--out", str(out)])
    text = out.read_text()
    doc = json.loads(text)
    rebuilt = json.dumps(
        cli.quadrature.rule_to_dict(rule_from_dict(doc)), default=np.ndarray.tolist
    ) + "\n"
    assert rebuilt == text


def test_gen_lattice_level_guard(tmp_path, capsys):
    assert cli.main(["gen-lattice", "-j", "9", "--out", str(tmp_path / "r.json")]) == 2
    assert "level" in capsys.readouterr().err


def _footprints(level):
    """Bytes each guarded command counts at a level, written out independently."""
    n, cut = lattice_size(level), degree_cutoff(level)
    dim = tri_dim(cut)
    factors = 2 * 8 * n * (cut + 1)  # node factors (Tu, Pv): two (L+1, N) arrays
    conversion = 8 * (cut + 1) ** 3
    block = 8 * dim * min(n, quadrature.GRAM_BLOCK)  # one node block's table
    return {
        # node factors and the engine's product buffer
        "transform": factors + basis.PRODUCT_BYTES,
        # node factors, conversion, one block table, its (dim, dim) product and the Gram
        "gen-lattice": factors + conversion + block + 8 * 2 * dim * dim,
        # the same: the Gram turns in place into the tightness defect, and the
        # coarse rule's block products reuse the table and product slots
        "diagnostics": factors + conversion + block + 8 * 2 * dim * dim,
    }


def test_level_whose_table_exceeds_the_budget_is_refused(tmp_path, capsys, monkeypatch):
    f_path = tmp_path / "f.json"
    _write_spectral(f_path, 0)
    commands = [
        ["transform", "--roundtrip", "-j", "3", "--input", str(f_path)],
        ["gen-lattice", "-j", "3"],
        ["diagnostics", "-j", "3"],
    ]
    needs = _footprints(3)
    for argv in commands:
        need = needs[argv[0]]
        monkeypatch.setattr(cli, "table_budget_bytes", lambda: need - 1)
        out = tmp_path / "out.json"
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"validation error: {argv[0]} at level 3 needs {need / 1e9:.2f} GB, over the "
            f"budget of {(need - 1) / 1e9:.2f} GB (half of the memory limit)\n"
        )
        assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]
    # sampling builds no rule factors or table, so the guard does not apply
    csv = tmp_path / "phi.csv"
    assert cli.main(["sample", "--kind", "low", "-j", "3", "--grid", "8", "--out", str(csv)]) == 0
    # a budget of exactly the count is met
    for argv in commands:
        need = needs[argv[0]]
        monkeypatch.setattr(cli, "table_budget_bytes", lambda: need)
        assert cli.main([*argv, "--out", str(tmp_path / f"{argv[0]}.json")]) == 0


def test_level_8_fits_an_8_gb_machine(monkeypatch):
    # half of 8.42 GB
    monkeypatch.setattr(cli, "table_budget_bytes", lambda: 4_210_000_000)
    for command in ("transform", "gen-lattice", "diagnostics"):
        cli._check_table_budget(command, 7)
        cli._check_table_budget(command, 8)
    # J=8 transform holds its node factors, 2 x 128 x 65537 x 8 B, and the
    # engine's 4 MiB product buffer
    assert _footprints(8)["transform"] == 138_414_080
    # no 65537 x 8256 table is held: the Gram and the block product are
    # 8256 x 8256 x 8 B = 0.55 GB each, the block table 8256 x 2048 x 8 B, the
    # node factors 2 x 128 x 65537 x 8 B and the conversion 128^3 x 8 B
    assert _footprints(8)["gen-lattice"] == 1_376_847_872
    assert _footprints(8)["diagnostics"] == 1_376_847_872
    # half of a 4 GB machine admits J=8 gen-lattice and diagnostics
    monkeypatch.setattr(cli, "table_budget_bytes", lambda: 2_000_000_000)
    for command in ("gen-lattice", "diagnostics"):
        cli._check_table_budget(command, 8)
    monkeypatch.setattr(cli, "table_budget_bytes", lambda: 1_000_000_000)
    with pytest.raises(cli.ValidationError, match="diagnostics at level 8 needs 1.38 GB"):
        cli._check_table_budget("diagnostics", 8)


def test_cgroup_memory_limits_are_read_up_the_hierarchy(tmp_path):
    proc = tmp_path / "cgroup"
    proc.write_text("5:cpu:/jobs\n4:memory:/jobs/a\n0::/svc\n")
    mount = tmp_path / "fs"
    files = {
        "memory/jobs/a/memory.limit_in_bytes": "3000000000\n",
        "memory/jobs/memory.limit_in_bytes": "2000000000\n",
        "memory/memory.limit_in_bytes": "9223372036854771712\n",
        "svc/memory.max": "max\n",
        "memory.max": "5000000000\n",
    }
    for name, text in files.items():
        (mount / name).parent.mkdir(parents=True, exist_ok=True)
        (mount / name).write_text(text)
    limits = list(cli._cgroup_memory_limits(proc, mount))
    assert limits == [3_000_000_000, 2_000_000_000, 9223372036854771712, 5_000_000_000]
    assert list(cli._cgroup_memory_limits(tmp_path / "absent", mount)) == []


def test_table_budget_is_half_the_lower_of_physical_memory_and_cgroup_limit(monkeypatch):
    physical = cli.os.sysconf("SC_PAGE_SIZE") * cli.os.sysconf("SC_PHYS_PAGES")
    monkeypatch.setattr(cli, "_cgroup_memory_limits", lambda: iter([]))
    assert cli.table_budget_bytes() == physical // 2
    monkeypatch.setattr(cli, "_cgroup_memory_limits", lambda: iter([physical + 2, 1000]))
    assert cli.table_budget_bytes() == 500


def test_transform_roundtrip_constant(tmp_path, capsys):
    f_path = tmp_path / "f.json"
    _write_spectral(f_path, 0)
    out = tmp_path / "tree.json"
    code = cli.main(
        ["transform", "--roundtrip", "-j", "3", "--input", str(f_path), "--out", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "round-trip residual" in captured
    residual = float(captured.split("round-trip residual:")[1].strip())
    assert residual <= 1e-12
    doc = json.loads(out.read_text())
    Draft202012Validator(cli.TREE_SCHEMA).validate(doc)
    assert doc["J"] == 3 and doc["r"] == 2
    # count: N_0 + r * sum N_j
    want = lattice_size(0) + 2 * sum(lattice_size(j) for j in (1, 2, 3))
    assert sum(len(e["v"]) for e in doc["levels"]) == want


def test_transform_decompose_then_reconstruct(tmp_path, rng):
    f_path = tmp_path / "f.json"
    _write_spectral(f_path, degree_cutoff(3), rng)
    tree_path = tmp_path / "tree.json"
    assert (
        cli.main(
            ["transform", "--decompose", "-j", "3", "--input", str(f_path),
             "--out", str(tree_path)]
        )
        == 0
    )
    seq_path = tmp_path / "seq.json"
    assert (
        cli.main(
            ["transform", "--reconstruct", "-j", "3", "--input", str(tree_path),
             "--out", str(seq_path)]
        )
        == 0
    )
    doc = json.loads(seq_path.read_text())
    Draft202012Validator(cli.SEQUENCE_SCHEMA).validate(doc)
    assert doc["j"] == 3
    assert len(doc["v"]) == lattice_size(3)


def test_transform_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"cutoff": 1, "coeffs": [[1, 0],')
    out = tmp_path / "tree.json"
    code = cli.main(
        ["transform", "--decompose", "-j", "2", "--input", str(bad), "--out", str(out)]
    )
    assert code == 2
    assert "line" in capsys.readouterr().err
    assert not out.exists()  # no partial output


def test_transform_cutoff_guard(tmp_path, capsys):
    f_path = tmp_path / "f.json"
    _write_spectral(f_path, degree_cutoff(3) + 1)
    code = cli.main(
        ["transform", "--decompose", "-j", "3", "--input", str(f_path),
         "--out", str(tmp_path / "t.json")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "validation error: spectral cutoff 4 exceeds the level-3 cap 3\n"


def test_transform_schema_violation(tmp_path, capsys):
    f_path = tmp_path / "f.json"
    f_path.write_text(json.dumps({"cutoff": 1, "coeffs": [[0.0, 0.0], [1.0], [0.0, 0.0]]}))
    code = cli.main(
        ["transform", "--decompose", "-j", "2", "--input", str(f_path),
         "--out", str(tmp_path / "t.json")]
    )
    assert code == 2
    assert "validation error" in capsys.readouterr().err


_401_DIGITS = "[[1%s, 0], [0, 0], [0, 0]]" % ("0" * 400)


# the case ids keep the names they had before the strict parser refused these
# numbers, when the messages were the ids' tails
@pytest.mark.parametrize(
    "coeffs, message",
    [
        pytest.param("[[NaN, 0], [1, 0], [0, Infinity]]", "unexpected character",
                     id="[[NaN, 0], [1, 0], [0, Infinity]]-validation error"),
        pytest.param("[[1, 0], [-Infinity, 0], [0, 0]]", "no digit after minus sign",
                     id="[[1, 0], [-Infinity, 0], [0, 0]]-validation error"),
        pytest.param("[[1e400, 0], [0, 0], [0, 0]]", "number is infinity when parsed as double",
                     id="[[1e400, 0], [0, 0], [0, 0]]-non-finite"),
        pytest.param(_401_DIGITS, "number is infinity when parsed as double",
                     id=f"{_401_DIGITS}-non-finite"),
    ],
)
def test_transform_rejects_non_finite_numbers(tmp_path, capsys, coeffs, message):
    f_path = tmp_path / "f.json"
    f_path.write_text('{"cutoff": 1, "coeffs": %s}' % coeffs)
    out = tmp_path / "t.json"
    code = cli.main(
        ["transform", "--roundtrip", "-j", "2", "--input", str(f_path),
         "--out", str(out)]
    )
    assert code == 2
    assert f"malformed JSON: {message} (line 1, column " in capsys.readouterr().err
    assert not out.exists()


def _input_document(tmp_path, rng, kind: str, level: int = 2):
    """A valid input document of kind, the J=level tree of a random spectrum
    for "tree", and the command reading it, without the path of the input."""
    if kind == "spectrum":
        return {"cutoff": 1, "coeffs": [[0.5, 0.0], [1.0, 0.0], [0.0, 0.0]]}, [
            "transform", "--roundtrip", "-j", "2", "--input"]
    if kind == "tree":
        f_path, tree_path = tmp_path / "f.json", tmp_path / "tree.json"
        _write_spectral(f_path, degree_cutoff(level), rng)
        argv = ["transform", "--decompose", "-j", str(level), "--input", str(f_path)]
        assert cli.main([*argv, "--out", str(tree_path)]) == 0
        return json.loads(tree_path.read_text()), [
            "transform", "--reconstruct", "-j", str(level), "--input"]
    return bank_to_dict(default_bank()), ["sample", "--kind", "masks", "--grid", "8", "--bank"]


def _spelled_at(doc, path: list, text: str) -> str:
    """json.dumps(doc, indent=1) with the value at path, or the whole
    document for an empty path, spelled as text."""
    if not path:
        return text
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "@"
    return json.dumps(doc, indent=1).replace('"@"', text)


def _refused_input(tmp_path, capsys, argv: list, text: str) -> str:
    """stderr of argv given an input file holding text, after checking that
    it exits 2 and writes nothing, neither an artifact nor stdout."""
    path = tmp_path / "input.json"
    path.write_text(text)
    out = tmp_path / "out.file"
    capsys.readouterr()
    assert cli.main([*argv, str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not out.exists()
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1
    return captured.err


# a number in each input kind: a coefficient, a tree entry's coefficient, a
# bank piece's bound
_NUMBER_AT = {
    "spectrum": ["coeffs", 1, 0],
    "tree": ["levels", 1, "spectral", "coeffs", 0, 0],
    "bank": ["low", "pieces", 0, "hi"],
}


@pytest.mark.parametrize(
    "literal",
    ["NaN", "-Infinity", "1e400", "-1e400", "1" + "0" * 400],
    ids=["NaN", "-Infinity", "1e400", "-1e400", "401-digits"],
)
@pytest.mark.parametrize("kind", sorted(_NUMBER_AT))
def test_number_outside_a_double_is_malformed_json(tmp_path, capsys, rng, kind, literal):
    doc, argv = _input_document(tmp_path, rng, kind)
    text = _spelled_at(doc, _NUMBER_AT[kind], literal)
    at = text.index(literal)
    line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    err = _refused_input(tmp_path, capsys, argv, text)
    assert re.fullmatch(rf"malformed JSON: .+ \(line {line}, column {column}\)\n", err), err


@pytest.mark.parametrize(
    "kind, path",
    [("spectrum", []), ("tree", ["levels", 1, "v", 0]), ("bank", ["name"])],
    ids=["spectrum", "tree-v", "bank-name"],
)
def test_deeply_nested_input_is_refused(tmp_path, capsys, rng, kind, path):
    doc, argv = _input_document(tmp_path, rng, kind)
    nesting = "[" * 100_000 + "]" * 100_000
    err = _refused_input(tmp_path, capsys, argv, _spelled_at(doc, path, nesting))
    # an orjson that limits nesting refuses the parse itself
    assert err == "validation error: document nested too deeply\n" or err.startswith(
        "malformed JSON: "
    )


# orjson reads an integer above 2**64 as a float; the range checks refuse it
@pytest.mark.parametrize("value", [2**64, 10**300], ids=["2^64", "10^300"])
@pytest.mark.parametrize(
    "kind, path, message",
    [
        ("spectrum", ["cutoff"], "validation error: spectral cutoff "),
        ("tree", ["levels", 1, "j"], "error: coefficient tree has no position (high, j="),
        ("tree", ["levels", 1, "n"], "error: coefficient tree has no position (high, j=0, n="),
    ],
    ids=["cutoff", "j", "n"],
)
def test_integer_field_beyond_its_range_is_refused(
    tmp_path, capsys, rng, kind, path, message, value
):
    doc, argv = _input_document(tmp_path, rng, kind)
    err = _refused_input(tmp_path, capsys, argv, _spelled_at(doc, path, str(value)))
    assert err.startswith(message), err


def test_transform_refuses_a_wrong_coefficient_count(tmp_path, capsys):
    f_path = tmp_path / "f.json"
    f_path.write_text('{"cutoff": 2, "coeffs": [[1, 0], [0, 0]]}')
    out = tmp_path / "t.json"
    code = cli.main(
        ["transform", "--roundtrip", "-j", "3", "--input", str(f_path), "--out", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: expected 6 coefficients for cutoff 2, got (2,)\n"
    assert not out.exists()


def test_transform_reconstruct_rejects_duplicate_entries(tmp_path, capsys, rng):
    doc, argv = _input_document(tmp_path, rng, "tree")
    doc["levels"].append(doc["levels"][1])
    err = _refused_input(tmp_path, capsys, argv, json.dumps(doc))
    assert err == "error: coefficient tree has a duplicate entry (high, j=0, n=1)\n"


@pytest.mark.parametrize("rule_ref", ["5", "kronecker_lattice/x"])
def test_transform_reconstruct_refuses_a_malformed_rule_ref(tmp_path, capsys, rng, rule_ref):
    doc, argv = _input_document(tmp_path, rng, "tree")
    doc["levels"][1]["rule_ref"] = rule_ref
    err = _refused_input(tmp_path, capsys, argv, json.dumps(doc))
    assert err == (
        f"error: high-pass entry at j=0 is on rule 'kronecker_lattice/1', not '{rule_ref}'\n"
    )


def _entry_at(doc: dict, channel: str, j: int) -> dict:
    return next(e for e in doc["levels"] if e["channel"] == channel and e["j"] == j)


_POSITIONS = "its positions are (low, j=0) and (high, j, n) for j < 2 and 1 <= n <= 2"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: _entry_at(doc, "high", 1).update(rule_ref="gauss_reference/2"),
         "error: high-pass entry at j=1 is on rule 'kronecker_lattice/2', "
         "not 'gauss_reference/2'"),
        (lambda doc: _entry_at(doc, "high", 0).update(rule_ref="kronecker_lattice/2"),
         "error: high-pass entry at j=0 is on rule 'kronecker_lattice/1', "
         "not 'kronecker_lattice/2'"),
        (lambda doc: _entry_at(doc, "low", 0).update(j=2),
         f"error: coefficient tree has no position (low, j=2); {_POSITIONS}"),
        (lambda doc: _entry_at(doc, "low", 0).update(n=1),
         f"error: coefficient tree has no position (low, j=0, n=1); {_POSITIONS}"),
        (lambda doc: doc.update(r=1), "error: tree has r=1, the bank has 2 high-pass masks"),
        (lambda doc: _entry_at(doc, "high", 1).update(j=2),
         f"error: coefficient tree has no position (high, j=2, n=1); {_POSITIONS}"),
        (lambda doc: _entry_at(doc, "high", 1).update(n=3),
         f"error: coefficient tree has no position (high, j=1, n=3); {_POSITIONS}"),
        (lambda doc: _entry_at(doc, "high", 1).pop("n"),
         f"error: coefficient tree has no position (high, j=1); {_POSITIONS}"),
        (lambda doc: doc["levels"].remove(_entry_at(doc, "high", 1)),
         "error: coefficient tree is missing entries (high, j=1, n=1)"),
    ],
    ids=["foreign-kind", "wrong-level", "low-pass-j", "low-pass-n", "wrong-r",
         "high-pass-j", "high-pass-n", "high-pass-no-n", "missing"],
)
def test_transform_reconstruct_refuses_an_entry_off_its_position(
    tmp_path, capsys, rng, edit, message
):
    doc, argv = _input_document(tmp_path, rng, "tree")
    edit(doc)
    err = _refused_input(tmp_path, capsys, argv, json.dumps(doc))
    assert err == f"{message}\n"


@pytest.mark.parametrize(
    "channel, cutoff, position",
    [("low", 3, "(low, j=0)"), ("high", 2, "(high, j=0, n=1)")],
    ids=["low-pass", "high-pass"],
)
def test_transform_reconstruct_refuses_a_spectrum_past_what_it_reads(
    tmp_path, capsys, rng, channel, cutoff, position
):
    # reconstruction reads cutoff 0 of (low, j=0), which upsample truncates,
    # and of (high, j=0, n=1), which convolve truncates at level 1
    doc, argv = _input_document(tmp_path, rng, "tree", level=3)
    spectral = _entry_at(doc, channel, 0)["spectral"]
    spectral["coeffs"] += rng.standard_normal(
        (tri_dim(cutoff) - len(spectral["coeffs"]), 2)
    ).tolist()
    spectral["cutoff"] = cutoff
    err = _refused_input(tmp_path, capsys, argv, json.dumps(doc))
    assert err == (
        f"error: coefficient tree entry {position} carries cutoff {cutoff}; "
        "reconstruction reads at most cutoff 0 there\n"
    )


def test_transform_reconstruct_refuses_a_tree_above_its_level(tmp_path, capsys, rng):
    doc, _ = _input_document(tmp_path, rng, "tree", level=3)
    argv = ["transform", "--reconstruct", "-j", "2", "--input"]
    err = _refused_input(tmp_path, capsys, argv, json.dumps(doc))
    assert err == "error: tree top level 3 exceeds system level 2\n"


def test_transform_reconstruct_reads_n_spelled_as_a_float(tmp_path, rng):
    # Draft 2020-12 counts 1.0 an integer, so the schema admits "n": 1.0
    doc, argv = _input_document(tmp_path, rng, "tree")
    spelled = json.loads(json.dumps(doc))
    for entry in spelled["levels"]:
        if "n" in entry:
            entry["n"] = float(entry["n"])
    written = []
    for name, tree in (("int", doc), ("float", spelled)):
        path, out = tmp_path / f"{name}.json", tmp_path / f"{name}_out.json"
        path.write_text(json.dumps(tree))
        assert cli.main([*argv, str(path), "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert '"n": 1.0' in (tmp_path / "float.json").read_text()
    assert written[0] == written[1]


def test_decompose_refuses_a_bank_without_a_high_pass(tmp_path, capsys):
    # its one mask partitions unity, but its tree, with r = 0, could not be read back
    flat = {"pieces": [{"lo": 0.0, "hi": 0.5, "kind": "const", "value": 1.0}]}
    bank = {"name": "no-highs", "low": flat, "highs": [], "scaling_low": flat, "scaling_highs": []}
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(bank))
    f_path = tmp_path / "f.json"
    _write_spectral(f_path, 0)
    out = tmp_path / "tree.json"
    argv = ["transform", "--decompose", "-j", "2", "--input", str(f_path), "--bank", str(bank_path)]
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: a bank needs at least one high-pass mask\n"
    assert not out.exists()


def test_transform_bit_repro_is_deterministic(tmp_path, rng):
    f_path = tmp_path / "f.json"
    _write_spectral(f_path, degree_cutoff(2), rng)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli.main(
            ["transform", "--roundtrip", "-j", "2", "--input", str(f_path),
             "--out", str(out), "--bit-repro"]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_roundtrip_residual_does_not_depend_on_bit_repro(tmp_path, capsys, rng):
    # the residual compares spectra, which no flag or BLAS order touches
    f_path = tmp_path / "f.json"
    _write_spectral(f_path, degree_cutoff(5), rng)
    lines = []
    for flags in ([], ["--bit-repro"]):
        argv = ["transform", "--roundtrip", "-j", "5", "--input", str(f_path),
                "--out", str(tmp_path / "tree.json"), *flags]
        assert cli.main(argv) == 0
        lines.append(capsys.readouterr().out.splitlines()[-1])
    assert lines[0] == lines[1] and lines[0].startswith("round-trip residual: ")


def test_diagnostics_report(tmp_path, capsys):
    out = tmp_path / "diag.json"
    code = cli.main(["diagnostics", "-j", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["partition_residual"] <= 1e-12
    assert doc["refinement_residual"] <= 1e-12
    assert [row["nodes"] for row in doc["levels"]] == [2, 5, 17]
    assert len(doc["generalized_tightness"]) == 2
    assert "parseval" in doc and "notes" in doc
    captured = capsys.readouterr().out
    assert "partition residual" in captured


def _count_block_tables(monkeypatch):
    """Patch quadrature so every Gram block table is recorded as (node set,
    cutoff), once per node of its block; returns that list and a dict of
    node set -> node count.  A node set is the bytes of the rule's nodes."""
    add, table = quadrature._add_gram, quadrature._factor_table
    building = []  # the rule whose block tables are being built
    built, sizes = [], {}

    def counting_add(rule, cutoff, out, scale=None):
        building.append(rule)
        try:
            return add(rule, cutoff, out, scale)
        finally:
            building.pop()

    def counting_table(factors, cutoff):
        points = building[-1].nodes.tobytes()
        sizes[points] = building[-1].size
        built.extend([(points, cutoff)] * factors[0].shape[1])
        return table(factors, cutoff)

    monkeypatch.setattr(quadrature, "_add_gram", counting_add)
    monkeypatch.setattr(quadrature, "_factor_table", counting_table)
    return built, sizes


def _covered_once(built, sizes, twice):
    """Whether the blocks of each (node set, cutoff) cover its nodes once,
    except the cutoff-0 tables of the node set `twice`: levels 0 and 1 both
    have degree cutoff 0, and their one-row tables are built for both."""
    for (points, cutoff), count in Counter(built).items():
        times = 2 if (points, cutoff) == (twice, 0) else 1
        if count != times * sizes[points]:
            return False
    return True


def test_diagnostics_builds_each_block_table_once(tmp_path, monkeypatch):
    built, sizes = _count_block_tables(monkeypatch)
    out = tmp_path / "lattice.json"
    assert cli.main(["diagnostics", "-j", "3", "--out", str(out)]) == 0
    # one Gram per level, and the coarse rule's blocks at j = 1..3 (rule j-1,
    # cutoff_j): six (node set, cutoff) pairs, five at distinct cutoffs
    lattices = [quadrature.kronecker_lattice(j).nodes.tobytes() for j in range(4)]
    want = {(lattices[j], degree_cutoff(j)) for j in range(4)}
    want |= {(lattices[j - 1], degree_cutoff(j)) for j in range(1, 4)}
    assert set(built) == want and len(want) == 6
    assert _covered_once(built, sizes, lattices[0])
    # the in-place defect agrees with the out-of-place sum over dense Grams
    report = json.loads(out.read_text())
    bank = default_bank()
    sys_ = cli.transform.kronecker_system(bank, 3)
    for row in report["generalized_tightness"]:
        j = row["j"]
        cutoff = degree_cutoff(j)
        grams = [
            basis.basis_matrix(rule.nodes, cutoff).T * rule.weights
            @ basis.basis_matrix(rule.nodes, cutoff)
            for rule in (sys_.rule(j - 1), sys_.rule(j))
        ]
        xi = basis.lambda_vector(cutoff) / 2.0**j
        combo = np.outer(bank.low(xi), bank.low(xi)) * grams[0] - grams[1]
        for high in bank.highs:
            combo += np.outer(high(xi), high(xi)) * grams[1]
        scaling = bank.scaling_low(xi)
        want = np.abs(combo)[np.outer(scaling, scaling) != 0.0].max()
        assert row["residual"] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_reference_diagnostics_builds_each_table_once(tmp_path, monkeypatch):
    built, sizes = _count_block_tables(monkeypatch)
    out = tmp_path / "ref.json"
    assert cli.main(["diagnostics", "-j", "3", "--rules", "reference", "--out", str(out)]) == 0
    # all four levels share one Gauss node set, whose one Gram per level also
    # serves as the coarse Gram of the tightness check
    assert len(sizes) == 1
    (points,) = sizes
    assert sorted(set(built)) == [(points, cutoff) for cutoff in (0, 1, 3)]
    assert _covered_once(built, sizes, points)
    assert [row["exactness_degree"] for row in json.loads(out.read_text())["levels"]] == [7] * 4


def test_level_7_diagnostics_peaks_within_its_count(tmp_path):
    # the count holds the level-7 node factors, the conversion, one block
    # table, the Gram and one block product: 117 MiB
    tracemalloc.start()
    try:
        assert cli.main(["diagnostics", "-j", "7", "--out", str(tmp_path / "d.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _footprints(7)["diagnostics"] + 10 * 2**20


def test_transform_roundtrip_passes_default_tolerance(tmp_path, capsys, rng):
    f_path = tmp_path / "f.json"
    _write_spectral(f_path, degree_cutoff(4), rng)
    argv = ["transform", "--roundtrip", "-j", "4", "--input", str(f_path),
            "--out", str(tmp_path / "tree.json")]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert float(captured.out.split("round-trip residual:")[1]) <= 1e-12
    assert captured.err == ""


def test_transform_roundtrip_tolerance_exit_code(tmp_path, capsys, monkeypatch):
    f_path = tmp_path / "f.json"
    _write_spectral(f_path, 0)
    out = tmp_path / "tree.json"
    monkeypatch.setattr(cli.transform, "relative_difference", lambda *a, **k: 1e-6)
    code = cli.main(
        ["transform", "--roundtrip", "-j", "2", "--input", str(f_path), "--out", str(out)]
    )
    assert code == 3
    captured = capsys.readouterr()
    # the stdout lines stay those of a passing run
    assert captured.out.splitlines()[1:] == [f"wrote {out}", "round-trip residual: 1.000e-06"]
    assert captured.err == (
        "tolerance failure: round-trip residual 1.000e-06 exceeds tolerance 1.0e-12\n"
    )


def test_diagnostics_tolerance_exit_code(tmp_path, capsys):
    # even the shipped bank cannot meet an impossible tolerance
    code = cli.main(
        ["diagnostics", "-j", "1", "--tol", "1e-18", "--out", str(tmp_path / "d.json")]
    )
    assert code == 3
    assert "tolerance" in capsys.readouterr().err


def _raise_gram_deviation(monkeypatch):
    monkeypatch.setattr(quadrature.GramMatrix, "max_deviation_from_identity", lambda self: 1e-6)


def _raise_tightness(monkeypatch):
    monkeypatch.setattr(quadrature, "generalized_tightness_residual", lambda *args: 1e-6)


def _raise_parseval(where):
    def patch(monkeypatch):
        original = cli.transform.parseval_report

        def report(*args):
            out = original(*args)
            (out["levels"][0] if where == "level" else out["top"])["residual"] = 1e-6
            return out

        monkeypatch.setattr(cli.transform, "parseval_report", report)

    return patch


@pytest.mark.parametrize(
    "raise_residual",
    [_raise_gram_deviation, _raise_tightness, _raise_parseval("level"), _raise_parseval("top")],
    ids=["gram", "tightness", "parseval-level", "parseval-top"],
)
def test_reference_diagnostics_gate_the_certifying_residuals(
    tmp_path, capsys, monkeypatch, raise_residual
):
    out = tmp_path / "ref.json"
    argv = ["diagnostics", "-j", "2", "--rules", "reference", "--out", str(out)]
    assert cli.main(argv) == 0
    passing = capsys.readouterr().out
    raise_residual(monkeypatch)
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    # the report is written, and stdout has the lines of a passing run
    report = json.loads(out.read_text())
    assert len(captured.out.splitlines()) == len(passing.splitlines())
    gram = max(row["gram_deviation"] for row in report["levels"])
    tight = max(row["residual"] for row in report["generalized_tightness"])
    parseval = report["parseval"]
    energy = max([row["residual"] for row in parseval["levels"]] + [parseval["top_residual"]])
    assert 1e-6 in (gram, tight, energy)
    assert captured.err == (
        "tolerance failure: reference residuals exceed tolerance 1.0e-12 "
        f"(gram deviation {gram:.3e}, tightness {tight:.3e}, parseval {energy:.3e})\n"
    )


def test_lattice_diagnostics_only_report_the_certifying_residuals(tmp_path):
    out = tmp_path / "diag.json"
    assert cli.main(["diagnostics", "-j", "4", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    # an equal-weight lattice is inexact by design
    assert max(row["gram_deviation"] for row in report["levels"]) > 0.1
    assert max(row["residual"] for row in report["generalized_tightness"]) > 0.1


def test_write_json_bytes_match_json_dumps(tmp_path, monkeypatch, rng):
    written = []
    original = cli._write_json

    def recording(path, doc):
        written.append((path, doc))
        original(path, doc)

    monkeypatch.setattr(cli, "_write_json", recording)
    f_path = tmp_path / "f.json"
    _write_spectral(f_path, degree_cutoff(3), rng)
    outs = []

    def run(*argv):
        outs.append(tmp_path / f"out{len(outs)}.json")
        assert cli.main([*argv, "--out", str(outs[-1])]) == 0
        return str(outs[-1])

    # every command that writes JSON
    run("transform", "--decompose", "-j", "3", "--input", str(f_path))
    run("gen-lattice", "-j", "3")
    run("diagnostics", "-j", "2")
    run("diagnostics", "-j", "2", "--rules", "reference")
    for repro in ([], ["--bit-repro"]):
        tree = run("transform", "--roundtrip", "-j", "3", "--input", str(f_path), *repro)
        run("transform", "--reconstruct", "-j", "3", "--input", tree, *repro)
    assert [path for path, _ in written] == outs
    for path, doc in written:
        want = json.dumps(doc, allow_nan=False, default=np.ndarray.tolist) + "\n"
        assert path.read_text() == want


def test_sample_masks(tmp_path):
    out = tmp_path / "masks.csv"
    assert cli.main(["sample", "--kind", "masks", "--grid", "1000", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "xi,a_hat,b1_hat,b2_hat"
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert data.shape == (1000, 4)
    xi = data[:, 0]
    assert np.all(data[xi < 0.125, 1] == 1.0)
    assert np.all(data[xi > 0.25, 1] == 0.0)
    # partition identity holds across the emitted columns
    total = (data[:, 1:] ** 2).sum(axis=1)
    assert np.abs(total - 1.0).max() <= 1e-12


def test_sample_framelet_grid(tmp_path):
    out = tmp_path / "phi.csv"
    code = cli.main(
        ["sample", "--kind", "low", "-j", "2", "-k", "3", "--grid", "32",
         "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x1,x2,value"
    assert len(rows) - 1 == len(triangle_grid(32))


def test_sample_high_kind_uses_next_level(tmp_path):
    out = tmp_path / "psi.csv"
    code = cli.main(
        ["sample", "--kind", "high2", "-j", "1", "-k", "4", "--grid", "16",
         "--out", str(out)]
    )
    assert code == 0


def test_sample_node_out_of_range(tmp_path, capsys):
    code = cli.main(
        ["sample", "--kind", "low", "-j", "1", "-k", "99", "--grid", "16",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_sample_grid_guard(tmp_path, capsys):
    code = cli.main(
        ["sample", "--kind", "masks", "--grid", "4096", "--out", str(tmp_path / "m.csv")]
    )
    assert code == 2


# -- range checks: exit 2, one stderr line, no output file --------------------

_COMMAND_ARGV = {
    "gen-lattice": ["gen-lattice"],
    "transform": ["transform", "--roundtrip"],
    "diagnostics": ["diagnostics"],
    "sample": ["sample", "--kind", "low"],
}


def _refused(tmp_path, capsys, argv, message):
    """Run argv with an --out path; check exit 2, the stderr line and no output."""
    f_path = tmp_path / "f.json"
    _write_spectral(f_path, 0)
    out = tmp_path / "out.file"
    argv = [str(f_path) if arg == "{input}" else arg for arg in argv]
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("level", ["-1", "9"])
@pytest.mark.parametrize("command", sorted(_COMMAND_ARGV))
def test_level_outside_range_is_refused(tmp_path, capsys, command, level):
    argv = [*_COMMAND_ARGV[command], "--level", level]
    if command == "transform":
        argv += ["--input", "{input}"]
    _refused(tmp_path, capsys, argv, "validation error: level must lie in 0..8")


@pytest.mark.parametrize("grid", ["1", "2049"])
@pytest.mark.parametrize("kind", ["masks", "low"])
def test_grid_outside_range_is_refused(tmp_path, capsys, kind, grid):
    _refused(
        tmp_path, capsys, ["sample", "--kind", kind, "--grid", grid],
        "validation error: grid resolution must lie in 2..2048",
    )


def test_zero_tolerance_is_refused(tmp_path, capsys):
    _refused(
        tmp_path, capsys, ["diagnostics", "-j", "1", "--tol", "0"],
        "error: tol must be finite and positive",
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen-lattice", "-j", "2", "--shift", "nan", "0"],
         "error: lattice generator and shift must be finite"),
        (["gen-lattice", "-j", "2", "--generator", "inf", "0.5"],
         "error: lattice generator and shift must be finite"),
        (["sample", "--kind", "low", "-j", "2", "--grid", "8", "--shift", "nan", "0"],
         "error: lattice generator and shift must be finite"),
        (["diagnostics", "-j", "1", "--tol", "nan"],
         "error: tol must be finite and positive"),
        (["diagnostics", "-j", "1", "--tol", "inf"],
         "error: tol must be finite and positive"),
    ],
)
def test_non_finite_option_is_refused(tmp_path, capsys, argv, message):
    _refused(tmp_path, capsys, argv, message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["diagnostics", "-j", "0"], "validation error: diagnostics needs level >= 1"),
        (["sample", "--kind", "high1", "-j", "8", "--grid", "8"],
         "validation error: sampling a high-pass at the top level exceeds the level guard"),
        (["sample", "--kind", "masks", "--grid", "8", "--bank", "nope"],
         "validation error: unknown bank 'nope' (not the shipped name or a file)"),
        (["transform", "--decompose", "-j", "0", "--input", "{input}"],
         "error: multilevel decomposition needs a level >= 1 input"),
        (["transform", "--roundtrip", "-j", "0", "--input", "{input}"],
         "error: multilevel decomposition needs a level >= 1 input"),
    ],
)
def test_option_refusal_message(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    _refused(tmp_path, capsys, argv, message)


def test_reference_diagnostics_past_the_rule_cap_is_refused(tmp_path, capsys, monkeypatch):
    # a budget that admits J=8, so the refusal is the reference rule's own
    monkeypatch.setattr(cli, "table_budget_bytes", lambda: 4_210_000_000)
    argv = ["diagnostics", "--rules", "reference", "-j", "8"]
    _refused(tmp_path, capsys, argv, "error: reference rule capped at degree 128")


# ids kept as for test_transform_rejects_non_finite_numbers
@pytest.mark.parametrize(
    "coeffs, message",
    [
        pytest.param("[[NaN, 0], [1, 0], [0, 0]]",
                     "malformed JSON: unexpected character (line 1, column 27)",
                     id="[[NaN, 0], [1, 0], [0, 0]]-validation error: non-finite number NaN in input"),
        pytest.param("[[1, 0], [-Infinity, 0], [0, 0]]",
                     "malformed JSON: no digit after minus sign (line 1, column 35)",
                     id="[[1, 0], [-Infinity, 0], [0, 0]]-validation error: "
                        "non-finite number -Infinity in input"),
        pytest.param(_401_DIGITS,
                     "malformed JSON: number is infinity when parsed as double (line 1, column 27)",
                     id=f"{_401_DIGITS}-validation error: "
                        "non-finite number in input: an integer of 401 digits"),
    ],
)
def test_non_finite_input_refusal_message(tmp_path, capsys, coeffs, message):
    doc = tmp_path / "doc.json"
    doc.write_text('{"cutoff": 1, "coeffs": %s}' % coeffs)
    argv = ["transform", "--roundtrip", "-j", "2", "--input", str(doc)]
    _refused(tmp_path, capsys, argv, message)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_take_their_mode_from_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        for argv in (["sample", "--kind", "masks", "--grid", "8"], ["gen-lattice", "-j", "1"]):
            out = tmp_path / f"{argv[0]}.out"
            assert cli.main([*argv, "--out", str(out)]) == 0
            assert oct(stat.S_IMODE(out.stat().st_mode)) == oct(mode)
    finally:
        os.umask(previous)


def test_write_json_refuses_non_finite_numbers(tmp_path):
    out = tmp_path / "doc.json"
    for bad in (float("nan"), float("inf"), -float("inf")):
        # a list, a pair array, and an array whose bad value lies past the first chunk
        docs = [{"x": [1.0, bad]}, {"x": np.array([[1.0, bad]])},
                {"x": [np.append(np.ones(3000), bad)]}]
        for doc in docs:
            with pytest.raises(ValueError, match="not JSON compliant"):
                cli._write_json(out, doc)
            assert list(tmp_path.iterdir()) == []


def test_write_json_refuses_arrays_other_than_float64(tmp_path):
    # orjson spells integers and float32 values unlike json.dumps of tolist()
    for arr in (np.arange(3), np.ones(3, dtype=np.float32)):
        with pytest.raises(TypeError, match="float64"):
            cli._write_json(tmp_path / "doc.json", {"x": arr})
    assert list(tmp_path.iterdir()) == []


_BANK_DOC = bank_to_dict(default_bank())
# the shipped name over a low-pass whose flat piece is halved
_MISLABELLED = json.loads(json.dumps(_BANK_DOC))
_MISLABELLED["low"]["pieces"][0]["value"] = 0.5


@pytest.mark.parametrize(
    "bank, message",
    [
        ({"name": "x", "low": {}}, "validation error: 'highs' is a required property"),
        ({**_BANK_DOC, "low": {}},
         "validation error at /low: 'pieces' is a required property"),
        ({**_BANK_DOC, "low": {**_BANK_DOC["low"], "pieces": 3}},
         "validation error at /low/pieces: 3 is not of type 'array'"),
        # the shipped bank is picked by name on the command line, not in a file
        ({"name": "dau2-simplex-r2"}, "validation error: 'low' is a required property"),
        (_MISLABELLED,
         "validation error: the name 'dau2-simplex-r2' is reserved for the shipped bank"),
    ],
)
def test_malformed_bank_file_is_refused(tmp_path, capsys, bank, message):
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(bank))
    out = tmp_path / "masks.csv"
    argv = ["sample", "--kind", "masks", "--grid", "8", "--bank", str(bank_path)]
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{message}\n"
    assert not out.exists()


def test_bank_that_breaks_the_partition_is_refused_by_masks_and_diagnostics(tmp_path, capsys):
    # a low-pass piece that matches no point: the schema and Piece accept it
    doc = json.loads(json.dumps({**_BANK_DOC, "name": "broken"}))
    doc["low"]["pieces"][0].update(lo=0.25, hi=0.125)
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    for argv in (["sample", "--kind", "masks", "--grid", "8"], ["diagnostics", "-j", "2"]):
        assert cli.main([*argv, "--bank", str(bank_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: bank violates the partition identity (residual 1.000e+00)\n"
        )
        assert not out.exists()


def test_bank_whose_partition_residual_is_nan_is_refused(tmp_path, capsys):
    # a finite scale that the schema accepts, whose mask overflows to NaN
    doc = json.loads(json.dumps({**_BANK_DOC, "name": "overflowing"}))
    doc["highs"][1]["pieces"][0]["scale"] = 1e300
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(doc))
    f_path = tmp_path / "f.json"
    _write_spectral(f_path, 0)
    out = tmp_path / "out"
    commands = (
        ["sample", "--kind", "masks", "--grid", "8"],
        ["transform", "--roundtrip", "-j", "2", "--input", str(f_path)],
        ["diagnostics", "-j", "2"],
    )
    for argv in commands:
        with np.errstate(all="ignore"):
            code = cli.main([*argv, "--bank", str(bank_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: bank violates the partition identity (residual nan)\n"
        )
        assert not out.exists()


def _old_format(doc: dict) -> dict:
    """A copy of a bank document with the support and half_period fields that
    bank files used to restate, each support the span of its symbol's pieces."""
    doc = json.loads(json.dumps(doc))
    for symbol in (doc["low"], *doc["highs"], doc["scaling_low"], *doc["scaling_highs"]):
        pieces = symbol["pieces"]
        symbol["support"] = [min(p["lo"] for p in pieces), max(p["hi"] for p in pieces)]
        symbol["half_period"] = False
    return doc


def test_old_format_bank_file_is_the_shipped_bank(tmp_path):
    # the restated fields are ignored, so they neither change the bank nor
    # clash with the shipped name
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(_old_format(_BANK_DOC)))
    outs = []
    for bank in ("dau2-simplex-r2", str(bank_path)):
        outs.append(tmp_path / f"masks_{len(outs)}.csv")
        argv = ["sample", "--kind", "masks", "--grid", "16", "--bank", bank]
        assert cli.main([*argv, "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_stated_support_narrower_than_the_pieces_does_not_truncate(tmp_path, rng):
    doc = _old_format({**_BANK_DOC, "name": "old-format"})
    doc["low"]["support"] = [0.0, 0.2]
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(doc))
    f_path = tmp_path / "f.json"
    _write_spectral(f_path, degree_cutoff(5), rng)
    trees = []
    for bank in ("dau2-simplex-r2", str(bank_path)):
        trees.append(tmp_path / f"tree_{len(trees)}.json")
        argv = ["transform", "--decompose", "-j", "5", "--input", str(f_path), "--bank", bank]
        assert cli.main([*argv, "--out", str(trees[-1])]) == 0
    assert trees[0].read_bytes() == trees[1].read_bytes()


def test_bit_repro_output_does_not_depend_on_blas_threads(tmp_path, rng):
    f_path = tmp_path / "f.json"
    _write_spectral(f_path, degree_cutoff(6), rng)
    trees, residuals = [], []
    for threads in ("1", "2"):
        out = tmp_path / f"tree_{threads}.json"
        result = subprocess.run(
            [sys.executable, "-m", "triframe.cli", "transform", "--roundtrip", "-j", "6",
             "--input", str(f_path), "--out", str(out), "--bit-repro"],
            capture_output=True, text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert result.returncode == 0, result.stderr
        trees.append(out.read_bytes())
        residuals.append(result.stdout.splitlines()[-1])
    assert trees[0] == trees[1]
    assert residuals[0] == residuals[1] and residuals[0].startswith("round-trip residual")


_WITHOUT = """
import sys
import triframe.cli
package = sys.argv[1]
loaded = sorted(name for name in sys.modules if name.split(".")[0] == package)
assert not loaded, loaded
sys.modules[package] = None  # any later import of the package fails
sys.exit(triframe.cli.main(sys.argv[2:]))
"""


def _run_without(package, argv):
    """Run the CLI in a fresh interpreter that has not imported, and cannot
    import, package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT, package, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_runs_without_scipy(tmp_path):
    argv = ["diagnostics", "--rules", "reference", "-j", "3", "--out", str(tmp_path / "d.json")]
    assert "exactness degree" in _run_without("scipy", argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-lattice", "-j", "2"],
        ["diagnostics", "--rules", "reference", "-j", "3"],
        ["sample", "--kind", "masks", "--grid", "16"],
        ["sample", "--kind", "high1", "-j", "2", "--grid", "8"],
        ["transform", "--roundtrip", "-j", "2", "--input", "{spectrum}"],
        ["transform", "--reconstruct", "-j", "2", "--input", "{tree}"],
        ["sample", "--kind", "masks", "--grid", "16", "--bank", "{bank}"],
    ],
)
def test_cli_runs_without_jsonschema(tmp_path, argv):
    """jsonschema is only the tests' oracle: every command runs without it,
    those that validate a document too."""
    inputs = {name: tmp_path / f"{name}.json" for name in ("spectrum", "tree", "bank")}
    _write_spectral(inputs["spectrum"], 1)
    decompose = ["transform", "--decompose", "-j", "2", "--input", str(inputs["spectrum"])]
    assert cli.main([*decompose, "--out", str(inputs["tree"])]) == 0
    inputs["bank"].write_text(json.dumps(bank_to_dict(default_bank())))
    argv = [arg.format(**inputs) for arg in argv]
    assert "wrote" in _run_without("jsonschema", [*argv, "--out", str(tmp_path / "out")])


def test_importing_the_cli_loads_neither_jsonschema_nor_orjson():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    check = "import sys, triframe.cli; print(sorted({'jsonschema', 'orjson'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout == "[]\n"


def test_custom_bank_file(tmp_path):
    bank = default_bank()
    custom = FilterBank(
        low=bank.low,
        highs=bank.highs,
        scaling_low=bank.scaling_low,
        scaling_highs=bank.scaling_highs,
        name="my-bank",
    )
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(bank_to_dict(custom)))
    f_path = tmp_path / "f.json"
    _write_spectral(f_path, 0)
    code = cli.main(
        ["transform", "--roundtrip", "-j", "2", "--input", str(f_path),
         "--bank", str(bank_path), "--out", str(tmp_path / "t.json")]
    )
    assert code == 0


def test_diagnostics_reads_its_bank_file_once(tmp_path, monkeypatch):
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(bank_to_dict(default_bank())))
    reads = []
    load = cli._load_json

    def counting(path):
        reads.append(path)
        return load(path)

    monkeypatch.setattr(cli, "_load_json", counting)
    argv = ["diagnostics", "-j", "2", "--bank", str(bank_path)]
    assert cli.main([*argv, "--out", str(tmp_path / "d.json")]) == 0
    assert reads == [str(bank_path)]


def test_unknown_bank_rejected(tmp_path, capsys):
    f_path = tmp_path / "f.json"
    _write_spectral(f_path, 0)
    code = cli.main(
        ["transform", "--roundtrip", "-j", "2", "--input", str(f_path),
         "--bank", "nope", "--out", str(tmp_path / "t.json")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "validation error: unknown bank 'nope' (not the shipped name or a file)\n"


def test_data_dir_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FRAMELET_DATA_DIR", str(tmp_path))
    assert cli.main(["gen-lattice", "-j", "1"]) == 0
    assert (tmp_path / "lattice_j1.json").exists()


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "triframe.cli", "gen-lattice", "-j", "0",
         "--out", str(tmp_path / "r.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "nodes: 2" in result.stdout


# -- the schema walker agrees with jsonschema --------------------------------

_SCALAR = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
)
_ELEMENT = st.one_of(_SCALAR, st.lists(_SCALAR, max_size=3))
_CANDIDATE = st.one_of(st.lists(_ELEMENT, max_size=3), _SCALAR)
_ARRAY = st.one_of(st.lists(_CANDIDATE, max_size=4), _SCALAR)
_NUMBER = st.one_of(st.floats(-2, 2), st.integers(-2, 2))


def _mostly(valid, other):
    """valid, but one time in ten other."""
    return st.integers(0, 9).flatmap(lambda roll: other if roll == 0 else valid)


_PAIRS = _mostly(
    st.lists(st.lists(_NUMBER, min_size=2, max_size=2), max_size=3),
    st.one_of(st.lists(st.lists(_NUMBER | _SCALAR, min_size=1, max_size=3), min_size=1,
                       max_size=3), _ARRAY),
)
_COUNT = _mostly(st.sampled_from([1, 2, 1.0]), st.sampled_from([-1, 0, 0.0, 1.5, True]))


@st.composite
def _object(draw, fields: dict):
    """Mostly an object of these fields, a few of them missing or stray
    scalars, perhaps with unknown keys; otherwise a stray scalar."""
    if draw(st.integers(0, 29)) == 0:
        return draw(_SCALAR)
    doc = {}
    for name, value in fields.items():
        roll = draw(st.integers(0, 29))
        if roll:
            doc[name] = draw(_SCALAR if roll == 1 else value)
    if draw(st.integers(0, 9)) == 0:
        doc.update(draw(st.dictionaries(st.sampled_from(["extra", "Z"]), _SCALAR, min_size=1)))
    return doc


_SPECTRAL = _object({"cutoff": _COUNT, "coeffs": _PAIRS})
_SEQUENCE = _object({
    "channel": _mostly(st.sampled_from(["low", "high"]), st.just("mid")), "j": _COUNT,
    "n": _COUNT, "rule_ref": st.text(max_size=2), "v": _PAIRS, "spectral": _SPECTRAL,
})
_PIECE = _object({
    "lo": _NUMBER, "hi": _NUMBER,
    "kind": _mostly(st.sampled_from(["const", "cos_nu"]), st.just("tan_nu")),
    "value": _NUMBER, "scale": _NUMBER, "offset": _NUMBER,
})
_SYMBOL = _object({"pieces": _mostly(st.lists(_PIECE, min_size=1, max_size=2), st.just([]))})
# a schema and a document that mostly meets it
_DOCUMENTS = st.one_of(
    st.tuples(st.just(cli.SPECTRAL_SCHEMA), _SPECTRAL),
    st.tuples(st.just(cli.SEQUENCE_SCHEMA), _SEQUENCE),
    st.tuples(st.just(cli.TREE_SCHEMA), _object({
        "J": _COUNT, "r": _COUNT,
        "levels": _mostly(st.lists(_SEQUENCE, min_size=2, max_size=3), st.lists(_SEQUENCE)),
    })),
    st.tuples(st.just(cli.BANK_SCHEMA), _object({
        "name": st.text(max_size=2), "low": _SYMBOL, "highs": st.lists(_SYMBOL, max_size=2),
        "scaling_low": _SYMBOL, "scaling_highs": st.lists(_SYMBOL, max_size=2),
    })),
)


def _errors(errors):
    return [(list(err.absolute_path), err.message) for err in errors]


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_fast_validator_matches_jsonschema(case):
    """Every fault, in order, with jsonschema's path and message; and the
    refusal is the one jsonschema's validate raises, the first."""
    schema, doc = case
    want = list(jsonschema.Draft202012Validator(schema).iter_errors(doc))
    assert _errors(cli.Draft202012Validator(schema).iter_errors(doc)) == _errors(want)
    if not want:
        cli.Draft202012Validator(schema).validate(doc)
    else:
        with pytest.raises(cli.ValidationError) as refused:
            cli.Draft202012Validator(schema).validate(doc)
        assert _errors([refused.value]) == _errors(want[:1])


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "pattern": "^a"},
        {"type": ["string", "null"]},
        {"properties": {"x": {"anyOf": [{"type": "null"}]}}},
        {"additionalProperties": {"type": "number"}},
    ],
    ids=["pattern", "type-list", "nested-anyOf", "additionalProperties-schema"],
)
def test_fast_validator_raises_on_a_keyword_it_does_not_know(schema):
    with pytest.raises(NotImplementedError, match="schema keyword"):
        list(cli.Draft202012Validator(schema).iter_errors({"x": 1}))


def test_fast_validator_reports_first_bad_pair(tmp_path, capsys):
    coeffs = [[1.0, 0.0], [2, 3], [True, 0.0], ["x"]]
    f_path = tmp_path / "f.json"
    f_path.write_text(json.dumps({"cutoff": 1, "coeffs": coeffs}))
    code = cli.main(["transform", "--roundtrip", "-j", "2", "--input", str(f_path),
                     "--out", str(tmp_path / "t.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "validation error at /coeffs/2/0: True is not of type 'number'\n"


# -- writers: JSON parses to the indented document, CSV keeps its bytes -------

_SPECIAL = np.array([-0.0, 1e-300, 1e300, 3.0, 0.1, -2.5e-7, 123456789.0, 5e-324])


def _old_csv(header, rows):
    """The row-by-row formatting the column writer replaces."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


# repeated values, both signed zeros and a NaN, each formatted once
_REPEATS = np.array([0.0, -0.0, np.nan, 0.1, -0.0, 0.1, 0.0, np.nan])


def test_sample_masks_csv_bytes(tmp_path, monkeypatch):
    highs = (lambda xi: -_SPECIAL, lambda xi: _SPECIAL[::-1], lambda xi: _REPEATS)
    fake = SimpleNamespace(low=lambda xi: _SPECIAL, highs=highs)
    monkeypatch.setattr(cli, "_load_bank", lambda name: fake)
    # the fake masks hold NaN and infinities on purpose, which the partition
    # check refuses: this test pins the CSV writer's bytes only
    monkeypatch.setattr(cli.transform, "require_partition", lambda bank: None)
    out = tmp_path / "masks.csv"
    grid = len(_SPECIAL)
    assert cli.main(["sample", "--kind", "masks", "--grid", str(grid), "--out", str(out)]) == 0
    xi = np.linspace(0.0, 0.5, grid)
    columns = [xi, _SPECIAL, -_SPECIAL, _SPECIAL[::-1], _REPEATS]
    want = _old_csv(["xi", "a_hat", "b1_hat", "b2_hat", "b3_hat"], zip(*columns))
    assert out.read_text() == want


def test_sample_framelet_csv_bytes(tmp_path, monkeypatch):
    seen = {}

    def fake_values(sys_, kind, level, node, pts, n=1):
        seen["values"] = np.resize(_SPECIAL, len(pts))
        return seen["values"]

    monkeypatch.setattr(cli.transform, "framelet_values", fake_values)
    out = tmp_path / "phi.csv"
    code = cli.main(["sample", "--kind", "low", "-j", "1", "--grid", "8", "--out", str(out)])
    assert code == 0
    pts = triangle_grid(8)
    want = _old_csv(["x1", "x2", "value"], np.column_stack((pts, seen["values"])))
    assert out.read_text() == want


# orjson spells these ranges unlike repr: nonzero magnitudes below 1e-4 or from
# 1e16 on, NaN and infinities; each boundary with its neighbours
_EDGES = np.array([
    np.nextafter(b, toward) for b in (1e-4, 1e16) for toward in (0.0, b, np.inf)
] + [5e-324, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
     1.7976931348623157e308, 0.0, np.nan, np.inf])
_EDGE_BITS = np.concatenate([_EDGES, -_EDGES]).view(np.uint64).tolist()
_BIT_PATTERNS = st.lists(st.integers(0, 2**64 - 1) | st.sampled_from(_EDGE_BITS),
                         min_size=1, max_size=40)


def _assert_same_pieces(got: str, want: str, sep: str) -> None:
    """got == want, reported at the first piece that differs: pytest takes
    minutes to diff two long texts whole."""
    for piece, wanted in zip(got.split(sep), want.split(sep), strict=True):
        assert piece == wanted


@settings(max_examples=150, deadline=None)
@given(bits=_BIT_PATTERNS, rows=st.integers(0, 2600))
def test_writers_spell_every_double_as_repr(tmp_path_factory, bits, rows):
    # rows up to 2600 cross the writers' chunk boundaries
    values = np.resize(np.array(bits, dtype=np.uint64).view(np.float64), rows)
    out = tmp_path_factory.getbasetemp() / "numbers.csv"
    cli._write_csv(out, ["v", "w"], [values, values[::-1]])
    lines = [f"{float(a)!r},{float(b)!r}" for a, b in zip(values, values[::-1])]
    _assert_same_pieces(out.read_text(), "\n".join(["v,w", *lines]) + "\n", "\n")
    finite = values[np.isfinite(values)]
    out = tmp_path_factory.getbasetemp() / "numbers.json"
    cli._write_json(out, {"v": finite})
    want = json.dumps({"v": [float(v) for v in finite]}) + "\n"
    _assert_same_pieces(out.read_text(), want, ", ")


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [float(v) for v in _EDGES[np.isfinite(_EDGES)]]
)


@st.composite
def _array_documents(draw):
    """Documents holding float64 arrays of shape (0, 2), (n, 2) and (n,),
    with strings that json escapes or that hold its separators."""
    n = draw(st.integers(0, 1100))
    values = np.resize(np.array(draw(st.lists(_FINITE, min_size=1, max_size=30))), 3 * n)
    text = st.text(max_size=6) | st.sampled_from([", ", ": ", "[1,2]", "\u00e9\n\"", ""])
    return {
        draw(text): values[: 2 * n].reshape(n, 2),
        "empty": np.empty((0, 2)),
        "levels": [{"w": values[2 * n:], "s": draw(text)}, draw(_FINITE), 2**70, None, True],
        "pair": (draw(_FINITE), draw(_FINITE)),
    }


@settings(max_examples=100, deadline=None)
@given(doc=_array_documents())
def test_write_json_matches_json_dumps_of_the_lists(tmp_path_factory, doc):
    out = tmp_path_factory.getbasetemp() / "doc.json"
    cli._write_json(out, doc)
    want = json.dumps(doc, allow_nan=False, default=np.ndarray.tolist) + "\n"
    _assert_same_pieces(out.read_text(), want, ", ")


def test_write_json_parses_to_indented_document(tmp_path):
    doc = {"a": _SPECIAL.tolist(), "n": 7, "s": "x", "pairs": [[1.5, -2.0]],
           "none": None, "flag": True, "big": 2**70}
    out = tmp_path / "doc.json"
    cli._write_json(out, doc)
    text = out.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    # repr tells -0.0 from 0.0 and compares floats digit by digit
    assert repr(json.loads(text)) == repr(json.loads(json.dumps(doc, indent=1)))
    assert repr(json.loads(text)) == repr(doc)


def test_written_numbers_read_back_bit_for_bit(tmp_path):
    # the 200 neighbours on each side of 1e-4 and 1e16, where the writer
    # switches spelling, then subnormals, zero and the largest double
    around = np.array([1e-4, 1e16]).view(np.int64)[:, None] + np.arange(-200, 201)
    edges = [5e-324, 2.5e-320, np.nextafter(2.2250738585072014e-308, 0.0), 0.0,
             1.7976931348623157e308]
    values = np.concatenate([around.ravel().view(np.float64), edges])
    values = np.concatenate([values, -values])
    out = tmp_path / "numbers.json"
    cli._write_json(out, {"v": values, "pairs": values.reshape(-1, 2)})
    doc = cli._load_json(str(out))
    for got in (np.array(doc["v"]), np.array(doc["pairs"]).ravel()):
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), values.view(np.int64))
