import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from triframe import cli
from triframe.basis import eigenvalue
from triframe.filters import (
    FilterBank,
    Piece,
    SpectralSymbol,
    bank_from_dict,
    bank_to_dict,
    check_partition,
    check_refinement,
    nu,
)

GRID = np.linspace(0.0, 0.5, 10**4)


def test_nu_anchor_values():
    assert nu(0.0) == 0.0
    assert nu(1.0) == pytest.approx(1.0, abs=1e-15)
    assert nu(0.5) == pytest.approx(0.5, abs=1e-15)


def test_nu_reflection_identity():
    t = np.linspace(0.0, 1.0, 5001)
    assert np.abs(nu(t) + nu(1.0 - t) - 1.0).max() < 1e-14


def test_nu_monotone_on_unit_interval():
    t = np.linspace(0.0, 1.0, 5001)
    assert np.diff(nu(t)).min() >= -1e-12


def test_lowpass_mask_values(bank):
    assert bank.low(0.0) == 1.0
    assert bank.low(0.05) == 1.0  # flat branch
    assert abs(bank.low(0.25)) < 1e-14
    assert_allclose(bank.low(3.0 / 16.0), math.sqrt(2.0) / 2.0, rtol=1e-14)
    assert bank.low(0.3) == 0.0
    assert bank.low(0.49) == 0.0


def test_highpass_mask_values(bank):
    b1, b2 = bank.highs
    assert b1(0.05) == 0.0
    assert b1(0.25) == pytest.approx(1.0, abs=1e-14)
    assert b2(0.2) == 0.0
    assert abs(b2(0.25)) < 1e-14
    assert b2(0.5) == pytest.approx(1.0, abs=1e-14)


def test_symbol_even_in_xi(bank):
    for sym in (bank.low, *bank.highs, bank.scaling_low, *bank.scaling_highs):
        for xi in (0.03, 0.2, 0.45, 0.8):
            assert sym(-xi) == sym(xi)


def test_partition_identity(bank):
    assert check_partition(bank, [0.0]) == 0.0
    assert check_partition(bank, GRID) <= 1e-12


def test_partition_fails_without_second_highpass(bank):
    crippled = FilterBank(
        low=bank.low,
        highs=(bank.highs[0],),
        scaling_low=bank.scaling_low,
        scaling_highs=(bank.scaling_highs[0],),
    )
    assert check_partition(crippled, [0.4]) >= 0.5


def test_refinement_identity(bank):
    assert check_refinement(bank, [0.0]) == 0.0
    assert check_refinement(bank, GRID) <= 1e-12


def test_refinement_fails_for_indicator_scaling(bank):
    indicator = SpectralSymbol(pieces=(Piece(0.0, 0.5, "const", value=1.0),))
    broken = FilterBank(
        low=bank.low,
        highs=bank.highs,
        scaling_low=indicator,
        scaling_highs=bank.scaling_highs,
    )
    assert check_refinement(broken, GRID) > 0.1


def test_limit_lowpass(bank):
    # |low(eigenvalue(ell) / 2**j) - 1| is exactly 0 in the flat unit branch
    assert abs(bank.low(eigenvalue(0) / 2**3) - 1.0) == 0.0
    # sqrt(8)/64 < 1/8 lands in the flat branch
    assert abs(bank.low(eigenvalue(2) / 2**6) - 1.0) == 0.0
    # sqrt(8)/16 sits in the transition branch
    assert abs(bank.low(eigenvalue(2) / 2**4) - 1.0) > 0.0


def test_support_declarations(bank):
    xi = np.linspace(0.2500001, 0.5, 2000)
    assert np.all(bank.low(xi) == 0.0)
    lo_out = np.linspace(0.5000001, 2.0, 2000)
    assert np.all(bank.scaling_low(lo_out) == 0.0)
    for sym in bank.scaling_highs:
        assert np.all(sym(np.linspace(0.0, 0.2499999, 500)) == 0.0)
        assert np.all(sym(np.linspace(1.0000001, 3.0, 500)) == 0.0)


def _continuity_residual(sym: SpectralSymbol, mask: bool) -> float:
    worst = 0.0
    # adjacent branches agree where they meet
    for left, right in zip(sym.pieces, sym.pieces[1:]):
        t = np.asarray([left.hi])
        worst = max(worst, float(abs(left.evaluate(t)[0] - right.evaluate(t)[0])))
    # the symbol meets zero at its support edges; mask symbols only model half
    # a period, so their right edge continues periodically instead
    first, last = sym.pieces[0], sym.pieces[-1]
    if first.lo > 0.0:
        worst = max(worst, float(abs(first.evaluate(np.asarray([first.lo]))[0])))
    if not mask or last.hi < 0.5:
        worst = max(worst, float(abs(last.evaluate(np.asarray([last.hi]))[0])))
    return worst


def test_breakpoint_continuity(bank):
    for sym in (bank.low, *bank.highs):
        assert _continuity_residual(sym, mask=True) <= 1e-14
    for sym in (bank.scaling_low, *bank.scaling_highs):
        assert _continuity_residual(sym, mask=False) <= 1e-14


@settings(max_examples=80, deadline=None)
@given(xi=st.floats(0.0, 0.5))
def test_partition_pointwise(bank, xi):
    total = bank.low(xi) ** 2 + sum(h(xi) ** 2 for h in bank.highs)
    assert abs(total - 1.0) <= 1e-12


def test_shipped_bank_round_trips_through_json(bank):
    # the shipped bank is written in full, like any other
    doc = json.loads(json.dumps(bank_to_dict(bank)))
    assert doc["name"] == "dau2-simplex-r2" and len(doc["highs"]) == 2
    assert bank_from_dict(doc) == bank


def test_custom_bank_serialization_round_trip(bank):
    custom = FilterBank(
        low=bank.low,
        highs=bank.highs,
        scaling_low=bank.scaling_low,
        scaling_highs=bank.scaling_highs,
        name="renamed",
    )
    doc = json.loads(json.dumps(bank_to_dict(custom)))
    assert doc["name"] == "renamed"
    assert len(doc["highs"]) == 2
    back = bank_from_dict(doc)
    xi = np.linspace(0, 1, 501)
    for a, b in zip(
        (back.low, *back.highs, back.scaling_low, *back.scaling_highs),
        (custom.low, *custom.highs, custom.scaling_low, *custom.scaling_highs),
    ):
        assert np.array_equal(a(xi), b(xi))


def test_symbol_support_is_the_span_of_its_pieces(bank):
    assert bank.low.support == (0.0, 0.25)
    assert bank.highs[0].support == (0.125, 0.5)
    assert bank.scaling_highs[0].support == (0.25, 1.0)
    with pytest.raises(ValueError, match="at least one piece"):
        SpectralSymbol(pieces=())


def test_bank_support_guards(bank):
    too_wide = SpectralSymbol(pieces=(Piece(0.0, 0.6, "const", value=1.0),))
    with pytest.raises(ValueError):
        FilterBank(
            low=bank.low,
            highs=bank.highs,
            scaling_low=too_wide,
            scaling_highs=bank.scaling_highs,
        )
    with pytest.raises(ValueError):
        FilterBank(
            low=bank.low,
            highs=bank.highs,
            scaling_low=bank.scaling_low,
            scaling_highs=(bank.scaling_highs[0],),
        )
    with pytest.raises(ValueError, match="at least one high-pass mask"):
        FilterBank(low=bank.low, highs=(), scaling_low=bank.scaling_low, scaling_highs=())


def test_empty_grid_rejected(bank):
    with pytest.raises(ValueError):
        check_partition(bank, [])
    with pytest.raises(ValueError):
        check_refinement(bank, [])


def _refused_bank(tmp_path, capsys, text: str) -> str:
    """stderr of the CLI given a bank file holding text, after checking that it
    exits 2 and writes nothing."""
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(text)
    out = tmp_path / "masks.csv"
    argv = ["sample", "--kind", "masks", "--grid", "8", "--bank", str(bank_path)]
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value, message",
    [
        (["low", "pieces"], None, "at /low: 'pieces' is a required property"),
        (["low", "pieces"], 3, "at /low/pieces: 3 is not of type 'array'"),
        (["highs"], {}, "at /highs: {} is not of type 'array'"),
        (["highs", 1], 7, "at /highs/1: 7 is not of type 'object'"),
        (["scaling_highs", 0, "pieces", 0, "lo"], "0",
         "at /scaling_highs/0/pieces/0/lo: '0' is not of type 'number'"),
        # JSON's true is no number, though Python's bool is an int
        (["low", "pieces", 0, "hi"], True, "at /low/pieces/0/hi: True is not of type 'number'"),
        # a symbol is its pieces, so it has at least one
        (["scaling_highs", 1, "pieces"], [], "at /scaling_highs/1/pieces: [] should be non-empty"),
        (["low", "pieces", 0, "kind"], "tan_nu",
         "at /low/pieces/0/kind: 'tan_nu' is not one of "
         "['const', 'cos_nu', 'sin_nu', 'cos2_nu', 'cossin_nu']"),
        (["highs", 0, "pieces", 1, "kind"], None,
         "at /highs/0/pieces/1: 'kind' is a required property"),
        (["name"], 5, "at /name: 5 is not of type 'string'"),
    ],
)
def test_malformed_bank_document_names_the_field(
    tmp_path, capsys, bank, path, value, message
):
    doc = bank_to_dict(bank)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    err = _refused_bank(tmp_path, capsys, json.dumps(doc))
    assert err == f"validation error {message}\n"


def test_bank_document_must_be_an_object(tmp_path, capsys):
    err = _refused_bank(tmp_path, capsys, "[1, 2]")
    assert err == "validation error: [1, 2] is not of type 'object'\n"


def test_bank_number_beyond_float_range_is_refused(tmp_path, capsys, bank):
    # the strict parser refuses a number that overflows a double, at its place
    text = json.dumps(bank_to_dict(bank))
    text = text.replace('"hi": 0.125', '"hi": 1e400', 1)
    column = text.index("1e400") + 1
    err = _refused_bank(tmp_path, capsys, text)
    assert err == (
        f"malformed JSON: number is infinity when parsed as double (line 1, column {column})\n"
    )


def test_bank_document_ignores_unknown_keys(tmp_path, bank):
    doc = bank_to_dict(bank)
    doc["comment"] = "unknown keys are ignored"
    doc["low"]["pieces"][0]["note"] = 1
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(doc))
    out = tmp_path / "masks.csv"
    argv = ["sample", "--kind", "masks", "--grid", "8", "--bank", str(bank_path)]
    assert cli.main([*argv, "--out", str(out)]) == 0
    want = tmp_path / "shipped.csv"
    assert cli.main(["sample", "--kind", "masks", "--grid", "8", "--out", str(want)]) == 0
    assert out.read_text() == want.read_text()
