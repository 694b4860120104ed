import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_spectral
from triframe.basis import (
    DomainError,
    SpectralVector,
    basis_eval,
    basis_matrix,
    collapsed_factors,
    degree_cutoff,
    eigenvalue,
    lambda_vector,
    linear_index,
    max_degree_within,
    tri_dim,
)
from triframe.filters import Piece, SpectralSymbol
from triframe.quadrature import (
    gram_matrix,
    kronecker_lattice,
    lattice_size,
)
from triframe.transform import (
    CoefficientSequence,
    FrameletSystem,
    adjoint_dft,
    analyze,
    analyze_lowpass,
    convolve,
    decompose,
    dft,
    downsample,
    framelet_values,
    kronecker_system,
    multilevel_decompose,
    multilevel_reconstruct,
    parseval_report,
    reconstruct,
    reference_system,
    relative_difference,
    sequence_to_dict,
    sequence_from_dict,
    tree_from_dict,
    tree_to_dict,
    triangle_grid,
    upsample,
)


@pytest.fixture(scope="module")
def sys_k5(bank):
    return kronecker_system(bank, 5)


@pytest.fixture(scope="module")
def sys_e4(bank):
    return reference_system(bank, 4)


def _delta():
    return SpectralVector(0, np.ones(1))


def test_sequence_values_match_displayed_sum(sys_k5, rng):
    # membership condition: values_k = sqrt(w_k) * sum of spectrum * basis
    j = 3
    f = random_spectral(degree_cutoff(j), rng)
    seq = CoefficientSequence(sys_k5.rule(j), f)
    rule = sys_k5.rule(j)
    for k in [0, 17, 64]:
        want = math.sqrt(rule.weights[k]) * sum(
            f.coeffs[linear_index(ell, m)] * basis_eval((ell, m), rule.nodes[k])
            for ell in range(f.cutoff + 1)
            for m in range(ell + 1)
        )
        rel = abs(seq.values[k] - want) / max(abs(want), 1e-12)
        assert rel < 1e-10


def test_sequence_validation(sys_k5):
    with pytest.raises(ValueError):
        CoefficientSequence(sys_k5.rule(2), None)
    # a sequence is its spectrum: point values are never passed in
    with pytest.raises(TypeError):
        CoefficientSequence(sys_k5.rule(2), _delta(), np.zeros(3, dtype=complex))


def test_framelet_level_zero_is_constant(sys_k5, rng):
    # at level 0 only the constant survives the low-pass scaling symbol:
    # eigenvalue(1) = sqrt(3) exceeds the support edge 1/2
    assert eigenvalue(1) > 0.5
    for k in (0, 1):
        for _ in range(3):
            x = rng.uniform(0, 0.5, 2)
            val = framelet_values(sys_k5, "low", 0, k, [x])[0]
            assert val == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-13)


def test_framelet_matches_direct_sum_oracle(sys_k5, bank):
    # brute-force evaluation straight from the defining double sum
    j, k, n = 2, 3, 2
    rule_lo, rule_hi = sys_k5.rule(j), sys_k5.rule(j + 1)
    for x in [(0.2, 0.3), (0.55, 0.1)]:
        want = 0.0
        cut = max_degree_within(2.0 ** (j - 1))
        for ell in range(cut + 1):
            gain = bank.scaling_low(eigenvalue(ell) / 2.0**j)
            for m in range(ell + 1):
                want += (
                    gain
                    * basis_eval((ell, m), rule_lo.nodes[k])
                    * basis_eval((ell, m), x)
                )
        want /= math.sqrt(rule_lo.size)
        assert_allclose(framelet_values(sys_k5, "low", j, k, [x])[0], want, rtol=1e-10)

        want = 0.0
        cut = max_degree_within(2.0**j)
        for ell in range(cut + 1):
            gain = bank.scaling_highs[n - 1](eigenvalue(ell) / 2.0**j)
            for m in range(ell + 1):
                want += (
                    gain
                    * basis_eval((ell, m), rule_hi.nodes[k])
                    * basis_eval((ell, m), x)
                )
        want /= math.sqrt(rule_hi.size)
        assert_allclose(
            framelet_values(sys_k5, "high", j, k, [x], n=n)[0], want, rtol=1e-10, atol=1e-12
        )


@pytest.mark.parametrize("resolution", [*range(2, 40), 255, 256, 1000, 2047, 2048])
def test_triangle_grid_matches_the_filtered_square(resolution):
    """Row by row, the grid keeps the points and the order of the filtered
    full square, bit for bit."""
    axis = np.linspace(0.0, 1.0, resolution)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    square = np.stack((xx.ravel(), yy.ravel()), axis=1)
    want = square[square.sum(axis=1) <= 1.0]
    got = triangle_grid(resolution)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_framelet_values_matches_pointwise(sys_k5):
    pts = triangle_grid(17)
    vals = framelet_values(sys_k5, "low", 2, 5, pts)
    for i in (0, 31, len(pts) - 1):
        assert_allclose(
            vals[i], framelet_values(sys_k5, "low", 2, 5, [pts[i]])[0], rtol=1e-12
        )


def test_framelet_values_match_table_path(sys_k5, bank):
    # the table-free sum against the tabulated synthesis of the same framelet,
    # its coefficients read from the rule's weighted basis table
    j, k, n = 3, 37, 2
    symbol = bank.scaling_highs[n - 1]
    cut = max_degree_within(2.0**j * symbol.support[1])
    row = kronecker_lattice(j + 1).weighted_basis(cut)[k]
    coeffs = symbol(lambda_vector(cut) / 2.0**j) * row
    pts = triangle_grid(33)
    want = basis_matrix(pts, cut) @ coeffs
    got = framelet_values(sys_k5, "high", j, k, pts, n=n)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_framelet_values_refuse_a_nan_point(sys_k5):
    with pytest.raises(DomainError, match="outside the simplex"):
        framelet_values(sys_k5, "low", 2, 5, [(0.2, 0.2), (np.nan, 0.2)])


def test_framelet_values_build_no_table(bank):
    sys_ = kronecker_system(bank, 5)
    framelet_values(sys_, "high", 4, 100, triangle_grid(64), n=1)
    framelet_values(sys_, "low", 3, 7, [(0.2, 0.3)])
    assert all(rule._factors.pair is None for rule in sys_.rules)


def test_framelet_index_errors(sys_k5):
    with pytest.raises(IndexError):
        framelet_values(sys_k5, "low", 2, lattice_size(2), [(0.2, 0.2)])
    with pytest.raises(IndexError):
        framelet_values(sys_k5, "high", 2, 0, [(0.2, 0.2)], n=3)
    with pytest.raises(IndexError):
        framelet_values(sys_k5, "high", 5, 0, [(0.2, 0.2)])  # needs rule 6
    with pytest.raises(ValueError):
        framelet_values(sys_k5, "band", 2, 0, [(0.2, 0.2)])


def test_analyze_constant(sys_k5):
    for j in (0, 2, 4):
        if j + 1 <= sys_k5.J:
            low, highs = analyze(sys_k5, _delta(), j)
            for h in highs:
                assert np.abs(h.values).max() < 1e-15
        else:
            low = analyze_lowpass(sys_k5, _delta(), j)
        assert_allclose(low.values, 1.0 / math.sqrt(lattice_size(j)), rtol=1e-14)


def test_analyze_outside_lowpass_support(sys_k5):
    # a pure degree-4 input at level 2 sits beyond the scaling support
    coeffs = np.zeros(tri_dim(4))
    coeffs[linear_index(4, 2)] = 1.0
    f = SpectralVector(4, coeffs)
    assert eigenvalue(4) / 2.0**2 > 0.5
    low = analyze_lowpass(sys_k5, f, 2)
    assert np.abs(low.spectral.coeffs).max() == 0.0
    assert np.abs(low.values).max() == 0.0


def test_analyze_energy_two_ways(sys_k5, rng):
    # point-value energy equals the gram-weighted spectral energy
    j = 4
    f = random_spectral(degree_cutoff(sys_k5.J), rng)
    low = analyze_lowpass(sys_k5, f, j)
    point_energy = float(np.vdot(low.values, low.values).real)
    gram = gram_matrix(sys_k5.rule(j), low.spectral.cutoff).entries
    spec = low.spectral.coeffs
    spectral_energy = float(np.real(np.conj(spec) @ gram @ spec))
    assert abs(point_energy - spectral_energy) <= 1e-10 * max(point_energy, 1.0)


def test_analyze_needs_next_rule(sys_k5, rng):
    with pytest.raises(IndexError):
        analyze(sys_k5, random_spectral(2, rng), sys_k5.J)


def test_convolve_identity_symbol(sys_k5, rng):
    ones = SpectralSymbol(pieces=(Piece(0.0, 64.0, "const", value=1.0),))
    j = 3
    v = CoefficientSequence(sys_k5.rule(j), random_spectral(degree_cutoff(j), rng))
    out = convolve(v, ones)
    assert np.array_equal(out.spectral.coeffs, v.spectral.coeffs)


def test_convolve_constant_under_lowpass(sys_k5, bank):
    v = CoefficientSequence(sys_k5.rule(2), _delta())
    out = convolve(v, bank.low)
    assert out.spectral.coeffs[linear_index(0, 0)] == 1.0 + 0j


def test_convolve_energy_partition(sys_k5, bank, rng):
    # mask partition applied coefficient-wise splits the spectral energy
    j = 4
    v = CoefficientSequence(sys_k5.rule(j), random_spectral(degree_cutoff(j), rng))
    total = np.linalg.norm(convolve(v, bank.low).spectral.coeffs) ** 2
    for sym in bank.highs:
        total += np.linalg.norm(convolve(v, sym).spectral.coeffs) ** 2
    want = np.linalg.norm(v.spectral.coeffs) ** 2
    assert abs(total - want) <= 1e-12 * want


def test_convolve_requires_spectral(sys_k5, bank):
    # a sequence without a spectrum cannot be built, so never reaches convolve
    with pytest.raises(ValueError, match="needs its spectrum"):
        convolve(CoefficientSequence(sys_k5.rule(2), None), bank.low)


def test_downsample_truncates_and_resynthesizes(sys_k5):
    # component above the 2**(j-1) band edge disappears
    j = 3
    coeffs = np.zeros(tri_dim(7))
    coeffs[linear_index(0, 0)] = 2.0
    coeffs[linear_index(7, 1)] = 1.0
    wide = SpectralVector(7, coeffs)
    assert eigenvalue(7) > 2.0 ** (j - 1)
    v = CoefficientSequence(sys_k5.rule(j), wide)
    out = downsample(sys_k5, v)
    assert out.level == j - 1
    assert out.spectral.cutoff <= degree_cutoff(j)
    assert out.spectral.coeffs[linear_index(0, 0)] == 2.0 + 0j
    assert out.spectral.resized(7).coeffs[linear_index(7, 1)] == 0j
    assert_allclose(
        out.values,
        2.0 / math.sqrt(lattice_size(j - 1)),
        rtol=1e-14,
    )


def test_downsample_level_zero_rejected(sys_k5):
    with pytest.raises(ValueError):
        downsample(sys_k5, CoefficientSequence(sys_k5.rule(0), _delta()))


def test_upsample_truncates(sys_k5):
    j = 3  # upsampling to level 3 keeps eigenvalues <= 2
    coeffs = np.zeros(tri_dim(3))
    coeffs[[linear_index(1, 0), linear_index(3, 2)]] = 1.0
    v = CoefficientSequence(sys_k5.rule(j - 1), SpectralVector(3, coeffs))
    out = upsample(sys_k5, v)
    assert out.level == j
    # read at the input's cutoff, so an entry upsample drops reads as 0
    spectrum = out.spectral.resized(3).coeffs
    assert spectrum[linear_index(1, 0)] == 1.0 + 0j  # eigenvalue sqrt(3) <= 2
    assert spectrum[linear_index(3, 2)] == 0j  # eigenvalue sqrt(15) > 2


def test_upsample_missing_rule(bank, rng):
    small = kronecker_system(bank, 1)
    v = CoefficientSequence(small.rule(1), _delta())
    with pytest.raises(IndexError):
        upsample(small, v)


def test_down_up_round_trip_preserves_low_band(sys_k5, rng):
    # spectra inside the 2**(j-2) band survive the up/down pair exactly
    j = 4
    cut = degree_cutoff(j - 1)
    f = random_spectral(cut, rng)
    v = CoefficientSequence(sys_k5.rule(j - 1), f)
    back = downsample(sys_k5, upsample(sys_k5, v))
    assert back.level == j - 1
    assert np.array_equal(back.spectral.resized(cut).coeffs, f.coeffs)


def test_decompose_constant_chain(sys_k5):
    v1 = CoefficientSequence(sys_k5.rule(1), _delta())
    low, highs = decompose(sys_k5, v1)
    assert low.level == 0
    assert low.spectral.coeffs[linear_index(0, 0)] == 1.0 + 0j
    for h in highs:
        assert np.abs(h.spectral.coeffs).max() == 0.0


def test_decompose_commutes_with_analysis(sys_k5, rng):
    f = random_spectral(degree_cutoff(sys_k5.J), rng)
    for j in range(1, sys_k5.J + 1):
        got_low, got_highs = decompose(sys_k5, analyze_lowpass(sys_k5, f, j))
        want_low = analyze_lowpass(sys_k5, f, j - 1)
        _, want_highs = analyze(sys_k5, f, j - 1)
        assert relative_difference(got_low, want_low) < 1e-10
        for g, w in zip(got_highs, want_highs):
            assert relative_difference(g, w) < 1e-10


def test_round_trip_exact_and_kronecker(bank, rng):
    for family in ("kronecker", "reference"):
        for j in (1, 3, 5):
            sys_ = (
                kronecker_system(bank, j)
                if family == "kronecker"
                else reference_system(bank, j)
            )
            v = CoefficientSequence(sys_.rule(j), random_spectral(degree_cutoff(j), rng))
            low, highs = decompose(sys_, v)
            back = reconstruct(sys_, low, highs)
            assert relative_difference(v, back) < 1e-10


def test_reconstruct_validation(sys_k5, rng):
    v = CoefficientSequence(sys_k5.rule(2), random_spectral(degree_cutoff(2), rng))
    low, highs = decompose(sys_k5, v)
    with pytest.raises(ValueError):
        reconstruct(sys_k5, low, highs[:1])
    with pytest.raises(ValueError):
        reconstruct(sys_k5, downsample(sys_k5, low), highs)


def test_reconstruct_constant_chain(sys_k5):
    # level-0 constants with zero details rebuild the level-1 analysis
    v0 = analyze_lowpass(sys_k5, _delta(), 0)
    zeros = [
        CoefficientSequence(sys_k5.rule(1), SpectralVector(0, np.zeros(1)))
        for _ in range(sys_k5.r)
    ]
    got = reconstruct(sys_k5, v0, zeros)
    want = analyze_lowpass(sys_k5, _delta(), 1)
    assert relative_difference(got, want) < 1e-14


def test_reconstruct_zero(sys_k5):
    zero = SpectralVector(0, np.zeros(1))
    low = CoefficientSequence(sys_k5.rule(0), zero)
    highs = [CoefficientSequence(sys_k5.rule(1), zero) for _ in range(sys_k5.r)]
    out = reconstruct(sys_k5, low, highs)
    assert np.abs(out.values).max() == 0.0


def test_multilevel_single_level_equals_decompose(sys_k5, rng):
    v = CoefficientSequence(sys_k5.rule(1), random_spectral(degree_cutoff(1), rng))
    tree = multilevel_decompose(sys_k5, v)
    low, highs = decompose(sys_k5, v)
    assert tree.J == 1
    assert relative_difference(tree.base, low) == 0.0
    for a, b in zip(tree.details[0], highs):
        assert relative_difference(a, b) == 0.0


def test_multilevel_constant(sys_k5):
    v3 = analyze_lowpass(sys_k5, _delta(), 3)
    tree = multilevel_decompose(sys_k5, v3)
    assert relative_difference(tree.base, analyze_lowpass(sys_k5, _delta(), 0)) < 1e-14
    for highs in tree.details:
        for h in highs:
            assert np.abs(h.values).max() < 1e-15


def test_multilevel_round_trip(sys_k5, rng):
    f = random_spectral(degree_cutoff(5), rng)
    v5 = analyze_lowpass(sys_k5, f, 5)
    tree = multilevel_decompose(sys_k5, v5)
    back = multilevel_reconstruct(sys_k5, tree)
    assert relative_difference(v5, back) < 1e-9


@pytest.mark.parametrize("levels", [1, 2, 4, 6])
def test_multilevel_coefficient_counts(bank, rng, levels):
    sys_ = kronecker_system(bank, levels)
    v = CoefficientSequence(sys_.rule(levels), random_spectral(degree_cutoff(levels), rng))
    tree = multilevel_decompose(sys_, v)
    want = lattice_size(0) + sys_.r * sum(
        lattice_size(j) for j in range(1, levels + 1)
    )
    assert tree.coefficient_count() == want


def test_transform_outputs_respect_spectral_cap(sys_k5, rng):
    # every produced sequence keeps its cutoff under the carrier level's cap
    f = random_spectral(degree_cutoff(5), rng)
    v = analyze_lowpass(sys_k5, f, 5)
    tree = multilevel_decompose(sys_k5, v)
    assert tree.base.spectral.cutoff <= degree_cutoff(tree.base.level)
    for highs in tree.details:
        for h in highs:
            assert h.spectral.cutoff <= degree_cutoff(h.level)


def test_dft_constant_on_equal_weights(sys_k5):
    rule = sys_k5.rule(3)
    out = dft(_delta(), 3, rule)
    assert_allclose(out, 1.0 / math.sqrt(rule.size), rtol=1e-15)


def test_dft_linearity(sys_k5, rng):
    rule = sys_k5.rule(3)
    u1 = random_spectral(degree_cutoff(3), rng)
    u2 = random_spectral(degree_cutoff(3), rng)
    both = SpectralVector(u1.cutoff, u1.coeffs + u2.coeffs)
    lhs = dft(both, 3, rule)
    rhs = dft(u1, 3, rule) + dft(u2, 3, rule)
    assert np.abs(lhs - rhs).max() <= 1e-13 * np.abs(lhs).max()


def test_dft_adjoint_recovers_under_exact_rule(bank, rng):
    j = 4
    cut = degree_cutoff(j)
    rule = reference_system(bank, j).rule(j)
    u = random_spectral(cut, rng)
    back = adjoint_dft(dft(u, j, rule), j, rule)
    assert np.abs(back.coeffs - u.coeffs).max() < 1e-12


def test_dft_adjointness(sys_k5, rng):
    j = 4
    rule = sys_k5.rule(j)
    u = random_spectral(degree_cutoff(j), rng)
    v = rng.standard_normal(rule.size) + 1j * rng.standard_normal(rule.size)
    lhs = np.vdot(v, dft(u, j, rule))
    rhs = np.vdot(adjoint_dft(v, j, rule).coeffs, u.coeffs)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_dft_composition_equals_gram(sys_k5, rng):
    j = 3
    rule = sys_k5.rule(j)
    cut = degree_cutoff(j)
    gram = gram_matrix(rule, cut).entries
    composed = np.empty((tri_dim(cut), tri_dim(cut)), dtype=complex)
    eye = np.eye(tri_dim(cut), dtype=complex)
    for i in range(tri_dim(cut)):
        u = SpectralVector(cut, eye[i])
        composed[:, i] = adjoint_dft(dft(u, j, rule), j, rule).coeffs
    assert np.abs(composed - gram).max() <= 1e-12


def test_dft_errors(sys_k5, rng):
    with pytest.raises(ValueError):
        dft(random_spectral(degree_cutoff(4), rng), 3, sys_k5.rule(3))
    with pytest.raises(ValueError):
        adjoint_dft(np.zeros(10, dtype=complex), 3, sys_k5.rule(3))
    assert np.abs(adjoint_dft(np.zeros(lattice_size(3)), 3, sys_k5.rule(3)).coeffs).max() == 0.0


def test_parseval_constant(sys_k5):
    report = parseval_report(sys_k5, _delta(), 3)
    for row in report["levels"]:
        assert row["residual"] <= 1e-12
        assert max(row["high"]) <= 1e-25
    assert report["top"]["residual"] <= 1e-12


def test_parseval_exact_rules(sys_e4, rng):
    f = random_spectral(degree_cutoff(4), rng)
    report = parseval_report(sys_e4, f, 4)
    assert report["max_level_residual"] <= 1e-10 * max(f.norm() ** 2, 1.0)
    # the limit identity needs the band inside the flat low-pass region
    f_flat = f.resized(degree_cutoff(3))
    report = parseval_report(sys_e4, f_flat, 4)
    assert report["top"]["residual"] <= 1e-10 * max(f_flat.norm() ** 2, 1.0)


def _parseval_gram_prediction(sys_, f, j):
    """Independent spectral-form prediction of the level-j Parseval residual."""
    bank = sys_.bank
    out = 0.0
    terms = [
        (bank.scaling_low, j + 1, sys_.rule(j + 1), +1.0),
        (bank.scaling_low, j, sys_.rule(j), -1.0),
    ]
    terms += [(sym, j, sys_.rule(j + 1), -1.0) for sym in bank.scaling_highs]
    for sym, scale, rule, sign in terms:
        cut = min(f.cutoff, max_degree_within(2.0**scale * sym.support[1]))
        gains = np.conj(sym(lambda_vector(cut) / 2.0**scale))
        g = gains * f.coeffs[: tri_dim(cut)]
        gram = gram_matrix(rule, cut).entries
        out += sign * float(np.real(np.conj(g) @ gram @ g))
    return abs(out)


def test_parseval_kronecker_matches_gram_prediction(sys_k5, rng):
    f = random_spectral(degree_cutoff(4), rng)
    report = parseval_report(sys_k5, f, 4)
    for row in report["levels"]:
        predicted = _parseval_gram_prediction(sys_k5, f, row["j"])
        assert abs(row["residual"] - predicted) <= 1e-10 * max(predicted, 1.0)


def test_sequence_serialization_round_trip(sys_k5, rng):
    v = analyze_lowpass(sys_k5, random_spectral(degree_cutoff(3), rng), 3)
    doc = json.loads(json.dumps(sequence_to_dict(v), default=np.ndarray.tolist))
    back = sequence_from_dict(doc, sys_k5)
    assert np.array_equal(back.values, v.values)
    assert np.array_equal(back.spectral.coeffs, v.spectral.coeffs)
    assert back.level == v.level


def test_loaded_sequence_checks_the_form_of_its_values_and_synthesizes_them(sys_k5, rng):
    v = analyze_lowpass(sys_k5, random_spectral(degree_cutoff(3), rng), 3)
    doc = json.loads(json.dumps(sequence_to_dict(v), default=np.ndarray.tolist))
    # the values are checked for form and not read back
    doc["v"] = [[0.0, 0.0]] * len(doc["v"])
    assert np.array_equal(sequence_from_dict(doc, sys_k5).values, v.values)
    for bad in (doc["v"][1:], [[1.0, 2.0, 3.0]] * len(doc["v"]), [[10**400, 0]] * len(doc["v"])):
        with pytest.raises(ValueError):
            sequence_from_dict({**doc, "v": bad}, sys_k5)


def test_tree_serialization_round_trip(sys_k5, rng):
    v = analyze_lowpass(sys_k5, random_spectral(degree_cutoff(3), rng), 3)
    tree = multilevel_decompose(sys_k5, v)
    doc = json.loads(json.dumps(tree_to_dict(tree), default=np.ndarray.tolist))
    back = tree_from_dict(doc, sys_k5)
    assert relative_difference(back.base, tree.base) == 0.0
    for got, want in zip(back.details, tree.details):
        for g, w in zip(got, want):
            assert np.array_equal(g.values, w.values)
    # a duplicated low- or high-pass entry is rejected, not overwritten
    for entry in (doc["levels"][0], doc["levels"][3]):
        with pytest.raises(ValueError, match="duplicate"):
            tree_from_dict(dict(doc, levels=doc["levels"] + [entry]), sys_k5)
    # a missing entry is rejected
    doc["levels"] = doc["levels"][:-1]
    with pytest.raises(ValueError):
        tree_from_dict(doc, sys_k5)


def test_tree_entry_past_what_reconstruction_reads_is_refused(sys_k5, rng):
    v = analyze_lowpass(sys_k5, random_spectral(degree_cutoff(4), rng), 4)
    doc = json.loads(
        json.dumps(tree_to_dict(multilevel_decompose(sys_k5, v)), default=np.ndarray.tolist)
    )
    tree_from_dict(doc, sys_k5)
    for i, entry in enumerate(doc["levels"]):
        # with the shipped bank, reconstruction reads each entry up to the
        # cutoff of its rule's level, and decompose writes every entry there
        reads = degree_cutoff(entry["j"] + (entry["channel"] == "high"))
        assert entry["spectral"]["cutoff"] == reads
        wide = {"cutoff": reads + 1, "coeffs": [[1.0, 0.0]] * tri_dim(reads + 1)}
        levels = [*doc["levels"][:i], dict(entry, spectral=wide), *doc["levels"][i + 1 :]]
        message = f"carries cutoff {reads + 1}; reconstruction reads at most cutoff {reads} there$"
        with pytest.raises(ValueError, match=message):
            tree_from_dict(dict(doc, levels=levels), sys_k5)


def test_system_refuses_a_rule_off_its_level(bank):
    with pytest.raises(ValueError, match="^rule at position 1 carries level 2$"):
        FrameletSystem(bank, [kronecker_lattice(0), kronecker_lattice(2)])


def test_parseval_report_refuses_levels_outside_the_system(sys_k5, rng):
    f = random_spectral(degree_cutoff(4), rng)
    for levels in (0, sys_k5.J + 1):
        with pytest.raises(ValueError, match=r"^levels must lie in 1\.\.5$"):
            parseval_report(sys_k5, f, levels)


def test_complex_pairs_match_float_loop(rng):
    """The (n, 2) float64 pairs hold the floats the per-element loop gave."""
    from triframe.transform import _complex_pairs

    special = np.array([-0.0, 1e-300, 1e300, 3.0, 5e-324])
    cases = [
        rng.standard_normal(7) + 1j * rng.standard_normal(7),
        special + 1j * special[::-1],
        special,
        np.empty(0, dtype=complex),
    ]
    for arr in cases:
        want = [[float(z.real), float(z.imag)] for z in np.asarray(arr, dtype=complex)]
        got = _complex_pairs(arr)
        assert got.dtype == np.float64 and got.shape == (len(want), 2)
        assert repr(got.tolist()) == repr(want)


def _written_values(seq):
    """The point values sequence_to_dict(fixed_order=True) writes for seq."""
    pairs = np.asarray(sequence_to_dict(seq, fixed_order=True)["v"])
    return pairs[:, 0] + 1j * pairs[:, 1]


def test_bit_reproducible_mode(sys_k5, rng):
    f = random_spectral(degree_cutoff(4), rng)
    a = _written_values(analyze_lowpass(sys_k5, f, 4))
    b = _written_values(analyze_lowpass(sys_k5, f, 4))
    assert np.array_equal(a, b)
    c = analyze_lowpass(sys_k5, f, 4).values
    assert np.abs(a - c).max() <= 1e-12 * np.abs(c).max()


def test_system_validation(bank):
    # a level-1 lattice labelled level 0 is refused by the rule itself
    with pytest.raises(ValueError, match="level-0 lattice must have 2 nodes"):
        FrameletSystem(bank, [kronecker_lattice(0), replace(kronecker_lattice(1), level=0)])


def test_system_without_rules_is_refused(bank):
    with pytest.raises(ValueError, match="at least one rule"):
        FrameletSystem(bank, [])


# -- relative_difference: the spectra compared, nothing synthesized --


def test_relative_difference_synthesizes_nothing(sys_k5, rng, monkeypatch):
    from triframe import transform

    def refuse(*args, **kwargs):
        raise AssertionError("relative_difference ran the synthesis engine")

    monkeypatch.setattr(transform, "factored_sum", refuse)
    top = analyze_lowpass(sys_k5, random_spectral(degree_cutoff(5), rng), 5)
    recon = multilevel_reconstruct(sys_k5, multilevel_decompose(sys_k5, top))
    assert relative_difference(top, recon) <= 1e-12
    assert top._values is None and recon._values is None


def test_relative_difference_needs_one_node_set(rng):
    f = random_spectral(degree_cutoff(3), rng)
    a = CoefficientSequence(kronecker_lattice(3, shift=(0.1, 0.2)), f)
    # the same spectrum on more nodes, and on as many nodes shifted elsewhere
    for rule in (kronecker_lattice(4, shift=(0.1, 0.2)), kronecker_lattice(3, shift=(0.3, 0.7))):
        assert relative_difference(a, CoefficientSequence(rule, f)) == math.inf
    # two rule objects with equal nodes and weights are one node set
    c = CoefficientSequence(kronecker_lattice(3, shift=(0.1, 0.2)), f)
    assert c.rule is not a.rule
    assert relative_difference(a, c) == 0.0


def test_relative_difference_is_the_largest_spectral_change(sys_k5, rng):
    cut = degree_cutoff(3)
    f = random_spectral(cut, rng)
    top = np.abs(f.coeffs).max()
    changed = f.coeffs.copy()
    changed[7] += 1e-6 * top
    a = CoefficientSequence(sys_k5.rule(3), f)
    b = CoefficientSequence(sys_k5.rule(3), SpectralVector(cut, changed))
    assert relative_difference(a, b) == pytest.approx(1e-6, rel=1e-6)
    # a wider spectrum is compared against the narrower one zero-padded
    padded = f.resized(cut + 2).coeffs
    padded[-1] = 3e-4 * top
    c = CoefficientSequence(sys_k5.rule(3), SpectralVector(cut + 2, padded))
    assert relative_difference(a, c) == pytest.approx(3e-4, rel=1e-12)
    assert relative_difference(c, a) == relative_difference(a, c)


# -- synthesis: one engine call per sequence, on its first read --


@pytest.fixture
def synth_calls(monkeypatch):
    """Records the coefficient vector of every engine sum that transform runs."""
    from triframe import transform

    calls = []
    original = transform.factored_sum

    def counting(factors, coeffs, cutoff, fixed_order=False):
        calls.append(coeffs)
        return original(factors, coeffs, cutoff, fixed_order)

    monkeypatch.setattr(transform, "factored_sum", counting)
    return calls


def _assert_own_memory(seqs):
    # no sequence's values are a view into a buffer shared with another
    assert all(seq.values.flags.owndata for seq in seqs)
    for i, a in enumerate(seqs):
        for b in seqs[i + 1 :]:
            assert not np.shares_memory(a.values, b.values)


def test_decompose_synthesizes_each_sequence_on_its_own_read(sys_k5, rng, synth_calls):
    v = analyze_lowpass(sys_k5, random_spectral(degree_cutoff(5), rng), 5)
    low, highs = decompose(sys_k5, v)
    for _ in range(2):
        for seq in [v, *highs]:
            seq.values
    assert len(synth_calls) == 1 + sys_k5.r and low._values is None
    _assert_own_memory([v, *highs])
    for seq in [v, *highs]:
        assert np.array_equal(seq.values, dft(seq.spectral, 5, seq.rule))


def test_decompose_keeps_existing_values(sys_k5, rng, synth_calls):
    v = analyze_lowpass(sys_k5, random_spectral(degree_cutoff(4), rng), 4)
    before = v.values
    _, highs = decompose(sys_k5, v)
    highs[1].values
    assert v.values is before
    assert len(synth_calls) == 2


def test_reading_one_decompose_output_synthesizes_only_that_output(sys_k5, rng, synth_calls):
    # there are no batches: reading one output synthesizes that output alone
    v = analyze_lowpass(sys_k5, random_spectral(degree_cutoff(4), rng), 4)
    _, highs = decompose(sys_k5, v)
    highs[0].values
    assert len(synth_calls) == 1
    assert v._values is None and highs[1]._values is None


def test_multilevel_decompose_synthesizes_only_what_is_read(sys_k5, rng, synth_calls):
    v = analyze_lowpass(sys_k5, random_spectral(degree_cutoff(5), rng), 5)
    tree = multilevel_decompose(sys_k5, v)
    assert synth_calls == []
    for highs in tree.details:
        highs[0].values
    assert len(synth_calls) == len(tree.details)
    assert v._values is None


def test_sequences_of_mixed_cutoffs_on_one_rule_match_lone_synthesis(sys_k5, rng):
    # sequences of mixed cutoffs on one rule read leading rows of its factors
    rule = sys_k5.rule(4)
    seqs = [
        CoefficientSequence(rule, random_spectral(cut, rng)) for cut in (2, 7, 0, 5)
    ]
    for seq in seqs:
        seq.values
    # the system's one pair, built at its top cutoff
    assert [f.shape for f in rule._factors.pair] == [(16, lattice_size(5))] * 2
    _assert_own_memory(seqs)
    for seq in seqs:
        # alone, on a fresh rule whose factors are built at the sequence's cutoff
        alone = CoefficientSequence(kronecker_lattice(4), seq.spectral)
        assert np.array_equal(seq.values, alone.values)
        table = rule.weighted_basis(seq.spectral.cutoff)
        want = table @ seq.spectral.coeffs
        assert np.abs(seq.values - want).max() <= 1e-14 * np.abs(want).max()


def test_analyze_synthesizes_each_high_on_its_own_read(sys_k5, rng, synth_calls):
    f = random_spectral(degree_cutoff(4), rng)
    low, highs = analyze(sys_k5, f, 3)
    highs[-1].values
    assert len(synth_calls) == 1
    assert highs[0]._values is None and low._values is None
    for h in highs:
        h.values
    assert len(synth_calls) == sys_k5.r
    _assert_own_memory(highs)


def test_levels_of_a_kronecker_system_read_one_factor_pair(bank):
    sys_ = kronecker_system(bank, 5)
    # a lower level asks first, and the pair is built for the top level at
    # its cutoff
    sys_.rule(2).node_factors(1)
    pair = sys_.rule(0)._factors.pair
    assert [f.shape for f in pair] == [(degree_cutoff(5) + 1, lattice_size(5))] * 2
    for rule in sys_.rules:
        cutoff = degree_cutoff(rule.level)
        factors = rule.node_factors(cutoff)
        for mine, shared in zip(factors, pair):
            assert mine.shape == (cutoff + 1, rule.size)
            assert np.shares_memory(mine, shared)
        # the window equals the factors of the level's own nodes
        for mine, own in zip(factors, collapsed_factors(rule.nodes, cutoff)):
            assert np.array_equal(mine, own)
    assert all(rule._factors.pair is pair for rule in sys_.rules)
    # one level's clear_cache clears the pair for every level
    sys_.rule(3).clear_cache()
    assert all(rule._factors.pair is None for rule in sys_.rules)


def test_a_system_built_from_lattices_reads_one_factor_pair(bank):
    rules = [kronecker_lattice(j) for j in range(6)]
    FrameletSystem(bank, rules)
    pair = rules[-1].node_factors(degree_cutoff(5))
    assert [f.shape for f in pair] == [(degree_cutoff(5) + 1, lattice_size(5))] * 2
    for rule in rules:
        for mine, shared in zip(rule.node_factors(degree_cutoff(rule.level)), pair):
            assert np.shares_memory(mine, shared)


def test_a_level_off_the_top_node_set_keeps_its_own_factors(bank):
    shifted = kronecker_lattice(2, shift=(0.1, 0.2))
    rules = [kronecker_lattice(0), kronecker_lattice(1), shifted, kronecker_lattice(3)]
    FrameletSystem(bank, rules)
    cutoff = degree_cutoff(2)
    top = rules[-1].node_factors(degree_cutoff(3))
    own = collapsed_factors(shifted.nodes, cutoff)
    for mine, shared, alone in zip(shifted.node_factors(cutoff), top, own):
        assert not np.shares_memory(mine, shared)
        assert np.array_equal(mine, alone)
    # the unshifted lower levels still lead the top level's nodes
    for rule in rules[:2]:
        assert np.shares_memory(rule.node_factors(0)[0], top[0])


def test_fixed_order_values_ignore_the_width_of_cached_factors(sys_k5, rng):
    # the rule's factors are cached at its full cutoff, wider than one sequence's
    rule = sys_k5.rule(4)
    rule.node_factors(degree_cutoff(4))
    for cut in (7, 3):
        spec = random_spectral(cut, rng)
        # alone, on a fresh rule whose factors are built at the sequence's cutoff
        alone = CoefficientSequence(kronecker_lattice(4), spec)
        assert np.array_equal(
            _written_values(CoefficientSequence(rule, spec)), _written_values(alone)
        )


def test_fixed_order_sum_holds_no_table_sized_temporary(rng):
    import tracemalloc

    from triframe.transform import _point_values

    rule = kronecker_lattice(6)
    seq = CoefficientSequence(rule, random_spectral(degree_cutoff(6), rng))
    want = seq.values  # builds and caches the node factors outside the traced call
    tracemalloc.start()
    try:
        got = _point_values(seq, fixed_order=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the BLAS path's (2, 32, N) product takes 2.1 MB, a dense (N, dim)
    # complex product 4097 * 528 * 16 B = 34.6 MB
    assert peak < 1_000_000
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _dense_products(rule, coeffs, values, cutoff, block=2048):
    """(B @ coeffs, B.T @ values) for the sqrt(w)-weighted basis table B,
    built a block of nodes at a time."""
    synth, adjoint = [], 0.0
    for i in range(0, rule.size, block):
        table = basis_matrix(rule.nodes[i : i + block], cutoff)
        table *= np.sqrt(rule.weights[i : i + block])[:, None]
        synth.append(table @ coeffs)
        adjoint = adjoint + table.T @ values[i : i + block]
    return np.concatenate(synth), adjoint


@pytest.mark.parametrize("j", [5, 6, 7])
@pytest.mark.parametrize(
    "strategy, shift", [("fold", (0.0, 0.0)), ("intersect", (0.0, 0.0)), ("fold", (0.37, 0.81))]
)
def test_engine_matches_dense_table_products(j, strategy, shift, rng):
    rule = kronecker_lattice(j, shift=shift, strategy=strategy)
    cut = degree_cutoff(j)
    u = random_spectral(cut, rng)
    v = rng.standard_normal(rule.size) + 1j * rng.standard_normal(rule.size)
    want_values, want_adjoint = _dense_products(rule, u.coeffs, v, cut)
    got_values = dft(u, j, rule)
    got_adjoint = adjoint_dft(v, j, rule).coeffs
    assert np.abs(got_values - want_values).max() <= 1e-13 * np.abs(want_values).max()
    assert np.abs(got_adjoint - want_adjoint).max() <= 1e-13 * np.abs(want_adjoint).max()
    # the adjoint identity <dft(u), v> = <u, adjoint_dft(v)>
    lhs = np.vdot(v, got_values)
    rhs = np.vdot(got_adjoint, u.coeffs)
    assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(v) * np.linalg.norm(got_values)


def test_engine_values_at_level_8_nodes_match_scalar_oracle(rng):
    rule = kronecker_lattice(8)
    cut = degree_cutoff(8)
    # a sparse spectrum keeps the scalar oracle fast; it reaches the top degree
    members = [(cut, 0), (cut, cut // 2), (cut, cut)]
    members += [
        (ell, int(rng.integers(ell + 1))) for ell in rng.integers(0, cut + 1, size=61)
    ]
    entries = {idx: complex(*rng.standard_normal(2)) for idx in members}
    coeffs = np.zeros(tri_dim(cut), dtype=complex)
    for idx, value in entries.items():
        coeffs[linear_index(*idx)] = value
    u = SpectralVector(cut, coeffs)
    values = dft(u, 8, rule)
    nodes = rng.choice(rule.size, size=16, replace=False)
    want = np.array([
        math.sqrt(rule.weights[k])
        * sum(value * basis_eval(idx, rule.nodes[k]) for idx, value in entries.items())
        for k in nodes
    ])
    assert np.abs(values[nodes] - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=40, deadline=None)
@given(
    J=st.integers(1, 4),
    level_share=st.floats(0.0, 1.0),
    cutoff_share=st.floats(0.0, 1.0),
    generator=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
    shift=st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 0.99)),
    strategy=st.sampled_from(["fold", "intersect"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_analysis_commutation_property(
    bank, J, level_share, cutoff_share, generator, shift, strategy, seed
):
    try:
        sys_ = kronecker_system(bank, J, generator, shift, strategy)
    except ValueError as exc:
        # a degenerate generator can leave too few lattice points in the triangle
        assert "intersect strategy found only" in str(exc)
        reject()
    j = 1 + round(level_share * (J - 1))
    f = random_spectral(round(cutoff_share * degree_cutoff(J)), np.random.default_rng(seed))
    got_low, got_highs = decompose(sys_, analyze_lowpass(sys_, f, j))
    want_low, want_highs = analyze(sys_, f, j - 1)
    for got, want in zip([got_low, *got_highs], [want_low, *want_highs]):
        assert got.rule is want.rule
        assert relative_difference(got, want) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    J=st.integers(1, 4),
    cutoff_share=st.floats(0.0, 1.0),
    generator=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
    shift=st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 0.99)),
    strategy=st.sampled_from(["fold", "intersect"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_multilevel_round_trip_property(
    bank, J, cutoff_share, generator, shift, strategy, seed
):
    try:
        sys_ = kronecker_system(bank, J, generator, shift, strategy)
    except ValueError as exc:
        # a degenerate generator can leave too few lattice points in the triangle
        assert "intersect strategy found only" in str(exc)
        reject()
    cutoff = round(cutoff_share * degree_cutoff(J))
    f = random_spectral(cutoff, np.random.default_rng(seed))
    top = analyze_lowpass(sys_, f, J)
    recon = multilevel_reconstruct(sys_, multilevel_decompose(sys_, top))
    assert relative_difference(top, recon) <= 1e-12
