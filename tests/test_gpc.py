"""Constraint catalogs, pinning evaluation, and regime classification."""

from __future__ import annotations

import numpy as np
import pytest

from fermipin.errors import (
    ParseError,
    RegimeError,
    RepresentabilityError,
    UnsupportedRankError,
    WidthError,
)
from fermipin.gpc import (
    Catalog,
    GPConstraint,
    catalog,
    classify_regime_36,
    classify_tier,
    evaluate,
    evaluate_stack,
    load_catalog_file,
)
from fermipin.rdm import OccupationSpectrum

# Published full-CI natural occupations for He2+ at its equilibrium bond
# length (2.08 a.u.) in the 6-31G basis, for CI ranks six to eight.
HE2_RANK6 = [0.9992, 0.9949, 0.9941, 5.8086e-3, 5.0914e-3, 0.7172e-3]
HE2_RANK7 = [0.9973, 0.9941, 0.9915, 7.1019e-3, 5.8950e-3, 2.5530e-3, 1.3220e-3]
HE2_RANK8 = [0.9968, 0.9932, 0.9901, 8.4888e-3, 6.8304e-3, 3.0819e-3,
             1.3665e-3, 0.1178e-4]

# Reference residuals of the 19 rank-(3,8) constraints on HE2_RANK8,
# in units of 1e-3.  Rounded occupations limit agreement to ~2e-4.
HE2_RANK8_RESIDUALS = [
    0.0570, 0.0, 1.2712, 1.4854, 0.0452, 1.2594, 1.4736, 1.3164, 1.5306,
    2.7449, 3.1772, 1.3046, 2.7901, 1.5188, 7.7980, 5.9792, 5.0983, 3.0082,
    5.4973,
]


def test_builtin_catalog_shapes() -> None:
    assert len(catalog(3, 6)) == 1
    assert len(catalog(3, 6).equalities) == 3
    assert len(catalog(3, 7)) == 4
    assert len(catalog(3, 8)) == 19  # 12 more facets exist but are unpublished
    assert len(catalog(4, 8)) == 15


def test_rank_six_rows() -> None:
    cat = catalog(3, 6)
    assert cat.find(1).formula == "2 - n1 - n2 - n4"
    pair_sums = [c.formula for c in cat.equalities]
    assert pair_sums == ["1 - n1 - n6", "1 - n2 - n5", "1 - n3 - n4"]


def test_rank_seven_rows() -> None:
    forms = [c.formula for c in catalog(3, 7).constraints]
    assert forms == [
        "2 - n1 - n2 - n4 - n7",
        "2 - n1 - n2 - n5 - n6",
        "2 - n2 - n3 - n4 - n5",
        "2 - n1 - n3 - n4 - n6",
    ]


def test_rank_eight_structure() -> None:
    cat = catalog(3, 8)
    assert [c.kappa0 for c in cat.constraints] == [
        2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 2, 2, 2, 2, 0
    ]
    assert cat.find(5).formula == "1 - n1 - n2 + n3"
    assert cat.find(11).formula == "1 - n1 - n8"
    assert cat.find(15).formula == "2 - n2 - n3 - 2*n4 + n5 + n7 - n8"
    assert cat.find(19).formula == "-n1 - n2 + 2*n3 + n4 + n5"


def test_four_in_eight_partner_rows() -> None:
    cat = catalog(4, 8)
    # partners reverse and negate the base coefficients around kappa0 = 2
    assert cat.find(8).formula == "2 - n2 - n3 - n5 + n8"
    assert cat.find(14).formula == "2 - n1 - n2 - n3 + n4"
    assert cat.find("pauli").formula == "1 - n1"
    base = cat.find(3)
    partner = cat.find(10)
    assert partner.kappa == tuple(-k for k in reversed(base.kappa))
    assert partner.kappa0 == 2 and base.kappa0 == 0


def test_unsupported_rank_points_to_the_loader() -> None:
    with pytest.raises(UnsupportedRankError, match="load_catalog_file"):
        catalog(4, 10)


def test_catalog_file_round_trip(tmp_path) -> None:
    path = tmp_path / "rank8.gpc"
    rows = [" ".join(map(str, (c.N, c.m, c.mu, c.kappa0, *c.kappa)))
            for c in catalog(3, 8).constraints]
    path.write_text("# the built-in (3,8) facets\n" + "\n".join(rows) + "\n")
    loaded = load_catalog_file(str(path))
    assert (loaded.N, loaded.m) == (3, 8)
    assert loaded.constraints == catalog(3, 8).constraints


def test_catalog_file_validation(tmp_path) -> None:
    def load_text(text: str):
        path = tmp_path / "bad.gpc"
        path.write_text(text)
        return load_catalog_file(str(path))

    with pytest.raises(ParseError):
        load_text("# only comments\n")
    with pytest.raises(ParseError):
        load_text("3 6 1 2 -1 -1 0 -1 0 0.5\n")  # non-integer
    with pytest.raises(ParseError):
        load_text("3 6 1 2 -1 -1 0 -1 0\n")  # five coefficients for m=6
    with pytest.raises(ParseError):
        load_text("3 6 1 2 -1 -1 0 -1 0 0\n3 6 1 2 0 0 0 0 0 -1\n")  # dup mu
    with pytest.raises(ParseError):
        load_text("3 6 1 2 -1 -1 0 -1 0 0\n3 7 2 2 0 0 0 0 0 -1 0\n")  # mixed rank
    # a good file with comments and blank lines
    cat = load_text("# facet\n\n3 6 1 2 -1 -1 0 -1 0 0\n")
    assert cat.find(1).formula == "2 - n1 - n2 - n4"


def test_catalog_file_names_the_line_of_an_oversize_coefficient(tmp_path) -> None:
    # a coefficient too large for exact float sums is located like any other
    # bad line
    path = tmp_path / "huge.gpc"
    path.write_text(f"3 6 1 2 -1 -1 0 -1 0 0\n3 6 2 1 -1 0 0 0 0 {2**46 + 1}\n")
    with pytest.raises(ParseError, match=r"^line 2: a constraint coefficient exceeds 2\*\*46"):
        load_catalog_file(str(path))


def test_catalog_merging(tmp_path) -> None:
    base = catalog(3, 6)
    extra = Catalog(3, 6, (GPConstraint(3, 6, 99, 1, (0, 0, -1, 0, 0, 0)),))
    merged = base.merged(extra)
    assert len(merged) == 2
    assert merged.find(99).formula == "1 - n3"
    with pytest.raises(ValueError):
        base.merged(catalog(3, 7))
    with pytest.raises(ValueError):
        merged.merged(extra)  # duplicate identifier


def test_residual_is_the_linear_form() -> None:
    c = catalog(3, 6).find(1)
    assert c.residual([0.85, 0.75, 0.60, 0.40, 0.25, 0.15]) == pytest.approx(0.0)
    assert c.residual([0.75, 0.65, 0.60, 0.40, 0.35, 0.25]) == pytest.approx(0.2)
    with pytest.raises(WidthError):
        c.residual([1.0, 0.5])


def test_tier_thresholds() -> None:
    assert classify_tier(0.0) == "pinned"
    assert classify_tier(9e-11) == "pinned"
    assert classify_tier(5e-5) == "strong-quasipinned"
    assert classify_tier(5e-3) == "quasipinned"
    assert classify_tier(0.2) == "unpinned"
    assert classify_tier(5e-3, (1e-12, 1e-6, 1e-1)) == "quasipinned"
    for thresholds in ((1e-2, 1e-4, 1e-10), (0.0, 1e-4, 1e-2)):
        with pytest.raises(ValueError, match="positive and ascending"):
            classify_tier(0.0, thresholds)


def test_evaluate_weak_regime_example() -> None:
    spectrum = OccupationSpectrum.from_occupations(
        [0.85, 0.75, 0.60, 0.40, 0.25, 0.15], N=3
    )
    report = evaluate(catalog(3, 6), spectrum)
    assert report.tiers[1] == "pinned"
    assert dict(report.residuals)[1] == pytest.approx(0.0, abs=1e-12)
    assert [v for _, v in report.equality_residuals] == pytest.approx(
        [0.0, 0.0, 0.0], abs=1e-12
    )
    assert report.xi == pytest.approx(np.sqrt(0.15**2 + 0.25**2 + 0.40**2))
    assert not report.degeneracy_warning
    assert list(report.tiers.values()).count("pinned") == 1


def test_evaluate_strong_regime_example() -> None:
    spectrum = OccupationSpectrum.from_occupations(
        [0.75, 0.65, 0.60, 0.40, 0.35, 0.25], N=3
    )
    report = evaluate(catalog(3, 6), spectrum)
    assert dict(report.residuals)[1] == pytest.approx(0.2)
    assert report.tiers[1] == "unpinned"


def test_evaluate_rejects_violations() -> None:
    # pair sums n_r + n_{7-r} off one -> broken equality
    bad_pairs = OccupationSpectrum.from_occupations(
        [0.8, 0.8, 0.8, 0.3, 0.15, 0.15], N=3
    )
    with pytest.raises(RepresentabilityError):
        evaluate(catalog(3, 6), bad_pairs)
    # a (3,7) spectrum with a negative facet value
    negative = OccupationSpectrum.from_occupations(
        [1.0, 1.0, 0.8, 0.2, 0.0, 0.0, 0.0], N=3
    )
    with pytest.raises(RepresentabilityError):
        evaluate(catalog(3, 7), negative)


def test_evaluate_input_checks() -> None:
    spectrum = OccupationSpectrum.from_occupations([0.9, 0.6, 0.5, 0.5, 0.4, 0.1], N=3)
    with pytest.raises(WidthError):
        evaluate(catalog(3, 7), spectrum)
    with pytest.raises(ValueError):
        evaluate(catalog(4, 8), OccupationSpectrum.from_occupations([0.5] * 8, N=2))
    unsorted = OccupationSpectrum(np.array([0.4, 0.6, 0.5, 0.5, 0.6, 0.4]), 3)
    with pytest.raises(ValueError):
        evaluate(catalog(3, 6), unsorted)
    with pytest.raises(ValueError):
        evaluate(catalog(3, 6), spectrum, thresholds=(1e-4, 1e-10, 1e-2))


def test_a_stack_reports_each_row_as_evaluate_does() -> None:
    rows = [[0.85, 0.75, 0.60, 0.40, 0.25, 0.15, 0.0],
            [0.8, 0.8, 0.6, 0.4, 0.2, 0.2, 0.0],
            [0.9, 0.8, 0.7, 0.3, 0.2, 0.1, 0.0]]
    alone = [OccupationSpectrum.from_occupations(row, N=3) for row in rows]
    stack = OccupationSpectrum(np.array(rows), 3, None, np.array([s.ties for s in alone]))
    thresholds = (1e-3, 0.05, 0.2)
    for stacked, spectrum in zip(evaluate_stack(catalog(3, 7), stack, thresholds), alone,
                                 strict=True):
        assert stacked == evaluate(catalog(3, 7), spectrum, thresholds)


def test_a_stack_raises_the_first_violating_rows_message() -> None:
    good = [0.85, 0.75, 0.60, 0.40, 0.25, 0.15]
    bad = [0.95, 0.9, 0.6, 0.4, 0.1, 0.05]  # 2 - n1 - n2 - n4 = -0.25
    cat = catalog(3, 6)
    with pytest.raises(RepresentabilityError) as alone:
        evaluate(cat, OccupationSpectrum.from_occupations(bad, N=3))
    stack = OccupationSpectrum(np.array([good, bad, [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]]), 3)
    with pytest.raises(RepresentabilityError) as stacked:
        evaluate_stack(cat, stack)
    assert str(stacked.value) == str(alone.value)
    assert str(alone.value).startswith("constraint D^1 = -2.500e-01 is negative")


def test_degeneracy_warning_fires_on_unequal_weights() -> None:
    # positions 5 and 6 are tied; D^3 weights them differently
    tied = OccupationSpectrum.from_occupations([0.8, 0.8, 0.6, 0.4, 0.2, 0.2, 0.0], N=3)
    report = evaluate(catalog(3, 7), tied)
    assert report.degeneracy_warning
    clear = OccupationSpectrum.from_occupations(
        [0.85, 0.75, 0.60, 0.40, 0.25, 0.15, 0.0], N=3
    )
    assert not evaluate(catalog(3, 7), clear).degeneracy_warning


def test_rank_eight_reference_residuals() -> None:
    spectrum = OccupationSpectrum.from_occupations(HE2_RANK8, N=3)
    report = evaluate(catalog(3, 8), spectrum)
    for mu, expected in enumerate(HE2_RANK8_RESIDUALS, start=1):
        assert dict(report.residuals)[mu] == pytest.approx(expected * 1e-3, abs=2e-4)


def test_rank_seven_reference_residuals() -> None:
    spectrum = OccupationSpectrum.from_occupations(HE2_RANK7, N=3)
    report = evaluate(catalog(3, 7), spectrum)
    for mu, expected in [(1, 2.42e-5), (2, 0.0), (3, 1.24e-3), (4, 1.39e-3)]:
        assert dict(report.residuals)[mu] == pytest.approx(expected, abs=2e-4)
    assert report.xi == pytest.approx(1.06e-2, abs=2e-4)


def test_report_json_carries_formulas() -> None:
    import json

    spectrum = OccupationSpectrum.from_occupations(HE2_RANK8, N=3)
    payload = json.loads(evaluate(catalog(3, 8), spectrum).to_json())
    assert payload["N"] == 3 and payload["m"] == 8
    assert len(payload["constraints"]) == 19
    assert payload["constraints"][0]["formula"] == "2 - n1 - n2 - n4 - n7"
    assert payload["constraints"][1]["tier"] == "strong-quasipinned"


def test_payload_is_the_json_report_in_catalog_order() -> None:
    import json

    from fermipin.ci import CIVector
    from fermipin.fock import enumerate_space
    from fermipin.rdm import natural_spectrum, one_rdm

    rng = np.random.default_rng(3)
    for N, m in ((3, 6), (3, 7), (3, 8), (4, 8)):
        cat = catalog(N, m)
        space = enumerate_space(N, m)
        coeffs = rng.standard_normal(len(space))
        spectrum = natural_spectrum(one_rdm(CIVector(space, coeffs / np.linalg.norm(coeffs))))
        report = evaluate(cat, spectrum)
        payload = report.payload()
        assert payload == json.loads(report.to_json())
        residuals = dict(report.residuals + report.equality_residuals)
        for entries, rows in ((payload["constraints"], cat.constraints),
                              (payload["equalities"], cat.equalities)):
            assert [e["mu"] for e in entries] == [c.mu for c in rows]
            for entry in entries:
                assert entry["formula"] == cat.find(entry["mu"]).formula
                assert entry["residual"] == residuals[entry["mu"]]


def test_regime_classification_examples() -> None:
    weak = OccupationSpectrum.from_occupations([0.85, 0.75, 0.60, 0.40, 0.25, 0.15], N=3)
    assert classify_regime_36(weak) == "weak"
    strong = OccupationSpectrum.from_occupations([0.75, 0.65, 0.60, 0.40, 0.35, 0.25], N=3)
    assert classify_regime_36(strong) == "strong"
    border = OccupationSpectrum.from_occupations([0.9, 0.6, 0.5, 0.5, 0.4, 0.1], N=3)
    assert classify_regime_36(border) == "border"
    neither = OccupationSpectrum.from_occupations([0.9, 0.8, 0.55, 0.45, 0.2, 0.1], N=3)
    with pytest.raises(RegimeError):
        classify_regime_36(neither)
    with pytest.raises(ValueError):
        classify_regime_36(OccupationSpectrum.from_occupations([0.5] * 8, N=2))


def test_sector_ground_states_land_in_a_regime() -> None:
    from fermipin.ci import solve_ground
    from fermipin.fock import enumerate_space
    from fermipin.integrals import hubbard_chain, to_spin_orbitals
    from fermipin.rdm import natural_spectrum, one_rdm

    for U in (0.5, 2.0, 8.0):
        ints = to_spin_orbitals(hubbard_chain(3, 1.0, U))
        space = enumerate_space(3, 6, ints.layout, 1)
        state = solve_ground(ints, space)
        spectrum = natural_spectrum(one_rdm(state))
        assert classify_regime_36(spectrum) in ("weak", "strong", "border")
