"""Acceptance suite: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test also prints the measured numbers for the record
(visible with ``-s`` or in failure output).
"""

import time
from math import comb

import numpy as np

from fermipin.ci import CIVector, build_hamiltonian, solve_ground
from fermipin.fock import Determinant, census, enumerate_space
from fermipin.gpc import GPConstraint, catalog, classify_regime_36
from fermipin.integrals import hubbard_chain, pairing_model, to_spin_orbitals
from fermipin.rdm import OccupationSpectrum, hf_distance, natural_spectrum, one_rdm
from fermipin.selection import SECTOR_PRESETS, filter_pinned, pinned_solve

from .oracles import brute_force_hamiltonian, random_coefficients
from .test_gpc import HE2_RANK7, HE2_RANK8, HE2_RANK8_RESIDUALS
from .test_integrals import random_spatial


def test_criterion_1_census_exactness() -> None:
    """Filtering reproduces the four published censuses by exact counts."""
    started = time.perf_counter()

    cat = catalog(3, 6)
    space = enumerate_space(3, 6)
    octet = filter_pinned(space, cat.equalities).survivors
    assert len(octet) == 8
    triple = filter_pinned(octet, [cat.find(1)]).survivors
    assert len(triple) == 3

    cat = catalog(3, 7)
    space = enumerate_space(3, 7)
    ref = Determinant.from_orbitals((1, 2, 3), 7)
    survivors = filter_pinned(space, [cat.find(1)]).survivors
    assert len(survivors) == 18
    survivors = filter_pinned(space, [cat.find(1), cat.find(2)]).survivors
    assert census(survivors, ref).counts == {0: 1, 2: 8}

    cat = catalog(3, 8)
    space = enumerate_space(3, 8)
    ref = Determinant.from_orbitals((1, 2, 3), 8)
    survivors = filter_pinned(space, [cat.find(2)]).survivors
    assert len(survivors) == 24
    survivors = filter_pinned(space, [cat.find(2), cat.find(5)]).survivors
    assert census(survivors, ref).counts == {0: 1, 2: 12}

    d14 = catalog(4, 8).find(14)
    space = SECTOR_PRESETS["4in8-restricted"].space()
    assert len(space) == 16
    ref = Determinant.from_orbitals((1, 2, 3, 4), 8)
    survivors = filter_pinned(space, [d14]).survivors
    assert census(survivors, ref).counts == {0: 1, 2: 9}

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1 PASS: censuses 8->3, 18->9, 24->13, 16->10 in {elapsed:.3f}s")


def test_criterion_2_pair_sum_rules() -> None:
    """n_r + n_{7-r} = 1 for 1000 random rank-six states, to 1e-10."""
    rng = np.random.default_rng(2024)
    space = enumerate_space(3, 6)
    worst = 0.0
    for _ in range(1000):
        vector = CIVector(space, random_coefficients(len(space), rng))
        n = natural_spectrum(one_rdm(vector)).n
        worst = max(worst, np.abs(n + n[::-1] - 1.0).max())
    assert worst < 1e-10
    print(f"criterion 2 PASS: max pair-sum deviation {worst:.2e} over 1000 states")


def test_criterion_3_regime_dichotomy() -> None:
    """Spin-compensated states sit on one of the two saturation planes."""
    rng = np.random.default_rng(2025)
    so = to_spin_orbitals(hubbard_chain(3, 1.0, 0.0))
    space = enumerate_space(3, 6, so.layout, 1)
    worst = 0.0
    for _ in range(1000):
        vector = CIVector(space, random_coefficients(len(space), rng))
        spectrum = natural_spectrum(one_rdm(vector))
        n = spectrum.n
        gap = min(abs(n[0] + n[1] + n[3] - 2.0), abs(n[0] + n[1] + n[2] - 2.0))
        worst = max(worst, gap)
        assert classify_regime_36(spectrum) in ("weak", "strong", "border")
    assert worst < 1e-9
    print(f"criterion 3 PASS: max distance to the nearer plane {worst:.2e}")


def test_criterion_4_smith_reductions() -> None:
    """Pairing singlet: doubly degenerate occupations and reduced facets."""
    so = to_spin_orbitals(pairing_model(4, 1.0, 0.5))
    space = enumerate_space(4, 8, so.layout, 0)
    state = solve_ground(so, space)
    n = natural_spectrum(one_rdm(state)).n
    degeneracy = np.abs(n[0::2] - n[1::2]).max()
    assert degeneracy < 1e-10

    cat = catalog(4, 8)
    reductions = {
        1: 2.0 * (1.0 - n[0]),
        8: 2.0 * n[7],
        14: 2.0 * (1.0 - n[0]),
    }
    worst = max(
        abs(cat.find(mu).residual(n) - value) for mu, value in reductions.items()
    )
    assert worst < 1e-10
    print(
        f"criterion 4 PASS: degeneracy {degeneracy:.2e}, "
        f"reduction mismatch {worst:.2e}"
    )


def test_criterion_5_published_spectra_reproduce_published_residuals() -> None:
    """The rank-8 occupation row reproduces all 19 residuals to 2e-4."""
    cat = catalog(3, 8)
    spectrum = OccupationSpectrum.from_occupations(HE2_RANK8, N=3)
    worst = max(
        abs(cat.find(mu).residual(spectrum.n) - expected * 1e-3)
        for mu, expected in zip(range(1, 20), HE2_RANK8_RESIDUALS)
    )
    assert worst < 2e-4

    xi = hf_distance(OccupationSpectrum.from_occupations(HE2_RANK7, N=3))
    assert abs(xi - 1.06e-2) < 2e-4
    print(
        f"criterion 5 PASS: worst residual mismatch {worst:.2e}, "
        f"xi {xi:.4e} vs 1.06e-2"
    )


def test_criterion_6_variational_bound_and_weak_equality() -> None:
    """Force-pinning never undershoots; rank-six weak instances lose nothing."""
    cat36 = catalog(3, 6)
    weak_constraints = (*cat36.equalities, cat36.find(1))
    equality_gap = 0.0
    for U in (0.5, 2.0, 8.0):
        so = to_spin_orbitals(hubbard_chain(3, 1.0, U))
        space = enumerate_space(3, 6, so.layout, 1)
        result = pinned_solve(so, solve_ground(so, space), weak_constraints)
        assert result.pinned_energy >= result.full_energy - 1e-9
        equality_gap = max(
            equality_gap, abs(result.pinned_energy - result.full_energy)
        )
    assert equality_gap < 1e-9

    d14 = catalog(4, 8).find(14)
    bound_margin = 0.0
    for so in (
        to_spin_orbitals(hubbard_chain(4, 1.0, 1.0)),
        to_spin_orbitals(hubbard_chain(4, 1.0, 4.0)),
        to_spin_orbitals(pairing_model(4, 1.0, 0.3)),
        to_spin_orbitals(pairing_model(4, 1.0, 0.5)),
    ):
        space = enumerate_space(4, 8, so.layout, 0)
        result = pinned_solve(so, solve_ground(so, space), [d14])
        assert result.pinned_energy >= result.full_energy - 1e-9
        bound_margin = max(bound_margin, result.full_energy - result.pinned_energy)
    assert bound_margin <= 1e-9
    print(
        f"criterion 6 PASS: weak-regime energy gap {equality_gap:.2e}, "
        "variational bound held on all instances"
    )


def test_criterion_7_oracle_equivalence() -> None:
    """Slater-Condon matrices equal the brute-force operator sum to 1e-12."""
    rng = np.random.default_rng(2026)
    cases = []
    so3 = to_spin_orbitals(random_spatial(3, rng))
    cases.append((so3, enumerate_space(3, 6)))  # 20 determinants
    cases.append((so3, enumerate_space(3, 6, so3.layout, 1)))  # 9
    so4 = to_spin_orbitals(random_spatial(4, rng))
    cases.append((so4, enumerate_space(4, 8)))  # 70
    cases.append((so4, enumerate_space(4, 8, so4.layout, 0)))  # 36
    cases.append((so4.truncated(7), enumerate_space(3, 7)))  # 35
    cases.append((to_spin_orbitals(hubbard_chain(2, 1.0, 3.0)), enumerate_space(2, 4)))
    cases.append(
        (to_spin_orbitals(pairing_model(4, 1.0, 0.4)), enumerate_space(4, 8, None, None))
    )
    worst = 0.0
    for ints, space in cases:
        assert len(space) <= 70
        H = build_hamiltonian(ints, space)
        oracle = brute_force_hamiltonian(ints, space)
        worst = max(worst, np.abs(H - oracle).max())
    assert worst < 1e-12

    t, U = 0.7, 2.3
    so = to_spin_orbitals(hubbard_chain(2, t, U))
    energy = solve_ground(so, enumerate_space(2, 4, so.layout, 0)).energy
    exact = (U - np.sqrt(U**2 + 16 * t**2)) / 2
    assert abs(energy - exact) < 1e-12
    print(
        f"criterion 7 PASS: worst matrix deviation {worst:.2e} over "
        f"{len(cases)} spaces; dimer formula matched"
    )


def test_criterion_8_doubles_only_rule() -> None:
    """The (N-2) + n_N - sum(n_i, i<N) = 0 filter keeps reference + doubles."""
    for N, m in [(3, 6), (3, 7), (4, 8), (4, 9)]:
        kappa = tuple([-1] * (N - 1) + [1] + [0] * (m - N))
        family = GPConstraint(N, m, "family", N - 2, kappa)
        space = enumerate_space(N, m)
        survivors = filter_pinned(space, [family]).survivors
        ref = Determinant.from_orbitals(range(1, N + 1), m)
        expected_doubles = (N - 1) * comb(m - N, 2)
        assert census(survivors, ref).counts == {0: 1, 2: expected_doubles}
        for det in survivors:
            if det != ref:
                assert not det.mask & 1 << (N - 1)

    # The 30-determinant unrestricted preset: the published census row is
    # compared against the enumeration oracle and reported, not asserted.
    preset = SECTOR_PRESETS["4in8-unrestricted"]
    space = preset.space()
    ref = Determinant.from_orbitals((1, 2, 3, 4), 8)
    full_counts = census(space, ref).counts
    survivors = filter_pinned(space, [catalog(4, 8).find(14)]).survivors
    pinned_counts = census(survivors, ref).counts
    published_full = {0: 1, 1: 8, 2: 16, 3: 5}
    published_pinned_total = 12
    print(
        "criterion 8 PASS: doubles-only rule exact for (3,6),(3,7),(4,8),(4,9); "
        f"unrestricted preset census computed {full_counts} -> "
        f"{sum(pinned_counts.values())} survivors vs published "
        f"{published_full} -> {published_pinned_total} (reported, not asserted)"
    )
    assert full_counts == {0: 1, 1: 8, 2: 15, 3: 6}
    assert pinned_counts == {0: 1, 2: 12}
