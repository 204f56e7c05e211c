"""Density matrices, natural occupations, and spectrum utilities."""

from __future__ import annotations

import math

import numpy as np
import pytest

import fermipin.ci
import fermipin.fock
import fermipin.rdm
from fermipin.ci import CIVector, solve_ground
from fermipin.errors import NormalizationError, SpectralRangeError
from fermipin.fock import DOWN, UP, enumerate_space
from fermipin.integrals import hubbard_chain, pairing_model, to_spin_orbitals
from fermipin.rdm import (
    OccupationSpectrum,
    hf_distance,
    natural_spectrum,
    one_rdm,
    smith_check,
)

from .oracles import brute_force_one_rdm, random_coefficients, rotate_ci
from .test_integrals import random_spatial


def random_vector(space, rng) -> CIVector:
    return CIVector(space, random_coefficients(len(space), rng))


def test_solve_and_rdm_search_the_pairs_once(monkeypatch) -> None:
    calls = []

    def spy(space, *args):
        calls.append(len(space))
        return search(space, *args)

    search = fermipin.fock.excitations
    for module in (fermipin.fock, fermipin.ci, fermipin.rdm):  # every binding of it
        if getattr(module, "excitations", None) is search:
            monkeypatch.setattr(module, "excitations", spy)
    ints = to_spin_orbitals(hubbard_chain(4, 1.0, 4.0))
    for crossover in (fermipin.ci.DENSE_CROSSOVER, 0):  # dense, then sparse
        monkeypatch.setattr(fermipin.ci, "DENSE_CROSSOVER", crossover)
        calls.clear()
        space = enumerate_space(4, 8, ints.layout, 0)
        one_rdm(solve_ground(ints, space)[0])
        assert calls == [36]


def test_rdm_matches_operator_oracle() -> None:
    rng = np.random.default_rng(21)
    spaces = [
        enumerate_space(3, 6),
        enumerate_space(3, 6, to_spin_orbitals(hubbard_chain(3, 1, 1)).layout, 1),
        enumerate_space(4, 8),
        enumerate_space(2, 6, to_spin_orbitals(hubbard_chain(3, 1, 1)).layout, 0),
        # three determinants pairwise two substitutions apart: no singles
        enumerate_space(3, 6).restrict(np.array(
            [d.orbitals() in {(1, 2, 3), (1, 4, 5), (2, 4, 6)} for d in enumerate_space(3, 6)]
        )),
    ]
    for space in spaces:
        for _ in range(3):
            vec = random_vector(space, rng)
            rho = one_rdm(vec)
            np.testing.assert_allclose(
                rho.rho, brute_force_one_rdm(space, vec.coeffs), atol=1e-13
            )


def test_rdm_invariants_on_random_vectors() -> None:
    rng = np.random.default_rng(22)
    space = enumerate_space(3, 7)
    for _ in range(20):
        rho = one_rdm(random_vector(space, rng))
        assert np.array_equal(rho.rho, rho.rho.T)
        assert rho.trace == pytest.approx(3.0, abs=1e-12)
        eigs = np.linalg.eigvalsh(rho.rho)
        assert eigs.min() > -1e-12 and eigs.max() < 1 + 1e-12


def test_sector_vectors_give_rdms_that_keep_the_layout() -> None:
    rng = np.random.default_rng(23)
    layout = to_spin_orbitals(hubbard_chain(3, 1, 1)).layout
    sector_space = enumerate_space(3, 6, layout, 1)
    rho = one_rdm(random_vector(sector_space, rng))
    assert rho.layout == layout
    up = [i - 1 for i in layout.indices_with_spin(UP)]
    down = [i - 1 for i in layout.indices_with_spin(DOWN)]
    assert np.abs(rho.rho[np.ix_(up, down)]).max() == 0.0

    full_space = enumerate_space(3, 6, layout, None)
    rho_full = one_rdm(random_vector(full_space, rng))
    assert rho_full.layout is None  # a random vector mixes spins


def test_one_rdm_requires_normalization() -> None:
    space = enumerate_space(2, 4)
    vec = CIVector(space, np.ones(len(space)))
    with pytest.raises(NormalizationError):
        one_rdm(vec)


def test_natural_spectrum_reconstructs_the_rdm() -> None:
    rng = np.random.default_rng(24)
    space = enumerate_space(3, 6)
    vec = random_vector(space, rng)
    rho = one_rdm(vec)
    spec = natural_spectrum(rho)
    assert np.all(np.diff(spec.n) <= 1e-15)
    assert spec.N == 3
    U = spec.natural_rotation.U
    np.testing.assert_allclose(U.T @ np.diag(spec.n) @ U, rho.rho, atol=1e-12)


def test_natural_rotation_diagonalizes_the_vector_rdm() -> None:
    rng = np.random.default_rng(25)
    spatial = random_spatial(3, rng)
    ints = to_spin_orbitals(spatial)
    space = enumerate_space(3, 6)
    state = solve_ground(ints, space)[0]
    spec = natural_spectrum(one_rdm(state))
    rotated = rotate_ci(state, spec.natural_rotation)
    rho_nat = one_rdm(rotated)
    np.testing.assert_allclose(np.diag(rho_nat.rho), spec.n, atol=1e-10)
    off = rho_nat.rho - np.diag(np.diag(rho_nat.rho))
    assert np.abs(off).max() < 1e-10


def test_sector_spectrum_rotation_keeps_sector_machinery_intact() -> None:
    ints = to_spin_orbitals(hubbard_chain(3, 1.0, 4.0))
    space = enumerate_space(3, 6, ints.layout, 1)
    state = solve_ground(ints, space)[0]
    spec = natural_spectrum(one_rdm(state))
    rot = spec.natural_rotation
    assert rot.layout is not None
    # two up and one down electron: the top natural orbitals reflect that
    assert rot.layout.spin_of.count(UP) == 3 and rot.layout.spin_of.count(DOWN) == 3

    rotated = rotate_ci(state, rot)
    assert rotated.space.sector == 1
    rho_nat = one_rdm(rotated)
    np.testing.assert_allclose(np.diag(rho_nat.rho), spec.n, atol=1e-10)

    # energy is invariant under the natural rotation
    rotated_ints = ints.rotated(rot.U, rot.layout)
    from fermipin.ci import build_hamiltonian

    H = build_hamiltonian(rotated_ints, rotated.space)
    assert rotated.coeffs @ H @ rotated.coeffs == pytest.approx(state.energy, abs=1e-10)


def test_rank_six_occupations_pair_to_one() -> None:
    # every 3-electron state on 6 orbitals has n_r + n_{7-r} = 1
    rng = np.random.default_rng(26)
    space = enumerate_space(3, 6)
    for _ in range(50):
        spec = natural_spectrum(one_rdm(random_vector(space, rng)))
        sums = spec.n + spec.n[::-1]
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_smith_check_on_pairing_singlet() -> None:
    ints = to_spin_orbitals(pairing_model(3, 1.0, 0.4))
    space = enumerate_space(2, 6, ints.layout, 0)
    state = solve_ground(ints, space)[0]
    spec = natural_spectrum(one_rdm(state))
    ok, dev = smith_check(spec)
    assert ok and dev < 1e-12

    lopsided = OccupationSpectrum.from_occupations([0.9, 0.5, 0.4, 0.2], N=2)
    ok, dev = smith_check(lopsided)
    assert not ok
    assert dev == pytest.approx(0.4, abs=1e-12)

    with pytest.raises(ValueError):
        smith_check(OccupationSpectrum.from_occupations([0.6, 0.3, 0.1], N=1))


def test_degeneracy_groups_partition_positions() -> None:
    spec = OccupationSpectrum.from_occupations(
        [0.9, 0.9, 0.5, 0.35, 0.35, 0.0], N=3, tie_tolerance=1e-6
    )
    assert spec.degeneracy_groups == ((1, 2), (3,), (4, 5), (6,))


def test_from_occupations_sorts_and_validates() -> None:
    spec = OccupationSpectrum.from_occupations([0.2, 0.9, 0.9], N=2)
    assert list(spec.n) == [0.9, 0.9, 0.2]
    assert spec.N == 2
    # rounded published data with a slightly off trace is accepted
    table_row = [0.9968, 0.9932, 0.9901, 8.4888e-3, 6.8304e-3, 3.0819e-3,
                 1.3665e-3, 1.178e-5]
    spec8 = OccupationSpectrum.from_occupations(table_row)
    assert spec8.N == 3
    with pytest.raises(SpectralRangeError):
        OccupationSpectrum.from_occupations([1.2, 0.5, 0.3])
    with pytest.raises(SpectralRangeError):
        OccupationSpectrum.from_occupations([0.5, 0.3, -0.1])


def test_hf_distance_examples() -> None:
    spec = OccupationSpectrum.from_occupations([0.85, 0.75, 0.60, 0.40, 0.25, 0.15], N=3)
    assert hf_distance(spec) == pytest.approx(
        math.sqrt(0.15**2 + 0.25**2 + 0.40**2), abs=1e-15
    )
    corner = OccupationSpectrum.from_occupations([1.0, 1.0, 0.0, 0.0], N=2)
    assert hf_distance(corner) == 0.0


def test_trace_must_be_near_integer_for_solver_spectra() -> None:
    from fermipin.rdm import OneRDM

    rho = OneRDM(np.diag([0.7, 0.6, 0.2]))
    with pytest.raises(SpectralRangeError):
        natural_spectrum(rho)
