"""Density matrices, natural occupations, and spectrum utilities."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import fermipin.ci
import fermipin.fock
import fermipin.rdm
from fermipin.ci import CIVector, solve_ground
from fermipin.errors import NormalizationError, SpectralRangeError
from fermipin.fock import DOWN, UP, ConfigurationSpace, enumerate_space
from fermipin.integrals import hubbard_chain, pairing_model, to_spin_orbitals
from fermipin.rdm import (
    OccupationSpectrum,
    OneRDM,
    hf_distance,
    natural_spectrum,
    one_rdm,
    one_rdms,
)
from fermipin.selection import SECTOR_PRESETS

from .oracles import brute_force_one_rdm, random_coefficients, rotate_ci
from .test_integrals import random_spatial


def random_vector(space, rng) -> CIVector:
    return CIVector(space, random_coefficients(len(space), rng))


def _spy(monkeypatch, module, name: str) -> list[int]:
    """The size of each space ``module.name`` is called on, from now, through
    every fermipin binding of it."""
    calls = []

    def spy(space, *args):
        calls.append(len(space))
        return original(space, *args)

    original = getattr(module, name)
    for owner in (fermipin.fock, fermipin.ci, fermipin.rdm):
        if getattr(owner, name, None) is original:
            monkeypatch.setattr(owner, name, spy)
    return calls


def test_solve_and_rdm_search_the_pairs_once(monkeypatch) -> None:
    # a dense-path space searches once and shares the pairs; a sparse-path
    # one generates its pairs and never searches.  rdm reads the crossover
    # through fermipin.ci, so one setting moves both rules.
    calls = _spy(monkeypatch, fermipin.fock, "excitations")
    ints = to_spin_orbitals(hubbard_chain(4, 1.0, 4.0))
    for crossover, searched in ((fermipin.ci.DENSE_CROSSOVER, [36]), (0, [])):
        monkeypatch.setattr(fermipin.ci, "DENSE_CROSSOVER", crossover)
        calls.clear()
        # a space that enumerate_space holds keeps its pairs: start afresh
        fermipin.fock.clear_spaces()
        space = enumerate_space(4, 8, ints.layout, 0)
        one_rdm(solve_ground(ints, space))
        assert calls == searched


def test_large_space_solve_and_rdm_never_search(monkeypatch) -> None:
    # The 8-site half-filled chain, 4900 determinants: the quadratic search
    # scans 12 million mask pairs and keeps 882 000 of them, and with it
    # this solve peaks at 108 MiB.  The 1-RDM's 78 400 singles and 39 200
    # occupied orbitals are kept once, as its gather and scatter indices
    # (2.9 MiB); a second copy of the singles, on the space, adds 5 MiB.
    # The solve may search the 70 alpha and the 70 beta strings, which are
    # below the crossover, but never the space itself.
    calls = _spy(monkeypatch, fermipin.fock, "excitations")
    ints = to_spin_orbitals(hubbard_chain(8, 1.0, 4.0))
    space = enumerate_space(8, 16, ints.layout, 0)
    tracemalloc.start()
    try:
        state = solve_ground(ints, space)
        before, _ = tracemalloc.get_traced_memory()
        rho = one_rdm(state)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(calls, default=0) <= fermipin.ci.DENSE_CROSSOVER < len(space)
    assert peak < 40 * 2**20
    assert kept - before < 4 * 2**20
    assert np.trace(rho.rho) == pytest.approx(8.0, abs=1e-10)


def test_a_held_space_keeps_its_tables_until_given_up() -> None:
    # The 8-site chain's space, held by enumerate_space, keeps what its
    # solve and 1-RDM built: its bits and diagonal terms, its strings with
    # their own pairs and gathers, and the 1-RDM's terms, about 4.7 MiB.
    # Giving the spaces up frees all of it.  A first pass builds the tables
    # kept per width and per layout (and imports what the solve imports
    # lazily), so the measured pass holds only what its spaces keep.
    ints = to_spin_orbitals(hubbard_chain(8, 1.0, 4.0))
    one_rdm(solve_ground(ints, enumerate_space(8, 16, ints.layout, 0)))
    fermipin.fock.clear_spaces()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        one_rdm(solve_ground(ints, enumerate_space(8, 16, ints.layout, 0)))
        held, _ = tracemalloc.get_traced_memory()
        fermipin.fock.clear_spaces()
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 4 * 2**20 < held - start < 6 * 2**20
    assert left - start < 2**18


def test_generated_singles_give_the_searched_rdm(monkeypatch) -> None:
    # above the crossover the singles are generated: a sector space skips
    # the spin flips, the no-sector (5,12) space must keep them
    rng = np.random.default_rng(27)
    layout = to_spin_orbitals(hubbard_chain(6, 1.0, 1.0)).layout
    for space in (enumerate_space(6, 12, layout, 0), enumerate_space(5, 12)):
        vector = random_vector(space, rng)
        assert len(space) > fermipin.ci.DENSE_CROSSOVER
        generated = one_rdm(vector)
        with monkeypatch.context() as patch:
            patch.setattr(fermipin.ci, "DENSE_CROSSOVER", len(space))
            searched = one_rdm(vector)
        assert np.array_equal(generated.rho, searched.rho)
        assert generated.layout == searched.layout


def test_sparse_states_give_the_rdm_of_the_sector_less_masks(monkeypatch) -> None:
    # A state that is zero on most of a complete sector sums its 1-RDM over
    # the whole sector, from the singles of its strings; the same masks
    # without a sector generate theirs with substitutions.  The pairing
    # model's block-solved ground state is nonzero on 20 of 400
    # determinants; two random rows over 1 225 determinants on 300 and on
    # 150 of them (50 shared).  Each 1-RDM must be the same bytes both ways,
    # and a coefficient of zero must leave no -0.0.
    rng = np.random.default_rng(29)
    ints = to_spin_orbitals(pairing_model(6, 1.0, 0.5))
    ground = solve_ground(ints, enumerate_space(6, 12, ints.layout, 0))
    assert np.count_nonzero(ground.coeffs) == 20
    layout = to_spin_orbitals(hubbard_chain(7, 1.0, 4.0)).layout
    big = enumerate_space(7, 14, layout, 1)
    stack = np.zeros((2, len(big)))
    order = rng.permutation(len(big))
    stack[0, order[:300]] = random_coefficients(300, rng)
    stack[1, order[250:400]] = random_coefficients(150, rng)
    generated = _spy(monkeypatch, fermipin.fock, "substitutions")
    for space, coeffs in ((ground.space, ground.coeffs), (big, stack)):
        assert len(space) > fermipin.ci.DENSE_CROSSOVER and space.strings is not None
        flat = ConfigurationSpace(space.N, space.m, space.masks, space.layout)
        generated.clear()
        sector, masks = one_rdms(space, coeffs), one_rdms(flat, coeffs)
        assert generated == [len(space)]
        assert sector.rho.tobytes() == masks.rho.tobytes()
        assert sector.layout == masks.layout == space.layout
        assert not np.signbit(sector.rho[sector.rho == 0]).any()


def test_a_space_generates_its_rdm_singles_once(monkeypatch) -> None:
    # the 1225-determinant sectors of the 7-site chain and the 7-level
    # pairing model build their singles from their strings, and the
    # pairing sector's masks without a sector generate theirs: later
    # 1-RDMs of the same space reuse its singles
    built = _spy(monkeypatch, fermipin.rdm, "_string_singles")
    generated = _spy(monkeypatch, fermipin.fock, "substitutions")
    rng = np.random.default_rng(28)
    hubbard = to_spin_orbitals(hubbard_chain(7, 1.0, 4.0)).layout
    pairing = to_spin_orbitals(pairing_model(7, 1.0, 0.5)).layout
    cases = (
        (lambda: enumerate_space(7, 14, hubbard, 1), built),
        (lambda: enumerate_space(6, 14, pairing, 0), built),
        (lambda: ConfigurationSpace(6, 14, enumerate_space(6, 14, pairing, 0).masks, pairing),
         generated),
    )
    for make, calls in cases:
        space = make()
        built.clear()
        generated.clear()
        one_rdm(random_vector(space, rng))
        vector = random_vector(space, rng)
        again = one_rdm(vector)
        assert calls == [1225] and len(built) + len(generated) == 1
        # the same sums as over a space that builds them afresh, not the
        # held one
        fermipin.fock.clear_spaces()
        fresh = one_rdm(CIVector(make(), vector.coeffs))
        assert np.array_equal(again.rho, fresh.rho) and again.layout == fresh.layout


@pytest.mark.parametrize("ordering", ["interleaved", "blocked"])
@pytest.mark.parametrize("model", ["hubbard", "pairing", "random"])
def test_string_singles_equal_the_generated_ones(model: str, ordering: str) -> None:
    # A complete sector above the crossover builds its 1-RDM terms from its
    # strings; the same masks without a sector generate theirs, spin flips
    # and all, whose targets lie outside the masks.  The terms must be the
    # same arrays, dtypes included, and every 1-RDM the same bytes: the
    # ground state, random states, each alone and as rows of a stack.
    rng = np.random.default_rng(30)
    spatial = {"hubbard": hubbard_chain(6, 1.0, 4.0), "pairing": pairing_model(6, 1.0, 0.5),
               "random": random_spatial(6, rng)}[model]
    ints = to_spin_orbitals(spatial, ordering)
    for N, sector in ((6, 0), (5, 1), (6, 2)):
        space = enumerate_space(N, 12, ints.layout, sector)
        flat = ConfigurationSpace(N, 12, space.masks, ints.layout)
        assert len(space) > fermipin.ci.DENSE_CROSSOVER
        assert space.strings is not None and flat.strings is None
        for built, generated in zip(fermipin.rdm._terms(space), fermipin.rdm._terms(flat),
                                    strict=True):
            assert built.dtype == generated.dtype and np.array_equal(built, generated)
        stack = np.stack([solve_ground(ints, space).coeffs,
                          *(random_coefficients(len(space), rng) for _ in range(2))])
        rows = one_rdms(space, stack)
        assert rows.rho.tobytes() == one_rdms(flat, stack).rho.tobytes()
        for row, coeffs in zip(rows.rho, stack):
            alone = one_rdm(CIVector(space, coeffs))
            assert row.tobytes() == alone.rho.tobytes()
            assert alone.rho.tobytes() == one_rdm(CIVector(flat, coeffs)).rho.tobytes()
            assert alone.layout == rows.layout == ints.layout


def test_spaces_without_strings_generate_their_singles(monkeypatch) -> None:
    # a sector with one spin empty, a sector short of one determinant, and
    # spaces without a sector or a layout keep the generated singles
    built = _spy(monkeypatch, fermipin.rdm, "_string_singles")
    generated = _spy(monkeypatch, fermipin.fock, "substitutions")
    rng = np.random.default_rng(31)
    layout = to_spin_orbitals(hubbard_chain(7, 1.0, 4.0)).layout
    sector = enumerate_space(7, 14, layout, 1)
    keep = np.ones(len(sector), bool)
    keep[100] = False
    spaces = (
        enumerate_space(4, 24, to_spin_orbitals(hubbard_chain(12, 1.0, 4.0)).layout, 4),
        sector.restrict(keep),
        enumerate_space(5, 12, to_spin_orbitals(hubbard_chain(6, 1.0, 4.0)).layout),
        enumerate_space(5, 12),
    )
    for space in spaces:
        assert len(space) > fermipin.ci.DENSE_CROSSOVER and space.strings is None
        generated.clear()
        rho = one_rdm(random_vector(space, rng))
        assert generated == [len(space)] and built == []
        np.testing.assert_allclose(np.trace(rho.rho), space.N, atol=1e-12)


def test_the_solves_rdm_generates_nothing(monkeypatch) -> None:
    # the 1 225-determinant chain takes its σ and its 1-RDM from the same
    # strings: only its 35 alpha and 35 beta strings are searched, once each
    generated = _spy(monkeypatch, fermipin.fock, "substitutions")
    searched = _spy(monkeypatch, fermipin.fock, "excitations")
    ints = to_spin_orbitals(hubbard_chain(7, 1.0, 4.0))
    state = solve_ground(ints, enumerate_space(7, 14, ints.layout, 1))
    one_rdm(state)
    assert generated == [] and searched == [35, 35]


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
        assert np.trace(rho.rho) == pytest.approx(3.0, abs=1e-12)
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


def test_a_stack_of_sector_states_matches_each_state_alone() -> None:
    # a sector space's layout, so each stacked matrix is diagonalized per
    # spin block; random states of the full space, as polytope draws them,
    # keep no layout
    ints = to_spin_orbitals(hubbard_chain(4, 1.0, 4.0))
    rng = np.random.default_rng(8)
    for space in (enumerate_space(3, 8, ints.layout, 1), enumerate_space(3, 8)):
        vectors = [random_vector(space, rng) for _ in range(5)]
        stack = one_rdms(space, np.array([v.coeffs for v in vectors]))
        assert stack.layout == space.layout and stack.rho.shape == (5, 8, 8)
        spectra = natural_spectrum(stack)
        assert spectra.N == 3 and spectra.natural_rotation is None
        for k, vector in enumerate(vectors):
            alone = one_rdm(vector)
            assert np.array_equal(stack.rho[k], alone.rho)
            spectrum = natural_spectrum(alone)
            assert spectra.n[k].tobytes() == spectrum.n.tobytes()
            assert spectra.ties[k].tobytes() == spectrum.ties.tobytes()
            assert np.array_equal(hf_distance(spectra)[k], hf_distance(spectrum))


def _mixed_spaces(rng) -> list[ConfigurationSpace]:
    """The unrestricted preset, whose spin blocks differ in size, then random
    S_z sectors, spaces with spins but no sector and spaces with no spins,
    in both orderings."""
    spaces = [SECTOR_PRESETS["4in8-unrestricted"].space()]
    for ordering, kind in list(
        itertools.product(["interleaved", "blocked"], ["sector", "spins", "no spins"])
    ) * 3:
        n_spatial = int(rng.integers(2, 5))
        layout = to_spin_orbitals(hubbard_chain(n_spatial, 1.0, 1.0), ordering).layout
        N = int(rng.integers(1, 2 * n_spatial))
        n_up = int(rng.integers(max(0, N - n_spatial), min(N, n_spatial) + 1))
        sector = 2 * n_up - N if kind == "sector" else None
        spaces.append(enumerate_space(N, 2 * n_spatial, None if kind == "no spins" else layout,
                                      sector))
    return spaces


@pytest.mark.parametrize("side", ["at or below the crossover", "above the crossover"])
def test_a_single_state_is_bit_for_bit_a_row_of_its_stack(monkeypatch, side) -> None:
    # one_rdm and natural_spectrum of one state skip the stack machinery;
    # each must give what a stack gives as that state's row.  Spaces: random
    # S_z sectors, spaces with spins but no sector, spaces with no spins,
    # and the unrestricted preset, whose spin blocks differ in size.  Above
    # the crossover the terms are generated.
    if side == "above the crossover":
        monkeypatch.setattr(fermipin.ci, "DENSE_CROSSOVER", 0)
    rng = np.random.default_rng(31)
    for space in _mixed_spaces(rng):
        coeffs = np.array([random_coefficients(len(space), rng) for _ in range(3)])
        coeffs[1, 1::2] = 0.0
        coeffs[1] /= np.linalg.norm(coeffs[1])
        stack = one_rdms(space, coeffs)
        spectra = natural_spectrum(stack)
        for k, row in enumerate(coeffs):
            alone, of_one = one_rdm(CIVector(space, row)), one_rdms(space, row[None])
            assert alone.rho.shape == (space.m, space.m)
            assert alone.rho.tobytes() == of_one.rho[0].tobytes() == stack.rho[k].tobytes()
            assert alone.layout == of_one.layout
            spectrum = natural_spectrum(alone)
            row_0 = natural_spectrum(OneRDM(alone.rho[None], alone.layout))
            assert spectrum.N == row_0.N
            assert spectrum.n.tobytes() == row_0.n[0].tobytes()
            assert spectrum.ties.tobytes() == row_0.ties[0].tobytes()
            if stack.layout == alone.layout:
                assert spectrum.n.tobytes() == spectra.n[k].tobytes()
                assert spectrum.ties.tobytes() == spectra.ties[k].tobytes()


def test_a_single_states_natural_rotation_is_the_written_out_rule() -> None:
    # the rule natural_spectrum promises for one 1-RDM, written out: one
    # eigh per spin block (the whole matrix without a layout), each block's
    # values and vectors reversed, a stable descending sort over the
    # blocks in order, the occupations clamped, the rows sign-fixed, and
    # the layout of the natural basis read off the sort
    rng = np.random.default_rng(31)
    for space in _mixed_spaces(rng):
        for coeffs in (random_coefficients(len(space), rng) for _ in range(3)):
            rdm = one_rdm(CIVector(space, coeffs))
            m = rdm.m
            blocks = (np.arange(m),) if rdm.layout is None else rdm.layout.spin_blocks
            values, vectors, spins = [], np.zeros((m, m)), []
            for block, spin in zip(blocks, (UP, DOWN)):
                vals, vecs = np.linalg.eigh(rdm.rho[np.ix_(block, block)])
                values.append(vals[::-1])
                vectors[len(spins) : len(spins) + len(block), block] = vecs[:, ::-1].T
                spins += [spin] * len(block)
            occupations = np.concatenate(values)
            order = np.argsort(-occupations, kind="stable")
            n = occupations[order].clip(0.0, 1.0)
            U = fermipin.ci.sign_fixed(vectors[order])

            spectrum = natural_spectrum(rdm)
            assert spectrum.N == space.N
            assert spectrum.n.tobytes() == n.tobytes()
            assert spectrum.ties.tobytes() == (n[:-1] - n[1:] <= 1e-8).tobytes()
            rotation = spectrum.natural_rotation
            assert rotation.U.tobytes() == U.tobytes()
            if rdm.layout is None:
                assert rotation.layout is None
            else:
                assert rotation.layout.spin_of == tuple(spins[k] for k in order)


def test_a_stacked_spectrum_builds_no_rotation(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("a stack's rotations are built")

    monkeypatch.setattr(fermipin.ci, "sign_fixed", refuse)
    monkeypatch.setattr(fermipin.rdm, "OrbitalRotation", refuse)
    space = enumerate_space(3, 8, to_spin_orbitals(hubbard_chain(4, 1.0, 4.0)).layout, 1)
    rng = np.random.default_rng(9)
    for count in (1, 3):
        coeffs = np.array([random_vector(space, rng).coeffs for _ in range(count)])
        spectra = natural_spectrum(one_rdms(space, coeffs))
        assert spectra.n.shape == (count, 8) and spectra.natural_rotation is None


def test_a_stack_names_its_first_unnormalized_row() -> None:
    space = enumerate_space(2, 4)
    coeffs = np.full((3, len(space)), 1 / np.sqrt(len(space)))
    coeffs[1] *= 2.0
    coeffs[2] *= 3.0
    with pytest.raises(NormalizationError, match="vector norm 2.0 is not 1"):
        one_rdms(space, coeffs)
    coeffs[1, 0] = np.nan
    with pytest.raises(NormalizationError, match="vector norm nan is not 1"):
        one_rdms(space, coeffs)


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
    state = solve_ground(ints, space)
    spec = natural_spectrum(one_rdm(state))
    rotated = rotate_ci(state, spec.natural_rotation)
    rho_nat = one_rdm(rotated)
    np.testing.assert_allclose(np.diag(rho_nat.rho), spec.n, atol=1e-10)
    off = rho_nat.rho - np.diag(np.diag(rho_nat.rho))
    assert np.abs(off).max() < 1e-10


def test_sector_spectrum_rotation_keeps_sector_machinery_intact() -> None:
    ints = to_spin_orbitals(hubbard_chain(3, 1.0, 4.0))
    space = enumerate_space(3, 6, ints.layout, 1)
    state = solve_ground(ints, space)
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
    # a time-reversal-symmetric singlet has doubly degenerate occupations:
    # the sorted spectrum pairs up as n(2k-1) = n(2k)
    ints = to_spin_orbitals(pairing_model(3, 1.0, 0.4))
    space = enumerate_space(2, 6, ints.layout, 0)
    state = solve_ground(ints, space)
    pairs = natural_spectrum(one_rdm(state)).n.reshape(-1, 2)
    assert np.abs(pairs[:, 0] - pairs[:, 1]).max() < 1e-12


def test_ties_mark_the_degenerate_groups() -> None:
    spec = OccupationSpectrum.from_occupations([0.9, 0.9, 0.5, 0.35, 0.35, 0.0], N=3)
    # the runs of ties are the groups (1, 2), (3,), (4, 5) and (6,)
    assert spec.ties.tolist() == [True, False, False, True, False]


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_from_occupations_refuses_non_finite_values(bad: float) -> None:
    # every comparison with NaN is false, so a range check can wave it through
    with pytest.raises(SpectralRangeError):
        OccupationSpectrum.from_occupations([bad, 1.0, 1.0, 0.0, 0.0, 0.0], N=3)


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
