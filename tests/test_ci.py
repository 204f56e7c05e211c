"""Hamiltonian assembly, ground-state solves, and basis rotations."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import fermipin.ci
from fermipin.ci import CIVector, OrbitalRotation, build_hamiltonian, ground_states, solve_ground
from fermipin.errors import (
    FermipinError,
    RotationError,
    SectorError,
    SpaceTooLargeError,
    WidthError,
)
from fermipin.fock import (
    DOWN,
    UP,
    ConfigurationSpace,
    Determinant,
    SpinOrbitalLayout,
    enumerate_space,
    interleaved_layout,
)
from fermipin.gpc import GPConstraint
from fermipin.integrals import (
    SpatialIntegrals,
    SpinOrbitalIntegrals,
    hubbard_chain,
    pairing_model,
    to_spin_orbitals,
)
from fermipin.selection import filter_pinned

from .oracles import (
    brute_force_hamiltonian,
    filled_band_energy,
    pairing_pair_block,
    random_coefficients,
    rotate_ci,
)
from .test_integrals import random_spatial


def hubbard_sector_space(sites: int, N: int, sector: int):
    ints = to_spin_orbitals(hubbard_chain(sites, 1.0, 4.0))
    return ints, enumerate_space(N, 2 * sites, ints.layout, sector)


def test_two_site_hubbard_matrix_is_the_hand_derived_one() -> None:
    # S_z = 0 space of the 2-site chain in mask order:
    # |1u 1d>, |1d 2u>, |1u 2d>, |2u 2d>
    t, U = 1.0, 4.0
    ints = to_spin_orbitals(hubbard_chain(2, t, U))
    space = enumerate_space(2, 4, ints.layout, 0)
    assert [d.mask for d in space] == [0b0011, 0b0110, 0b1001, 0b1100]

    expected = np.array(
        [
            [U, t, -t, 0.0],
            [t, 0.0, 0.0, t],
            [-t, 0.0, 0.0, -t],
            [0.0, t, -t, U],
        ]
    )
    H = build_hamiltonian(ints, space)
    np.testing.assert_allclose(H, expected, atol=1e-14)


def test_hamiltonian_matches_operator_oracle() -> None:
    rng = np.random.default_rng(11)
    cases = []
    for n_spatial, N, sector in ((3, 3, 1), (3, 3, None), (4, 4, 0), (4, 3, 1)):
        spatial = random_spatial(n_spatial, rng)
        ints = to_spin_orbitals(spatial)
        layout = ints.layout if sector is not None else None
        cases.append((ints, enumerate_space(N, 2 * n_spatial, layout, sector)))
    cases.append(hubbard_sector_space(3, 3, 1))
    ints = to_spin_orbitals(pairing_model(3, 1.0, 0.4))
    cases.append((ints, enumerate_space(2, 6, ints.layout, 0)))

    for ints, space in cases:
        H = build_hamiltonian(ints, space)
        H_ref = brute_force_hamiltonian(ints, space)
        assert np.abs(H - H_ref).max() <= 1e-12
        assert np.array_equal(H, H.T)


def test_noninteracting_ground_state_fills_the_band() -> None:
    for sites, N in ((3, 3), (4, 2), (4, 5)):
        model = hubbard_chain(sites, 1.0, 0.0)
        ints = to_spin_orbitals(model)
        space = enumerate_space(N, 2 * sites)
        state = solve_ground(ints, space)
        assert state.energy == pytest.approx(filled_band_energy(model.h, N), abs=1e-12)


def test_two_site_hubbard_ground_energy_formula() -> None:
    for t, U in ((1.0, 4.0), (0.5, 8.0), (1.0, 0.0), (0.7, 2.5)):
        ints = to_spin_orbitals(hubbard_chain(2, t, U))
        space = enumerate_space(2, 4, ints.layout, 0)
        state = solve_ground(ints, space)
        exact = (U - math.sqrt(U * U + 16 * t * t)) / 2
        assert state.energy == pytest.approx(exact, abs=1e-12)
        # the sector ground is also the global ground here
        full = solve_ground(ints, enumerate_space(2, 4))
        assert full.energy == pytest.approx(exact, abs=1e-12)


def test_two_site_hubbard_ground_vector() -> None:
    ints = to_spin_orbitals(hubbard_chain(2, 1.0, 4.0))
    space = enumerate_space(2, 4, ints.layout, 0)
    state = solve_ground(ints, space)
    # eigenvector (a, b, -b, a) with a = -(sqrt(2)-1) b, up to global sign
    b = 1.0 / math.sqrt(2.0 * (3.0 - 2.0 * math.sqrt(2.0)) + 2.0)
    a = -(math.sqrt(2.0) - 1.0) * b
    expected = np.array([a, b, -b, a])
    deviation = min(
        np.abs(state.coeffs - expected).max(), np.abs(state.coeffs + expected).max()
    )
    assert deviation < 1e-12
    assert state.coeffs[np.argmax(np.abs(state.coeffs))] > 0


def test_pairing_ground_matches_pair_block() -> None:
    for levels, G in ((2, 0.5), (3, 0.33), (4, 0.21)):
        ints = to_spin_orbitals(pairing_model(levels, 1.0, G))
        space = enumerate_space(2, 2 * levels, ints.layout, 0)
        state = solve_ground(ints, space)
        block = np.linalg.eigvalsh(pairing_pair_block(levels, 1.0, G))
        assert state.energy == pytest.approx(block[0], abs=1e-12)


def test_solver_returns_the_lowest_state_and_flags_degeneracy() -> None:
    ints = to_spin_orbitals(hubbard_chain(2, 1.0, 4.0))
    space = enumerate_space(2, 4, ints.layout, 0)
    state = solve_ground(ints, space)
    assert isinstance(state, CIVector) and state.space is space
    assert state.energy == pytest.approx(np.linalg.eigvalsh(build_hamiltonian(ints, space))[0])
    assert not state.degenerate

    # a one-determinant space has no second level, so no gap to flag
    single = enumerate_space(2, 4, ints.layout, 2)
    assert len(single) == 1
    state = solve_ground(ints, single)
    assert state.energy == build_hamiltonian(ints, single)[0, 0]
    assert abs(state.coeffs[0]) == 1.0 and not state.degenerate

    # a zero Hamiltonian makes every state degenerate
    flat = to_spin_orbitals(pairing_model(2, 0.0, 0.0))
    zspace = enumerate_space(2, 4, flat.layout, 0)
    assert solve_ground(flat, zspace).degenerate


def test_generated_entries_equal_searched_entries(monkeypatch) -> None:
    # Above the crossover the Hamiltonian generates only the pairs the
    # integrals connect; its nonzero entries must be the searched ones, bit
    # for bit, in the same order.
    rng = np.random.default_rng(31)
    hubbard = to_spin_orbitals(hubbard_chain(7, 1.0, 4.0))
    pairing = to_spin_orbitals(pairing_model(7, 1.0, 0.5))
    sector = to_spin_orbitals(random_spatial(6, rng))
    # a general rotation mixes spins, so spin-flip doubles are nonzero
    U = np.linalg.qr(rng.standard_normal((12, 12)))[0]
    mixed = to_spin_orbitals(random_spatial(6, rng)).rotated(U)
    pinned = to_spin_orbitals(random_spatial(5, rng))
    doubles_only = GPConstraint(4, 10, "family", 2, (-1, -1, -1, 1) + (0,) * 6)
    # every single's element is exchange alone: a screen on h drops them all
    bare = to_spin_orbitals(random_spatial(6, rng))
    bare = SpinOrbitalIntegrals(bare.layout, np.zeros_like(bare.h), bare.g, bare.core_energy)
    cases = [
        (hubbard, enumerate_space(7, 14, hubbard.layout, 1)),
        (pairing, enumerate_space(6, 14, pairing.layout, 0)),
        (sector, enumerate_space(5, 12, sector.layout, 1)),
        (mixed, enumerate_space(5, 12)),
        (pinned, filter_pinned(enumerate_space(4, 10), [doubles_only]).survivors),
        (bare, enumerate_space(5, 12, bare.layout, 1)),
    ]
    for ints, space in cases:
        entries = []
        for crossover in (0, len(space)):  # generated, then searched
            monkeypatch.setattr(fermipin.ci, "DENSE_CROSSOVER", crossover)
            diag, i, j, values = fermipin.ci._hamiltonian_entries(ints, space)
            keep = values != 0
            entries.append((diag, i[keep], j[keep], values[keep]))
        generated, searched = entries
        assert len(generated[3]) > 0
        for a, b in zip(generated, searched):
            assert np.array_equal(a, b)
    # the last case, h = 0, keeps nonzero singles
    _, i, j, _ = generated
    assert (np.bitwise_count(space.masks[i] ^ space.masks[j]) == 2).any()


def test_sparse_solve_agrees_with_dense(monkeypatch) -> None:
    # every Hubbard sector here qualifies for the string route; each case
    # is solved on it and again through the CSR product
    hubbard = [hubbard_sector_space(4, 4, 0), hubbard_sector_space(5, 5, 1)]
    # open 6-site chains at U = 2 and 6, and the 7-site chain at U = 4
    for sites, U, N, sector in ((6, 2.0, 6, 0), (6, 6.0, 6, 0), (7, 4.0, 7, 1)):
        chain = to_spin_orbitals(hubbard_chain(sites, 1.0, U))
        hubbard.append((chain, enumerate_space(N, 2 * sites, chain.layout, sector)))
    # The U=0 periodic 6-site ring: its Krylov space becomes invariant
    # before the basis fills (see the restart test below); the ground state
    # is simple, the level above it four-fold.
    ring = to_spin_orbitals(hubbard_chain(6, 1.0, 0.0, periodic=True))
    hubbard.append((ring, enumerate_space(6, 12, ring.layout, 0)))
    # The U=0 periodic 5-site ring with N=6: when each block row is
    # orthogonalized against the older basis only once, a nearly dependent
    # row keeps rounding-level components along it that normalizing
    # magnifies, and the solve never converges.
    five = to_spin_orbitals(hubbard_chain(5, 1.0, 0.0, periodic=True))
    hubbard.append((five, enumerate_space(6, 10, five.layout, 0)))
    rng = np.random.default_rng(23)
    others = []
    for n_spatial, N, sector in ((4, 3, None), (4, 4, 0), (5, 4, 2)):
        ints = to_spin_orbitals(random_spatial(n_spatial, rng))
        layout = ints.layout if sector is not None else None
        others.append((ints, enumerate_space(N, 2 * n_spatial, layout, sector)))
    pairing = to_spin_orbitals(pairing_model(7, 1.0, 0.5))
    others.append((pairing, enumerate_space(6, 14, pairing.layout, 0)))
    built = [build_hamiltonian(*case) for case in hubbard + others]
    monkeypatch.setattr(fermipin.ci, "DENSE_CROSSOVER", 0)
    for strings in (True, False):
        taken = _spy_on_string_route(monkeypatch, strings)
        for (ints, space), H in zip(hubbard + others, built):
            values, vectors = np.linalg.eigh(H)
            taken.clear()
            s = solve_ground(ints, space)
            assert taken == [strings and any(space is h for _, h in hubbard)]
            assert s.energy == pytest.approx(values[0], abs=1e-12)
            assert s.degenerate == (values[1] - values[0] < fermipin.ci.DEGENERACY_GAP)
            if not s.degenerate:
                assert abs(vectors[:, 0] @ s.coeffs) == pytest.approx(1.0, abs=1e-10)
                assert s.coeffs[np.argmax(np.abs(s.coeffs))] > 0
            assert np.linalg.norm(H @ s.coeffs - s.energy * s.coeffs) <= 1e-10
            if ints is ring:
                assert not s.degenerate


def test_sparse_solve_flags_degeneracy(monkeypatch) -> None:
    # the U=0 periodic 4-site ring at half filling: a four-fold ground level;
    # the U=4 periodic 7-site ring with N=5: a momentum doublet, whose Krylov
    # space from one start vector never becomes invariant yet holds only one
    # of its two states
    rings = []
    for sites, U, N, sector in ((4, 0.0, 4, 0), (7, 4.0, 5, 1)):
        ints = to_spin_orbitals(hubbard_chain(sites, 1.0, U, periodic=True))
        space = enumerate_space(N, 2 * sites, ints.layout, sector)
        exact = np.linalg.eigvalsh(build_hamiltonian(ints, space))
        assert exact[1] - exact[0] < fermipin.ci.DEGENERACY_GAP
        rings.append((ints, space, exact[0]))
    monkeypatch.setattr(fermipin.ci, "DENSE_CROSSOVER", 0)
    for strings in (True, False):
        taken = _spy_on_string_route(monkeypatch, strings)
        for ints, space, energy in rings:
            taken.clear()
            sparse = solve_ground(ints, space)
            assert taken == [strings]
            assert sparse.degenerate
            assert sparse.energy == pytest.approx(energy, abs=1e-10)


def test_sparse_solve_is_repeatable(monkeypatch) -> None:
    ints, space = hubbard_sector_space(5, 5, 1)
    monkeypatch.setattr(fermipin.ci, "DENSE_CROSSOVER", 0)
    for strings in (True, False):
        taken = _spy_on_string_route(monkeypatch, strings)
        first, second = solve_ground(ints, space), solve_ground(ints, space)
        assert taken == [strings] * 2
        assert first.energy == second.energy
        assert np.array_equal(first.coeffs, second.coeffs)


def test_sparse_solve_of_a_zero_space_is_400_blocks_of_one() -> None:
    # t = U = 0: H is zero on the 400-determinant sector, so no entry joins
    # two determinants and each is a block of one, solved densely; the
    # ground level is 400-fold
    ints = to_spin_orbitals(hubbard_chain(6, 0.0, 0.0))
    space = enumerate_space(6, 12, ints.layout, 0)
    assert len(space) == 400 > fermipin.ci.DENSE_CROSSOVER
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = solve_ground(ints, space)
    assert state.energy == 0.0
    assert np.isfinite(state.coeffs).all()
    assert np.linalg.norm(state.coeffs) == pytest.approx(1.0, abs=1e-12)
    assert state.degenerate
    # on an exact tie the first block gives the state
    assert state.coeffs[0] == 1.0 and np.count_nonzero(state.coeffs) == 1


def test_sparse_solve_restarts_from_an_invariant_krylov_space(monkeypatch) -> None:
    # The U = 0 periodic 6-site ring is one connected block of 400
    # determinants, so it reaches Lanczos; its Krylov space becomes
    # invariant before the basis fills.  Through the CSR product only a
    # random replacement vector (a 1-D draw; the start block is 2-D) lets
    # the solve go on.  On alpha and beta strings the filtered Davidson
    # solves it: there too its filtered rows fall into the basis, and random
    # rows take their place.
    draws = []
    real = np.random.default_rng

    class Spy:
        def __init__(self, seed):
            self.rng = real(seed)

        def standard_normal(self, size):
            draws.append(size)
            return self.rng.standard_normal(size)

    ints = to_spin_orbitals(hubbard_chain(6, 1.0, 0.0, periodic=True))
    space = enumerate_space(6, 12, ints.layout, 0)
    assert len(space) == 400 > fermipin.ci.DENSE_CROSSOVER
    H = build_hamiltonian(ints, space)
    monkeypatch.setattr(np.random, "default_rng", Spy)
    for strings in (True, False):
        taken = _spy_on_string_route(monkeypatch, strings)
        draws.clear()
        state = solve_ground(ints, space)
        assert taken == [strings]
        if not strings:
            assert draws[0] == (2, 400) and 400 in draws[1:]
        assert state.energy == pytest.approx(np.linalg.eigvalsh(H)[0], abs=1e-10)
        assert np.linalg.norm(H @ state.coeffs - state.energy * state.coeffs) <= 1e-10
        assert not state.degenerate


def test_blocks_are_the_connected_components_in_order_of_first_node() -> None:
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        i, j = rng.integers(0, n, (2, int(rng.integers(0, 80))))
        # breadth-first search, numbering each block when it is first met
        neighbours = [set() for _ in range(n)]
        for a, b in zip(i.tolist(), j.tolist()):
            neighbours[a].add(b)
            neighbours[b].add(a)
        expected = [-1] * n
        count = 0
        for start in range(n):
            if expected[start] < 0:
                expected[start], queue = count, [start]
                for node in queue:
                    for other in neighbours[node]:
                        if expected[other] < 0:
                            expected[other] = count
                            queue.append(other)
                count += 1
        assert fermipin.ci._blocks(n, i, j).tolist() == expected


def _spy_on_lanczos(monkeypatch) -> list[int]:
    """The size of each block that goes through Lanczos, from now."""
    sizes = []
    lanczos = fermipin.ci._lanczos

    def spy(diag, *args):
        sizes.append(len(diag))
        return lanczos(diag, *args)

    monkeypatch.setattr(fermipin.ci, "_lanczos", spy)
    return sizes


def test_block_solve_of_the_pairing_model_matches_dense_eigh(monkeypatch) -> None:
    # six levels, N = 6, S_z = 0: 400 determinants in blocks that keep
    # which levels hold an unpaired electron, all at or below the
    # crossover, so no block reaches Lanczos
    sizes = _spy_on_lanczos(monkeypatch)
    ints = to_spin_orbitals(pairing_model(6, 1.0, 0.5))
    space = enumerate_space(6, 12, ints.layout, 0)
    assert len(space) == 400 > fermipin.ci.DENSE_CROSSOVER
    H = build_hamiltonian(ints, space)
    exact, vectors = np.linalg.eigh(H)
    values, ground = fermipin.ci._sparse_eigh(ints, space)
    assert values == pytest.approx(exact[:2], abs=1e-12)
    state = solve_ground(ints, space)
    assert sizes == []
    assert state.energy == values[0] and np.array_equal(state.coeffs, ground)
    assert abs(vectors[:, 0] @ state.coeffs) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(H @ state.coeffs - state.energy * state.coeffs) <= 1e-10
    # exactly +0.0 outside the ground state's block of the 20 paired states
    outside = state.coeffs == 0
    assert np.count_nonzero(~outside) == 20
    assert not np.signbit(state.coeffs[outside]).any()
    # a repulsive G, whose block vector eigh may return with a negative
    # lead: the sign fix must leave the zeros outside the block +0.0
    repulsive = to_spin_orbitals(pairing_model(7, 1.0, -0.5))
    coeffs = solve_ground(repulsive, enumerate_space(6, 14, repulsive.layout, 0)).coeffs
    assert np.count_nonzero(coeffs) < len(coeffs)
    assert not np.signbit(coeffs[coeffs == 0]).any()


def test_a_ground_level_shared_by_blocks_is_degenerate() -> None:
    # no level spacing, N = 5, S_z = 1: the unpaired electron sits on any
    # of the six levels, so the ground level is six-fold across blocks
    ints = to_spin_orbitals(pairing_model(6, 0.0, 0.5))
    space = enumerate_space(5, 12, ints.layout, 1)
    assert len(space) == 300 > fermipin.ci.DENSE_CROSSOVER
    exact = np.linalg.eigvalsh(build_hamiltonian(ints, space))
    assert exact[5] - exact[0] < 1e-12 < exact[6] - exact[0]
    state = solve_ground(ints, space)
    assert state.degenerate
    assert state.energy == pytest.approx(exact[0], abs=1e-12)


def test_blocks_above_the_crossover_go_through_lanczos(monkeypatch) -> None:
    # pairing-7, N = 6, S_z = 0: 64 blocks, one of 35, 28 of 20 and 35 of
    # 18; at a crossover of 30 only the 35-determinant block is Lanczos's
    ints = to_spin_orbitals(pairing_model(7, 1.0, 0.5))
    space = enumerate_space(6, 14, ints.layout, 0)
    dense = solve_ground(ints, space)
    sizes = _spy_on_lanczos(monkeypatch)
    monkeypatch.setattr(fermipin.ci, "DENSE_CROSSOVER", 30)
    state = solve_ground(ints, space)
    assert sizes == [35]
    assert state.energy == pytest.approx(dense.energy, abs=1e-12)
    assert abs(dense.coeffs @ state.coeffs) == pytest.approx(1.0, abs=1e-10)
    assert np.count_nonzero(state.coeffs) == 35


def _string_form(ints, space):
    """H over ``space`` rebuilt from the string route's product, diagonal
    and scale, with the signed permutation back to the space's order."""
    diag, product, scale, at, sign, _ = fermipin.ci._string_hamiltonian(ints, space)
    n = len(space)
    P = np.zeros((n, n))
    P[at, np.arange(n)] = sign
    K = product(np.eye(n))
    assert np.array_equal(np.diag(K), diag)
    return P @ K @ P.T, scale


def test_string_form_equals_the_built_hamiltonian() -> None:
    # H_α ⊗ 1 + 1 ⊗ H_β + diag(D), permuted and signed, is the Hamiltonian
    # itself: exactly on integer Hubbard chains in both orderings, open and
    # periodic, odd and even S_z, and on a chain truncated to 13 spin
    # orbitals (7 up, 6 down)
    cases = []
    for ordering in ("interleaved", "blocked"):
        for periodic in (False, True):
            ints = to_spin_orbitals(hubbard_chain(6, 1.0, 4.0, periodic=periodic), ordering)
            for N, sector in ((6, 0), (5, 1), (6, 2), (5, -3)):
                cases.append((ints, enumerate_space(N, 12, ints.layout, sector)))
    truncated = to_spin_orbitals(hubbard_chain(7, 1.0, 4.0)).truncated(13)
    cases.append((truncated, enumerate_space(5, 13, truncated.layout, 1)))
    for ints, space in cases:
        H = build_hamiltonian(ints, space)
        form, scale = _string_form(ints, space)
        assert np.array_equal(form, H)
        assert scale == np.abs(H).max()
    for ints, space in _random_density_density_sectors():
        H = build_hamiltonian(ints, space)
        form, scale = _string_form(ints, space)
        assert np.abs(form - H).max() <= 1e-13 * np.abs(H).max()
        assert scale == pytest.approx(np.abs(H).max(), rel=1e-15)


def _random_density_density_sectors():
    """Sectors of random density-density integrals, in both orderings: h
    is dense, (ij|kl) is (ii|jj) alone."""
    rng = np.random.default_rng(53)
    h, V = rng.standard_normal((2, 5, 5))
    g = np.zeros((5, 5, 5, 5))
    g[np.arange(5)[:, None], np.arange(5)[:, None], np.arange(5), np.arange(5)] = V + V.T
    for ordering in ("interleaved", "blocked"):
        ints = to_spin_orbitals(SpatialIntegrals(5, h + h.T, g, 0.7), ordering)
        for N, sector in ((5, 1), (4, 0), (6, -2)):
            yield ints, enumerate_space(N, 10, ints.layout, sector)


def test_the_string_route_bounds_the_largest_eigenvalue() -> None:
    # the top of the interval the string route's filter damps must lie at
    # or above every eigenvalue: on the sweep's 400-determinant sectors and
    # on random density-density integrals
    cases = [case for case in _sweep_sectors() if len(case[1]) == 400]
    assert len(cases) == 20
    for ints, space in cases + list(_random_density_density_sectors()):
        upper = fermipin.ci._string_hamiltonian(ints, space)[-1]()
        assert upper >= np.linalg.eigvalsh(build_hamiltonian(ints, space))[-1]


def _spy_on_string_route(monkeypatch, on: bool = True) -> list[bool]:
    """Whether each sparse solve, from now, takes the string route; with
    ``on`` false the route is turned off, so every connected block goes
    through the CSR product."""
    taken = []
    route = fermipin.ci._string_hamiltonian

    def spy(ints, space):
        result = route(ints, space) if on else None
        taken.append(result is not None)
        return result

    monkeypatch.setattr(fermipin.ci, "_string_hamiltonian", spy)
    return taken


def test_only_a_connected_complete_density_density_sector_takes_the_string_route(
    monkeypatch,
) -> None:
    taken = _spy_on_string_route(monkeypatch)
    built = []
    entries = fermipin.ci._hamiltonian_entries

    def spy_entries(ints, space):
        built.append(len(space))
        return entries(ints, space)

    monkeypatch.setattr(fermipin.ci, "_hamiltonian_entries", spy_entries)
    hubbard = to_spin_orbitals(hubbard_chain(7, 1.0, 4.0))
    sector = enumerate_space(7, 14, hubbard.layout, 1)
    solve_ground(hubbard, sector)
    # only the 35 alpha and the 35 beta strings have entries built
    assert taken == [True] and built == [35, 35]
    keep = np.ones(len(sector), bool)
    keep[100] = False
    rng = np.random.default_rng(59)
    random_ints = to_spin_orbitals(random_spatial(6, rng))
    wide = to_spin_orbitals(hubbard_chain(10, 1.0, 4.0))
    hopless = to_spin_orbitals(hubbard_chain(7, 0.0, 4.0))
    refused = [
        (hubbard, sector.restrict(keep)),
        (hubbard, enumerate_space(4, 14)),
        (random_ints, enumerate_space(6, 12, random_ints.layout, 0)),
        (wide, enumerate_space(4, 20, wide.layout, 4)),  # every electron up
        (hopless, sector),  # t = 0: every string is its own block
    ]
    for ints, space in refused:
        assert len(space) > fermipin.ci.DENSE_CROSSOVER
        taken.clear()
        solve_ground(ints, space)
        assert taken == [False]


def _sweep_sectors():
    """Every complete Hubbard sector of the sweep, all above the crossover:
    6- and 7-site chains, open and periodic, in both orderings, at five U,
    half filled with the two lowest 2S_z and with one electron less."""
    for sites in (6, 7):
        for periodic in (False, True):
            for ordering in ("interleaved", "blocked"):
                for U in (0.0, 1.0, 2.5, 4.0, 8.0):
                    ints = to_spin_orbitals(hubbard_chain(sites, 1.0, U, periodic=periodic),
                                            ordering)
                    for N, sector in ((sites, sites % 2), (sites, sites % 2 + 2),
                                      (sites - 1, (sites - 1) % 2)):
                        yield ints, enumerate_space(N, 2 * sites, ints.layout, sector)


def test_the_string_route_agrees_with_the_csr_route_over_the_sweep(monkeypatch) -> None:
    # each sector is solved on alpha and beta strings, then again with the
    # string route turned off, through the CSR product
    cases = list(_sweep_sectors())
    assert len(cases) == 120
    solved = {}
    for strings in (True, False):
        taken = _spy_on_string_route(monkeypatch, strings)
        solved[strings] = [solve_ground(ints, space) for ints, space in cases]
        assert taken == [strings] * len(cases)
    for (ints, space), s, c in zip(cases, solved[True], solved[False]):
        assert len(space) > fermipin.ci.DENSE_CROSSOVER
        H = build_hamiltonian(ints, space)
        scale = max(abs(c.energy), np.abs(H).max())
        assert abs(s.energy - c.energy) <= 1e-12 * scale
        assert s.degenerate == c.degenerate
        if not s.degenerate:
            assert abs(s.coeffs @ c.coeffs) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(H @ s.coeffs - s.energy * s.coeffs) <= 1e-10


def test_stacked_ground_states_equal_the_per_point_solves() -> None:
    rng = np.random.default_rng(41)
    for n_spatial, N, sector in ((3, 3, 1), (3, 3, None), (4, 4, 0), (3, 3, 3), (4, 3, -1)):
        points = [random_spatial(n_spatial, rng) for _ in range(5)]
        stack = to_spin_orbitals(SpatialIntegrals(
            n_spatial, np.stack([p.h for p in points]), np.stack([p.g for p in points]),
            np.array([p.core_energy for p in points])))
        space = enumerate_space(N, 2 * n_spatial, stack.layout, sector)
        energies, coeffs, degenerate = ground_states(stack, space)
        H = build_hamiltonian(stack, space)
        for k, point in enumerate(points):
            ints = to_spin_orbitals(point)
            assert np.array_equal(stack.g[k], ints.g) and np.array_equal(stack.h[k], ints.h)
            assert np.array_equal(H[k], build_hamiltonian(ints, space))
            state = solve_ground(ints, space)
            assert energies[k] == state.energy
            assert np.array_equal(coeffs[k], state.coeffs)
            assert degenerate[k] == state.degenerate
        if len(space) == 1:  # no second level to be degenerate with
            assert not degenerate.any()


def test_a_stack_above_the_crossover_equals_its_points_solved_alone() -> None:
    # the 400-determinant S_z = 0 sector of the 6-site chain at U = 0, 2, 4:
    # each point of the stack goes through the sparse solve on its own
    points = [hubbard_chain(6, 1.0, U) for U in (0.0, 2.0, 4.0)]
    stack = to_spin_orbitals(SpatialIntegrals(
        6, np.stack([p.h for p in points]), np.stack([p.g for p in points]),
        np.array([p.core_energy for p in points])))
    space = enumerate_space(6, 12, stack.layout, 0)
    assert len(space) == 400 > fermipin.ci.DENSE_CROSSOVER
    energies, coeffs, degenerate = ground_states(stack, space)
    assert energies.shape == degenerate.shape == (3,) and coeffs.shape == (3, 400)
    for k, point in enumerate(points):
        alone = ground_states(to_spin_orbitals(point), space)
        assert energies[k] == alone[0][0]
        assert np.array_equal(coeffs[k], alone[1][0])
        assert degenerate[k] == alone[2][0]


@pytest.mark.parametrize("sites", [4, 6])
def test_a_stacked_hamiltonian_equals_its_points_built_alone(sites) -> None:
    # the S_z = 0 sectors of the 4- and 6-site chains (36 and 400
    # determinants) at U = 0, 2, 4: U = 0 screens out every double, and
    # above the crossover the stack is screened by the union of its points
    points = [hubbard_chain(sites, 1.0, U) for U in (0.0, 2.0, 4.0)]
    stack = to_spin_orbitals(SpatialIntegrals(
        sites, np.stack([p.h for p in points]), np.stack([p.g for p in points]),
        np.array([p.core_energy for p in points])))
    space = enumerate_space(sites, 2 * sites, stack.layout, 0)
    assert (len(space) > fermipin.ci.DENSE_CROSSOVER) is (sites == 6)
    H = build_hamiltonian(stack, space)
    assert H.shape == (3, len(space), len(space))
    for k, point in enumerate(points):
        assert np.array_equal(H[k], build_hamiltonian(to_spin_orbitals(point), space))


def _spy_on_krylov_rows(monkeypatch) -> list[np.ndarray]:
    """The first basis of each Lanczos run, from now: the rows its first 16
    products see, which fill the 32 rows of the basis before any restart."""
    bases = []
    lanczos = fermipin.ci._lanczos

    def spy(diag, product, scale):
        rows = []
        bases.append(rows)

        def recorded(X):
            if len(rows) < 16:
                rows.append(X.copy())
            return product(X)

        return lanczos(diag, recorded, scale)

    monkeypatch.setattr(fermipin.ci, "_lanczos", spy)
    return bases


def _spy_on_davidson_rows(monkeypatch) -> list[np.ndarray]:
    """The first basis of each Davidson run, from now: the rows its
    products see outside the filter until the basis first fills."""
    bases, filtering = [], []
    davidson, filtered = fermipin.ci._davidson, fermipin.ci._chebyshev_filtered

    def spy_filter(*args):
        filtering.append(True)
        try:
            return filtered(*args)
        finally:
            filtering.clear()

    def spy(diag, product, scale, upper):
        rows = []
        bases.append(rows)

        def recorded(X):
            if not filtering and sum(map(len, rows)) < fermipin.ci.DAVIDSON_BASIS:
                rows.append(X.copy())
            return product(X)

        return davidson(diag, recorded, scale, upper)

    monkeypatch.setattr(fermipin.ci, "_chebyshev_filtered", spy_filter)
    monkeypatch.setattr(fermipin.ci, "_davidson", spy)
    return bases


def test_the_krylov_basis_is_orthonormal(monkeypatch) -> None:
    # Lanczos's first 32 rows through the CSR product, and the filtered
    # Davidson's first 12 on alpha and beta strings
    five = to_spin_orbitals(hubbard_chain(5, 1.0, 0.0, periodic=True))
    seven = to_spin_orbitals(hubbard_chain(7, 1.0, 4.0))
    random_ints = to_spin_orbitals(random_spatial(6, np.random.default_rng(61)))
    ring = (five, enumerate_space(6, 10, five.layout, 0))
    routes = {  # the ring on both routes, the others on their own
        True: [ring, (seven, enumerate_space(7, 14, seven.layout, 1))],
        False: [ring, (random_ints, enumerate_space(6, 12, random_ints.layout, 0))],
    }
    monkeypatch.setattr(fermipin.ci, "DENSE_CROSSOVER", 0)
    bases = _spy_on_krylov_rows(monkeypatch)
    davidson_bases = _spy_on_davidson_rows(monkeypatch)
    for strings, cases in routes.items():
        taken = _spy_on_string_route(monkeypatch, strings)
        for ints, space in cases:
            taken.clear()
            bases.clear()
            davidson_bases.clear()
            solve_ground(ints, space)
            if strings:
                assert taken == [True] and bases == [] and len(davidson_bases) == 1
                R = np.concatenate(davidson_bases[0])
                assert R.shape == (fermipin.ci.DAVIDSON_BASIS, len(space))
                assert np.abs(R @ R.T - np.eye(len(R))).max() <= 1e-13
                continue
            assert taken == [strings] and len(bases) == 1
            R = np.concatenate(bases[0])
            assert R.shape == (32, len(space))
            assert np.abs(R @ R.T - np.eye(32)).max() <= 1e-13


def test_a_non_finite_hamiltonian_element_is_refused_by_name() -> None:
    # finite integrals whose sums overflow: (11|11) + (11|22) on the diagonal
    spatial = hubbard_chain(3, 1.0, 0.0)
    spatial.g[0, 0, 0, 0] = 1e308
    spatial.g[0, 0, 1, 1] = spatial.g[1, 1, 0, 0] = 1e308
    bad = to_spin_orbitals(spatial)
    good = to_spin_orbitals(hubbard_chain(3, 1.0, 2.0))
    space = enumerate_space(3, 6, bad.layout, 1)
    stack = SpinOrbitalIntegrals(bad.layout, np.stack([good.h, bad.h, bad.h]),
                                 np.stack([good.g, bad.g, bad.g]), np.zeros(3))
    message = r"between determinants \[1, 2, 3\] and \[1, 2, 3\] is inf, not finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ints in (bad, stack):
            with pytest.raises(FermipinError, match=message):
                build_hamiltonian(ints, space)
        # an infinite integral makes empty orbitals' zero terms NaN
        bad.h[4, 4] = -np.inf
        with pytest.raises(FermipinError, match=r"is nan, not finite"):
            solve_ground(bad, space)


def test_sparse_no_convergence_is_a_fermipin_error(monkeypatch) -> None:
    # one basis fill is far too few Lanczos steps for a 400-determinant space
    ints, space = hubbard_sector_space(6, 6, 0)
    monkeypatch.setattr(fermipin.ci, "DENSE_CROSSOVER", 0)
    monkeypatch.setattr(fermipin.ci, "LANCZOS_RESTARTS", 1)
    for strings in (True, False):
        taken = _spy_on_string_route(monkeypatch, strings)
        with pytest.raises(FermipinError, match="did not converge"):
            solve_ground(ints, space)
        assert taken == [strings]


def test_solver_input_checks() -> None:
    ints = to_spin_orbitals(hubbard_chain(2, 1.0, 4.0))
    with pytest.raises(ValueError, match="empty space"):
        solve_ground(ints, ConfigurationSpace(2, 4, ()))
    with pytest.raises(WidthError):
        build_hamiltonian(ints, enumerate_space(2, 6))
    with pytest.raises(SpaceTooLargeError):
        solve_ground(ints, enumerate_space(10, 20))  # 184756 determinants


def test_identity_rotation_is_a_no_op() -> None:
    ints, space = hubbard_sector_space(3, 3, 1)
    state = solve_ground(ints, space)
    rot = OrbitalRotation(np.eye(6), space.layout)
    out = rotate_ci(state, rot)
    np.testing.assert_allclose(out.coeffs, state.coeffs, atol=1e-14)
    assert out.space.sector == 1


def test_orbital_swap_rotation_permutes_with_parity() -> None:
    space = enumerate_space(2, 4)
    coeffs = np.zeros(len(space))
    coeffs[space.index_of(Determinant.from_orbitals([1, 2], 4))] = 1.0
    vec = CIVector(space, coeffs)
    swap = np.eye(4)
    swap[[0, 1]] = swap[[1, 0]]
    out = rotate_ci(vec, OrbitalRotation(swap))
    # swapping the two occupied orbitals multiplies the determinant by -1
    assert out.coeffs[space.index_of(Determinant.from_orbitals([1, 2], 4))] == pytest.approx(-1.0)
    assert np.count_nonzero(np.abs(out.coeffs) > 1e-14) == 1


def test_general_rotation_preserves_norm_and_energy() -> None:
    rng = np.random.default_rng(12)
    spatial = random_spatial(3, rng)
    ints = to_spin_orbitals(spatial)
    space = enumerate_space(3, 6)
    state = solve_ground(ints, space)

    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    rot = OrbitalRotation(q)
    out = rotate_ci(state, rot)
    assert np.linalg.norm(out.coeffs) == pytest.approx(1.0, abs=1e-12)
    assert out.space.layout is None

    H_rot = build_hamiltonian(ints.rotated(q), out.space)
    energy = out.coeffs @ H_rot @ out.coeffs
    assert energy == pytest.approx(state.energy, abs=1e-10)


def test_blocked_rotation_keeps_sector_and_energy() -> None:
    rng = np.random.default_rng(13)
    ints, space = hubbard_sector_space(3, 3, 1)
    state = solve_ground(ints, space)

    U = np.zeros((6, 6))
    qu, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    qd, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    ups = [i - 1 for i in space.layout.indices_with_spin(UP)]
    downs = [i - 1 for i in space.layout.indices_with_spin(DOWN)]
    # new basis lists the rotated up orbitals first, then the rotated down
    for a, row in enumerate(ups):
        U[a, ups] = qu[a]
    for a, row in enumerate(downs):
        U[3 + a, downs] = qd[a]
    rot = OrbitalRotation(U, SpinOrbitalLayout((UP,) * 3 + (DOWN,) * 3))

    out = rotate_ci(state, rot)
    assert np.linalg.norm(out.coeffs) == pytest.approx(1.0, abs=1e-12)
    assert out.space.sector == 1
    assert out.space.layout.indices_with_spin(UP) == (1, 2, 3)

    H_rot = build_hamiltonian(ints.rotated(U, rot.layout), out.space)
    energy = out.coeffs @ H_rot @ out.coeffs
    assert energy == pytest.approx(state.energy, abs=1e-10)


def test_rotation_validation() -> None:
    with pytest.raises(RotationError):
        OrbitalRotation(np.ones((3, 3)))
    with pytest.raises(RotationError):
        OrbitalRotation(np.eye(3), interleaved_layout(2))  # layout of width 4

    ints, space = hubbard_sector_space(2, 2, 0)
    state = solve_ground(ints, space)
    q, _ = np.linalg.qr(np.random.default_rng(14).standard_normal((4, 4)))
    with pytest.raises(SectorError):
        rotate_ci(state, OrbitalRotation(q))
    # a spin-mixing matrix mislabelled as blocked is caught
    with pytest.raises(RotationError):
        rotate_ci(
            state,
            OrbitalRotation(q, interleaved_layout(2)),
        )


def test_random_vectors_rotate_back_exactly() -> None:
    rng = np.random.default_rng(15)
    space = enumerate_space(3, 6)
    for _ in range(5):
        vec = CIVector(space, random_coefficients(len(space), rng))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        there = rotate_ci(vec, OrbitalRotation(q))
        back = rotate_ci(there, OrbitalRotation(q.T))
        np.testing.assert_allclose(back.coeffs, vec.coeffs, atol=1e-10)


def test_ci_vector_leading() -> None:
    ints = to_spin_orbitals(hubbard_chain(2, 1.0, 4.0))
    space = enumerate_space(2, 4, ints.layout, 0)
    state = solve_ground(ints, space)
    top = state.leading(2)
    assert [abs(c) for _, c in top] == sorted(np.abs(state.coeffs), reverse=True)[:2]
