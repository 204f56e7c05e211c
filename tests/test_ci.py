"""Hamiltonian assembly, ground-state solves, and basis rotations."""

from __future__ import annotations

import math

import numpy as np
import pytest

import fermipin.ci
from fermipin.ci import CIVector, OrbitalRotation, build_hamiltonian, solve_ground
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
    Determinant,
    SpinOrbitalLayout,
    enumerate_space,
    interleaved_layout,
)
from fermipin.integrals import hubbard_chain, pairing_model, to_spin_orbitals

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
        state = solve_ground(ints, space)[0]
        assert state.energy == pytest.approx(filled_band_energy(model.h, N), abs=1e-12)


def test_two_site_hubbard_ground_energy_formula() -> None:
    for t, U in ((1.0, 4.0), (0.5, 8.0), (1.0, 0.0), (0.7, 2.5)):
        ints = to_spin_orbitals(hubbard_chain(2, t, U))
        space = enumerate_space(2, 4, ints.layout, 0)
        state = solve_ground(ints, space)[0]
        exact = (U - math.sqrt(U * U + 16 * t * t)) / 2
        assert state.energy == pytest.approx(exact, abs=1e-12)
        # the sector ground is also the global ground here
        full = solve_ground(ints, enumerate_space(2, 4))[0]
        assert full.energy == pytest.approx(exact, abs=1e-12)


def test_two_site_hubbard_ground_vector() -> None:
    ints = to_spin_orbitals(hubbard_chain(2, 1.0, 4.0))
    space = enumerate_space(2, 4, ints.layout, 0)
    state = solve_ground(ints, space)[0]
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
        state = solve_ground(ints, space)[0]
        block = np.linalg.eigvalsh(pairing_pair_block(levels, 1.0, G))
        assert state.energy == pytest.approx(block[0], abs=1e-12)


def test_solver_orders_and_flags_degeneracies() -> None:
    ints = to_spin_orbitals(hubbard_chain(2, 1.0, 4.0))
    space = enumerate_space(2, 4, ints.layout, 0)
    states = solve_ground(ints, space, k=3)
    energies = [s.energy for s in states]
    assert energies == sorted(energies)
    assert not states[0].degenerate

    # a zero Hamiltonian makes every state degenerate
    flat = to_spin_orbitals(pairing_model(2, 0.0, 0.0))
    zspace = enumerate_space(2, 4, flat.layout, 0)
    assert solve_ground(flat, zspace)[0].degenerate


def _sparse_and_dense(monkeypatch, ints, space, k):
    dense = solve_ground(ints, space, k)
    with monkeypatch.context() as patch:
        patch.setattr(fermipin.ci, "DENSE_CROSSOVER", 0)
        sparse = solve_ground(ints, space, k)
    return dense, sparse


def test_sparse_solve_agrees_with_dense(monkeypatch) -> None:
    rng = np.random.default_rng(23)
    cases = [hubbard_sector_space(4, 4, 0), hubbard_sector_space(5, 5, 1)]
    for n_spatial, N, sector in ((4, 3, None), (4, 4, 0), (5, 4, 2)):
        ints = to_spin_orbitals(random_spatial(n_spatial, rng))
        layout = ints.layout if sector is not None else None
        cases.append((ints, enumerate_space(N, 2 * n_spatial, layout, sector)))
    for ints, space in cases:
        dense, sparse = _sparse_and_dense(monkeypatch, ints, space, 3)
        for d, s in zip(dense, sparse):
            assert s.energy == pytest.approx(d.energy, abs=1e-10)
            assert s.degenerate == d.degenerate
            if not d.degenerate:
                assert abs(d.coeffs @ s.coeffs) == pytest.approx(1.0, abs=1e-10)
                assert s.coeffs[np.argmax(np.abs(s.coeffs))] > 0


def test_sparse_solve_flags_degeneracy(monkeypatch) -> None:
    # the U=0 periodic 4-site ring at half filling: a four-fold ground level
    ints = to_spin_orbitals(hubbard_chain(4, 1.0, 0.0, periodic=True))
    space = enumerate_space(4, 8, ints.layout, 0)
    dense, sparse = _sparse_and_dense(monkeypatch, ints, space, 1)
    assert dense[0].degenerate and sparse[0].degenerate
    assert sparse[0].energy == pytest.approx(dense[0].energy, abs=1e-10)


def test_sparse_solve_is_repeatable(monkeypatch) -> None:
    ints, space = hubbard_sector_space(5, 5, 1)
    monkeypatch.setattr(fermipin.ci, "DENSE_CROSSOVER", 0)
    first, second = solve_ground(ints, space, 2), solve_ground(ints, space, 2)
    for a, b in zip(first, second):
        assert a.energy == b.energy
        assert np.array_equal(a.coeffs, b.coeffs)


def test_sparse_no_convergence_is_a_fermipin_error(monkeypatch) -> None:
    from scipy.sparse.linalg import ArpackNoConvergence

    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    ints, space = hubbard_sector_space(4, 4, 0)
    monkeypatch.setattr(fermipin.ci, "DENSE_CROSSOVER", 0)
    monkeypatch.setattr("scipy.sparse.linalg.eigsh", stalled)
    with pytest.raises(FermipinError, match="did not converge"):
        solve_ground(ints, space)


def test_solver_input_checks() -> None:
    ints = to_spin_orbitals(hubbard_chain(2, 1.0, 4.0))
    space = enumerate_space(2, 4)
    with pytest.raises(ValueError):
        solve_ground(ints, space, k=0)
    with pytest.raises(ValueError):
        solve_ground(ints, space, k=7)
    with pytest.raises(WidthError):
        build_hamiltonian(ints, enumerate_space(2, 6))
    big = enumerate_space(10, 20)  # 184756 determinants
    with pytest.raises(SpaceTooLargeError):
        solve_ground(ints, big)


def test_identity_rotation_is_a_no_op() -> None:
    ints, space = hubbard_sector_space(3, 3, 1)
    state = solve_ground(ints, space)[0]
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
    state = solve_ground(ints, space)[0]

    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    rot = OrbitalRotation(q)
    out = rotate_ci(state, rot)
    assert out.norm == pytest.approx(1.0, abs=1e-12)
    assert out.space.layout is None

    H_rot = build_hamiltonian(ints.rotated(q), out.space)
    energy = out.coeffs @ H_rot @ out.coeffs
    assert energy == pytest.approx(state.energy, abs=1e-10)


def test_blocked_rotation_keeps_sector_and_energy() -> None:
    rng = np.random.default_rng(13)
    ints, space = hubbard_sector_space(3, 3, 1)
    state = solve_ground(ints, space)[0]

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
    assert out.norm == pytest.approx(1.0, abs=1e-12)
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
    state = solve_ground(ints, space)[0]
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


def test_ci_vector_json_and_leading() -> None:
    ints = to_spin_orbitals(hubbard_chain(2, 1.0, 4.0))
    space = enumerate_space(2, 4, ints.layout, 0)
    state = solve_ground(ints, space)[0]
    top = state.leading(2)
    assert [abs(c) for _, c in top] == sorted(np.abs(state.coeffs), reverse=True)[:2]
    assert '"energy"' in state.to_json()
