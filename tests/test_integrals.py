"""Model builders, spin-orbital expansion, and integral file round trips."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from fermipin.errors import ParseError, SymmetryViolationError
from fermipin.fock import DOWN, UP, SpinOrbitalLayout, interleaved_layout
from fermipin.integrals import (
    SpatialIntegrals,
    hubbard_chain,
    load_integral_file,
    pairing_model,
    save_integral_file,
    to_spin_orbitals,
)

from .oracles import spin_expansion_by_loops


def random_spatial(n: int, rng: np.random.Generator) -> SpatialIntegrals:
    """Random integrals with the full 8-fold index symmetry."""
    h = rng.standard_normal((n, n))
    h = 0.5 * (h + h.T)
    g = rng.standard_normal((n, n, n, n))
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    return SpatialIntegrals(n, h, g, core_energy=float(rng.standard_normal()))


def test_hubbard_chain_matrices() -> None:
    model = hubbard_chain(3, t=1.0, U=4.0)
    expected_h = np.array([[0, -1, 0], [-1, 0, -1], [0, -1, 0]], dtype=float)
    assert np.array_equal(model.h, expected_h)
    assert model.g[0, 0, 0, 0] == model.g[2, 2, 2, 2] == 4.0
    assert np.count_nonzero(model.g) == 3
    model.validate()


def test_hubbard_wraparound_bond() -> None:
    ring = hubbard_chain(4, t=0.7, U=1.0, periodic=True)
    assert ring.h[0, 3] == ring.h[3, 0] == -0.7
    # for two sites the wrap-around bond coincides with the only bond
    pair = hubbard_chain(2, t=0.7, U=1.0, periodic=True)
    assert np.array_equal(pair.h, hubbard_chain(2, t=0.7, U=1.0).h)


def test_pairing_model_tensor() -> None:
    model = pairing_model(3, spacing=1.0, G=0.4)
    assert np.array_equal(np.diag(model.h), [1.0, 2.0, 3.0])
    # every pair-scattering element and each of its symmetry images is -G
    for k in range(3):
        for l in range(3):
            assert model.g[k, l, k, l] == -0.4
            assert model.g[l, k, k, l] == -0.4
    assert model.g[0, 0, 0, 0] == -0.4
    assert model.g[0, 1, 2, 0] == 0.0
    model.validate()


def test_validate_flags_broken_symmetry() -> None:
    model = hubbard_chain(2, 1.0, 1.0)
    model.g[0, 1, 0, 0] = 0.3  # no symmetry images
    with pytest.raises(SymmetryViolationError):
        model.validate()


def test_spin_expansion_matches_loop_oracle() -> None:
    rng = np.random.default_rng(7)
    for n in (2, 3):
        spatial = random_spatial(n, rng)
        so = to_spin_orbitals(spatial)
        h_ref, g_ref = spin_expansion_by_loops(spatial)
        np.testing.assert_allclose(so.h, h_ref, atol=1e-14)
        np.testing.assert_allclose(so.g, g_ref, atol=1e-14)
        assert so.core_energy == spatial.core_energy


def _index_grid_expansion(spatial: SpatialIntegrals, ordering: str):
    """Spin-orbital h and g from four m**4 index grids: the direct
    vectorized reading of the expansion formula, a bitwise reference for
    ``to_spin_orbitals`` (the loop oracle writes 0.0 where this writes -0.0)."""
    n = spatial.n_spatial
    sp = np.repeat(np.arange(n), 2) if ordering == "interleaved" else np.tile(np.arange(n), 2)
    up = np.arange(2 * n) % 2 == 0 if ordering == "interleaved" else np.arange(2 * n) < n
    same = up[:, None] == up[None, :]
    h = spatial.h[np.ix_(sp, sp)] * same
    P, Q, R, S = np.meshgrid(*[np.arange(2 * n)] * 4, indexing="ij")
    coulomb = spatial.g[sp[P], sp[R], sp[Q], sp[S]] * (same[P, R] & same[Q, S])
    exchange = spatial.g[sp[P], sp[S], sp[Q], sp[R]] * (same[P, S] & same[Q, R])
    return h, coulomb - exchange


@pytest.mark.parametrize("ordering", ["interleaved", "blocked"])
def test_spin_expansion_is_bitwise_the_index_grid_formula(ordering: str) -> None:
    rng = np.random.default_rng(17)
    for spatial in (random_spatial(3, rng), pairing_model(4, 1.0, 0.7), hubbard_chain(3, 1.0, 4.0)):
        so = to_spin_orbitals(spatial, ordering)
        for got, want in zip((so.h, so.g), _index_grid_expansion(spatial, ordering)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("ordering", ["interleaved", "blocked"])
def test_spin_expansion_peak_memory_is_a_few_tensors(ordering: str) -> None:
    # the output g is one m**4 tensor of float64; the expansion may hold
    # at most two more while it builds it
    spatial = hubbard_chain(16, 1.0, 4.0)
    m = 32
    tracemalloc.start()
    try:
        to_spin_orbitals(spatial, ordering)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * m**4


def test_spin_expansion_antisymmetry() -> None:
    rng = np.random.default_rng(8)
    so = to_spin_orbitals(random_spatial(3, rng))
    np.testing.assert_allclose(so.g, -so.g.transpose(1, 0, 2, 3), atol=1e-14)
    np.testing.assert_allclose(so.g, -so.g.transpose(0, 1, 3, 2), atol=1e-14)
    np.testing.assert_allclose(so.g, so.g.transpose(2, 3, 0, 1), atol=1e-14)


def test_spin_expansion_selection_rules() -> None:
    so = to_spin_orbitals(hubbard_chain(2, t=1.0, U=4.0))
    # <1up 1down || 1up 1down> = (11|11) = U
    assert so.g[0, 1, 0, 1] == 4.0
    # same-spin on one site vanishes by antisymmetry
    assert so.g[0, 2, 0, 2] == 0.0 - so.g[0, 2, 2, 0]
    # spin-off-diagonal h blocks vanish
    assert so.h[0, 1] == 0.0
    assert so.h[0, 2] == -1.0  # 1up -> 2up hopping


def test_blocked_ordering_layout() -> None:
    so = to_spin_orbitals(hubbard_chain(2, 1.0, 0.0), ordering="blocked")
    assert so.layout.indices_with_spin(UP) == (1, 2)
    assert so.layout.indices_with_spin(DOWN) == (3, 4)
    assert so.h[0, 1] == -1.0
    with pytest.raises(ValueError):
        to_spin_orbitals(hubbard_chain(2, 1.0, 0.0), ordering="diagonal")


def test_truncation_keeps_leading_block() -> None:
    so = to_spin_orbitals(hubbard_chain(4, 1.0, 2.0))
    cut = so.truncated(7)
    assert cut.m == 7
    assert cut.layout.indices_with_spin(UP) == (1, 3, 5, 7)
    np.testing.assert_array_equal(cut.h, so.h[:7, :7])
    np.testing.assert_array_equal(cut.g, so.g[:7, :7, :7, :7])


def test_rotation_is_a_similarity_transform() -> None:
    rng = np.random.default_rng(9)
    so = to_spin_orbitals(random_spatial(2, rng))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    rotated = so.rotated(q)
    np.testing.assert_allclose(rotated.h, q @ so.h @ q.T, atol=1e-13)
    back = rotated.rotated(q.T)
    np.testing.assert_allclose(back.h, so.h, atol=1e-12)
    np.testing.assert_allclose(back.g, so.g, atol=1e-12)


def test_rotated_integrals_store_exactly_the_given_layout() -> None:
    rng = np.random.default_rng(10)
    so = to_spin_orbitals(random_spatial(2, rng))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    mixed = so.rotated(q)  # spin-mixing: the new orbitals have no spins
    assert mixed.layout is None
    cut = mixed.truncated(3)
    assert cut.layout is None and cut.m == 3
    np.testing.assert_array_equal(cut.g, mixed.g[:3, :3, :3, :3])

    swap = np.eye(4)[[1, 0, 3, 2]]  # 1-down, 1-up, 2-down, 2-up
    layout = SpinOrbitalLayout((DOWN, UP, DOWN, UP))
    assert so.rotated(swap, layout).layout == layout
    with pytest.raises(ValueError):
        so.rotated(swap, interleaved_layout(3))


def test_minimal_file_loads(tmp_path) -> None:
    path = tmp_path / "tiny.ints"
    path.write_text(
        "# two orbitals, one electron pair\n"
        "NORB=2 NELEC=2 MS2=0\n"
        "-1.5 1 2 0 0\n"
        "0.75 1 1 2 2\n"
    )
    spatial = load_integral_file(str(path))
    assert spatial.n_spatial == 2
    assert spatial.n_electrons == 2 and spatial.ms2 == 0
    assert spatial.h[0, 1] == spatial.h[1, 0] == -1.5
    assert spatial.g[0, 0, 1, 1] == spatial.g[1, 1, 0, 0] == 0.75
    assert spatial.core_energy == 0.0
    spatial.validate()


def test_file_round_trip_is_exact(tmp_path) -> None:
    rng = np.random.default_rng(10)
    original = random_spatial(3, rng)
    original.n_electrons, original.ms2 = 3, 1
    path = tmp_path / "random.ints"
    save_integral_file(str(path), original)
    loaded = load_integral_file(str(path))
    assert np.array_equal(loaded.h, original.h)
    assert np.array_equal(loaded.g, original.g)
    assert loaded.core_energy == original.core_energy
    assert loaded.n_electrons == 3 and loaded.ms2 == 1


def test_loader_rejects_malformed_input(tmp_path) -> None:
    def load_text(text: str):
        path = tmp_path / "bad.ints"
        path.write_text(text)
        return load_integral_file(str(path))

    with pytest.raises(ParseError):
        load_text("")  # no header
    with pytest.raises(ParseError):
        load_text("NORB=2 NELEC=2\n")  # missing MS2
    with pytest.raises(ParseError):
        load_text("NORB=two NELEC=2 MS2=0\n")
    with pytest.raises(ParseError):
        load_text("NORB=2 NELEC=2 MS2=0\n1.0 1 2\n")  # short line
    with pytest.raises(ParseError):
        load_text("NORB=2 NELEC=2 MS2=0\n1.0 1 3 0 0\n")  # index range
    with pytest.raises(ParseError) as err:
        load_text("NORB=2 NELEC=2 MS2=0\nx 1 1 0 0\n")
    assert "line 2" in str(err.value)


def test_loader_rejects_conflicting_duplicates(tmp_path) -> None:
    path = tmp_path / "dup.ints"
    path.write_text(
        "NORB=2 NELEC=2 MS2=0\n"
        "0.5 1 1 2 2\n"
        "0.7 2 2 1 1\n"  # same element by symmetry, different value
    )
    with pytest.raises(SymmetryViolationError):
        load_integral_file(str(path))
    # agreeing restatements (within 1e-10) are allowed
    path.write_text(
        "NORB=2 NELEC=2 MS2=0\n"
        "0.5 1 1 2 2\n"
        "0.50000000000001 2 2 1 1\n"
    )
    spatial = load_integral_file(str(path))
    assert spatial.g[0, 0, 1, 1] == pytest.approx(0.5, abs=1e-10)
