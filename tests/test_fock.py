"""Determinant, layout, and configuration-space behaviour."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fermipin.errors import SectorError, WidthError
from fermipin.fock import (
    DOWN,
    UP,
    ConfigurationSpace,
    Determinant,
    blocked_layout,
    census,
    enumerate_space,
    excitations,
    interleaved_layout,
    space_size,
)

from .oracles import annihilate, create


def test_determinant_round_trip() -> None:
    det = Determinant.from_orbitals([1, 4, 5], 6)
    assert det.mask == 0b011001
    assert det.orbitals() == (1, 4, 5)
    assert det.n_electrons == 3
    assert str(det) == "[1,4,5]"
    assert det.occupied(4) and not det.occupied(2)


def test_determinant_rejects_bad_orbitals() -> None:
    with pytest.raises(ValueError):
        Determinant.from_orbitals([0, 1], 4)
    with pytest.raises(ValueError):
        Determinant.from_orbitals([5], 4)
    with pytest.raises(ValueError):
        Determinant.from_orbitals([2, 2], 4)
    with pytest.raises(WidthError):
        Determinant(0, 65)


def test_interleaved_and_blocked_layouts() -> None:
    inter = interleaved_layout(3)
    assert inter.m == 6
    assert inter.indices_with_spin(UP) == (1, 3, 5)
    assert inter.indices_with_spin(DOWN) == (2, 4, 6)

    blk = blocked_layout(3)
    assert blk.indices_with_spin(UP) == (1, 2, 3)
    assert blk.indices_with_spin(DOWN) == (4, 5, 6)


def test_layout_truncation_gives_unbalanced_blocks() -> None:
    # the first 7 interleaved spin orbitals carry 4 up and 3 down
    lay = interleaved_layout(4).truncated(7)
    assert lay.m == 7
    assert lay.indices_with_spin(UP) == (1, 3, 5, 7)
    assert lay.indices_with_spin(DOWN) == (2, 4, 6)


def test_enumeration_counts_are_binomial() -> None:
    assert len(enumerate_space(3, 6)) == math.comb(6, 3) == 20
    assert len(enumerate_space(3, 7)) == math.comb(7, 3) == 35
    assert len(enumerate_space(3, 8)) == math.comb(8, 3) == 56
    assert len(enumerate_space(4, 8)) == math.comb(8, 4) == 70


def test_enumeration_is_mask_ordered_and_indexable() -> None:
    space = enumerate_space(3, 6)
    masks = [d.mask for d in space]
    assert masks == sorted(masks)
    assert space[0].orbitals() == (1, 2, 3)
    assert space[-1].orbitals() == (4, 5, 6)
    for i, det in enumerate(space):
        assert space.index_of(det) == i
    assert Determinant.from_orbitals([2, 3, 6], 6) in space
    assert Determinant.from_orbitals([1, 2], 6) not in space


def test_membership_below_above_and_between() -> None:
    space = enumerate_space(2, 4).restrict(np.array([False, True, True, False, True, False]))
    assert [d.mask for d in space] == [0b0101, 0b0110, 0b1010]
    for i, det in enumerate(space):
        assert det in space and space.index_of(det) == i
    # below the first element, between elements, above the last element
    for mask in (0b0011, 0b1001, 0b1100):
        det = Determinant(mask, 4)
        assert det not in space
        with pytest.raises(KeyError):
            space.index_of(det)
    other_width = Determinant(0b0101, 5)
    assert other_width not in space
    with pytest.raises(WidthError):
        space.index_of(other_width)


def test_space_rejects_masks_it_cannot_index() -> None:
    for masks in [(0b0101, 0b0011), (0b0011, 0b0011), (0b0111,), (0b10001,)]:
        with pytest.raises(ValueError):
            ConfigurationSpace(2, 4, masks)
    with pytest.raises(WidthError):
        ConfigurationSpace(2, 65, ())
    space = enumerate_space(2, 4)
    with pytest.raises(ValueError):
        space.restrict(np.ones(len(space) - 1, bool))
    with pytest.raises(ValueError):
        space.restrict(lambda d: True)
    assert not space.masks.flags.writeable
    assert not space.pairs.i.flags.writeable


def test_sector_enumeration_is_a_product() -> None:
    space = enumerate_space(3, 6, interleaved_layout(3), sector=1)
    assert len(space) == math.comb(3, 2) * math.comb(3, 1) == 9
    for det in space:
        ups = sum(space.layout.spin_of[i - 1] == UP for i in det.orbitals())
        assert ups == 2 and det.n_electrons == 3
    masks = [d.mask for d in space]
    assert masks == sorted(masks)


def test_sector_enumeration_random_product_counts() -> None:
    rng = np.random.default_rng(20260814)
    for _ in range(25):
        n_spatial = int(rng.integers(2, 6))
        m = 2 * n_spatial
        N = int(rng.integers(1, m))
        sector = int(rng.integers(-N, N + 1))
        lay = interleaved_layout(n_spatial)
        if (N + sector) % 2:
            with pytest.raises(SectorError):
                enumerate_space(N, m, lay, sector)
            continue
        n_up = (N + sector) // 2
        n_down = N - n_up
        if not (0 <= n_up <= n_spatial and 0 <= n_down <= n_spatial):
            with pytest.raises(SectorError):
                enumerate_space(N, m, lay, sector)
            continue
        space = enumerate_space(N, m, lay, sector)
        assert len(space) == math.comb(n_spatial, n_up) * math.comb(n_spatial, n_down)


def test_sector_requires_layout() -> None:
    with pytest.raises(SectorError):
        enumerate_space(3, 6, None, 1)


def test_enumeration_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        enumerate_space(0, 6)
    with pytest.raises(ValueError):
        enumerate_space(7, 6)
    with pytest.raises(WidthError):
        enumerate_space(2, 65)


def test_excitation_degree_counts_substitutions() -> None:
    ref = Determinant.from_orbitals([1, 2, 3], 6)
    for orbitals, degree in [([1, 2, 3], 0), ([1, 2, 4], 1), ([1, 4, 5], 2), ([4, 5, 6], 3)]:
        space = ConfigurationSpace(3, 6, (Determinant.from_orbitals(orbitals, 6).mask,))
        assert census(space, ref).counts == {degree: 1}


def test_space_size_counts_what_enumeration_builds() -> None:
    lay = interleaved_layout(4)
    for N, sector in [(4, 0), (3, 1), (4, 4), (1, -1), (3, None), (8, None)]:
        assert space_size(N, 8, lay, sector) == len(enumerate_space(N, 8, lay, sector))
    assert space_size(4, 8, lay, 1) == 0  # parity
    assert space_size(4, 8, lay, 10) == 0  # needs 7 up electrons
    assert space_size(4, 8, None, 0) == 0  # a sector needs a layout
    assert space_size(9, 8) == space_size(0, 8) == 0


KERNEL_SPACES = {
    "interleaved sector": lambda: enumerate_space(4, 8, interleaved_layout(4), 0),
    "blocked sector": lambda: enumerate_space(4, 8, blocked_layout(4), 2),
    "blocked full": lambda: enumerate_space(3, 6, blocked_layout(3)),
    "(3,8) full": lambda: enumerate_space(3, 8),
}


def _operator_sign(bra: Determinant, ket: Determinant, ps, qs) -> int:
    """Sign of <bra| a+_{p1}..a+_{pk} a_{qk}..a_{q1} |ket>, operator by operator."""
    mask, sign = ket.mask, 1
    for q in qs:
        mask, phase = annihilate(mask, q)
        sign *= phase
    for p in reversed(ps):
        mask, phase = create(mask, p)
        sign *= phase
    assert mask == bra.mask
    return sign


@pytest.mark.parametrize("max_degree", [1, 2])
@pytest.mark.parametrize("name", sorted(KERNEL_SPACES))
def test_excitations_match_operator_application(name: str, max_degree: int) -> None:
    # every pair is checked, including those whose matrix element vanishes
    space = KERNEL_SPACES[name]()
    expected = []
    for i, bra in enumerate(space):
        for j in range(i + 1, len(space)):
            ket = space[j]
            ps = tuple(sorted(set(bra.orbitals()) - set(ket.orbitals())))
            qs = tuple(sorted(set(ket.orbitals()) - set(bra.orbitals())))
            if 1 <= len(ps) <= max_degree:
                expected.append((i, j, ps, qs, _operator_sign(bra, ket, ps, qs)))
    assert expected
    pairs = excitations(space)
    got = [
        (i, j, _bits(bra_only), _bits(ket_only), sign)
        for i, j, bra_only, ket_only, sign in zip(*(a.tolist() for a in pairs))
        if bra_only.bit_count() <= max_degree
    ]
    assert got == expected


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


def test_excitation_degree_rejects_mismatches() -> None:
    space = enumerate_space(3, 6)
    with pytest.raises(WidthError):
        census(space, Determinant.from_orbitals([1, 2, 3], 7))
    with pytest.raises(ValueError):
        census(space, Determinant.from_orbitals([1, 2], 6))


def test_census_of_full_rank_six_space() -> None:
    space = enumerate_space(3, 6)
    ref = Determinant.from_orbitals([1, 2, 3], 6)
    tally = census(space, ref)
    # 1 reference, 3*3 singles, 3*3 doubles, 1 triple
    assert tally.counts == {0: 1, 1: 9, 2: 9, 3: 1}
    assert tally.total == 20
    assert tally.max_degree == 3


def test_census_respects_sector_restriction() -> None:
    lay = interleaved_layout(3)
    space = enumerate_space(3, 6, lay, 1)
    ref = Determinant.from_orbitals([1, 2, 3], 6)
    tally = census(space, ref)
    assert tally.total == 9
    assert tally.count(0) == 1


def test_census_matches_a_popcount_tally() -> None:
    spaces = [enumerate_space(3, 8), enumerate_space(4, 8, interleaved_layout(4), 0),
              enumerate_space(3, 7, interleaved_layout(4).truncated(7), 1)]
    rng = np.random.default_rng(7)
    for space in spaces:
        for det in (space[0], space[-1], space[int(rng.integers(len(space)))]):
            expected: dict[int, int] = {}
            for other in space:
                degree = (det.mask ^ other.mask).bit_count() // 2
                expected[degree] = expected.get(degree, 0) + 1
            assert census(space, det).counts == expected


def test_census_of_empty_space_fails() -> None:
    space = ConfigurationSpace(2, 4, ())
    with pytest.raises(ValueError):
        census(space, Determinant.from_orbitals([1, 2], 4))


def test_restrict_preserves_order_and_metadata() -> None:
    lay = interleaved_layout(3)
    space = enumerate_space(3, 6, lay, 1)
    sub = space.restrict(np.array([d.occupied(1) for d in space]))
    assert all(d.occupied(1) for d in sub)
    assert sub.layout is lay and sub.sector == 1
    masks = [d.mask for d in sub]
    assert masks == sorted(masks)


def test_space_json_lists_orbitals() -> None:
    space = enumerate_space(2, 4)
    assert space.to_json() == "[[1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [3, 4]]"
