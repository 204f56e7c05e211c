"""Determinant, layout, and configuration-space behaviour."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fermipin import fock

from fermipin.errors import SectorError, SpaceTooLargeError, WidthError
from fermipin.fock import (
    DOWN,
    MAX_DENSE_SPACE,
    UP,
    ConfigurationSpace,
    Determinant,
    SpinOrbitalLayout,
    blocked_layout,
    census,
    enumerate_space,
    excitations,
    interleaved_layout,
    space_size,
    substitutions,
)

from .oracles import annihilate, create


def test_determinant_round_trip() -> None:
    det = Determinant.from_orbitals([1, 4, 5], 6)
    assert det.mask == 0b011001
    assert det.orbitals() == (1, 4, 5)
    assert det.n_electrons == 3
    assert str(det) == "[1,4,5]"


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


def test_a_space_refuses_masks_outside_its_sector() -> None:
    lay = interleaved_layout(4)
    # all 28 two-electron masks, of which only 16 have S_z = 0
    masks = enumerate_space(2, 8, lay).masks
    with pytest.raises(SectorError, match=r"not in the sector 2\*S_z=0"):
        ConfigurationSpace(2, 8, masks, lay, 0)
    sector = enumerate_space(2, 8, lay, 0)
    assert ConfigurationSpace(2, 8, sector.masks, lay, 0).masks.tobytes() == sector.masks.tobytes()
    # every determinant of a space with no up orbital is all down
    down = SpinOrbitalLayout((DOWN,) * 4)
    assert len(ConfigurationSpace(2, 4, enumerate_space(2, 4).masks, down, -2)) == 6


def test_a_space_refuses_a_sector_without_a_layout() -> None:
    masks = enumerate_space(2, 8, interleaved_layout(4), 0).masks
    with pytest.raises(SectorError, match="requires a layout"):
        ConfigurationSpace(2, 8, masks, None, 0)


def test_enumeration_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        enumerate_space(0, 6)
    with pytest.raises(ValueError):
        enumerate_space(7, 6)
    with pytest.raises(WidthError):
        enumerate_space(2, 65)


def test_oversize_space_is_refused_before_it_is_built(monkeypatch) -> None:
    subsets = fock._subset_masks

    def spy(*args):
        raise AssertionError("an oversize space was enumerated")

    monkeypatch.setattr(fock, "_subset_masks", spy)
    with pytest.raises(SpaceTooLargeError, match="^847660528 determinants exceed the dense"):
        enumerate_space(10, 40)
    with pytest.raises(SpaceTooLargeError, match="^63504 determinants"):
        enumerate_space(10, 20, interleaved_layout(10), 0)
    # the count comes before the width check
    with pytest.raises(SpaceTooLargeError, match="^43680 determinants"):
        enumerate_space(3, 65)
    # a space built directly from its masks holds the same budget
    masks = np.sort(subsets(range(64), 3))[: MAX_DENSE_SPACE + 1]
    assert len(ConfigurationSpace(3, 64, masks[:-1])) == MAX_DENSE_SPACE
    with pytest.raises(SpaceTooLargeError, match="^20001 determinants exceed the dense budget"):
        ConfigurationSpace(3, 64, masks)


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


def test_space_size_is_exact_up_to_2_63_and_past_it_beyond() -> None:
    for N, m in [(1, 1), (3, 65), (10, 40), (32, 64), (31, 66), (2, 2**32 + 1), (40, 80)]:
        exact = math.comb(m, N)
        got = space_size(N, m)
        assert got == exact if exact <= 2**63 else got > 2**63, (N, m)
    # neither count is worked out exactly: one has 4 500 digits, the other
    # takes seconds
    assert space_size(3, 10**1500) > 2**63
    assert space_size(10**5, 10**12) > 2**63


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


def _connected_pairs(space) -> list:
    """(i, j, ps, qs, sign) for every pair i < j one or two substitutions
    apart, ps and qs 1-based, by operator application."""
    pairs = []
    for i, bra in enumerate(space):
        for j in range(i + 1, len(space)):
            ket = space[j]
            ps = tuple(sorted(set(bra.orbitals()) - set(ket.orbitals())))
            qs = tuple(sorted(set(ket.orbitals()) - set(bra.orbitals())))
            if 1 <= len(ps) <= 2:
                pairs.append((i, j, ps, qs, _operator_sign(bra, ket, ps, qs)))
    return pairs


def _listed(pairs) -> list:
    """(i, j, ps, qs, sign) for every pair of a decoded pair list, ps and
    qs 1-based, as :func:`_connected_pairs` lists them."""
    moved = [None] * len(pairs.i)
    for k, p, q in zip(pairs.single.tolist(), pairs.p.tolist(), pairs.q.tolist()):
        moved[k] = ((p + 1,), (q + 1,))
    for k, p1, p2, q1, q2 in zip(*(a.tolist() for a in (pairs.double, *pairs.doubles))):
        moved[k] = ((p1 + 1, p2 + 1), (q1 + 1, q2 + 1))
    # the singles' own entries are those at their positions
    for single, whole in zip(pairs.singles, (pairs.i, pairs.j, pairs.sign)):
        assert single.tolist() == whole[pairs.single].tolist()
    return [(i, j, *ps_qs, sign)
            for i, j, ps_qs, sign in zip(pairs.i.tolist(), pairs.j.tolist(), moved,
                                         pairs.sign.tolist())]


def _with_block_sizes(values: list) -> list:
    """Each value under its own id at the default block size of the pair
    kernels, then again, suffixed "block 1", with one row per block, which
    runs every block offset of both kernels."""
    return ([pytest.param(value, None, id=str(value)) for value in values]
            + [pytest.param(value, 1, id=f"{value}-block 1") for value in values])


@pytest.mark.parametrize("max_degree, block", _with_block_sizes([1, 2]))
@pytest.mark.parametrize("name", sorted(KERNEL_SPACES))
def test_excitations_match_operator_application(
    name: str, max_degree: int, block: int | None, monkeypatch
) -> None:
    # every pair is checked, including those whose matrix element vanishes
    if block:
        monkeypatch.setattr("fermipin.fock._BLOCK", block)
    space = KERNEL_SPACES[name]()
    expected = [pair for pair in _connected_pairs(space) if len(pair[2]) <= max_degree]
    assert expected
    got = [pair for pair in _listed(excitations(space))
           if len(pair[2]) <= max_degree]
    assert got == expected


SUBSTITUTION_SPACES = dict(
    KERNEL_SPACES,
    restricted=lambda: enumerate_space(4, 8).restrict(
        np.random.default_rng(5).random(70) < 0.5
    ),
)


@pytest.mark.parametrize(
    "screen, block", _with_block_sizes(["all", "random 1", "random 2", "singles only"])
)
@pytest.mark.parametrize("name", sorted(SUBSTITUTION_SPACES))
def test_substitutions_match_operator_application(
    name: str, screen: str, block: int | None, monkeypatch
) -> None:
    # the generated pairs are the searched ones whose substitution the
    # screens allow; random screens are not symmetric, so a transposed
    # index would show
    if block:
        monkeypatch.setattr("fermipin.fock._BLOCK", block)
    space = SUBSTITUTION_SPACES[name]()
    m = space.m
    if screen.startswith("random"):
        rng = np.random.default_rng(int(screen[-1]))
        singles, doubles = rng.random((m, m)) < 0.5, rng.random((m, m, m, m)) < 0.5
    else:
        singles = np.ones((m, m), bool)
        doubles = None if screen == "singles only" else np.ones((m,) * 4, bool)

    def allowed(ps, qs) -> bool:
        index = tuple(k - 1 for k in ps + qs)
        return bool(singles[index]) if len(ps) == 1 else doubles is not None and bool(doubles[index])

    expected = [pair for pair in _connected_pairs(space) if allowed(pair[2], pair[3])]
    assert expected
    assert _listed(substitutions(space, singles, doubles)) == expected


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


def test_census_respects_sector_restriction() -> None:
    lay = interleaved_layout(3)
    space = enumerate_space(3, 6, lay, 1)
    ref = Determinant.from_orbitals([1, 2, 3], 6)
    tally = census(space, ref)
    assert tally.total == 9
    assert tally.counts[0] == 1


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
    sub = space.restrict(space.masks & 1 == 1)
    assert all(d.mask & 1 for d in sub)
    assert sub.layout is lay and sub.sector == 1
    masks = [d.mask for d in sub]
    assert masks == sorted(masks)
