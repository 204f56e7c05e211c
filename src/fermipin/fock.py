"""Determinants, spin-orbital layouts, and configuration spaces.

A Slater determinant over ``m`` spin orbitals is a bitmask: bit ``i - 1``
set means spin orbital ``i`` is occupied.  Orbital indices are 1-based
everywhere in the public interface, matching the labels used for
occupation numbers and constraint coefficients.  A configuration space
stores its determinants as one sorted, read-only ``uint64`` mask array and
nothing else: lookup is a binary search, filtering takes a boolean array,
and a :class:`Determinant` is a view built from one mask on demand.

Phase convention: an annihilation or creation operator acting on orbital
``p`` of a mask picks up ``(-1) ** (occupied orbitals below p)``.  This
module applies it in one place, :func:`excitations`, the array kernel
behind every determinant-pair computation in the package (Hamiltonian
assembly and the 1-RDM).  It XORs blocks of the mask array, keeps the
pairs whose ``np.bitwise_count`` is at most four (single and double
substitutions), and applies the phase rule to all of them at once: the
sign is the parity of the orbitals the two determinants share that lie
below an odd number of the substituted ones.  A space runs that search
once and keeps the result as :attr:`ConfigurationSpace.pairs`.

The maximum width is 64 spin orbitals.  That bound is far beyond what the
solvers can use; it exists so every mask fits one ``uint64`` array entry.

Functions
=========
interleaved_layout : spin orbitals ordered 1-up, 1-down, 2-up, 2-down, ...
blocked_layout     : all up spin orbitals first, then all down
enumerate_space    : all N-electron determinants, optionally in an S_z sector
space_size         : the size enumerate_space would return, without building it
excitations        : connected determinant pairs of a space, with their phases
occupation_bits    : the boolean occupation matrix of an array of masks
lowest_bit         : the lowest set bit of each mask of an array
bit_index          : the position of the one set bit of each mask of an array
census             : tally determinants by excitation degree from a reference
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Literal, NamedTuple, Sequence

import numpy as np

from .errors import SectorError, WidthError

MAX_WIDTH = 64
_BLOCK = 250_000  # XORed mask pairs per block of the excitation search

Spin = Literal["up", "down"]
UP: Spin = "up"
DOWN: Spin = "down"


@dataclass(frozen=True)
class SpinOrbitalLayout:
    """The spin of each spin orbital: ``spin_of[i - 1]`` is that of orbital ``i``.

    A layout is what lets particle-number bookkeeping be split into an up
    block and a down block.  A basis without definite spins (one reached by
    a spin-mixing rotation) has no layout; its owner stores ``None``.
    """

    spin_of: tuple[Spin, ...]

    def __post_init__(self) -> None:
        if len(self.spin_of) > MAX_WIDTH:
            raise WidthError(f"more than {MAX_WIDTH} spin orbitals")

    @property
    def m(self) -> int:
        return len(self.spin_of)

    def indices_with_spin(self, spin: Spin) -> tuple[int, ...]:
        """1-based spin-orbital indices carrying the given spin."""
        return tuple(i + 1 for i, s in enumerate(self.spin_of) if s == spin)

    def truncated(self, m: int) -> SpinOrbitalLayout:
        """The layout of the first ``m`` spin orbitals."""
        if not 0 < m <= self.m:
            raise ValueError(f"cannot truncate a width-{self.m} layout to {m}")
        return SpinOrbitalLayout(self.spin_of[:m])


def interleaved_layout(n_spatial: int) -> SpinOrbitalLayout:
    """Layout 1-up, 1-down, 2-up, 2-down, ..., n-up, n-down."""
    return SpinOrbitalLayout((UP, DOWN) * n_spatial)


def blocked_layout(n_spatial: int) -> SpinOrbitalLayout:
    """Layout 1-up, ..., n-up, 1-down, ..., n-down."""
    return SpinOrbitalLayout((UP,) * n_spatial + (DOWN,) * n_spatial)


@dataclass(frozen=True, order=True)
class Determinant:
    """An occupation-number basis state over ``m`` spin orbitals."""

    mask: int
    m: int

    def __post_init__(self) -> None:
        if self.m > MAX_WIDTH:
            raise WidthError(f"determinant width {self.m} exceeds {MAX_WIDTH}")
        if self.mask < 0 or self.mask >> self.m:
            raise ValueError(f"mask {self.mask:#x} out of range for m={self.m}")

    @classmethod
    def from_orbitals(cls, orbitals: Iterable[int], m: int) -> Determinant:
        """Build from 1-based occupied orbital indices."""
        mask = 0
        for i in orbitals:
            if not 1 <= i <= m:
                raise ValueError(f"orbital index {i} outside 1..{m}")
            bit = 1 << (i - 1)
            if mask & bit:
               raise ValueError(f"orbital index {i} repeated")
            mask |= bit
        return cls(mask, m)

    @property
    def n_electrons(self) -> int:
        return self.mask.bit_count()

    def orbitals(self) -> tuple[int, ...]:
        """Occupied orbital indices, ascending, 1-based."""
        return _orbitals_of(self.mask)

    def occupied(self, i: int) -> bool:
        return bool(self.mask >> (i - 1) & 1)

    def __str__(self) -> str:
        return "[" + ",".join(str(i) for i in self.orbitals()) + "]"


@dataclass(frozen=True, eq=False)
class ConfigurationSpace:
    """An ordered basis of ``N``-electron determinants over ``m`` spin orbitals.

    ``masks`` holds the determinants as a strictly increasing, read-only
    ``uint64`` array; that order is the canonical ordering used by every
    matrix built on the space.  Iterating or indexing yields
    :class:`Determinant` views built on demand.  ``sector`` is twice the
    spin projection (the integer 2*S_z), or ``None`` when the space is not
    spin-resolved.
    """

    N: int
    m: int
    masks: np.ndarray
    layout: SpinOrbitalLayout | None = None
    sector: int | None = None

    def __post_init__(self) -> None:
        if self.m > MAX_WIDTH:
            raise WidthError(f"space width {self.m} exceeds {MAX_WIDTH}")
        if self.layout is not None and self.layout.m != self.m:
            raise WidthError("layout width differs from space width")
        masks = np.array(self.masks, dtype=np.uint64)
        if masks.ndim != 1 or (masks[1:] <= masks[:-1]).any():
            raise ValueError("determinant masks must be strictly increasing")
        if len(masks) and (int(masks[-1]) >> self.m or (np.bitwise_count(masks) != self.N).any()):
            raise ValueError(f"a mask is not an {self.N}-electron determinant of width {self.m}")
        masks.flags.writeable = False
        object.__setattr__(self, "masks", masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[Determinant]:
        return (Determinant(mask, self.m) for mask in self.masks.tolist())

    def __getitem__(self, i: int) -> Determinant:
        return Determinant(int(self.masks[i]), self.m)

    def index_of(self, det: Determinant) -> int:
        """Position of ``det`` in the basis ordering (KeyError if absent)."""
        if det.m != self.m:
            raise WidthError("determinant width differs from space width")
        i = int(np.searchsorted(self.masks, np.uint64(det.mask)))
        if i == len(self.masks) or self.masks[i] != det.mask:
            raise KeyError(det.mask)
        return i

    def __contains__(self, det: Determinant) -> bool:
        i = np.searchsorted(self.masks, np.uint64(det.mask))
        return det.m == self.m and i < len(self.masks) and self.masks[i] == det.mask

    def restrict(self, keep: np.ndarray) -> ConfigurationSpace:
        """Subspace of the determinants whose entry of the boolean array
        ``keep`` is true, order preserved."""
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != self.masks.shape:
            raise ValueError(f"restrict needs a boolean array of length {len(self)}")
        return ConfigurationSpace(self.N, self.m, self.masks[keep], self.layout, self.sector)

    @cached_property
    def pairs(self) -> Excitations:
        """The connected determinant pairs of the space, searched for once
        and shared, read-only, by every caller."""
        pairs = excitations(self)
        for array in pairs:
            array.flags.writeable = False
        return pairs

    def to_json(self) -> str:
        return json.dumps([list(d.orbitals()) for d in self])


def enumerate_space(
    N: int,
    m: int,
    layout: SpinOrbitalLayout | None = None,
    sector: int | None = None,
) -> ConfigurationSpace:
    """All determinants of ``N`` electrons in ``m`` spin orbitals.

    With ``sector`` (an integer 2*S_z) the enumeration is restricted to
    determinants with ``n_up - n_down == sector``; a ``layout`` is then
    required to know which spin orbitals are up.  Determinants come out in
    increasing mask order.
    """
    if m > MAX_WIDTH:
        raise WidthError(f"m={m} exceeds the {MAX_WIDTH}-orbital width limit")
    if not 0 < N <= m:
        raise ValueError(f"need 0 < N <= m, got N={N}, m={m}")

    if sector is None:
        masks = _subset_masks(range(m), N)
    else:
        if layout is None:
            raise SectorError("a sector restriction requires a layout")
        if (N + sector) % 2:
            raise SectorError(f"no determinant of {N} electrons has 2*S_z={sector}")
        n_up = (N + sector) // 2
        n_down = N - n_up
        up = [i - 1 for i in layout.indices_with_spin(UP)]
        down = [i - 1 for i in layout.indices_with_spin(DOWN)]
        if not (0 <= n_up <= len(up) and 0 <= n_down <= len(down)):
            raise SectorError(
                f"sector 2*S_z={sector} needs {n_up} up and {n_down} down electrons, "
                f"but the layout has {len(up)} up / {len(down)} down orbitals"
            )
        masks = (_subset_masks(up, n_up)[:, None] | _subset_masks(down, n_down)).ravel()
    return ConfigurationSpace(N, m, np.sort(masks), layout, sector)


def space_size(
    N: int,
    m: int,
    layout: SpinOrbitalLayout | None = None,
    sector: int | None = None,
) -> int:
    """The length of ``enumerate_space(N, m, layout, sector)``, counted
    without building the space; 0 where no determinant fits."""
    if not 0 < N <= m:
        return 0
    if sector is None:
        return comb(m, N)
    n_up = (N + sector) // 2
    if layout is None or (N + sector) % 2 or not 0 <= n_up <= N:
        return 0
    up, down = (len(layout.indices_with_spin(spin)) for spin in (UP, DOWN))
    return comb(up, n_up) * comb(down, N - n_up)


def _subset_masks(bits: Sequence[int], k: int) -> np.ndarray:
    """The masks of every ``k``-subset of the bit positions ``bits``."""
    if k == 0:
        return np.zeros(1, np.uint64)
    chosen = np.fromiter(combinations(bits, k), np.dtype((np.intp, k)), comb(len(bits), k))
    return (np.uint64(1) << chosen.astype(np.uint64)).sum(axis=1, dtype=np.uint64)


def _orbitals_of(mask: int) -> tuple[int, ...]:
    """1-based indices of the set bits of ``mask``, ascending."""
    orbitals = []
    while mask:
        low = mask & -mask
        orbitals.append(low.bit_length())
        mask ^= low
    return tuple(orbitals)


class Excitations(NamedTuple):
    """Connected determinant pairs of a space, one array entry per pair.

    ``i < j`` index the space.  ``bra_only`` and ``ket_only`` are the masks
    of the orbitals occupied only in ``space[i]`` and only in ``space[j]``
    (the ``ps`` and ``qs`` of the substitution), and ``sign`` (``int8``) is
    the sign of ``<K_i| a+_{p1}..a+_{pk} a_{qk}..a_{q1} |K_j>`` with both
    orbital lists ascending.  Entries run with ``i`` ascending, then ``j``.
    """

    i: np.ndarray
    j: np.ndarray
    bra_only: np.ndarray
    ket_only: np.ndarray
    sign: np.ndarray


def excitations(space: ConfigurationSpace) -> Excitations:
    """Every determinant pair of ``space`` connected by one or two orbital
    substitutions, found over blocks of XORed masks.  Callers read the
    cached :attr:`ConfigurationSpace.pairs` instead of searching again."""
    masks = space.masks
    n = len(masks)
    found = [(np.zeros(0, np.intp), np.zeros(0, np.intp))]
    start = 0
    while start < n - 1:
        # rows start..stop against columns start+1..n-1, about _BLOCK entries
        stop = min(n - 1, start + max(1, _BLOCK // (n - 1 - start)))
        diff = np.bitwise_count(masks[start:stop, None] ^ masks[None, start + 1 :])
        upper = np.arange(n - 1 - start) >= np.arange(stop - start)[:, None]
        rows, cols = np.nonzero(upper & (diff <= 4))
        found.append((rows + start, cols + start + 1))
        start = stop
    i = np.concatenate([rows for rows, _ in found])
    j = np.concatenate([cols for _, cols in found])
    bra, ket = masks[i], masks[j]
    diff = bra ^ ket
    # Applying the operators one by one, each substituted orbital passes
    # every orbital the two determinants share below it: the sign is the
    # parity of the shared orbitals lying below an odd number of the
    # substituted ones (bit k of `below` is the parity of diff's bits above k).
    below = diff >> 1
    shift = 1
    while shift < space.m:
        below ^= below >> shift
        shift *= 2
    sign = 1 - 2 * (np.bitwise_count(bra & ket & below) & 1).astype(np.int8)
    return Excitations(i, j, bra & diff, ket & diff, sign)


def lowest_bit(masks: np.ndarray) -> np.ndarray:
    """The lowest set bit of each mask (0 for an empty mask)."""
    return masks & (~masks + 1)


def bit_index(single_bits: np.ndarray) -> np.ndarray:
    """0-based position of the one set bit of each mask."""
    return np.bitwise_count(single_bits - 1).astype(np.intp)


def occupation_bits(masks: np.ndarray, m: int) -> np.ndarray:
    """Boolean matrix whose row ``k`` flags the bits of ``masks[k]``
    (column ``p - 1`` for spin orbital ``p``)."""
    return (masks[:, None] >> np.arange(m, dtype=np.uint64) & 1).astype(bool)


@dataclass(frozen=True)
class ExcitationCensus:
    """Counts of determinants per excitation degree from a reference."""

    reference: Determinant
    counts: dict[int, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def count(self, degree: int) -> int:
        return self.counts.get(degree, 0)

    @property
    def max_degree(self) -> int:
        return max(self.counts) if self.counts else 0


def census(space: ConfigurationSpace, reference: Determinant) -> ExcitationCensus:
    """Tally ``space`` by excitation degree relative to ``reference``."""
    if len(space) == 0:
        raise ValueError("cannot take the census of an empty space")
    if reference.m != space.m:
        raise WidthError("reference and space have different widths")
    if reference.n_electrons != space.N:
        raise ValueError("reference and space carry different particle numbers")
    tally = np.bincount(np.bitwise_count(space.masks ^ np.uint64(reference.mask)) // 2)
    return ExcitationCensus(reference, {d: int(n) for d, n in enumerate(tally) if n})
