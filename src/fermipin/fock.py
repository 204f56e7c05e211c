"""Determinants, spin-orbital layouts, and configuration spaces.

A Slater determinant over ``m`` spin orbitals is a bitmask: bit ``i - 1``
set means spin orbital ``i`` is occupied.  Orbital indices are 1-based
everywhere in the public interface, matching the labels used for
occupation numbers and constraint coefficients.  A configuration space
stores its determinants as one sorted, read-only ``uint64`` mask array and
nothing else: lookup is a binary search, filtering takes a boolean array,
and a :class:`Determinant` is a view built from one mask on demand.

Phase convention: an annihilation or creation operator acting on orbital
``p`` of a mask picks up ``(-1) ** (occupied orbitals below p)``, so the
sign of a determinant pair is the parity of the orbitals the two share that
lie below an odd number of the substituted ones.  Two kernels find the
determinant pairs one or two substitutions apart, and both end in one step
that signs their pairs and decodes the orbitals each substitution moves into
the one pair record, :class:`Pairs`:

* :func:`excitations` XORs blocks of the mask array and keeps the pairs
  whose ``np.bitwise_count`` is at most four.  That search is quadratic in
  the space size.  A space runs it once, on first use, and keeps the
  result as :attr:`ConfigurationSpace.pairs`; the Hamiltonian and the
  1-RDM read it only on spaces of at most ``fermipin.ci.DENSE_CROSSOVER``
  determinants, the spaces solved densely.
* :func:`substitutions` turns boolean screens over orbital indices into
  one table of allowed moves, tests every determinant against every move
  with one mask comparison, and finds each target by binary search.  Its
  work grows with the space size times the number of moves, and with a
  screen built from the integrals it makes only the pairs whose matrix
  element can be nonzero.  The large-space Hamiltonian and 1-RDM use it.

What the Hamiltonian reads of the determinants alone on every build is
worked out once per space and cached, read-only: the occupation bits
(:attr:`ConfigurationSpace.bits`), the flags of the Slater-Condon diagonal
terms (:attr:`ConfigurationSpace.diagonal_terms`) and the searched pairs
(:attr:`ConfigurationSpace.pairs`).  A layout caches its spin-block index
arrays the same way.  A sum over a space then only gathers and adds.

The maximum width is 64 spin orbitals.  That bound is far beyond what the
solvers can use; it exists so every mask fits one ``uint64`` array entry.
The dense budget, ``MAX_DENSE_SPACE`` determinants, bounds every space and
lives here alone: :func:`enumerate_space` counts a space with
:func:`space_size` and refuses an over-budget one before it builds anything,
and :class:`ConfigurationSpace` refuses one built directly from too many
masks.

Functions
=========
interleaved_layout : spin orbitals ordered 1-up, 1-down, 2-up, 2-down, ...
blocked_layout     : all up spin orbitals first, then all down
enumerate_space    : all N-electron determinants, optionally in an S_z sector
space_size         : the size enumerate_space would return, without building it
excitations        : connected determinant pairs of a space, by an O(n^2) search
substitutions      : the pairs that screened substitutions reach, generated per determinant
orbital_pairs      : the orbital pairs p < q of a width, as two index arrays
lowest_bit         : the lowest set bit of each mask of an array
bit_index          : the position of the one set bit of each mask of an array
census             : tally determinants by excitation degree from a reference
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Literal, NamedTuple, Sequence

import numpy as np

from .errors import SectorError, SpaceTooLargeError, WidthError

MAX_WIDTH = 64
# the most determinants a space may hold: the dense budget
MAX_DENSE_SPACE = 20000
# a count past this is refused without being worked out exactly
_COUNT_CAP = 2**63
_BLOCK = 250_000  # mask pairs, or (determinant, move) candidates, per block of a pair kernel

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

    @cached_property
    def spin_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The 0-based indices of the up and of the down spin orbitals, as
        read-only arrays built once per layout and shared by every caller."""
        return _read_only(
            tuple(np.array(self.indices_with_spin(spin), np.intp) - 1 for spin in (UP, DOWN))
        )

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
    spin-resolved; a sector needs a ``layout``, and every mask must lie in
    it, or :class:`~fermipin.errors.SectorError` is raised.
    """

    N: int
    m: int
    masks: np.ndarray
    layout: SpinOrbitalLayout | None = None
    sector: int | None = None

    def __post_init__(self) -> None:
        _check_budget(len(self.masks))
        if self.m > MAX_WIDTH:
            raise WidthError(f"space width {self.m} exceeds {MAX_WIDTH}")
        if self.layout is not None and self.layout.m != self.m:
            raise WidthError("layout width differs from space width")
        masks = np.array(self.masks, dtype=np.uint64)
        if masks.ndim != 1 or (masks[1:] <= masks[:-1]).any():
            raise ValueError("determinant masks must be strictly increasing")
        if len(masks) and (int(masks[-1]) >> self.m or (np.bitwise_count(masks) != self.N).any()):
            raise ValueError(f"a mask is not an {self.N}-electron determinant of width {self.m}")
        if self.sector is not None:
            (up, n_up), _ = _sector_blocks(self.N, self.layout, self.sector)
            up_bits = np.bitwise_or.reduce(np.uint64(1) << up.astype(np.uint64))
            if (np.bitwise_count(masks & up_bits) != n_up).any():
                raise SectorError(f"a mask is not in the sector 2*S_z={self.sector}")
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

    def restrict(self, keep: np.ndarray) -> ConfigurationSpace:
        """Subspace of the determinants whose entry of the boolean array
        ``keep`` is true, order preserved."""
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != self.masks.shape:
            raise ValueError(f"restrict needs a boolean array of length {len(self)}")
        return ConfigurationSpace(self.N, self.m, self.masks[keep], self.layout, self.sector)

    @cached_property
    def bits(self) -> np.ndarray:
        """Boolean matrix whose row ``k`` flags the orbitals determinant ``k``
        occupies (column ``p - 1`` for spin orbital ``p``), built once."""
        bits = (self.masks[:, None] >> np.arange(self.m, dtype=np.uint64) & 1).astype(bool)
        bits.flags.writeable = False
        return bits

    @cached_property
    def diagonal_terms(self) -> np.ndarray:
        """Row ``k`` flags the terms of the Slater-Condon diagonal of
        determinant ``k``: the core energy (always), each ``h[p, p]``, then
        each ``<pq||pq>`` over the pairs ``p < q`` of :func:`orbital_pairs`.
        Built once."""
        bits = self.bits
        p, q = orbital_pairs(self.m)
        always = np.ones((len(self), 1), bool)
        terms = np.concatenate([always, bits, bits[:, p] & bits[:, q]], axis=1)
        terms.flags.writeable = False
        return terms

    @cached_property
    def pairs(self) -> Pairs:
        """The connected determinant pairs of the space, searched for once by
        :func:`excitations` and shared, read-only, by every caller.  The
        Hamiltonian and the 1-RDM read them on spaces of at most
        ``fermipin.ci.DENSE_CROSSOVER`` determinants; larger spaces never
        run the quadratic search and generate their pairs with
        :func:`substitutions` instead."""
        return excitations(self)


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
    increasing mask order.  A space of more than ``MAX_DENSE_SPACE``
    determinants is refused before any of it is built.
    """
    _check_budget(space_size(N, m, layout, sector))
    if m > MAX_WIDTH:
        raise WidthError(f"m={m} exceeds the {MAX_WIDTH}-orbital width limit")
    if not 0 < N <= m:
        raise ValueError(f"need 0 < N <= m, got N={N}, m={m}")

    if sector is None:
        masks = _subset_masks(range(m), N)
    else:
        (up, n_up), (down, n_down) = _sector_blocks(N, layout, sector)
        masks = (_subset_masks(up, n_up)[:, None] | _subset_masks(down, n_down)).ravel()
    return ConfigurationSpace(N, m, np.sort(masks), layout, sector)


def space_size(
    N: int,
    m: int,
    layout: SpinOrbitalLayout | None = None,
    sector: int | None = None,
) -> int:
    """The length of ``enumerate_space(N, m, layout, sector)``, counted
    without building the space; 0 where no determinant fits.  A count past
    2**63 is not worked out: some value past 2**63 stands for it."""
    if not 0 < N <= m:
        return 0
    if sector is None:
        # the partial products C(m - k + i, i) never fall as i grows, so the
        # first one past the cap shows that the count is past it too
        k, count = min(N, m - N), 1
        for i in range(1, k + 1):
            count = count * (m - k + i) // i
            if count > _COUNT_CAP:
                break
        return count
    try:
        (up, n_up), (down, n_down) = _sector_blocks(N, layout, sector)
    except SectorError:
        return 0
    # a layout is at most 64 orbitals wide, so this product stays below the cap
    return comb(len(up), n_up) * comb(len(down), n_down)


def _check_budget(size: int) -> None:
    """Refuse a space of ``size`` determinants past the dense budget."""
    if size > MAX_DENSE_SPACE:
        count = "more than 2**63" if size > _COUNT_CAP else size
        raise SpaceTooLargeError(
            f"{count} determinants exceed the dense budget of {MAX_DENSE_SPACE}"
        )


def _sector_blocks(
    N: int, layout: SpinOrbitalLayout | None, sector: int
) -> tuple[tuple[np.ndarray, int], tuple[np.ndarray, int]]:
    """The up and the down spin orbitals of ``layout``, each with the number
    of the ``N`` electrons they hold in the sector 2*S_z = ``sector``."""
    if layout is None:
        raise SectorError("a sector restriction requires a layout")
    if (N + sector) % 2:
        raise SectorError(f"no determinant of {N} electrons has 2*S_z={sector}")
    n_up = (N + sector) // 2
    n_down = N - n_up
    up, down = layout.spin_blocks
    if not (0 <= n_up <= len(up) and 0 <= n_down <= len(down)):
        raise SectorError(
            f"sector 2*S_z={sector} needs {n_up} up and {n_down} down electrons, "
            f"but the layout has {len(up)} up / {len(down)} down orbitals"
        )
    return (up, n_up), (down, n_down)


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


class Pairs(NamedTuple):
    """Connected determinant pairs of a space, with the orbitals each
    substitution moves decoded (0-based), for the callers that sum over them.

    ``i < j`` index the space, one entry per pair, with ``i`` ascending,
    then ``j``.  ``sign`` (``int8``) is the sign of
    ``<K_i| a+_{p1}..a+_{pk} a_{qk}..a_{q1} |K_j>``, where the ``ps`` are
    the orbitals occupied only in ``K_i`` and the ``qs`` those occupied only
    in ``K_j``, both ascending.

    ``single`` and ``double`` are the positions of the pairs one and two
    substitutions apart, and ``singles`` holds the ``(i, j, sign)`` of the
    singles.  Single ``k`` has ``ps = (p[k],)`` and ``qs = (q[k],)``.
    ``doubles`` holds the ``(p1, p2, q1, q2)`` of each double.
    """

    i: np.ndarray
    j: np.ndarray
    sign: np.ndarray
    single: np.ndarray
    singles: tuple[np.ndarray, np.ndarray, np.ndarray]
    p: np.ndarray
    q: np.ndarray
    double: np.ndarray
    doubles: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _read_only(arrays):
    """``arrays``, a tuple of arrays, each made read-only in place."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def excitations(space: ConfigurationSpace) -> Pairs:
    """Every determinant pair of ``space`` connected by one or two orbital
    substitutions, found over blocks of XORed masks.  The search is O(n²)
    in the space size, so callers run it on small spaces only, and read the
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
    return _decoded(space, i, j)


def substitutions(
    space: ConfigurationSpace, singles: np.ndarray, doubles: np.ndarray | None = None
) -> Pairs:
    """The pairs of ``space`` one or two substitutions apart that the boolean
    screens allow, generated from each determinant instead of searched for.

    From ``space[i]`` it takes every single ``p -> q`` (``p`` occupied, ``q``
    empty, 0-based) with ``singles[p, q]`` and, when ``doubles`` is given,
    every double ``p1 < p2 -> q1 < q2`` with ``doubles[p1, p2, q1, q2]``,
    keeps those whose target lies in the space, and returns them in the
    same order and with the same signs as :func:`excitations`.  Only
    substitutions that raise the mask (the highest created orbital above the
    highest annihilated one) are taken, so ``j > i`` and each pair comes out
    once.  Each allowed substitution is a move of two masks, ``take`` (the
    orbitals it empties) and ``moved`` (those and the ones it fills): it
    applies to a determinant ``mask`` exactly when ``mask & moved == take``,
    and leads to ``mask ^ moved``.  The work grows with the space size times
    the number of moves, not with its square.
    """
    m, masks = space.m, space.masks
    n = len(masks)
    bit = np.uint64(1) << np.arange(m, dtype=np.uint64)
    o = np.arange(m)
    p, q = np.nonzero(singles & (o[:, None] < o))
    take, moved = [bit[p]], [bit[p] | bit[q]]
    if doubles is not None:
        p1, p2, q1, q2 = o[:, None, None, None], o[:, None, None], o[:, None], o
        # ordered, disjoint pairs whose substitution raises the mask
        raising = (p1 < p2) & (q1 < q2) & (p2 < q2) & (q1 != p1) & (q1 != p2)
        p1, p2, q1, q2 = np.nonzero(doubles & raising)
        take.append(bit[p1] | bit[p2])
        moved.append(take[-1] | bit[q1] | bit[q2])
    take, moved = np.concatenate(take), np.concatenate(moved)
    found = [(np.zeros(0, np.intp), np.zeros(0, np.intp))]
    # about _BLOCK (determinant, move) candidates per block
    step = max(1, _BLOCK // max(1, len(moved)))
    for start in range(0, n, step):
        rows, k = np.nonzero(masks[start : start + step, None] & moved == take)
        i = rows + start
        target = masks[i] ^ moved[k]
        j = np.searchsorted(masks, target)
        inside = masks[np.minimum(j, n - 1)] == target
        found.append((i[inside], j[inside]))
    i, j = (np.concatenate(arrays) for arrays in zip(*found))
    order = np.argsort(i * n + j)
    return _decoded(space, i[order], j[order])


def _decoded(space: ConfigurationSpace, i: np.ndarray, j: np.ndarray) -> Pairs:
    """The pairs ``(i[k], j[k])`` of ``space`` with their signs and
    substitutions decoded.  Every array is made read-only, because spaces
    share their pairs."""
    bra, ket = space.masks[i], space.masks[j]
    diff = bra ^ ket
    bra_only, ket_only = bra & diff, ket & diff
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
    is_single = np.bitwise_count(bra_only) == 1
    single, double = np.flatnonzero(is_single), np.flatnonzero(~is_single)
    singles = (i[single], j[single], sign[single])
    p, q = bit_index(bra_only[single]), bit_index(ket_only[single])
    bra_only, ket_only = bra_only[double], ket_only[double]
    p_low, q_low = lowest_bit(bra_only), lowest_bit(ket_only)
    doubles = (
        bit_index(p_low), bit_index(bra_only ^ p_low),
        bit_index(q_low), bit_index(ket_only ^ q_low),
    )
    _read_only((i, j, sign, single, *singles, p, q, double, *doubles))
    return Pairs(i, j, sign, single, singles, p, q, double, doubles)


@cache
def orbital_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Both index arrays of the orbital pairs ``p < q`` (0-based) of ``m``
    orbitals, in ``np.triu_indices`` order; read-only, because every caller
    shares them."""
    return _read_only(np.triu_indices(m, 1))


def lowest_bit(masks: np.ndarray) -> np.ndarray:
    """The lowest set bit of each mask (0 for an empty mask)."""
    return masks & (~masks + 1)


def bit_index(single_bits: np.ndarray) -> np.ndarray:
    """0-based position of the one set bit of each mask."""
    return np.bitwise_count(single_bits - 1).astype(np.intp)


@dataclass(frozen=True)
class ExcitationCensus:
    """Counts of determinants per excitation degree from a reference."""

    reference: Determinant
    counts: dict[int, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


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
