"""One-particle reduced density matrices and natural occupation spectra.

The 1-RDM of a CI vector is ``rho[p-1, q-1] = <Psi| a+_q a_p |Psi>`` — real,
symmetric, trace ``N``, eigenvalues between 0 and 1.  Off the diagonal only
determinant pairs one substitution apart contribute.  The size rule of the
Hamiltonian (``fermipin.ci.DENSE_CROSSOVER``) decides where they come from:
a space at or below it takes the singles among its cached
:attr:`~fermipin.fock.ConfigurationSpace.pairs`, the pairs the Hamiltonian
was built from.  A larger complete S_z sector with electrons of both spins
builds them from its cached
:attr:`~fermipin.fock.ConfigurationSpace.strings`, the ones the string
route of :func:`~fermipin.ci.ground_states` solves on: each single of an
alpha string with every beta string and each single of a beta string with
every alpha string, signed and sorted into the order of the generated
pairs.  Every other larger space generates them with one
:func:`~fermipin.fock.substitutions` call, so no quadratic search runs.  In
a sector space only the spin-conserving singles are taken, because a
spin flip leaves the sector; a space without a sector keeps the spin-flip
singles.  All three routes give the pairs in the same order and with the
same signs, so all give the same sums, bit for bit.  The 1-RDM's
eigenvalues, sorted in descending order, are the natural occupation
numbers that all constraint analysis runs on; its eigenvectors define the
natural orbitals.

When the vector lives in a spin-projection sector, every cross-spin element
of the 1-RDM vanishes identically (a single spin flip leaves the sector),
so the 1-RDM keeps the space's layout without a check, diagonalization
proceeds block by block, and the natural orbitals inherit definite spins:
the natural rotation carries the layout of the new basis.  The merged
spectrum is still sorted globally.

Sorting is deterministic under degeneracy: descending occupation, up before
down, block order last.  Exactly which orbital of a tied group comes first
is physically meaningless — the ``ties`` of the spectrum say which
positions are interchangeable, and constraint evaluation downstream warns
when a result depends on such a choice.

Many states go through as one stack: :func:`one_rdms` sums the 1-RDMs of a
block of coefficient rows with one ``np.bincount``, each state's terms
offset to a matrix of its own, and :func:`natural_spectrum` of the stack
diagonalizes them with one ``np.linalg.eigh`` per size of spin block (one
for both blocks when they are the same size), then sorts and clamps them
together.  Each matrix comes out bit for bit as it does alone.  What these
read of a space or a layout alone is worked out once and kept while the
space or layout lives: a space's 1-RDM terms (``_TERMS``), and a layout's
diagonalization (``_DIAGONALIZATIONS``): where each spin block's square
sits in the flattened matrix, where each block's eigenvectors go among the
natural orbitals, and the spins of those orbitals.  The mirror that fills
the lower triangle is kept per width.  A single state, as :func:`one_rdm`
and every iteration of :func:`~fermipin.selection.pinned_solve` give it,
goes through the same functions with no stack axis, so no bins are
offset and no row index sorts its occupations; its matrix and its
spectrum are those of a stack of one, bit for bit.  A stack's spectrum keeps only occupations and ties,
since no caller of a stack reads natural orbitals: it builds no rotation,
no sign fix and no layout of a natural basis.  Random samples (``polytope --random``) and the ground
states of a parameter scan's points (``scan``, from
:func:`~fermipin.ci.ground_states`) are such stacks.  A stack keeps a
layout only when every matrix in it is spin-blocked, so a stack's spectra
equal the states' own spectra when all of them are, as in a sector space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from . import ci
from .ci import CIVector, OrbitalRotation
from .errors import NormalizationError, SpectralRangeError
from .fock import DOWN, UP, ConfigurationSpace, SpinOrbitalLayout, _read_only, substitutions

TRACE_TOL = 1e-10
RANGE_TOL = 1e-10
DEFAULT_TIE_TOL = 1e-8


@dataclass
class OneRDM:
    """A one-particle reduced density matrix over ``m`` spin orbitals, or a
    stack of them: ``rho`` of shape ``(count, m, m)``, one per state.

    ``layout`` is set only when ``rho`` is spin-blocked in it: no element
    (of any matrix of a stack) couples an up and a down spin orbital.
    """

    rho: np.ndarray
    layout: SpinOrbitalLayout | None = None

    def __post_init__(self) -> None:
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho.ndim not in (2, 3) or self.rho.shape[-2] != self.rho.shape[-1]:
            raise ValueError("density matrix must be square")

    @property
    def m(self) -> int:
        return self.rho.shape[-1]


# how each space's 1-RDM terms are gathered and scattered, worked out once per space
_TERMS: WeakKeyDictionary = WeakKeyDictionary()


def _terms(space: ConfigurationSpace) -> tuple[np.ndarray, ...]:
    """``(left, right, factor, scatter)``: term ``t`` of the 1-RDM of a
    vector ``c`` over ``space`` adds ``factor[t] * c[left[t]] * c[right[t]]``
    to element ``scatter[t]`` of the flattened ``m x m`` matrix.  The terms
    are every single of :func:`_singles`, at its upper-triangle element,
    then every occupied orbital, on the diagonal."""
    terms = _TERMS.get(space)
    if terms is None:
        m = space.m
        i, j, sign, p, q = _singles(space)
        det, orbital = np.nonzero(space.bits)
        terms = _TERMS[space] = (
            np.concatenate([i, det]),
            np.concatenate([j, det]),
            np.concatenate([sign, np.ones(len(det), np.int8)]).astype(float),
            np.concatenate([np.minimum(p, q) * m + np.maximum(p, q), orbital * (m + 1)]),
        )
    return terms


def _singles(space: ConfigurationSpace) -> tuple[np.ndarray, ...]:
    """``(i, j, sign, p, q)`` of every pair of ``space`` one substitution
    ``p -> q`` apart that conserves spin in a sector space (any other leaves
    the sector), in the order and with the signs of
    :class:`~fermipin.fock.Pairs`: from the cached pairs at or below the
    crossover, above it from the strings of a space that has them, and
    generated by :func:`~fermipin.fock.substitutions` otherwise."""
    if len(space) <= ci.DENSE_CROSSOVER:
        pairs = space.pairs
    elif space.strings is not None:
        return _string_singles(space)
    else:
        spins = np.array(space.layout.spin_of) if space.sector is not None else np.zeros(space.m)
        pairs = substitutions(space, spins[:, None] == spins)
    (i, j, sign), p, q = pairs.singles, pairs.p, pairs.q
    return i, j, sign, p, q


def _string_singles(space: ConfigurationSpace) -> tuple[np.ndarray, ...]:
    """The :func:`_singles` of a complete sector, from the singles of its
    alpha and beta strings (Olsen et al., J. Chem. Phys. 89, 2185 (1988)):
    each alpha single with every beta string, and each beta single with
    every alpha string.  A substitution's operator pair is even, so in the
    product basis it takes its string's sign alone, and both product signs
    turn that into the determinants' sign.  A single changes one string
    of a product, and two products that share the other string are
    ordered as the changed strings are, so every pair comes out with
    ``i < j``; one sort then gives the order of
    :func:`~fermipin.fock.substitutions`, bit for bit."""
    alpha, beta, at, sign = space.strings
    n_alpha, n_beta = at.shape
    a_i, a_j, a_sign, a_p, a_q = _singles(alpha)
    b_i, b_j, b_sign, b_p, b_q = _singles(beta)
    i = np.concatenate([at[a_i].ravel(), at[:, b_i].ravel()])
    j = np.concatenate([at[a_j].ravel(), at[:, b_j].ravel()])
    signs = np.concatenate([
        (a_sign[:, None] * sign[a_i] * sign[a_j]).ravel(),
        (b_sign * sign[:, b_i] * sign[:, b_j]).ravel(),
    ])
    p = np.concatenate([np.repeat(a_p, n_beta), np.tile(b_p, n_alpha)])
    q = np.concatenate([np.repeat(a_q, n_beta), np.tile(b_q, n_alpha)])
    order = np.argsort(i * len(space) + j)
    return i[order], j[order], signs[order], p[order], q[order]


def one_rdms(space: ConfigurationSpace, coeffs: np.ndarray) -> OneRDM:
    """The 1-RDMs of normalized CI vectors over ``space``, one per row of
    ``coeffs``, as one stack, symmetric by construction; a single vector
    (``coeffs`` of one dimension) gives a single matrix, the one a stack
    gives as its row.  The layout is kept only when every matrix of the
    stack is spin-blocked in it, as all are when a spin block is empty."""
    # the norm np.linalg.norm gives each row, bit for bit; NaN is refused too
    for norm in np.sqrt(np.vecdot(coeffs, coeffs)).reshape(-1).tolist():
        if not abs(norm - 1.0) <= 1e-10:
            raise NormalizationError(f"vector norm {norm!r} is not 1")
    left, right, factor, scatter = _terms(space)
    stack, m = coeffs.shape[:-1], space.m
    size = m * m
    if stack:
        # state k's terms go to the bins offset by k m^2
        size *= len(coeffs)
        scatter = scatter + np.arange(0, size, m * m)[:, None]
    # bincount adds its weights in input order and each element takes terms
    # of one kind only, so every element is the same sum, term for term, as
    # a loop over the determinants and then over the single excitations in
    # pair order; factor is +-1, so the product is exact in any order, and
    # in place it keeps the stack's temporaries to two arrays of its terms
    weights = coeffs.take(left, axis=-1)
    weights *= coeffs.take(right, axis=-1)
    weights *= factor
    upper = np.bincount(scatter.ravel(), weights.ravel(), minlength=size)
    # the mirror image of the upper triangle, element for element what
    # adding the transpose gives, since the lower triangle is all +0.0
    rho = upper.reshape(*stack, m * m).take(_mirror(m), axis=-1)

    # a sector's singles all conserve spin, so only a space without one can
    # give a matrix that couples the spins
    layout = space.layout
    if layout is not None and space.sector is None:
        up, down = layout.spin_blocks
        if len(up) and len(down) and not np.abs(rho[..., up[:, None], down]).max() <= 1e-12:
            layout = None

    return OneRDM(rho, layout)


@cache
def _mirror(m: int) -> np.ndarray:
    """Where each element of an ``m x m`` matrix sits in its upper triangle,
    flattened: ``min(p, q) * m + max(p, q)`` at ``[p, q]``; read-only."""
    p, q = np.indices((m, m))
    return _read_only((np.minimum(p, q) * m + np.maximum(p, q),))[0]


def one_rdm(vector: CIVector) -> OneRDM:
    """The 1-RDM of a normalized CI vector: :func:`one_rdms` of the single vector."""
    return one_rdms(vector.space, vector.coeffs)


@dataclass
class OccupationSpectrum:
    """Natural occupations sorted in descending order, or a stack of such
    spectra: ``n`` of shape ``(count, m)``, one row per state, all with the
    same ``N``.

    ``natural_rotation`` maps the original orbitals to the natural ones of
    a single diagonalized 1-RDM; it is ``None`` for spectra supplied as bare
    numbers and for every stack, whose natural orbitals are not kept.
    ``ties[..., i]`` is True when occupations ``i + 1`` and ``i + 2``
    (1-based) differ by at most the tie tolerance used at construction; a
    run of ties is a degenerate group, whose positions are interchangeable.
    """

    n: np.ndarray
    N: int
    natural_rotation: OrbitalRotation | None = None
    ties: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.n = np.asarray(self.n, dtype=float)
        if self.ties is None:
            self.ties = np.zeros((*self.n.shape[:-1], max(self.m - 1, 0)), dtype=bool)

    @property
    def m(self) -> int:
        return self.n.shape[-1]

    @classmethod
    def from_occupations(cls, values: Sequence[float], N: int | None = None) -> OccupationSpectrum:
        """Wrap externally supplied occupations (tables, files, CLI input).

        Values are sorted downward and lightly clamped to [0, 1]; the trace
        is NOT forced to be integral, since published occupations are often
        rounded.  ``N`` defaults to the rounded trace.
        """
        n = np.sort(np.asarray(values, dtype=float))[::-1].copy()
        n = _clamp_range(n, tol=1e-6)
        total = float(n.sum())
        if N is None:
            N = int(round(total))
        if not 0 < N <= len(n):
            raise ValueError(f"N={N} inconsistent with {len(n)} occupations")
        return cls(n, N, None, n[:-1] - n[1:] <= DEFAULT_TIE_TOL)


def _clamp_range(n: np.ndarray, tol: float) -> np.ndarray:
    """``n``, sorted in descending order, clipped to [0, 1], refused where a
    spectrum (a row of a stack) strays more than ``tol`` outside; the
    message names the first such."""
    low, high = n[..., -1], n[..., 0]
    # written so that a NaN, which fails every comparison, is refused too
    inside = (low >= -tol) & (high <= 1.0 + tol)
    if not inside.all():
        first = np.argmin(inside)
        raise SpectralRangeError(
            f"occupations outside [0,1]: min {float(np.ravel(low)[first])!r}, "
            f"max {float(np.ravel(high)[first])!r}"
        )
    return n.clip(0.0, 1.0)


class _Diagonalization(NamedTuple):
    """How the 1-RDMs over one layout are diagonalized, worked out once per
    layout.  Each group holds the spin blocks of one size, in block order,
    as ``(gather, scatter)``, each with a leading axis over the blocks when
    there are two: ``gather`` is where each block's square sits in a
    flattened ``m x m`` matrix, so one ``eigh`` takes every block of the
    group; ``scatter[..., c, j]`` is where component ``c`` of the block's
    eigenvector ``j`` goes in the flattened natural orbitals, rows in block
    order and, within a block, in descending order of occupation.
    ``spins`` is the spin of each of those rows, ``None`` without a
    layout."""

    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    spins: np.ndarray | None


# each layout's diagonalization, kept while the layout lives
_DIAGONALIZATIONS: WeakKeyDictionary = WeakKeyDictionary()


def _diagonalization(layout: SpinOrbitalLayout | None, m: int) -> _Diagonalization:
    """The :class:`_Diagonalization` of ``layout``, built once per layout,
    or, for ``None``, of the whole matrix as one block."""
    found = None if layout is None else _DIAGONALIZATIONS.get(layout)
    if found is not None:
        return found
    if layout is None:
        blocks, spins = [np.arange(m)], None
    else:
        up, down = layout.spin_blocks
        blocks = [block for block in (up, down) if len(block)]
        spins = np.array([UP] * len(up) + [DOWN] * len(down), object)
    # blocks of one size go as one group, else each alone; an empty block
    # has no eigenpairs
    same = len(blocks) == 2 and len(blocks[0]) == len(blocks[1])
    groups = []
    for ids in [[0, 1]] if same else [[b] for b in range(len(blocks))]:
        idx = np.array([blocks[b] for b in ids])
        k = idx.shape[1]
        # each block's rows follow every row of the blocks before it
        rows = np.array([sum(map(len, blocks[:b])) for b in ids])[:, None] + np.arange(k)[::-1]
        gather = idx[:, :, None] * m + idx[:, None, :]
        scatter = rows[:, None, :] * m + idx[:, :, None]
        # a block alone is one matrix, not a stack of one
        groups.append(_read_only((gather, scatter) if same else (gather[0], scatter[0])))
    found = _Diagonalization(tuple(groups), spins)
    if layout is not None:
        _DIAGONALIZATIONS[layout] = found
    return found


def natural_spectrum(rdm: OneRDM) -> OccupationSpectrum:
    """Diagonalize a 1-RDM into occupations and a natural-orbital rotation,
    or a stack of 1-RDMs into a stacked spectrum, row ``k`` for matrix ``k``.

    A 1-RDM with a layout is diagonalized per spin block, so every natural
    orbital has a definite spin and the rotation carries the layout of the
    natural basis, which keeps it sector-safe.  Blocks of one size go
    through one ``eigh``, bit for bit one per block.  Natural-orbital rows
    are sign-fixed the same way CI vectors are, by
    :func:`~fermipin.ci.sign_fixed`.  A stack keeps no rotations: its rows
    are the occupations and ties each matrix gives alone.
    """
    rho, m = rdm.rho, rdm.m
    traces = rho.trace(axis1=-2, axis2=-1).reshape(-1).tolist()
    N = round(traces[0])
    for trace in traces:
        if not abs(trace - N) <= TRACE_TOL:
            raise SpectralRangeError(f"1-RDM trace {trace!r} is not close to the integer {N}")

    plan = _diagonalization(rdm.layout, m)
    stack = rho.shape[:-2]
    flat = rho.reshape(*stack, m * m)
    values, vectors = [], []
    for gather, _ in plan.groups:
        # one eigh for every block of the group and every matrix of the stack
        vals, vecs = np.linalg.eigh(flat.take(gather, axis=-1))
        values.append(vals[..., ::-1].reshape(*stack, -1))
        vectors.append(vecs)
    # descending occupation; ties keep block order, then position in block
    occupations = values[0] if len(values) == 1 else np.concatenate(values, axis=-1)
    order = (-occupations).argsort(axis=-1, kind="stable")
    if stack:
        n = _clamp_range(occupations[np.arange(len(rho))[:, None], order], tol=RANGE_TOL)
        return OccupationSpectrum(n, N, None, n[:, :-1] - n[:, 1:] <= DEFAULT_TIE_TOL)

    n = _clamp_range(occupations[order], tol=RANGE_TOL)
    natural = np.zeros(m * m)
    for (_, scatter), vecs in zip(plan.groups, vectors):
        natural[scatter] = vecs
    layout = None if plan.spins is None else SpinOrbitalLayout(tuple(plan.spins[order]))
    rotation = OrbitalRotation(ci.sign_fixed(natural.reshape(m, m).take(order, axis=0)), layout)
    return OccupationSpectrum(n, N, rotation, n[:-1] - n[1:] <= DEFAULT_TIE_TOL)


def hf_distance(spectrum: OccupationSpectrum) -> float | np.ndarray:
    """How far the leading occupations sit from a single determinant:
    ``sqrt(sum_{i<=N} (1-n_i)^2)``, the depletion of the N strongest
    natural orbitals.  Zero exactly for a one-determinant state.  A stacked
    spectrum gives one distance per row."""
    holes = 1.0 - spectrum.n[..., : spectrum.N]
    return np.sqrt(np.sum(holes * holes, axis=-1))
