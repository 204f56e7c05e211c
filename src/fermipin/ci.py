"""Configuration-interaction vectors, orbital rotations, Hamiltonians, and solves.

Hamiltonian elements over a :class:`~fermipin.fock.ConfigurationSpace` follow
the Slater-Condon rules with antisymmetrized spin-orbital integrals.  One
routine turns a decoded pair list (:class:`~fermipin.fock.Pairs`: the phase
and the substituted orbitals of each pair), all at once, into the diagonal
and the ``(i, j, value)`` entries of the singles and doubles.  Where the
pairs come from depends on the size of the space, with ``DENSE_CROSSOVER``
as the dividing line:

* a space of at most ``DENSE_CROSSOVER`` determinants reads its cached
  :attr:`~fermipin.fock.ConfigurationSpace.pairs`, found once by the
  quadratic search and shared with the 1-RDM;
* a larger space generates only the pairs the integrals can connect
  (:func:`~fermipin.fock.substitutions`): a single ``p -> q`` where
  ``h[p,q]`` or some ``<pc||qc>`` is nonzero, a double where
  ``<p1p2||q1q2>`` is.  Every pair left out has an element of exactly
  zero, so the nonzero entries are the same either way, and no quadratic
  search runs.

Where each element's terms sit in the integrals depends only on the space
and its pairs, so a space at or below the crossover works it out once and
keeps it (the weak-keyed ``_GATHERS``): the ``<pq||rs>`` its elements read,
in the order they read them, the positions of every term in one short flat
array ``[core, h..., those <pq||rs>...]``, which orbitals each single
shares, the order that puts the singles' and doubles' elements back in
pair order, each pair's sign and where its element goes in the dense
matrix.  A call then gathers once from the integrals, sums and scatters.
Positions that depend on the width alone are kept per width.
:func:`build_hamiltonian` scatters the entries into a dense matrix.  An
element that is not finite, such as a sum of finite integrals that
overflows, is refused with a ``FermipinError`` that names it.

:func:`ground_states` finds ground states only.  It keeps dense
``numpy.linalg.eigh`` for spaces of at most ``DENSE_CROSSOVER``
determinants, where it is the faster route.  Above that it never builds a
dense matrix of the whole space.  A complete S_z sector whose αβ
interaction is density-density (a Hubbard chain) and whose H is connected
is solved as alpha strings times beta strings, with the product
σ = H_α C + C H_β + D∘C on the n_α × n_β coefficient matrix (Knowles and
Handy, Chem. Phys. Lett. 111, 315 (1984); Olsen et al., J. Chem. Phys.
89, 2185 (1988)), so the entries of the whole space are never built.
That product is cheap, so this route solves by Chebyshev-filtered block
Davidson (Zhou and Saad, SIAM J. Matrix Anal. Appl. 29, 954 (2007)),
written in numpy alone (no scipy is used): each step spends
``FILTER_DEGREE`` products on a polynomial filter that damps the upper
spectrum, up to a Gershgorin bound worked out from H_α, H_β and the
diagonal, and keeps a basis of only ``DAVIDSON_BASIS`` rows.
The strings, and where and with what sign each product sits in the space,
are the space's cached :attr:`~fermipin.fock.ConfigurationSpace.strings`,
which the 1-RDM of :mod:`fermipin.rdm` reads too.
Every other space is split into the blocks that H's nonzero entries
connect (exact selection rules, such as the seniority of the pairing
model, make many) and the crossover decides per block: small blocks go
through one stacked ``eigvalsh`` per block size, each larger one through
block thick-restart Lanczos with CSR arrays built straight from its
entries: a CSR product is costly, and Lanczos makes fewer of them.  Every
block gives its two lowest values, so the degeneracy flag has the gap it
reads, across blocks too.  Both sparse solvers share their
orthogonalization and their stopping rule: both residuals ‖Hc - Ec‖
within ``LANCZOS_TOL`` times the largest |H_ij| of the space.  Both start
from a fixed random block, so a run repeats to the last bit; a connected
space is one block and solves as one matrix.  A solve refuses, by name,
elements so large that its squared norms could overflow.  Neither route
checks the space size:
:mod:`fermipin.fock` holds the dense budget, ``MAX_DENSE_SPACE``, and no
space is built past it.

Many points of one space go through as one stack: integrals with a
leading axis (a parameter scan's grid points) give the entries, the dense
Hamiltonians and one ``eigh`` for the whole stack, each point bit for bit
as it comes out alone, because every sum keeps its order.  Above
``DENSE_CROSSOVER`` each point of a stack is solved alone and the results
are stacked.  A single point takes the same code with no stack axis: its
Hamiltonian is one matrix and goes through one ``eigh`` of that matrix,
and no gather or scatter of a point indexes past a stack axis, bit for
bit as a stack of one.  :func:`solve_ground` is :func:`ground_states` on
one point.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple
from weakref import WeakKeyDictionary

import numpy as np

from .errors import FermipinError, RotationError, WidthError
from .fock import (
    ConfigurationSpace,
    Determinant,
    SpinOrbitalLayout,
    _read_only,
    orbital_pairs,
    substitutions,
)
from .integrals import SpinOrbitalIntegrals

# Largest space, and above it the largest connected block of H, solved
# densely.  With one BLAS thread, eigh of the whole matrix and the sparse
# Lanczos for two states break even between 100 and 225 determinants
# (Hubbard sectors); at 400, Lanczos takes 8 ms against 25 ms.  It is also
# the largest space whose pairs come from the quadratic search (the
# Hamiltonian and the 1-RDM): below it, generating them costs more in numpy
# call overhead than searching (Hubbard sectors, entries plus 1-RDM: 0.87
# against 0.52 ms at 36 determinants, even at 225).
DENSE_CROSSOVER = 200
# Lanczos and the string route's Davidson stop when every wanted residual
# is within this multiple of the largest |H_ij|, and give up after this many
# restarts
LANCZOS_TOL = 1e-13
LANCZOS_RESTARTS = 200
# The string route's Chebyshev-filtered block Davidson: the degree of its
# filter, the rows of its basis and the Ritz vectors a full basis keeps.
# One σ product there costs 14-19 µs at 1 225 determinants, a Lanczos step
# about 100 µs of orthogonalization, T and restarts, so eight products per
# step that save many steps pay; a CSR product costs about 1 ms, and there
# the filter was 1.5 times slower than Lanczos.
FILTER_DEGREE = 8
DAVIDSON_BASIS = 12
DAVIDSON_KEPT = 4
# the sparse solvers square norms up to about 2‖H‖, so they refuse a bound
# on ‖H‖ past this, about 1e-4 of the square root of the largest float
_NORM_LIMIT = 1e150
DEGENERACY_GAP = 1e-10
ORTHOGONALITY_TOL = 1e-10

# the product of a symmetric matrix with each row of a block of vectors
_Product = Callable[[np.ndarray], np.ndarray]


@dataclass
class CIVector:
    """Expansion coefficients over an ordered determinant basis."""

    space: ConfigurationSpace
    coeffs: np.ndarray
    energy: float | None = None
    degenerate: bool = False

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (len(self.space),):
            raise ValueError("coefficient length does not match the space")

    def leading(self, k: int = 5) -> list[tuple[Determinant, float]]:
        """The ``k`` determinants with the largest weights, heaviest first."""
        order = np.argsort(-np.abs(self.coeffs), kind="stable")[:k]
        return [(self.space[i], float(self.coeffs[i])) for i in order]


@dataclass
class OrbitalRotation:
    """An orthogonal change of spin-orbital basis.

    Row ``p`` of ``U`` gives the expansion of new orbital ``p`` in the old
    ones.  ``layout`` is the layout of the new basis: it promises that every
    new orbital has the spin it records, and only such rotations may be
    applied to sector-restricted CI vectors.  ``None`` means the new
    orbitals have no definite spins.
    """

    U: np.ndarray
    layout: SpinOrbitalLayout | None = None

    def __post_init__(self) -> None:
        self.U = np.asarray(self.U, dtype=float)
        m = self.U.shape[0]
        if self.U.shape != (m, m):
            raise RotationError("rotation matrix must be square")
        # U Uᵀ - 1, the identity taken off the diagonal in place
        gram = self.U @ self.U.T
        gram.reshape(-1)[:: m + 1] -= 1.0
        defect = np.abs(gram).max()
        if defect > ORTHOGONALITY_TOL:
            raise RotationError(f"matrix is not orthogonal (defect {defect:.2e})")
        if self.layout is not None and self.layout.m != m:
            raise RotationError(f"a width-{self.layout.m} layout for a width-{m} rotation")

    @property
    def m(self) -> int:
        return self.U.shape[0]


def sign_fixed(rows: np.ndarray) -> np.ndarray:
    """``rows`` with every row whose component of largest magnitude (the
    first such, on exact ties) is negative negated, the sign convention of
    eigenvectors: CI vectors and natural orbitals alike."""
    lead = np.abs(rows).argmax(axis=1)
    return np.where((rows[np.arange(len(rows)), lead] < 0)[:, None], -rows, rows)


def _sequential_sum(terms: np.ndarray) -> np.ndarray:
    """Sums of ``terms`` over the last axis, added strictly left to right."""
    return terms.cumsum(axis=-1)[..., -1]


class _Gathers(NamedTuple):
    """Where the terms of the Hamiltonian's elements over a space sit in one
    point's integrals, for the connected pairs.  The terms are read from one
    flat array ``[core, h..., g[integrals]...]``: the core energy, all of
    ``h`` and the ``<pq||rs>`` each element reads, in turn.  ``diagonal``
    holds where each diagonal element's terms sit (the core energy, each
    ``h[p, p]``, each ``<pq||pq>`` over the pairs ``p < q``, the same for
    every space of the width); ``singles``
    where each single's ``h[p, q]`` and then its ``<pc||qc>`` over every
    orbital ``c`` sit, with ``shared`` 1 for ``h[p, q]`` and for each
    orbital both determinants occupy, 0 otherwise; ``doubles`` where each
    double's ``<p1p2||q1q2>`` sits.  ``order`` takes the singles' elements
    followed by the doubles' into pair order, ``sign`` is each pair's sign
    as a float, and ``upper`` is where its element goes in the flattened
    dense matrix, ``(i, j)`` in its first row and ``(j, i)`` in its second.
    A gather with one flat index array costs a stack no more than a point."""

    diagonal: np.ndarray
    integrals: np.ndarray
    singles: np.ndarray
    shared: np.ndarray
    doubles: np.ndarray
    order: np.ndarray
    sign: np.ndarray
    upper: np.ndarray


@cache
def _flat_positions(m: int) -> tuple[np.ndarray, ...]:
    """What a space's :class:`_Gathers` take from its width ``m`` alone: the
    ``<pq||pq>`` (positions in the flattened ``g``) the diagonal reads over
    the pairs ``p < q``, then the diagonal's positions in ``[core, h...,
    g[integrals]...]`` (the core energy, each ``h[p, p]``, then those
    ``<pq||pq>``, the first integrals of every space), and, in row
    ``p * m + q``, a single ``p -> q``'s ``h[p, q]`` position in that array
    and its ``<pc||qc>`` positions in ``g`` over every orbital ``c``.
    Read-only, because every space of the width shares them."""
    p, q = orbital_pairs(m)
    c = np.arange(m)
    diagonal_g = ((p * m + q) * m + p) * m + q
    diagonal = np.concatenate([[0], 1 + c * (m + 1), 1 + m * m + np.arange(len(p))])
    p, q = np.divmod(np.arange(m * m), m)
    singles_g = ((p[:, None] * m + c) * m + q[:, None]) * m + c
    return _read_only((diagonal_g, diagonal, 1 + p * m + q, singles_g))


def _gathers(space: ConfigurationSpace, pairs) -> _Gathers:
    """The :class:`_Gathers` of ``space`` for the connected ``pairs``."""
    m, n = space.m, len(space)
    diagonal_g, diagonal, singles_h, singles_g = _flat_positions(m)
    (single_i, single_j, _), sp, sq = pairs.singles, pairs.p, pairs.q
    p1, p2, q1, q2 = pairs.doubles
    moves = sp * m + sq
    # every <pq||rs> read, in the order the diagonal, the singles and the
    # doubles read them, so that each reads its own run of them
    integrals = np.concatenate([diagonal_g, singles_g.take(moves, axis=0).ravel(),
                                ((p1 * m + p2) * m + q1) * m + q2])
    run = np.arange(1 + m * m + len(diagonal_g), 1 + m * m + len(integrals))
    shared = np.ones((len(sp), m + 1))
    shared[:, 1:] = space.bits.take(single_i, axis=0) & space.bits.take(single_j, axis=0)
    order = np.empty(len(pairs.i), np.intp)
    order[np.concatenate([pairs.single, pairs.double])] = np.arange(len(pairs.i))
    ij = np.array([pairs.i, pairs.j])
    return _Gathers(diagonal, *_read_only((
        integrals,
        np.concatenate([singles_h.take(moves)[:, None], run[: len(sp) * m].reshape(-1, m)], axis=1),
        shared,
        run[len(sp) * m :],
        order,
        pairs.sign.astype(float),
        ij * n + ij[::-1],
    )))


# the gathers of each space at or below the crossover, whose pairs are fixed
_GATHERS: WeakKeyDictionary = WeakKeyDictionary()


def _searched_gathers(space: ConfigurationSpace) -> _Gathers:
    """The cached :class:`_Gathers` of a space at or below the crossover,
    for its cached, searched pairs."""
    gathers = _GATHERS.get(space)
    if gathers is None:
        gathers = _GATHERS[space] = _gathers(space, space.pairs)
    return gathers


def _hamiltonian_entries(
    ints: SpinOrbitalIntegrals, space: ConfigurationSpace
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The diagonal of the Hamiltonian over ``space`` and its entries
    ``(i, j, value)`` with ``i < j`` for every connected pair.  A stack of
    integrals gives the diagonal and the values with the stack's leading
    axis, one row per point, each summed as that point alone.

    Each element is summed term by term in the order of the Slater-Condon
    rules over the occupied orbitals, ascending; an empty orbital adds an
    exact zero, so the bit-matrix sums equal the orbital-by-orbital ones.
    Which orbitals each sum runs over comes from the cached ``bits`` and
    ``diagonal_terms`` of the :class:`~fermipin.fock.ConfigurationSpace`
    and, at or below the crossover, its cached ``pairs`` and their
    gathers, so a call only gathers integrals and adds them.  A sum that
    overflows, or any other element that is not finite, is refused with a
    ``FermipinError`` that names the first such element (of the first
    point that has one).
    """
    m = ints.m
    if m != space.m:
        raise WidthError("integral width does not match the space")
    if len(space) <= DENSE_CROSSOVER:
        pairs, gathers = space.pairs, _searched_gathers(space)
    else:
        # a single's element is h[p,q] + sum_c <pc||qc>, a double's
        # <p1p2||q1q2>; a stack is screened by the union over its points
        singles = (ints.h != 0) | (ints.g.diagonal(axis1=-3, axis2=-1) != 0).any(axis=-1)
        points = tuple(range(ints.h.ndim - 2))
        pairs = substitutions(space, singles.any(axis=points), (ints.g != 0).any(axis=points))
        gathers = _gathers(space, pairs)
    stack = ints.h.shape[:-2]
    flat = np.concatenate([np.asarray(ints.core_energy)[..., None], ints.h.reshape(*stack, m * m),
                           ints.g.reshape(*stack, m**4).take(gathers.integrals, axis=-1)], axis=-1)
    # a sum that overflows, or an infinity times an empty orbital's zero, is
    # refused below, with no numpy warning printed first
    with np.errstate(over="ignore", invalid="ignore"):
        diag = _sequential_sum(
            space.diagonal_terms * flat.take(gathers.diagonal, axis=-1)[..., None, :]
        )
        singles = _sequential_sum(flat.take(gathers.singles, axis=-1) * gathers.shared)
    values = np.concatenate([singles, flat.take(gathers.doubles, axis=-1)], axis=-1)
    values = values.take(gathers.order, axis=-1)
    values *= gathers.sign
    if not (np.isfinite(diag).all() and np.isfinite(values).all()):
        # each point's diagonal, then its entries, one point after another
        elements = np.concatenate([diag, values], axis=-1).ravel()
        bad = np.flatnonzero(~np.isfinite(elements))
        k = bad[0] % (len(space) + len(pairs.i))
        i, j = (k, k) if k < len(space) else (pairs.i[k - len(space)], pairs.j[k - len(space)])
        raise FermipinError(
            f"Hamiltonian element between determinants {list(space[i].orbitals())} and "
            f"{list(space[j].orbitals())} is {float(elements[bad[0]])!r}, not finite"
        )
    return diag, pairs.i, pairs.j, values


def build_hamiltonian(ints: SpinOrbitalIntegrals, space: ConfigurationSpace) -> np.ndarray:
    """The dense, exactly symmetric Hamiltonian matrix over ``space``; a
    stack of integrals gives a stack of matrices, one per point.  At or
    below the crossover, where each entry goes is cached with the space's
    gathers."""
    diag, i, j, values = _hamiltonian_entries(ints, space)
    n = len(space)
    if n <= DENSE_CROSSOVER:
        upper = _searched_gathers(space).upper
    else:
        upper = np.array([i * n + j, j * n + i])
    H = np.zeros((*diag.shape[:-1], n * n))
    H[..., :: n + 1] = diag
    # through the transposes the stack's axis comes last, so a point's
    # entries go in by plain indexing
    H.T[upper] = values.T
    return H.reshape(*diag.shape, n)


def _csr_product(
    diag: np.ndarray, i: np.ndarray, j: np.ndarray, values: np.ndarray
) -> _Product:
    """The product of the symmetric matrix with diagonal ``diag`` and
    upper-triangle entries ``(i, j, values)`` with each row of a block, held
    as CSR arrays.  Rows go two at a time, as the real and imaginary parts
    of one complex vector, so that one gather and one reduction serve both."""
    n = len(diag)
    # the diagonal is stored even where it is zero, so no CSR row is empty
    rows = np.concatenate([np.arange(n), i, j])
    order = np.argsort(rows, kind="stable")
    cols = np.concatenate([np.arange(n), j, i])[order]
    vals = np.concatenate([diag, values, values])[order]
    row_starts = np.searchsorted(rows[order], np.arange(n))

    def product(X: np.ndarray) -> np.ndarray:
        HX = np.empty_like(X)
        for r in range(0, len(X) - 1, 2):
            hz = np.add.reduceat((X[r] + 1j * X[r + 1])[cols] * vals, row_starts)
            HX[r], HX[r + 1] = hz.real, hz.imag
        if len(X) % 2:
            HX[-1] = np.add.reduceat(X[-1, cols] * vals, row_starts)
        return HX

    return product


def _orthogonalized(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``w`` made orthogonal to the orthonormal rows of ``basis`` by two
    classical Gram-Schmidt passes ("twice is enough": Giraud, Langou and
    Rozložník, Comput. Math. Appl. 50, 1069 (2005))."""
    for _ in range(2):
        w = w - (basis @ w) @ basis
    return w


def _converged(residual: np.ndarray, scale: float) -> bool:
    """Whether every row of ``residual`` is within ``LANCZOS_TOL`` times
    ``scale``."""
    return np.linalg.norm(residual, axis=1).max() <= LANCZOS_TOL * scale


def _unconverged() -> FermipinError:
    """The refusal of a sparse solve that used up its restarts."""
    return FermipinError(f"sparse eigensolver did not converge in {LANCZOS_RESTARTS} restarts")


def _lanczos(
    diag: np.ndarray, product: _Product, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """The (up to) two lowest eigenpairs of the symmetric matrix with
    diagonal ``diag`` whose product with each row of a block of vectors is
    ``product(block)``, by block thick-restart Lanczos (Wu and Simon, SIAM
    J. Matrix Anal. Appl. 22, 602 (2000)) in numpy alone: their values and
    the lowest vector.  Only the length of ``diag`` is read.

    The Krylov space grows from a block of two random vectors: one start
    vector reaches a single state of each level, so it would show a
    degenerate ground level as a simple one.  Every new row, and every
    random row that replaces one, gets the two classical Gram-Schmidt
    passes of :func:`_orthogonalized` against every earlier row of the
    basis; T = VᵀHV is filled from the products.  A full basis of sixteen
    blocks (32 vectors) is solved by Rayleigh-Ritz; once both residuals
    ‖Hy - θy‖ of the two lowest Ritz pairs are within ``LANCZOS_TOL`` times
    ``scale`` (:func:`_converged`) they are returned, and otherwise the 16
    lowest Ritz vectors are kept,
    with T = diag(θ), and the expansion goes on from the last residual
    block, first projected against all of the basis it leaves: the passes
    see only the kept Ritz vectors, and without it the discarded ones fill
    the next basis again.  A row whose norm falls to 1e-12 times ``scale``
    (an invariant subspace) is replaced by a random one, as ARPACK's
    ``dgetv0`` does.  Start and replacement vectors come from a fixed seed,
    so a run repeats to the last bit.
    """
    n = len(diag)
    # a constant start vector can be orthogonal to the ground state by symmetry
    rng = np.random.default_rng(0)
    size = min(n, 32)
    V, HV, T = np.empty((size, n)), np.empty((size, n)), np.zeros((size, size))
    filled, block = 0, rng.standard_normal((2, n))
    for _ in range(LANCZOS_RESTARTS):
        while filled < size:
            top = min(filled + len(block), size)
            for row, w in zip(range(filled, top), block):
                w = _orthogonalized(w, V[:row])
                norm2 = w @ w
                if norm2 <= (1e-12 * scale) ** 2:
                    w = _orthogonalized(rng.standard_normal(n), V[:row])
                    norm2 = w @ w
                V[row] = w / np.sqrt(norm2)
            HV[filled:top] = product(V[filled:top])
            T[:top, filled:top] = V[:top] @ HV[filled:top].T
            block, filled = HV[filled:top], top
        theta, Y = np.linalg.eigh(T, UPLO="U")
        ritz = Y[:, :2].T @ V
        if _converged(Y[:, :2].T @ HV - theta[:2, None] * ritz, scale):
            return theta[:2], ritz[0]
        # the residual block goes on orthogonal to all of the basis it leaves
        block = block - (block @ V.T) @ V
        filled = min(16, size - 1)
        V[:filled], HV[:filled] = Y[:, :filled].T @ V, Y[:, :filled].T @ HV
        T[:] = 0.0
        T[:filled, :filled] = np.diag(theta[:filled])
    raise _unconverged()


def _chebyshev_filtered(
    product: _Product, X: np.ndarray, HX: np.ndarray, low: float, lower: float, upper: float
) -> np.ndarray:
    """Each row of ``X`` times the degree-``FILTER_DEGREE`` Chebyshev
    polynomial in H that is at most 1 in magnitude on ``[lower, upper]``,
    grows fast below ``lower`` and is 1 at ``low``; ``HX`` is H times ``X``,
    so ``FILTER_DEGREE - 1`` products are made.  The scaled three-term
    recurrence (Zhou, Saad, Tiago and Chelikowsky, J. Comput. Phys. 219,
    172 (2006)) keeps every iterate near the size of ``X``: no polynomial
    value is formed that could overflow."""
    half, centre = (upper - lower) / 2, (upper + lower) / 2
    sigma = half / (low - centre)
    tau = 2 / sigma
    Y = (HX - centre * X) * (sigma / half)
    for _ in range(FILTER_DEGREE - 1):
        following = 1 / (tau - sigma)
        X, Y = Y, (product(Y) - centre * Y) * (2 * following / half) - (sigma * following) * X
        sigma = following
    return Y


def _davidson(
    diag: np.ndarray, product: _Product, scale: float, upper: float
) -> tuple[np.ndarray, np.ndarray]:
    """The (up to) two lowest eigenpairs of the symmetric matrix with
    diagonal ``diag``, product ``product`` and no eigenvalue above
    ``upper``, by Chebyshev-filtered block Davidson (Zhou and Saad, SIAM J.
    Matrix Anal. Appl. 29, 954 (2007)) in numpy alone: their values and the
    lowest vector.  Only the length of ``diag`` is read.

    The basis starts from two random rows, as :func:`_lanczos` does.  Each
    step filters the two lowest Ritz vectors with
    :func:`_chebyshev_filtered`, which damps ``[θ_keep, upper]``: θ_keep is
    the Ritz value just above the ``DAVIDSON_KEPT`` lowest (the largest,
    while the basis holds no more), and the filter is skipped, H times the
    Ritz vectors taken instead, when θ_keep is not below ``upper``.  Each
    filtered row gets the two Gram-Schmidt passes of :func:`_orthogonalized`
    against the basis and is added, unless they leave no more than 1e-14
    of its norm before them: such a row lay in the basis up to rounding.  A
    step that adds no row adds a random one.  The new rows' products join
    those already made, and Rayleigh-Ritz on T = V H Vᵀ gives the next Ritz
    pairs; they are returned once both residuals are within
    ``LANCZOS_TOL`` times ``scale``.  A full basis of ``DAVIDSON_BASIS``
    rows keeps its ``DAVIDSON_KEPT`` lowest Ritz vectors, with their
    products; the basis may fill ``LANCZOS_RESTARTS`` times.  Start and
    random rows come from a fixed seed, so a run repeats to the last bit.
    """
    n = len(diag)
    rng = np.random.default_rng(0)
    size = min(n, DAVIDSON_BASIS)
    V, HV = np.empty((size, n)), np.empty((size, n))
    filled, block = 0, rng.standard_normal((2, n))
    for _ in range(LANCZOS_RESTARTS):
        while True:
            top = filled
            for w in block[: size - filled]:
                before = w @ w
                w = _orthogonalized(w, V[:top])
                norm2 = w @ w
                if norm2 > 1e-28 * before:
                    V[top] = w / np.sqrt(norm2)
                    top += 1
            if top == filled:
                w = _orthogonalized(rng.standard_normal(n), V[:top])
                V[top] = w / np.sqrt(w @ w)
                top += 1
            HV[filled:top] = product(V[filled:top])
            filled = top
            theta, Y = np.linalg.eigh(V[:filled] @ HV[:filled].T, UPLO="U")
            ritz, h_ritz = Y[:, :2].T @ V[:filled], Y[:, :2].T @ HV[:filled]
            if _converged(h_ritz - theta[:2, None] * ritz, scale):
                return theta[:2], ritz[0]
            lower = theta[min(DAVIDSON_KEPT, filled - 1)]
            if lower < upper:
                block = _chebyshev_filtered(product, ritz, h_ritz, theta[0], lower, upper)
            else:
                block = h_ritz
            if filled == size:
                break
        filled = min(DAVIDSON_KEPT, size - 1)
        V[:filled], HV[:filled] = Y[:, :filled].T @ V, Y[:, :filled].T @ HV
    raise _unconverged()


def _blocks(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The connected block of each of ``n`` nodes joined by the edges
    ``(i, j)``, blocks numbered in the order of their first node.  Each pass
    jumps every label to its root, then hooks the larger root of each edge
    whose ends disagree onto the smaller one, so a root stays the smallest
    node of its tree."""
    label = np.arange(n)
    while True:
        while not np.array_equal(root := label[label], label):
            label = root
        low, high = np.minimum(label[i], label[j]), np.maximum(label[i], label[j])
        apart = low != high
        if not apart.any():
            return (np.cumsum(label == np.arange(n)) - 1)[label]
        np.minimum.at(label, high[apart], low[apart])


def _string_hamiltonian(
    ints: SpinOrbitalIntegrals, space: ConfigurationSpace
) -> tuple[np.ndarray, _Product, float, np.ndarray, np.ndarray, Callable[[], float]] | None:
    """H over a complete S_z sector as a sum over alpha and beta strings,
    or ``None`` where that form does not hold or is not one connected block.

    Every determinant of the sector is an alpha string ``a`` (its up
    orbitals) times a beta string ``b``.  When every mixed-spin
    ``<pq||rs>`` is zero unless ``p = r`` and ``q = s`` (density-density
    αβ interaction, as in a Hubbard chain), H in the signed product basis
    is H_α ⊗ 1 + 1 ⊗ H_β + diag(D): H_α and H_β are the Hamiltonians,
    without the core energy, over the strings of one spin alone, and
    ``D[a, b]`` is the core energy plus the ``<pq||pq>`` of every up
    orbital ``p`` of ``a`` with every down orbital ``q`` of ``b``.
    Determinant ``at[k]`` of ``space`` is ``sign[k]`` times the product
    state ``k = a * n_β + b``; the sign is the parity of the down orbitals
    below each up one, +1 for blocked ordering.  H_α and H_β must each be
    one connected block, which makes H one too.

    Returns the diagonal of H in product order, the product of H with
    each row of a block, the largest ``|H_ij|``, ``at``, ``sign`` and a
    function that gives Gershgorin's bound on H's largest eigenvalue: the
    largest ``diag[a, b] + off_α[a] + off_β[b]``, where ``off_α[a]`` is
    the sum of the ``|H_α[a, c]|`` off the diagonal of row ``a``, and the
    same for H_β.  Row ``(a, b)`` of H holds exactly those elements off its
    diagonal.  The bound is worked out on call, so that a caller can refuse
    elements whose sums could overflow first.  Or the function returns
    ``None`` for a space without the
    :attr:`~fermipin.fock.ConfigurationSpace.strings` of a complete
    sector with electrons of both spins, any other αβ term, a split H, or
    any element that is not finite.  The integrals are one point's.
    """
    if space.sector is None:
        return None
    up, down = space.layout.spin_blocks
    # <pq||rs> with p, r up and q, s down may be nonzero only where p = r, q = s
    coulomb = ints.g[up[:, None], down, up[:, None], down]
    if np.count_nonzero(ints.g[np.ix_(up, down, up, down)]) != np.count_nonzero(coulomb):
        return None
    strings = space.strings
    if strings is None:
        return None
    alpha, beta, at, sign = strings
    bare = SpinOrbitalIntegrals(ints.layout, ints.h, ints.g)
    try:
        H_a, H_b = build_hamiltonian(bare, alpha), build_hamiltonian(bare, beta)
    except FermipinError:
        return None
    for H in (H_a, H_b):
        if _blocks(len(H), *np.nonzero(np.triu(H, 1))).any():
            return None
    bits_a, bits_b = alpha.bits[:, up], beta.bits[:, down]
    with np.errstate(over="ignore", invalid="ignore"):
        D = ints.core_energy + bits_a @ coulomb @ bits_b.T
        diag = (H_a.diagonal()[:, None] + H_b.diagonal() + D).ravel()
    if not np.isfinite(diag).all():
        return None
    scale = max(np.abs(diag).max(), *(np.abs(np.triu(H, 1)).max() for H in (H_a, H_b)))

    def product(X: np.ndarray) -> np.ndarray:
        Y = X.reshape(len(X), len(alpha), len(beta))
        return (H_a @ Y + Y @ H_b + D * Y).reshape(X.shape)

    def upper() -> float:
        off_a, off_b = (np.abs(H).sum(axis=1, where=~np.eye(len(H), dtype=bool))
                        for H in (H_a, H_b))
        return float((diag.reshape(len(alpha), len(beta)) + off_a[:, None] + off_b).max())

    return diag, product, scale, at.ravel(), sign.ravel(), upper


def _sparse_eigh(
    ints: SpinOrbitalIntegrals, space: ConfigurationSpace
) -> tuple[np.ndarray, np.ndarray]:
    """The two lowest eigenvalues of the Hamiltonian over ``space`` and its
    sign-fixed ground vector, solved one connected block of H at a time.

    A complete S_z sector whose αβ interaction is density-density, such as
    a Hubbard chain's, and whose H is one connected block is solved first,
    before any entry of the whole space is built: :func:`_davidson` runs on
    alpha strings times beta strings, with the product
    σ = H_α C + C H_β + D∘C of :func:`_string_hamiltonian` and its
    Gershgorin bound as the top of the interval its filter damps.

    Otherwise the nonzero entries split the determinants into blocks that
    H does not connect, as exact selection rules do: the pairing model
    keeps the levels that hold an unpaired electron, so its 1 225-determinant
    S_z = 0 sector of seven levels is 64 blocks of at most 35.  Blocks of at
    most ``DENSE_CROSSOVER`` determinants go through one stacked ``eigvalsh``
    per block size; each larger one goes through :func:`_lanczos` with its
    CSR product and the largest ``|H_ij|`` of the whole space as its scale,
    so a connected space is solved as one matrix.  The block that holds the
    lowest value (the first, on a tie) gives the energy and the vector, from
    one ``eigh`` if it is small; the vector is exactly ``+0.0`` outside that
    block.  The second value is the lowest of all the rest, that block's
    second included, so a ground level shared by blocks shows as
    degenerate.  (Why each route has its own solver: the comment at
    ``FILTER_DEGREE``.)  Elements so large that n times the largest
    ``|H_ij|``, a bound on ‖H‖, passes ``_NORM_LIMIT``
    are refused before any block is solved, and before the string route's
    bound is summed: the solvers' squared norms could overflow.
    """
    n = len(space)
    strings = _string_hamiltonian(ints, space)
    if strings is None:
        diag, i, j, values = _hamiltonian_entries(ints, space)
        keep = values != 0
        i, j, values = i[keep], j[keep], values[keep]
        scale = max(np.abs(diag).max(), np.abs(values).max(initial=0.0))
    else:
        diag, product, scale, at, sign, upper = strings
    # ‖H‖ ≤ n·scale bounds every vector the solver squares and sums
    if scale > _NORM_LIMIT / n:
        raise FermipinError(
            f"Hamiltonian elements up to {float(scale)!r} in magnitude would overflow "
            f"the sparse eigensolver's squared norms over {n} determinants"
        )
    if strings is not None:
        found, vector = _davidson(diag, product, scale, upper())
        ground = np.empty(n)
        ground[at] = sign * vector
        return np.append(found, np.inf)[:2], sign_fixed(ground[None])[0]
    block = _blocks(n, i, j)
    sizes = np.bincount(block)
    # each determinant's place in its block, each block's in the stack of its size
    local, starts = np.empty(n, np.intp), sizes.cumsum() - sizes
    local[np.argsort(block, kind="stable")] = np.arange(n) - np.repeat(starts, sizes)
    slot = np.empty(len(sizes), np.intp)
    lowest, stacks, solved = np.empty(len(sizes)), {}, {}
    for size in sorted(set(sizes.tolist())):
        ids = np.flatnonzero(sizes == size)
        if size <= DENSE_CROSSOVER:
            slot[ids] = np.arange(len(ids))
            at, edge = sizes[block] == size, sizes[block[i]] == size
            H = stacks[size] = np.zeros((len(ids), size, size))
            H[slot[block[at]], local[at], local[at]] = diag[at]
            k, li, lj = slot[block[i[edge]]], local[i[edge]], local[j[edge]]
            H[k, li, lj] = H[k, lj, li] = values[edge]
            lowest[ids] = np.linalg.eigvalsh(H)[:, 0]
            continue
        for b in ids.tolist():
            at, edge = block == b, block[i] == b
            product = _csr_product(diag[at], local[i[edge]], local[j[edge]], values[edge])
            solved[b] = _lanczos(diag[at], product, scale)
            lowest[b] = solved[b][0][0]
    b = int(np.argmin(lowest))
    if b in solved:
        found, vector = solved[b]
    else:
        found, vectors = np.linalg.eigh(stacks[sizes[b]][slot[b]])
        vector = vectors[:, 0]
    # the second value is the block's own second or another block's lowest
    lowest[b] = found[1] if len(found) > 1 else np.inf
    ground = np.zeros(n)
    ground[block == b] = sign_fixed(vector[None])[0]
    return np.array([found[0], lowest.min()]), ground


def ground_states(
    ints: SpinOrbitalIntegrals, space: ConfigurationSpace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ground states of a stack of integrals over ``space``, one per
    point: their energies, their coefficient rows and their degeneracy
    flags.  Integrals that are not a stack are a stack of one.

    Spaces of at most ``DENSE_CROSSOVER`` determinants are solved densely,
    with one ``eigh`` over the stack of Hamiltonians (bit for bit one
    ``eigh`` per matrix); above it each point is solved alone, as
    integrals of its own, one connected block of H at a time by
    :func:`_sparse_eigh`, which finds the two lowest values over all
    blocks and a ground vector exactly zero outside its block.  Each
    eigenvector is normalized and sign-fixed by :func:`sign_fixed`.  A
    state is flagged degenerate when the next eigenvalue lies within
    ``DEGENERACY_GAP`` of it: its vector is then an arbitrary basis choice
    inside the degenerate level, and occupation analyses should be read
    with care.
    """
    n = len(space)
    if n == 0:
        raise ValueError("cannot solve on an empty space")
    if n <= DENSE_CROSSOVER:
        try:
            # one point's H is one matrix, a stack's a stack of them
            values, vectors = np.linalg.eigh(build_hamiltonian(ints, space))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
            raise FermipinError(f"eigensolver failure: {exc}") from exc
        values, vectors = values.reshape(-1, n), vectors[..., 0].reshape(-1, n)
    else:
        m = ints.m
        points = zip(ints.h.reshape(-1, m, m), ints.g.reshape(-1, m, m, m, m),
                     np.ravel(ints.core_energy), strict=True)
        solved = [_sparse_eigh(SpinOrbitalIntegrals(ints.layout, *p), space) for p in points]
        values, vectors = map(np.array, zip(*solved))
    energies = values[:, 0]
    # finite elements near the float limit can still give an energy past it
    if not np.isfinite(energies).all():
        energy = energies[np.argmin(np.isfinite(energies))]
        raise FermipinError(f"ground-state energy {float(energy)!r} is not finite")
    # a one-determinant space has no second level, and is not degenerate
    degenerate = values[:, 1] - energies < DEGENERACY_GAP if n > 1 else np.zeros(len(values), bool)
    return energies, sign_fixed(vectors), degenerate


def solve_ground(ints: SpinOrbitalIntegrals, space: ConfigurationSpace) -> CIVector:
    """The ground state of the Hamiltonian over ``space``: :func:`ground_states`
    of a stack of one."""
    energies, coeffs, degenerate = ground_states(ints, space)
    return CIVector(space, coeffs[0], energy=float(energies[0]), degenerate=bool(degenerate[0]))
