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

:func:`build_hamiltonian` scatters those entries into a dense matrix.

:func:`solve_ground` finds the ground state only.  It keeps dense
``numpy.linalg.eigh`` for spaces of at most ``DENSE_CROSSOVER``
determinants, where it is the faster route.  Above that it holds H as CSR
arrays built straight from the entries, never a dense matrix, and finds the
two lowest states, so the degeneracy flag has the gap it reads, by block
thick-restart Lanczos written in numpy alone; no scipy is used.  The solve
stops when both residuals ‖Hc - Ec‖ are within ``LANCZOS_TOL`` times the
largest |H_ij|, and it starts from a fixed random block, so a run repeats
to the last bit.  Neither route checks the space size: :mod:`fermipin.fock`
holds the dense budget, ``MAX_DENSE_SPACE``, and no space is built past it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FermipinError, RotationError, WidthError
from .fock import (
    ConfigurationSpace,
    Determinant,
    SpinOrbitalLayout,
    orbital_pairs,
    substitutions,
)
from .integrals import SpinOrbitalIntegrals

# Largest space solved with dense eigh.  With one BLAS thread, eigh of the
# whole matrix and the sparse Lanczos for two states break even between 100
# and 225 determinants (Hubbard sectors); at 400, Lanczos takes 8 ms against
# 25 ms.  It is also the largest space whose pairs come from the quadratic
# search (the Hamiltonian and the 1-RDM): below it, generating them costs
# more in numpy call overhead than searching (Hubbard sectors, entries plus
# 1-RDM: 0.87 against 0.52 ms at 36 determinants, even at 225).
DENSE_CROSSOVER = 200
# Lanczos stops when every wanted residual is within this multiple of the
# largest |H_ij|, and gives up after this many restarts
LANCZOS_TOL = 1e-13
LANCZOS_RESTARTS = 200
DEGENERACY_GAP = 1e-10
ORTHOGONALITY_TOL = 1e-10


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
        require_orthogonal(self.U)
        if self.layout is not None and self.layout.m != m:
            raise RotationError(f"a width-{self.layout.m} layout for a width-{m} rotation")

    @property
    def m(self) -> int:
        return self.U.shape[0]


def require_orthogonal(U: np.ndarray) -> None:
    """Refuse ``U``, a square matrix or a stack of them, unless every
    ``U @ U.T`` is the identity within ``ORTHOGONALITY_TOL``."""
    defect = np.abs(U @ U.swapaxes(-1, -2) - np.eye(U.shape[-1])).max()
    if defect > ORTHOGONALITY_TOL:
        raise RotationError(f"matrix is not orthogonal (defect {defect:.2e})")


def sign_fixed(rows: np.ndarray) -> np.ndarray:
    """``rows`` with every row whose component of largest magnitude (the
    first such, on exact ties) is negative negated, the sign convention of
    eigenvectors: CI vectors and natural orbitals alike."""
    lead = np.abs(rows).argmax(axis=1)
    return np.where((rows[np.arange(len(rows)), lead] < 0)[:, None], -rows, rows)


def _sequential_sum(terms: np.ndarray) -> np.ndarray:
    """Sums of ``terms`` over the last axis, added strictly left to right."""
    return np.cumsum(terms, axis=-1)[..., -1]


def _hamiltonian_entries(
    ints: SpinOrbitalIntegrals, space: ConfigurationSpace
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The diagonal of the Hamiltonian over ``space`` and its entries
    ``(i, j, value)`` with ``i < j`` for every connected pair.

    Each element is summed term by term in the order of the Slater-Condon
    rules over the occupied orbitals, ascending; an empty orbital adds an
    exact zero, so the bit-matrix sums equal the orbital-by-orbital ones.
    Which orbitals each sum runs over comes from the cached ``bits`` and
    ``diagonal_terms`` of the :class:`~fermipin.fock.ConfigurationSpace`
    and, at or below the crossover, its cached ``pairs``, so a call only
    gathers integrals and adds them.
    """
    if ints.m != space.m:
        raise WidthError("integral width does not match the space")
    p, q = orbital_pairs(space.m)
    terms = np.concatenate([[ints.core_energy], np.diag(ints.h), ints.g[p, q, p, q]])
    diag = _sequential_sum(space.diagonal_terms * terms)

    # exchange[p, q, c] = <pc||qc>
    exchange = ints.g.diagonal(axis1=1, axis2=3)
    if len(space) <= DENSE_CROSSOVER:
        pairs = space.pairs
    else:
        # a single's element is h[p,q] + sum_c <pc||qc>, a double's <p1p2||q1q2>
        pairs = substitutions(space, (ints.h != 0) | (exchange != 0).any(axis=2), ints.g != 0)
    (single_i, single_j, _), p, q = pairs.singles, pairs.p, pairs.q
    bits = space.bits
    # <pc||qc> over the orbitals c both determinants occupy
    shared = bits[single_i] & bits[single_j]
    values = np.empty(len(pairs.i))
    values[pairs.single] = _sequential_sum(
        np.concatenate([ints.h[p, q][:, None], shared * exchange[p, q]], axis=1)
    )
    values[pairs.double] = ints.g[pairs.doubles]
    return diag, pairs.i, pairs.j, pairs.sign * values


def build_hamiltonian(ints: SpinOrbitalIntegrals, space: ConfigurationSpace) -> np.ndarray:
    """The dense, exactly symmetric Hamiltonian matrix over ``space``."""
    diag, i, j, values = _hamiltonian_entries(ints, space)
    H = np.diag(diag)
    H[i, j] = H[j, i] = values
    return H


def _orthogonalized(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``w`` less its projection on the orthonormal rows of ``basis``, by two
    classical Gram-Schmidt passes."""
    for _ in range(2):
        w = w - (basis @ w) @ basis
    return w


def _product(
    X: np.ndarray, cols: np.ndarray, vals: np.ndarray, row_starts: np.ndarray
) -> np.ndarray:
    """The CSR matrix times each row of ``X``.  Rows go two at a time, as
    the real and imaginary parts of one complex vector, so that one gather
    and one reduction serve both."""
    HX = np.empty_like(X)
    for r in range(0, len(X) - 1, 2):
        hz = np.add.reduceat((X[r] + 1j * X[r + 1])[cols] * vals, row_starts)
        HX[r], HX[r + 1] = hz.real, hz.imag
    if len(X) % 2:
        HX[-1] = np.add.reduceat(X[-1, cols] * vals, row_starts)
    return HX


def _sparse_eigh(
    ints: SpinOrbitalIntegrals, space: ConfigurationSpace
) -> tuple[np.ndarray, np.ndarray]:
    """The two lowest eigenpairs of the Hamiltonian, by block thick-restart
    Lanczos (Wu and Simon, SIAM J. Matrix Anal. Appl. 22, 602 (2000)) in
    numpy alone.

    H is held as CSR arrays.  The Krylov space grows from a block of two
    random vectors: one start vector reaches a single state of each level,
    so it would show a degenerate ground level as a simple one.  Each new
    vector is orthogonalized against the basis by two classical Gram-Schmidt
    passes, and T = VᵀHV is filled from the products.  A full basis of
    sixteen blocks (32 vectors) is solved by Rayleigh-Ritz; once both
    residuals ‖Hy - θy‖ of the two lowest Ritz pairs are within
    ``LANCZOS_TOL`` times the largest ``|H_ij|`` they are returned, and
    otherwise the 16 lowest Ritz vectors are kept, with T = diag(θ), and the
    expansion goes on from the last residual block.  A vector whose norm
    falls to 1e-12 times the largest ``|H_ij|`` (an invariant subspace) is
    replaced by a random one orthogonal to the basis, as ARPACK's ``dgetv0``
    does.  Start and replacement vectors come from a fixed seed, so a run
    repeats to the last bit.
    """
    diag, i, j, values = _hamiltonian_entries(ints, space)
    keep = values != 0
    i, j, values = i[keep], j[keep], values[keep]
    n = len(space)
    # the diagonal is stored even where it is zero, so no CSR row is empty
    rows = np.concatenate([np.arange(n), i, j])
    order = np.argsort(rows, kind="stable")
    cols = np.concatenate([np.arange(n), j, i])[order]
    vals = np.concatenate([diag, values, values])[order]
    row_starts = np.searchsorted(rows[order], np.arange(n))
    scale = max(np.abs(diag).max(), np.abs(values).max(initial=0.0))
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
                if w @ w <= (1e-12 * scale) ** 2:
                    w = _orthogonalized(rng.standard_normal(n), V[:row])
                V[row] = w / np.sqrt(w @ w)
            HV[filled:top] = _product(V[filled:top], cols, vals, row_starts)
            T[:top, filled:top] = V[:top] @ HV[filled:top].T
            block, filled = HV[filled:top], top
        theta, Y = np.linalg.eigh(T, UPLO="U")
        ritz = Y[:, :2].T @ V
        residual = Y[:, :2].T @ HV - theta[:2, None] * ritz
        if np.linalg.norm(residual, axis=1).max() <= LANCZOS_TOL * scale:
            return theta[:2], ritz.T
        # the residual block goes on orthogonal to all of the basis it leaves
        block = block - (block @ V.T) @ V
        filled = min(16, size - 1)
        V[:filled], HV[:filled] = Y[:, :filled].T @ V, Y[:, :filled].T @ HV
        T[:] = 0.0
        T[:filled, :filled] = np.diag(theta[:filled])
    raise FermipinError(f"sparse eigensolver did not converge in {LANCZOS_RESTARTS} restarts")


def solve_ground(ints: SpinOrbitalIntegrals, space: ConfigurationSpace) -> CIVector:
    """The ground state of the Hamiltonian over ``space``.

    Spaces of at most ``DENSE_CROSSOVER`` determinants are solved densely
    with ``eigh``; larger ones through a CSR matrix with block Lanczos for
    the two lowest states.  The eigenvector is normalized and sign-fixed by
    :func:`sign_fixed`.  The state is flagged ``degenerate`` when the next
    eigenvalue lies within ``DEGENERACY_GAP`` of it: its vector is then an
    arbitrary basis choice inside the degenerate level, and occupation
    analyses should be read with care.
    """
    if len(space) == 0:
        raise ValueError("cannot solve on an empty space")
    if len(space) <= DENSE_CROSSOVER:
        try:
            values, vectors = np.linalg.eigh(build_hamiltonian(ints, space))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
            raise FermipinError(f"eigensolver failure: {exc}") from exc
    else:
        values, vectors = _sparse_eigh(ints, space)
    return CIVector(
        space,
        sign_fixed(vectors[:, :1].T)[0],
        energy=float(values[0]),
        degenerate=bool(len(values) > 1 and values[1] - values[0] < DEGENERACY_GAP),
    )
