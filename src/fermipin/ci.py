"""Configuration-interaction vectors, orbital rotations, Hamiltonians, and solves.

Hamiltonian elements over a :class:`~fermipin.fock.ConfigurationSpace` follow
the Slater-Condon rules with antisymmetrized spin-orbital integrals.  The
connected determinant pairs and their phases are the space's own cached
:attr:`~fermipin.fock.ConfigurationSpace.pairs`; one routine turns them,
all at once, into the diagonal and the ``(i, j, value)`` entries of the
singles and doubles.
:func:`build_hamiltonian` scatters those entries into a dense matrix.

:func:`solve_ground` keeps dense ``numpy.linalg.eigh`` for spaces of at most
``DENSE_CROSSOVER`` determinants, where it is the faster route.  Above that
it builds a CSR matrix straight from the entries, never a dense one, and
runs ``scipy.sparse.linalg.eigsh`` from a fixed start vector for one state
more than requested, so the degeneracy flag keeps its meaning.  scipy is
imported only on that path.  ``MAX_DENSE_SPACE`` caps both routes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (
    FermipinError,
    NormalizationError,
    RotationError,
    SpaceTooLargeError,
    WidthError,
)
from .fock import (
    ConfigurationSpace,
    Determinant,
    SpinOrbitalLayout,
    bit_index,
    lowest_bit,
    occupation_bits,
)
from .integrals import SpinOrbitalIntegrals

MAX_DENSE_SPACE = 20000
# Largest space solved with dense eigh.  With one BLAS thread, eigh of the
# whole matrix and eigsh for two states break even between 100 and 225
# determinants (Hubbard sectors); at 400, eigsh takes 10 ms against 23 ms.
DENSE_CROSSOVER = 200
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

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def require_normalized(self, tol: float = 1e-12) -> None:
        if abs(self.norm - 1.0) > tol:
            raise NormalizationError(f"vector norm {self.norm!r} is not 1")

    def leading(self, k: int = 5) -> list[tuple[Determinant, float]]:
        """The ``k`` determinants with the largest weights, heaviest first."""
        order = np.argsort(-np.abs(self.coeffs), kind="stable")[:k]
        return [(self.space[i], float(self.coeffs[i])) for i in order]

    def to_json(self) -> str:
        payload = {
            "energy": self.energy,
            "determinants": [list(d.orbitals()) for d in self.space],
            "coefficients": [float(c) for c in self.coeffs],
        }
        return json.dumps(payload)


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
        defect = np.abs(self.U @ self.U.T - np.eye(m)).max()
        if defect > ORTHOGONALITY_TOL:
            raise RotationError(f"matrix is not orthogonal (defect {defect:.2e})")
        if self.layout is not None and self.layout.m != m:
            raise RotationError(f"a width-{self.layout.m} layout for a width-{m} rotation")

    @property
    def m(self) -> int:
        return self.U.shape[0]


@cache
def _orbital_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Both index arrays of the orbital pairs ``p < q`` (0-based), read-only
    because every caller shares them."""
    pairs = np.triu_indices(m, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _sequential_sum(terms: np.ndarray) -> np.ndarray:
    """Row sums of ``terms``, added strictly left to right."""
    return np.cumsum(terms, axis=1)[:, -1]


def _hamiltonian_entries(
    ints: SpinOrbitalIntegrals, space: ConfigurationSpace
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The diagonal of the Hamiltonian over ``space`` and its entries
    ``(i, j, value)`` with ``i < j`` for every connected pair.

    Each element is summed term by term in the order of the Slater-Condon
    rules over the occupied orbitals, ascending; an empty orbital adds an
    exact zero, so the bit-matrix sums equal the orbital-by-orbital ones.
    """
    if ints.m != space.m:
        raise WidthError("integral width does not match the space")
    m, masks = space.m, space.masks
    occ = occupation_bits(masks, m)
    p, q = _orbital_pairs(m)
    diag = _sequential_sum(
        np.concatenate(
            [
                np.full((len(space), 1), ints.core_energy),
                occ * np.diag(ints.h),
                (occ[:, p] & occ[:, q]) * ints.g[p, q, p, q],
            ],
            axis=1,
        )
    )

    pairs = space.pairs
    values = np.empty(len(pairs.i))
    single = np.bitwise_count(pairs.bra_only) == 1
    p, q = bit_index(pairs.bra_only[single]), bit_index(pairs.ket_only[single])
    shared = occupation_bits(masks[pairs.i[single]] & masks[pairs.j[single]], m)
    # <pc||qc> over the orbitals c both determinants occupy
    exchange = ints.g.diagonal(axis1=1, axis2=3)[p, q]
    values[single] = _sequential_sum(
        np.concatenate([ints.h[p, q][:, None], shared * exchange], axis=1)
    )
    bra_only, ket_only = pairs.bra_only[~single], pairs.ket_only[~single]
    p_low, q_low = lowest_bit(bra_only), lowest_bit(ket_only)
    values[~single] = ints.g[
        bit_index(p_low), bit_index(bra_only ^ p_low),
        bit_index(q_low), bit_index(ket_only ^ q_low),
    ]
    return diag, pairs.i, pairs.j, pairs.sign * values


def build_hamiltonian(ints: SpinOrbitalIntegrals, space: ConfigurationSpace) -> np.ndarray:
    """The dense, exactly symmetric Hamiltonian matrix over ``space``."""
    diag, i, j, values = _hamiltonian_entries(ints, space)
    H = np.diag(diag)
    H[i, j] = H[j, i] = values
    return H


def _sparse_eigh(
    ints: SpinOrbitalIntegrals, space: ConfigurationSpace, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` lowest eigenpairs of a CSR Hamiltonian, by Lanczos."""
    from scipy.sparse import csr_array
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    diag, i, j, values = _hamiltonian_entries(ints, space)
    keep = values != 0
    i, j, values = i[keep], j[keep], values[keep]
    n = len(space)
    rows = np.concatenate([np.arange(n), i, j])
    cols = np.concatenate([np.arange(n), j, i])
    H = csr_array((np.concatenate([diag, values, values]), (rows, cols)), shape=(n, n))
    # a fixed start vector keeps repeated runs identical; a constant one can
    # be orthogonal to the ground state by symmetry
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        energies, vectors = eigsh(H, k=count, which="SA", tol=0, v0=v0)
    except ArpackNoConvergence as exc:
        raise FermipinError(f"sparse eigensolver did not converge: {exc}") from exc
    order = np.argsort(energies)
    return energies[order], vectors[:, order]


def solve_ground(
    ints: SpinOrbitalIntegrals, space: ConfigurationSpace, k: int = 1
) -> list[CIVector]:
    """The ``k`` lowest eigenstates of the Hamiltonian over ``space``.

    Spaces of at most ``DENSE_CROSSOVER`` determinants, or whose ``k + 1``
    lowest states are all of them, are solved densely with ``eigh``; larger
    ones through a CSR matrix with ``eigsh`` for the ``k + 1`` lowest states.
    Eigenvectors are normalized and sign-fixed so the coefficient of
    largest magnitude (first such, on exact ties) is positive.  A state
    whose eigenvalue sits within 1e-10 of a neighbouring one is flagged
    ``degenerate``: its vector is then an arbitrary basis choice inside
    the degenerate cluster and occupation analyses should be read with
    care.
    """
    if len(space) == 0:
        raise ValueError("cannot solve on an empty space")
    if len(space) > MAX_DENSE_SPACE:
        raise SpaceTooLargeError(
            f"{len(space)} determinants exceed the dense budget of {MAX_DENSE_SPACE}"
        )
    if not 1 <= k <= len(space):
        raise ValueError(f"k={k} outside 1..{len(space)}")

    if len(space) <= DENSE_CROSSOVER or k + 1 >= len(space):
        try:
            values, vectors = np.linalg.eigh(build_hamiltonian(ints, space))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
            raise FermipinError(f"eigensolver failure: {exc}") from exc
    else:
        values, vectors = _sparse_eigh(ints, space, k + 1)

    states = []
    for j in range(k):
        coeffs = vectors[:, j].copy()
        lead = int(np.argmax(np.abs(coeffs)))
        if coeffs[lead] < 0:
            coeffs = -coeffs
        gap_below = values[j] - values[j - 1] if j > 0 else np.inf
        gap_above = values[j + 1] - values[j] if j + 1 < len(values) else np.inf
        states.append(
            CIVector(
                space,
                coeffs,
                energy=float(values[j]),
                degenerate=bool(min(gap_below, gap_above) < DEGENERACY_GAP),
            )
        )
    return states
