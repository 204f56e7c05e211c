"""Configuration-interaction vectors, orbital rotations, Hamiltonians, and solves.

Hamiltonians are assembled dense over a :class:`~fermipin.fock.ConfigurationSpace`
using the Slater-Condon rules with antisymmetrized spin-orbital integrals.
The connected determinant pairs and their phases come from
:func:`fermipin.fock.excitations`; this module only turns each substitution
into its integral sum.

The solver is plain ``numpy.linalg.eigh`` on the full matrix — no iterative
or sparse machinery — which caps usable spaces at a few thousand
determinants and makes every eigenvalue available for degeneracy checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    FermipinError,
    NormalizationError,
    RotationError,
    SpaceTooLargeError,
    WidthError,
)
from .fock import ConfigurationSpace, Determinant, Spin, SpinOrbitalLayout, excitations
from .integrals import SpinOrbitalIntegrals

MAX_DENSE_SPACE = 20000
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
    ones.  ``spin_blocked`` promises that every new orbital has a definite
    spin, recorded per row in ``row_spins``; only such rotations may be
    applied to sector-restricted CI vectors.
    """

    U: np.ndarray
    spin_blocked: bool = False
    row_spins: tuple[Spin, ...] | None = None

    def __post_init__(self) -> None:
        self.U = np.asarray(self.U, dtype=float)
        m = self.U.shape[0]
        if self.U.shape != (m, m):
            raise RotationError("rotation matrix must be square")
        defect = np.abs(self.U @ self.U.T - np.eye(m)).max()
        if defect > ORTHOGONALITY_TOL:
            raise RotationError(f"matrix is not orthogonal (defect {defect:.2e})")
        if self.spin_blocked and (
            self.row_spins is None or len(self.row_spins) != m
        ):
            raise RotationError("spin-blocked rotation needs one row spin per orbital")

    @property
    def m(self) -> int:
        return self.U.shape[0]

    def rotated_layout(self) -> SpinOrbitalLayout:
        """Layout of the new basis: spatial labels count up within each spin."""
        if not self.spin_blocked:
            raise RotationError("only spin-blocked rotations define a layout")
        return SpinOrbitalLayout.from_spins(self.row_spins)


def _diagonal_element(ints, orbitals: tuple[int, ...]) -> float:
    value = ints.core_energy
    for p in orbitals:
        value += ints.h[p - 1, p - 1]
    for a, p in enumerate(orbitals):
        for q in orbitals[a + 1 :]:
            value += ints.g[p - 1, q - 1, p - 1, q - 1]
    return value


def build_hamiltonian(ints: SpinOrbitalIntegrals, space: ConfigurationSpace) -> np.ndarray:
    """The dense, exactly symmetric Hamiltonian matrix over ``space``."""
    if ints.m != space.m:
        raise WidthError("integral width does not match the space")
    orbs = [det.orbitals() for det in space]
    H = np.zeros((len(space), len(space)))
    for i, orbitals in enumerate(orbs):
        H[i, i] = _diagonal_element(ints, orbitals)
    for i, j, ps, qs, sign in excitations(space, 2):
        if len(ps) == 1:
            p, q = ps[0], qs[0]
            value = ints.h[p - 1, q - 1]
            for c in orbs[j]:  # the shared orbitals: all of K_j's but q
                if c != q:
                    value += ints.g[p - 1, c - 1, q - 1, c - 1]
        else:
            value = ints.g[ps[0] - 1, ps[1] - 1, qs[0] - 1, qs[1] - 1]
        H[i, j] = H[j, i] = sign * value
    return H


def solve_ground(
    ints: SpinOrbitalIntegrals, space: ConfigurationSpace, k: int = 1
) -> list[CIVector]:
    """The ``k`` lowest eigenstates of the Hamiltonian over ``space``.

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

    H = build_hamiltonian(ints, space)
    try:
        values, vectors = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise FermipinError(f"eigensolver failure: {exc}") from exc

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
