"""One-particle reduced density matrices and natural occupation spectra.

The 1-RDM of a CI vector is ``rho[p-1, q-1] = <Psi| a+_q a_p |Psi>`` — real,
symmetric, trace ``N``, eigenvalues between 0 and 1.  Off the diagonal only
determinant pairs one substitution apart contribute.  The size rule of the
Hamiltonian (``fermipin.ci.DENSE_CROSSOVER``) decides where they come from:
a space at or below it takes the singles among its cached
:attr:`~fermipin.fock.ConfigurationSpace.pairs`, the pairs the Hamiltonian
was built from; a larger one generates every single with
:func:`~fermipin.fock.substitutions`, once, and keeps them as
:attr:`~fermipin.fock.ConfigurationSpace.spin_singles`, so no quadratic
search runs.  In a sector space it generates only the spin-conserving
ones, because a spin flip leaves the sector; a space without a sector
keeps the spin-flip singles.  Both routes give the pairs in the same
order, so both give the same sums.  Its eigenvalues, sorted in descending order, are the natural
occupation numbers that all constraint analysis runs on; its eigenvectors
define the natural orbitals.

When the vector lives in a spin-projection sector, every cross-spin element
of the 1-RDM vanishes identically (a single spin flip leaves the sector),
so the 1-RDM keeps the space's layout, diagonalization proceeds block by
block, and the natural orbitals inherit definite spins: the natural
rotation carries the layout of the new basis.  The merged spectrum is
still sorted globally.

Sorting is deterministic under degeneracy: descending occupation, up before
down, block order last.  Exactly which orbital of a tied group comes first
is physically meaningless — the ``degeneracy_groups`` of the spectrum say
which positions are interchangeable, and constraint evaluation downstream
warns when a result depends on such a choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ci
from .ci import CIVector, OrbitalRotation
from .errors import SpectralRangeError
from .fock import DOWN, UP, SpinOrbitalLayout

TRACE_TOL = 1e-10
RANGE_TOL = 1e-10
DEFAULT_TIE_TOL = 1e-8


@dataclass
class OneRDM:
    """A one-particle reduced density matrix over ``m`` spin orbitals.

    ``layout`` is set only when ``rho`` is spin-blocked in it: no element
    couples an up and a down spin orbital.
    """

    rho: np.ndarray
    layout: SpinOrbitalLayout | None = None

    def __post_init__(self) -> None:
        self.rho = np.asarray(self.rho, dtype=float)
        m = self.rho.shape[0]
        if self.rho.shape != (m, m):
            raise ValueError("density matrix must be square")

    @property
    def m(self) -> int:
        return self.rho.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.rho))


def one_rdm(vector: CIVector) -> OneRDM:
    """The 1-RDM of a normalized CI vector, symmetric by construction."""
    vector.require_normalized(1e-10)
    space = vector.space
    m, c = space.m, vector.coeffs
    occupation = space.occupation
    pairs = space.pairs if len(space) <= ci.DENSE_CROSSOVER else space.spin_singles
    i, j, sign = pairs.singles
    # bincount adds its weights in input order, so every element is the
    # same sum, term for term, as a loop over the determinants and then
    # over the single excitations in pair order
    upper = np.bincount(pairs.rho_index, sign * c[i] * c[j], minlength=m * m).reshape(m, m)
    diagonal = np.bincount(occupation.orbital, (c * c)[occupation.det], minlength=m)
    rho = np.diag(diagonal) + upper + upper.T

    layout = space.layout
    if layout is not None:
        up, down = layout.spin_blocks
        if not (len(up) and len(down) and np.abs(rho[up[:, None], down]).max() <= 1e-12):
            layout = None

    return OneRDM(rho, layout)


@dataclass
class OccupationSpectrum:
    """Natural occupations sorted in descending order.

    ``natural_rotation`` maps the original orbitals to the natural ones
    (``None`` for spectra supplied as bare numbers).  ``degeneracy_groups``
    partitions the 1-based positions into runs whose occupations agree
    within the tie tolerance used at construction.
    """

    n: np.ndarray
    N: int
    natural_rotation: OrbitalRotation | None = None
    degeneracy_groups: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        self.n = np.asarray(self.n, dtype=float)

    @property
    def m(self) -> int:
        return len(self.n)

    @classmethod
    def from_occupations(
        cls,
        values: Sequence[float],
        N: int | None = None,
        tie_tolerance: float = DEFAULT_TIE_TOL,
    ) -> OccupationSpectrum:
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
        return cls(n, N, None, _tie_groups(n, tie_tolerance))


def _clamp_range(n: np.ndarray, tol: float) -> np.ndarray:
    # written so that a NaN, which fails every comparison, is refused too
    if not (n.min() >= -tol and n.max() <= 1.0 + tol):
        raise SpectralRangeError(
            f"occupations outside [0,1]: min {n.min()!r}, max {n.max()!r}"
        )
    return np.clip(n, 0.0, 1.0)


def _tie_groups(n: np.ndarray, tie_tolerance: float) -> tuple[tuple[int, ...], ...]:
    groups: list[list[int]] = [[1]]
    for i in range(1, len(n)):
        if n[i - 1] - n[i] <= tie_tolerance:
            groups[-1].append(i + 1)
        else:
            groups.append([i + 1])
    return tuple(tuple(g) for g in groups)


def natural_spectrum(
    rdm: OneRDM, tie_tolerance: float = DEFAULT_TIE_TOL
) -> OccupationSpectrum:
    """Diagonalize a 1-RDM into occupations and a natural-orbital rotation.

    A 1-RDM with a layout is diagonalized per spin block, so every natural
    orbital has a definite spin and the rotation carries the layout of the
    natural basis, which keeps it sector-safe.  Natural-orbital rows are
    sign-fixed the same way CI vectors are, by :func:`~fermipin.ci.sign_fixed`.
    """
    trace = rdm.trace
    N = int(round(trace))
    if abs(trace - N) > TRACE_TOL:
        raise SpectralRangeError(f"1-RDM trace {trace!r} is not close to an integer")

    if rdm.layout is not None:
        blocks = zip((UP, DOWN), rdm.layout.spin_blocks)
    else:
        blocks = [(None, np.arange(rdm.m))]
    values, rows, spins = [], [], []
    for spin, idx in blocks:
        vals, vecs = np.linalg.eigh(rdm.rho.take(idx, axis=0).take(idx, axis=1))
        block_rows = np.zeros((len(idx), rdm.m))
        block_rows[:, idx] = vecs[:, ::-1].T
        values.append(vals[::-1])
        rows.append(block_rows)
        spins += [spin] * len(idx)
    # descending occupation; ties keep block order, then position in block
    occupations = np.concatenate(values)
    order = np.argsort(-occupations, kind="stable")
    n = occupations[order]
    U = ci.sign_fixed(np.concatenate(rows)[order])
    layout = None if rdm.layout is None else SpinOrbitalLayout(tuple(spins[k] for k in order))
    rotation = OrbitalRotation(U, layout)

    n = _clamp_range(n, tol=RANGE_TOL)
    return OccupationSpectrum(n, N, rotation, _tie_groups(n, tie_tolerance))


def hf_distance(spectrum: OccupationSpectrum) -> float:
    """How far the leading occupations sit from a single determinant:
    ``sqrt(sum_{i<=N} (1-n_i)^2)``, the depletion of the N strongest
    natural orbitals.  Zero exactly for a one-determinant state."""
    holes = 1.0 - spectrum.n[: spectrum.N]
    return float(np.sqrt(np.sum(holes * holes)))
