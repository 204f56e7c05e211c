"""One-particle reduced density matrices and natural occupation spectra.

The 1-RDM of a CI vector is ``rho[p-1, q-1] = <Psi| a+_q a_p |Psi>`` — real,
symmetric, trace ``N``, eigenvalues between 0 and 1.  Off the diagonal only
determinant pairs one substitution apart contribute: the single
substitutions among the space's cached
:attr:`~fermipin.fock.ConfigurationSpace.pairs`, the pairs the Hamiltonian
was built from, in their order.  Its eigenvalues, sorted in descending
order, are the natural occupation numbers that all constraint analysis
runs on; its eigenvectors define the natural orbitals.

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

from .ci import CIVector, OrbitalRotation
from .errors import SpectralRangeError
from .fock import DOWN, UP, SpinOrbitalLayout, bit_index, occupation_bits

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
    # bincount adds its weights in input order, so every element is the
    # same sum, term for term, as a loop over the determinants and then
    # over the single excitations in pair order
    dets, orbitals = np.nonzero(occupation_bits(space.masks, m))
    pairs = space.pairs
    single = np.bitwise_count(pairs.bra_only) == 1
    p, q = bit_index(pairs.bra_only[single]), bit_index(pairs.ket_only[single])
    upper = np.bincount(
        np.minimum(p, q) * m + np.maximum(p, q),
        pairs.sign[single] * c[pairs.i[single]] * c[pairs.j[single]],
        minlength=m * m,
    ).reshape(m, m)
    rho = np.diag(np.bincount(orbitals, (c * c)[dets], minlength=m)) + upper + upper.T

    layout = space.layout
    if layout is not None:
        up = [i - 1 for i in layout.indices_with_spin(UP)]
        down = [i - 1 for i in layout.indices_with_spin(DOWN)]
        if not (up and down and np.abs(rho[np.ix_(up, down)]).max() <= 1e-12):
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
    if n.min() < -tol or n.max() > 1.0 + tol:
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
    sign-fixed the same way CI vectors are (largest component positive).
    """
    trace = rdm.trace
    N = int(round(trace))
    if abs(trace - N) > TRACE_TOL:
        raise SpectralRangeError(f"1-RDM trace {trace!r} is not close to an integer")

    if rdm.layout is not None:
        blocks = [(spin, rdm.layout.indices_with_spin(spin)) for spin in (UP, DOWN)]
    else:
        blocks = [(None, range(1, rdm.m + 1))]
    values, rows, spins = [], [], []
    for spin, orbitals in blocks:
        idx = np.array(orbitals, dtype=int) - 1
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
    U = np.concatenate(rows)[order]
    lead = np.abs(U).argmax(axis=1)
    U = np.where((U[np.arange(rdm.m), lead] < 0)[:, None], -U, U)
    layout = None if rdm.layout is None else SpinOrbitalLayout(tuple(spins[k] for k in order))
    rotation = OrbitalRotation(U, layout)

    n = _clamp_range(n, tol=RANGE_TOL)
    return OccupationSpectrum(n, N, rotation, _tie_groups(n, tie_tolerance))


def smith_check(spectrum: OccupationSpectrum, tol: float = 1e-8) -> tuple[bool, float]:
    """Whether the sorted occupations come in degenerate pairs.

    Time-reversal-symmetric singlet states of even particle number have
    doubly degenerate natural occupations; the returned deviation is the
    largest in-pair mismatch ``|n(2k-1) - n(2k)|``.
    """
    if spectrum.m % 2:
        raise ValueError("pair degeneracy needs an even number of orbitals")
    pairs = spectrum.n.reshape(-1, 2)
    deviation = float(np.abs(pairs[:, 0] - pairs[:, 1]).max())
    return deviation <= tol, deviation


def hf_distance(spectrum: OccupationSpectrum) -> float:
    """How far the leading occupations sit from a single determinant:
    ``sqrt(sum_{i<=N} (1-n_i)^2)``, the depletion of the N strongest
    natural orbitals.  Zero exactly for a one-determinant state."""
    holes = 1.0 - spectrum.n[: spectrum.N]
    return float(np.sqrt(np.sum(holes * holes)))
