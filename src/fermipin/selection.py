"""Super-selection filtering and force-pinned truncated solves.

A constraint ``D = kappa0 + sum_i kappa_i n_i`` lifts to a one-particle
operator ``D = kappa0 + sum_i kappa_i a+_i a_i`` that is diagonal in the
determinant basis: determinant ``K`` is an eigenvector with the integer
eigenvalue ``kappa0 + sum_{i in K} kappa_i``.  A state pinned to the facet
``D = 0`` is annihilated by the operator, so its expansion can only touch
determinants of eigenvalue zero — the super-selection rule.  The
eigenvalue is linear in the occupation bits, so :func:`filter_pinned`
evaluates it for a whole space, and every imposed constraint, as one
product of the space's occupation-bit matrix with the coefficients.
Filtering a configuration space down to the zero-eigenvalue determinants
and re-solving inside them is the *force-pinned* approximation to the
ground state.

Orbital labels here are natural-orbital labels ordered by decreasing
occupation.  :func:`natural_frame` holds the frame rule: it rotates the
integrals to a state's natural orbitals, and refuses a spin-mixing
rotation of a sector state.  :func:`pinned_solve` starts from an already
solved full-space ground state, moves to its natural frame, and keeps that
ordering self-consistent by re-diagonalizing the truncated 1-RDM until the
occupations stop moving.  Every frame, the first included, comes from
:func:`natural_frame`, once per iteration; the frame's filtered space,
which the natural layout alone determines, is built once per layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .ci import CIVector, build_hamiltonian, solve_ground
from .errors import (
    NoSurvivorsError,
    RegimeError,
    RepresentabilityError,
    SectorError,
    WidthError,
)
from .fock import (
    DOWN,
    UP,
    ConfigurationSpace,
    Determinant,
    ExcitationCensus,
    SpinOrbitalLayout,
    census,
    enumerate_space,
    space_size,
)
from .gpc import GPConstraint, classify_regime_36
from .integrals import SpinOrbitalIntegrals
from .rdm import OccupationSpectrum, natural_spectrum, one_rdm


@dataclass(frozen=True)
class PinnedSpace:
    """A configuration space filtered by one or more pinned constraints."""

    base: ConfigurationSpace
    imposed: tuple[GPConstraint, ...]
    survivors: ConfigurationSpace

    def __len__(self) -> int:
        return len(self.survivors)


def filter_pinned(
    space: ConfigurationSpace, constraints: Sequence[GPConstraint]
) -> PinnedSpace:
    """Keep the determinants with eigenvalue zero under every constraint.

    The eigenvalues of every determinant under every constraint come from
    one matrix product of occupation bits and coefficients, exact in floats
    because :class:`~fermipin.gpc.GPConstraint` bounds its coefficients.
    Simultaneous filtering equals sequential filtering in any order, since
    the lifted operators are all diagonal here.  The result may be empty;
    callers that cannot use an empty space raise on it.
    """
    imposed = tuple(constraints)
    for c in imposed:
        if c.m != space.m:
            raise WidthError(f"constraint {c.label} has width {c.m}, space {space.m}")
    coefficients = np.array([(c.kappa0, *c.kappa) for c in imposed], dtype=float)
    coefficients = coefficients.reshape(len(imposed), space.m + 1)
    kappa0, kappa = coefficients[:, 0], coefficients[:, 1:]
    eigenvalues = kappa0 + space.bits @ kappa.T
    survivors = space.restrict(np.all(eigenvalues == 0, axis=1))
    return PinnedSpace(space, imposed, survivors)


def ls_reconstruct_36(spectrum: OccupationSpectrum, regime: str) -> CIVector:
    """Rebuild a rank-six wave function from its occupations alone.

    In either spin-compensated regime the state is fixed (up to orbital
    phases) by three determinants in the natural basis, with amplitudes
    that are square roots of occupations:

        weak    sqrt(n3)|123> + sqrt(n5)|145> + sqrt(n6)|246>
        strong  sqrt(n4)|124> + sqrt(n5)|135> + sqrt(n6)|236>

    in close analogy to the Lowdin-Shull two-electron functional.
    """
    if regime not in ("weak", "strong"):
        raise ValueError(f"regime must be 'weak' or 'strong', not {regime!r}")
    if spectrum.m != 6 or spectrum.N != 3:
        raise ValueError("reconstruction applies to (N, m) = (3, 6) only")
    n = spectrum.n
    pairs = n + n[::-1]
    if np.abs(pairs - 1.0).max() > 1e-8:
        raise RepresentabilityError(
            "occupations do not satisfy the rank-six pair sums n_r + n_{7-r} = 1"
        )
    found = classify_regime_36(spectrum, tol=1e-8)
    if found not in (regime, "border"):
        raise RegimeError(f"spectrum is in the {found} regime, not the {regime} one")

    if regime == "weak":
        amplitudes = {(1, 2, 3): n[2], (1, 4, 5): n[4], (2, 4, 6): n[5]}
    else:
        amplitudes = {(1, 2, 4): n[3], (1, 3, 5): n[4], (2, 3, 6): n[5]}

    space = enumerate_space(3, 6)
    coeffs = np.zeros(len(space))
    for orbitals, weight in amplitudes.items():
        coeffs[space.index_of(Determinant.from_orbitals(orbitals, 6))] = np.sqrt(
            max(weight, 0.0)
        )
    coeffs /= np.linalg.norm(coeffs)
    return CIVector(space, coeffs)


@dataclass(frozen=True)
class SectorPreset:
    """A named (layout, sector) combination for census studies."""

    name: str
    N: int
    layout: SpinOrbitalLayout
    sector: int

    def space(self) -> ConfigurationSpace:
        return enumerate_space(self.N, self.layout.m, self.layout, self.sector)


SECTOR_PRESETS: dict[str, SectorPreset] = {
    preset.name: preset
    for preset in (
        SectorPreset("4in8-restricted", 4,
                     SpinOrbitalLayout((UP, UP, UP, DOWN, UP, DOWN, DOWN, DOWN)), 2),
        SectorPreset("4in8-unrestricted", 4,
                     SpinOrbitalLayout((UP, UP, UP, DOWN, UP, UP, DOWN, DOWN)), 2),
    )
}


@dataclass
class PinnedSolveResult:
    """Outcome of a force-pinned truncated solve next to the full one."""

    full_energy: float
    reference_energy: float
    pinned_energy: float
    recovered_fraction: float
    census_full: ExcitationCensus
    census_pinned: ExcitationCensus
    occupations: np.ndarray
    iterations: int
    converged: bool
    survivors: PinnedSpace
    history: tuple[tuple[float, int], ...]  # (max |dn|, survivor count) per iteration


def natural_frame(
    ints: SpinOrbitalIntegrals, space: ConfigurationSpace, spectrum: OccupationSpectrum
) -> SpinOrbitalIntegrals:
    """``ints`` rotated to the natural orbitals of ``spectrum``, with the frame's
    layout.  ``space`` is the full space the spectrum's state lies in; a
    spin-mixing rotation of a sector state raises :class:`SectorError`."""
    rotation = spectrum.natural_rotation
    if space.sector is not None and rotation.layout is None:
        raise SectorError("sector-restricted space produced a spin-mixing natural rotation")
    return ints.rotated(rotation.U, rotation.layout)


def _frame_space(space, layout):
    """The complete ``space`` in a natural frame with ``layout``: its masks,
    all of (N, m), kept when it has no sector, its sector enumerated again
    in the new spins otherwise."""
    if space.sector is None:
        return ConfigurationSpace(space.N, space.m, space.masks, layout, None)
    return enumerate_space(space.N, space.m, layout, space.sector)


@cache
def _reference_space(N: int, m: int) -> ConfigurationSpace:
    """The one-determinant space of |1..N> among ``m`` orbitals, kept per
    (N, m): its bits, diagonal terms and gathers are worked out at its
    first Hamiltonian build, and every later reference energy reads them."""
    return ConfigurationSpace(N, m, (Determinant.from_orbitals(range(1, N + 1), m).mask,))


def pinned_solve(
    ints: SpinOrbitalIntegrals,
    full_state: CIVector,
    constraints: Iterable[GPConstraint]
    | Callable[[OccupationSpectrum], Iterable[GPConstraint]],
    max_iterations: int = 100,
    occupation_tol: float = 1e-10,
) -> PinnedSolveResult:
    """Re-solve the ground state ``full_state`` inside the pinned determinant set.

    ``full_state`` is the ground state of ``ints`` over its own space, as
    :func:`~fermipin.ci.solve_ground` returns it; it is not solved again.
    That space must be complete, every determinant of its S_z sector or,
    without a sector, of its (N, m): a rotation to natural orbitals maps
    only such a space onto itself, so a frame of any other would solve in
    a different subspace.  An incomplete one raises ``ValueError``.
    ``constraints`` are the constraints to impose, or a function that picks
    them from the natural spectrum of ``full_state``, so that a caller
    choosing by the occupations does not diagonalize the same 1-RDM twice;
    either may give an iterator, which is read once.
    The natural-orbital labels the constraints refer to are kept
    self-consistent: the basis starts at the natural orbitals of
    ``full_state``, and after each truncated solve it is rotated to the
    new natural orbitals and the cycle repeats until no occupation moves
    by more than ``occupation_tol`` (or ``max_iterations`` is hit, which is
    reported rather than raised).  Each iteration's frame comes from
    :func:`natural_frame`, but a frame's space is filtered only the first
    time its natural layout appears: the loop often revisits a few frames,
    and a revisited one reuses its survivor space with the pairs cached on it.
    ``history`` records each iteration's largest occupation change and
    survivor count.

    The recovered correlation fraction compares against the energy of the
    reference determinant |1..N> in the natural basis of the *full*
    solution — a mean-field yardstick that needs no self-consistent-field
    machinery.
    """
    space = full_state.space
    if full_state.energy is None:
        raise ValueError("full_state must be a solved ground state (its energy is None)")
    if ints.m != space.m:
        raise WidthError("integral width does not match the space")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    # a natural frame spans the same subspace only for a whole space or sector
    complete = space_size(space.N, space.m, space.layout, space.sector)
    if len(space) != complete:
        raise ValueError(
            f"full_state.space holds {len(space)} of the {complete} determinants of its "
            f"{'sector' if space.sector is not None else 'space'}; pinned_solve needs all of them"
        )

    spectrum = natural_spectrum(one_rdm(full_state))
    # read once, so that an iterator filters every frame and not just the first
    constraints = tuple(constraints(spectrum) if callable(constraints) else constraints)
    if not constraints:
        raise ValueError("at least one constraint is required")
    nat_ints = natural_frame(ints, space, spectrum)

    ref_space = _reference_space(space.N, space.m)
    reference = ref_space[0]
    reference_energy = float(build_hamiltonian(nat_ints, ref_space)[0, 0])

    # N, m and the sector stay fixed, so a frame's layout alone fixes its
    # filtered space; a recurring frame reuses it with its cached pairs
    frames, history = {}, []
    while True:
        layout = nat_ints.layout
        if layout not in frames:
            frames[layout] = filter_pinned(_frame_space(space, layout), constraints)
        pinned_space = frames[layout]
        if len(pinned_space) == 0:
            raise NoSurvivorsError(
                "imposed constraints leave no determinants to expand in"
            )
        truncated = solve_ground(nat_ints, pinned_space.survivors)
        previous, spectrum = spectrum, natural_spectrum(one_rdm(truncated))
        drift = float(np.abs(spectrum.n - previous.n).max())
        history.append((drift, len(pinned_space)))
        converged = drift < occupation_tol
        if converged or len(history) == max_iterations:
            break
        nat_ints = natural_frame(nat_ints, space, spectrum)

    census_full = census(next(iter(frames.values())).base, reference)  # the first frame
    census_pinned = census(pinned_space.survivors, reference)
    full_correlation = reference_energy - full_state.energy
    pinned_correlation = reference_energy - truncated.energy
    if abs(full_correlation) < 1e-12:
        recovered = 1.0
    else:
        recovered = pinned_correlation / full_correlation

    return PinnedSolveResult(
        full_energy=full_state.energy,
        reference_energy=reference_energy,
        pinned_energy=truncated.energy,
        recovered_fraction=float(recovered),
        census_full=census_full,
        census_pinned=census_pinned,
        occupations=spectrum.n,
        iterations=len(history),
        converged=converged,
        survivors=pinned_space,
        history=tuple(history),
    )
