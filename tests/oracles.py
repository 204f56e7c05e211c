"""Independent reference implementations used only by the test suite.

Everything here is deliberately written the slow, obvious way — elementary
creation/annihilation operators applied to bitmasks — so the package's
Slater-Condon shortcuts, density-matrix contractions, and spin expansions
can be checked against code that shares none of their logic.

Convention: bit ``i - 1`` of a mask means spin orbital ``i`` is occupied,
and an operator acting on orbital ``p`` picks up the phase
``(-1) ** (number of occupied orbitals below p)``.

``constraint_eigenvalue`` is the scalar, one-determinant form of the
lifted constraint operator that ``selection.filter_pinned`` evaluates for
a whole space at once.

``rotate_ci`` re-expresses a CI vector in a rotated orbital basis through
determinant overlaps; the package itself never needs it, and its memory
grows as (space size)**2 * N**2, so it lives here as a reference only.
"""

from __future__ import annotations

import numpy as np

from fermipin.ci import ORTHOGONALITY_TOL, CIVector, OrbitalRotation
from fermipin.errors import RotationError, SectorError, WidthError
from fermipin.fock import ConfigurationSpace, enumerate_space


def annihilate(mask: int, p: int) -> tuple[int, int] | None:
    """Apply a_p to a bitmask ket; None if orbital p is empty."""
    bit = 1 << (p - 1)
    if not mask & bit:
        return None
    phase = -1 if (mask & (bit - 1)).bit_count() % 2 else 1
    return mask ^ bit, phase


def create(mask: int, p: int) -> tuple[int, int] | None:
    """Apply a+_p to a bitmask ket; None if orbital p is filled."""
    bit = 1 << (p - 1)
    if mask & bit:
        return None
    phase = -1 if (mask & (bit - 1)).bit_count() % 2 else 1
    return mask | bit, phase


def constraint_eigenvalue(constraint, det) -> int:
    """The integer eigenvalue ``kappa0 + sum_{i in K} kappa_i`` of the lifted
    constraint on the determinant ``K``."""
    if constraint.m != det.m:
        raise WidthError("constraint and determinant have different widths")
    return constraint.kappa0 + sum(constraint.kappa[i - 1] for i in det.orbitals())


def brute_force_hamiltonian(ints, space) -> np.ndarray:
    """<K| H |L> for every determinant pair, via operator application.

    H = core + sum_pq h[p,q] a+_p a_q
             + (1/4) sum_pqrs <pq||rs> a+_p a+_q a_s a_r
    """
    m = space.m
    index = {det.mask: i for i, det in enumerate(space)}
    H = np.zeros((len(space), len(space)))

    for col, ket in enumerate(space):
        amplitudes: dict[int, float] = {ket.mask: ints.core_energy}
        occupied = ket.orbitals()

        for q in occupied:
            k1, ph1 = annihilate(ket.mask, q)
            for p in range(1, m + 1):
                step = create(k1, p)
                if step is None:
                    continue
                k2, ph2 = step
                amplitudes[k2] = amplitudes.get(k2, 0.0) + ph1 * ph2 * ints.h[p - 1, q - 1]

        for r in occupied:
            k1, ph1 = annihilate(ket.mask, r)
            for s in occupied:
                if s == r:
                    continue
                k2, ph2 = annihilate(k1, s)
                for q in range(1, m + 1):
                    stepq = create(k2, q)
                    if stepq is None:
                        continue
                    k3, ph3 = stepq
                    for p in range(1, m + 1):
                        stepp = create(k3, p)
                        if stepp is None:
                            continue
                        k4, ph4 = stepp
                        value = 0.25 * ints.g[p - 1, q - 1, r - 1, s - 1]
                        if value:
                            amplitudes[k4] = (
                                amplitudes.get(k4, 0.0) + ph1 * ph2 * ph3 * ph4 * value
                            )

        for mask, amp in amplitudes.items():
            row = index.get(mask)
            if row is not None:
                H[row, col] = amp
    return H


def brute_force_one_rdm(space, coeffs: np.ndarray) -> np.ndarray:
    """rho[p,q] = <Psi| a+_q a_p |Psi> via operator application."""
    m = space.m
    index = {det.mask: i for i, det in enumerate(space)}
    rho = np.zeros((m, m))
    for col, ket in enumerate(space):
        if coeffs[col] == 0.0:
            continue
        for p in ket.orbitals():
            k1, ph1 = annihilate(ket.mask, p)
            for q in range(1, m + 1):
                step = create(k1, q)
                if step is None:
                    continue
                k2, ph2 = step
                row = index.get(k2)
                if row is not None:
                    rho[p - 1, q - 1] += coeffs[row] * coeffs[col] * ph1 * ph2
    return rho


def spin_expansion_by_loops(spatial) -> tuple[np.ndarray, np.ndarray]:
    """Interleaved spin-orbital h and antisymmetrized g, by explicit loops."""
    n = spatial.n_spatial
    m = 2 * n
    spat = [(p // 2) for p in range(m)]   # 0-based spatial index
    spin = [(p % 2) for p in range(m)]    # 0 = up, 1 = down

    h = np.zeros((m, m))
    for p in range(m):
        for q in range(m):
            if spin[p] == spin[q]:
                h[p, q] = spatial.h[spat[p], spat[q]]

    g = np.zeros((m, m, m, m))
    for p in range(m):
        for q in range(m):
            for r in range(m):
                for s in range(m):
                    coulomb = exchange = 0.0
                    if spin[p] == spin[r] and spin[q] == spin[s]:
                        coulomb = spatial.g[spat[p], spat[r], spat[q], spat[s]]
                    if spin[p] == spin[s] and spin[q] == spin[r]:
                        exchange = spatial.g[spat[p], spat[s], spat[q], spat[r]]
                    g[p, q, r, s] = coulomb - exchange
    return h, g


def filled_band_energy(h_spatial: np.ndarray, N: int) -> float:
    """Ground energy of N non-interacting electrons: fill the lowest spin
    orbitals, each spatial level holding two."""
    levels = np.linalg.eigvalsh(h_spatial)
    spin_levels = np.sort(np.repeat(levels, 2))
    return float(np.sum(spin_levels[:N]))


def pairing_pair_block(levels: int, spacing: float, G: float) -> np.ndarray:
    """Seniority-zero block of the pairing model for one time-reversed pair:
    diagonal 2*e_k - G with e_k = k*spacing (k 1-based), off-diagonal -G."""
    M = np.full((levels, levels), -G)
    for k in range(levels):
        M[k, k] = 2.0 * (k + 1) * spacing - G
    return M


def random_coefficients(size: int, rng: np.random.Generator) -> np.ndarray:
    """A random normalized coefficient vector."""
    c = rng.standard_normal(size)
    return c / np.linalg.norm(c)


def rotate_ci(vector: CIVector, rotation: OrbitalRotation) -> CIVector:
    """Re-express ``vector`` in the rotated orbital basis.

    The coefficient of a target determinant ``K`` is
    ``sum_L det(U[K, L]) c_L`` — the determinant of the rotation submatrix
    with rows picked by ``K`` and columns by ``L``.  Sector-restricted
    vectors only admit spin-blocked rotations, which keep the sector intact;
    anything else would scatter amplitude onto determinants outside the
    space.
    """
    space = vector.space
    if rotation.m != space.m:
        raise WidthError("rotation width does not match the space")

    new_layout = rotation.layout
    if new_layout is not None:
        if space.layout is not None:
            for p in range(space.m):
                for q in range(space.m):
                    if new_layout.spin_of[p] != space.layout.spin_of[q] and (
                        abs(rotation.U[p, q]) > ORTHOGONALITY_TOL
                    ):
                        raise RotationError(
                            "rotation mixes spins despite the layout it carries"
                        )
    elif space.sector is not None:
        raise SectorError("sector-restricted vectors need a spin-blocked rotation")

    if space.sector is not None:
        out_space = enumerate_space(space.N, space.m, new_layout, space.sector)
    else:
        out_space = ConfigurationSpace(space.N, space.m, space.masks, new_layout, None)

    rows = [np.array(det.orbitals()) - 1 for det in out_space]
    cols = [np.array(det.orbitals()) - 1 for det in space]
    blocks = np.empty((len(out_space), len(space), space.N, space.N))
    for a, r in enumerate(rows):
        sub = rotation.U[r, :]
        for b, c in enumerate(cols):
            blocks[a, b] = sub[:, c]
    overlap = np.linalg.det(blocks)
    new_coeffs = overlap @ vector.coeffs

    before, norm = float(np.linalg.norm(vector.coeffs)), float(np.linalg.norm(new_coeffs))
    if abs(norm - before) > 1e-8:
        raise RotationError(
            f"rotation leaks amplitude out of the space (norm {before!r} -> {norm!r})"
        )
    if norm > 0.0:
        new_coeffs *= before / norm

    return CIVector(out_space, new_coeffs, energy=vector.energy,
                    degenerate=vector.degenerate)
