"""Tests for super-selection filtering and force-pinned solves."""

from itertools import product
from math import comb

import numpy as np
import pytest

from fermipin.ci import CIVector, OrbitalRotation, build_hamiltonian, solve_ground
from fermipin.errors import (
    NoSurvivorsError,
    RegimeError,
    RepresentabilityError,
    SectorError,
    WidthError,
)
from fermipin.fock import (
    ConfigurationSpace,
    Determinant,
    census,
    enumerate_space,
    interleaved_layout,
)
from fermipin.gpc import GPConstraint, catalog, classify_regime_36
from fermipin.integrals import hubbard_chain, pairing_model, to_spin_orbitals
from fermipin.rdm import OccupationSpectrum, natural_spectrum, one_rdm
from fermipin.selection import (
    SECTOR_PRESETS,
    filter_pinned,
    ls_reconstruct_36,
    natural_frame,
    pinned_solve,
)

from .oracles import constraint_eigenvalue, random_coefficients, rotate_ci
from .test_integrals import random_spatial


def _dets(space_or_pinned) -> list[str]:
    dets = getattr(space_or_pinned, "survivors", space_or_pinned)
    return [str(d) for d in dets]


def test_constraint_eigenvalue_is_an_exact_integer() -> None:
    d1 = catalog(3, 6).find(1)  # 2 - n1 - n2 - n4
    cases = {
        (1, 2, 3): 0,
        (1, 2, 4): -1,
        (1, 3, 5): 1,
        (3, 5, 6): 2,
        (4, 5, 6): 1,
    }
    for orbitals, expected in cases.items():
        value = constraint_eigenvalue(d1, Determinant.from_orbitals(orbitals, 6))
        assert value == expected
        assert isinstance(value, int)
    with pytest.raises(WidthError):
        constraint_eigenvalue(d1, Determinant.from_orbitals((1, 2, 3), 7))


def _oracle_filter(space, constraints) -> list[int]:
    return [det.mask for det in space
            if all(constraint_eigenvalue(c, det) == 0 for c in constraints)]


@pytest.mark.parametrize("N, m", [(3, 6), (3, 7), (3, 8), (4, 8)])
def test_filter_pinned_matches_the_eigenvalue_oracle(N: int, m: int) -> None:
    cat = catalog(N, m)
    layout = interleaved_layout((m + 1) // 2).truncated(m)
    spaces = [enumerate_space(N, m), enumerate_space(N, m, layout, N % 2)]
    for space in spaces:
        for constraints in [[c] for c in cat.constraints + cat.equalities] + [
            list(cat.equalities), list(cat.equalities + cat.constraints[:2]),
        ]:
            survivors = filter_pinned(space, constraints).survivors
            assert [d.mask for d in survivors] == _oracle_filter(space, constraints)
            assert survivors.layout is space.layout and survivors.sector == space.sector


def test_filter_pinned_refuses_inexact_coefficients() -> None:
    space = enumerate_space(3, 6)
    with pytest.raises(ValueError):
        filter_pinned(space, [GPConstraint(3, 6, "huge", -(2**60), (2**60, 0, 0, 0, 0, 1))])
    exact = GPConstraint(3, 6, "exact", -(2**46), (2**46, 0, 0, 0, 0, 1))
    assert [d.mask for d in filter_pinned(space, [exact]).survivors] == _oracle_filter(
        space, [exact]
    )


def test_rank_six_equalities_select_the_structured_octet() -> None:
    cat = catalog(3, 6)
    space = enumerate_space(3, 6)
    pinned = filter_pinned(space, cat.equalities)
    assert _dets(pinned) == [
        "[1,2,3]",
        "[1,2,4]",
        "[1,3,5]",
        "[1,4,5]",
        "[2,3,6]",
        "[2,4,6]",
        "[3,5,6]",
        "[4,5,6]",
    ]
    assert len(space) - len(pinned) == 12
    ref = Determinant.from_orbitals((1, 2, 3), 6)
    assert census(pinned.survivors, ref).counts == {0: 1, 1: 3, 2: 3, 3: 1}


def test_rank_six_facet_pins_to_three_determinants() -> None:
    cat = catalog(3, 6)
    space = enumerate_space(3, 6)
    pinned = filter_pinned(space, (*cat.equalities, cat.find(1)))
    assert _dets(pinned) == ["[1,2,3]", "[1,4,5]", "[2,4,6]"]
    ref = Determinant.from_orbitals((1, 2, 3), 6)
    assert census(pinned.survivors, ref).counts == {0: 1, 2: 2}


def test_rank_seven_censuses() -> None:
    cat = catalog(3, 7)
    space = enumerate_space(3, 7)
    ref = Determinant.from_orbitals((1, 2, 3), 7)

    one = filter_pinned(space, [cat.find(1)])
    assert len(one) == 18
    assert census(one.survivors, ref).counts == {0: 1, 1: 6, 2: 9, 3: 2}

    both = filter_pinned(space, [cat.find(1), cat.find(2)])
    assert sorted(_dets(both)) == sorted(
        [
            "[1,2,3]",
            "[1,4,5]",
            "[2,4,5]",
            "[1,4,6]",
            "[2,4,6]",
            "[1,5,7]",
            "[2,5,7]",
            "[1,6,7]",
            "[2,6,7]",
        ]
    )
    assert census(both.survivors, ref).counts == {0: 1, 2: 8}


def test_rank_eight_censuses() -> None:
    cat = catalog(3, 8)
    space = enumerate_space(3, 8)
    ref = Determinant.from_orbitals((1, 2, 3), 8)

    two = filter_pinned(space, [cat.find(2)])
    assert len(two) == 24
    assert census(two.survivors, ref).counts == {0: 1, 1: 7, 2: 13, 3: 3}

    both = filter_pinned(space, [cat.find(2), cat.find(5)])
    assert len(both) == 13
    assert census(both.survivors, ref).counts == {0: 1, 2: 12}
    # survivors factorize: one of {1,2}, one of {5,6}, one of {4,7,8}
    for det in both.survivors:
        if det.orbitals() == (1, 2, 3):
            continue
        orbitals = set(det.orbitals())
        assert len(orbitals & {1, 2}) == 1
        assert len(orbitals & {5, 6}) == 1
        assert len(orbitals & {4, 7, 8}) == 1


def test_filtering_commutes() -> None:
    cat = catalog(3, 8)
    space = enumerate_space(3, 8)
    rng = np.random.default_rng(7)
    for _ in range(10):
        picks = rng.choice(len(cat.constraints), size=3, replace=False)
        chosen = [cat.constraints[i] for i in picks]
        together = filter_pinned(space, chosen)
        reversed_order = filter_pinned(space, chosen[::-1])
        sequential = space
        for c in chosen:
            sequential = filter_pinned(sequential, [c]).survivors
        assert _dets(together) == _dets(reversed_order) == _dets(sequential)


def test_single_facet_survivors_factorize() -> None:
    # 2 - n1 - n2 - n4 - n7 >= 0: survivors carry exactly two of {1,2,4,7}
    cat = catalog(3, 7)
    space = enumerate_space(3, 7)
    pinned = filter_pinned(space, [cat.find(1)])
    assert len(pinned) == comb(4, 2) * comb(3, 1)
    for det in pinned.survivors:
        assert len(set(det.orbitals()) & {1, 2, 4, 7}) == 2


def test_saturation_is_an_operator_identity() -> None:
    """<D> vanishes on the survivor span even when the sorted residual does not."""
    cat = catalog(3, 7)
    d1 = cat.find(1)
    space = enumerate_space(3, 7)
    survivors = filter_pinned(space, [d1]).survivors
    rng = np.random.default_rng(11)
    for _ in range(5):
        coeffs = random_coefficients(len(survivors), rng)
        expectation = sum(
            c**2 * constraint_eigenvalue(d1, det)
            for c, det in zip(coeffs, survivors)
        )
        assert expectation == 0.0
        # equivalently, the occupation sum over the support {1,2,4,7} is 2
        rho = one_rdm(CIVector(survivors, coeffs)).rho
        support_sum = rho[0, 0] + rho[1, 1] + rho[3, 3] + rho[6, 6]
        assert abs(support_sum - 2.0) < 1e-12

    # ...but the residual on the *sorted* spectrum can stay positive:
    a, b = np.sqrt(0.8), np.sqrt(0.2)
    vec = np.zeros(len(survivors))
    vec[survivors.index_of(Determinant.from_orbitals((1, 2, 3), 7))] = a
    vec[survivors.index_of(Determinant.from_orbitals((4, 5, 7), 7))] = b
    spectrum = natural_spectrum(one_rdm(CIVector(survivors, vec)))
    assert d1.residual(spectrum.n) > 0.19


def test_doubles_only_rule() -> None:
    """kappa0 = N-2, kappa = (-1,...,-1,+1,0,...): reference plus doubles only.

    A determinant K has eigenvalue N-2-s+b with s = |K n {1..N-1}| and
    b = [N in K]; zero forces either K = {1..N} or s = N-2, b = 0, i.e. a
    double excitation that vacates orbital N.
    """
    for N, m in [(3, 6), (3, 7), (3, 8), (4, 8), (5, 9)]:
        kappa = tuple([-1] * (N - 1) + [1] + [0] * (m - N))
        family = GPConstraint(N, m, "family", N - 2, kappa)
        space = enumerate_space(N, m)
        pinned = filter_pinned(space, [family])
        assert len(pinned) == 1 + (N - 1) * comb(m - N, 2)
        ref = Determinant.from_orbitals(range(1, N + 1), m)
        counts = census(pinned.survivors, ref).counts
        assert counts == {0: 1, 2: (N - 1) * comb(m - N, 2)}
        for det in pinned.survivors:
            if det != ref:
                assert not det.mask & 1 << (N - 1)

    # the built-in catalogs contain two members of this family
    assert catalog(3, 8).find(5).kappa == (-1, -1, 1, 0, 0, 0, 0, 0)
    assert catalog(4, 8).find(14).kappa == (-1, -1, -1, 1, 0, 0, 0, 0)


def test_pinned_census_and_empty_result() -> None:
    cat = catalog(3, 6)
    space = enumerate_space(3, 6)
    ref = Determinant.from_orbitals((1, 2, 3), 6)
    counts = census(filter_pinned(space, (*cat.equalities, cat.find(1))).survivors, ref).counts
    assert counts == {0: 1, 2: 2}

    impossible = GPConstraint(3, 6, "impossible", 1, (0, 0, 0, 0, 0, 0))
    assert len(filter_pinned(space, [impossible])) == 0
    with pytest.raises(ValueError):
        census(filter_pinned(space, [impossible]).survivors, ref)


def test_reconstruction_weak() -> None:
    spectrum = OccupationSpectrum.from_occupations([0.9, 0.8, 0.7, 0.3, 0.2, 0.1], N=3)
    vec = ls_reconstruct_36(spectrum, "weak")
    idx = {det.orbitals(): i for i, det in enumerate(vec.space)}
    assert abs(vec.coeffs[idx[(1, 2, 3)]] - np.sqrt(0.7)) < 1e-12
    assert abs(vec.coeffs[idx[(1, 4, 5)]] - np.sqrt(0.2)) < 1e-12
    assert abs(vec.coeffs[idx[(2, 4, 6)]] - np.sqrt(0.1)) < 1e-12
    assert np.count_nonzero(vec.coeffs) == 3
    # the rebuilt state reproduces the spectrum it came from
    rebuilt = natural_spectrum(one_rdm(vec))
    assert np.abs(rebuilt.n - spectrum.n).max() < 1e-12


def test_reconstruction_strong() -> None:
    spectrum = OccupationSpectrum.from_occupations(
        [0.75, 0.65, 0.6, 0.4, 0.35, 0.25], N=3
    )
    vec = ls_reconstruct_36(spectrum, "strong")
    idx = {det.orbitals(): i for i, det in enumerate(vec.space)}
    assert abs(vec.coeffs[idx[(1, 2, 4)]] - np.sqrt(0.4)) < 1e-12
    assert abs(vec.coeffs[idx[(1, 3, 5)]] - np.sqrt(0.35)) < 1e-12
    assert abs(vec.coeffs[idx[(2, 3, 6)]] - np.sqrt(0.25)) < 1e-12
    rebuilt = natural_spectrum(one_rdm(vec))
    assert np.abs(rebuilt.n - spectrum.n).max() < 1e-12


def test_reconstruction_random_round_trips() -> None:
    rng = np.random.default_rng(23)
    for _ in range(20):
        # weak: leading weight above one half keeps the spectrum sorted
        w3 = rng.uniform(0.55, 0.95)
        w5 = rng.uniform(0.6, 0.9) * (1 - w3)
        w6 = 1 - w3 - w5
        weak = OccupationSpectrum.from_occupations(
            [w3 + w5, w3 + w6, w3, w5 + w6, w5, w6], N=3
        )
        assert classify_regime_36(weak) in ("weak", "border")
        vec = ls_reconstruct_36(weak, "weak")
        assert np.abs(natural_spectrum(one_rdm(vec)).n - weak.n).max() < 1e-10

        # strong: n4 <= n5 + n6 keeps the fourth occupation in place
        w4 = rng.uniform(0.34, 0.49)
        w5 = rng.uniform(0.5, 0.65) * (1 - w4)
        w6 = 1 - w4 - w5
        if not (w4 >= w5 >= w6 and w4 <= w5 + w6):
            continue
        strong = OccupationSpectrum.from_occupations(
            [w4 + w5, w4 + w6, w5 + w6, w4, w5, w6], N=3
        )
        assert classify_regime_36(strong) in ("strong", "border")
        vec = ls_reconstruct_36(strong, "strong")
        assert np.abs(natural_spectrum(one_rdm(vec)).n - strong.n).max() < 1e-10


def test_reconstruction_matches_an_actual_ground_state() -> None:
    """In the weak regime the natural-basis state *is* the reconstruction."""
    so = to_spin_orbitals(hubbard_chain(3, 1.0, 2.0))
    space = enumerate_space(3, 6, so.layout, 1)
    state = solve_ground(so, space)
    spectrum = natural_spectrum(one_rdm(state))
    assert classify_regime_36(spectrum) == "weak"
    natural = rotate_ci(state, spectrum.natural_rotation)

    rebuilt = ls_reconstruct_36(spectrum, "weak")
    for orbitals in [(1, 2, 3), (1, 4, 5), (2, 4, 6)]:
        det = Determinant.from_orbitals(orbitals, 6)
        c_state = natural.coeffs[natural.space.index_of(det)]
        c_rebuilt = rebuilt.coeffs[rebuilt.space.index_of(det)]
        assert abs(abs(c_state) - c_rebuilt) < 1e-10


def test_reconstruction_validation() -> None:
    weak = OccupationSpectrum.from_occupations([0.9, 0.8, 0.7, 0.3, 0.2, 0.1], N=3)
    with pytest.raises(RegimeError):
        ls_reconstruct_36(weak, "strong")
    strong = OccupationSpectrum.from_occupations(
        [0.75, 0.65, 0.6, 0.4, 0.35, 0.25], N=3
    )
    with pytest.raises(RegimeError):
        ls_reconstruct_36(strong, "weak")
    broken = OccupationSpectrum.from_occupations([0.9, 0.8, 0.7, 0.4, 0.2, 0.0], N=3)
    with pytest.raises(RepresentabilityError):
        ls_reconstruct_36(broken, "weak")
    rank_seven = OccupationSpectrum.from_occupations(
        [0.9, 0.8, 0.7, 0.3, 0.2, 0.08, 0.02], N=3
    )
    with pytest.raises(ValueError):
        ls_reconstruct_36(rank_seven, "weak")
    with pytest.raises(ValueError):
        ls_reconstruct_36(weak, "border")


def test_zero_variance_certificate() -> None:
    """Exactly pinned states have no weight outside the survivor set."""
    cat = catalog(3, 6)
    constraints = (*cat.equalities, cat.find(1))
    for U in (0.5, 2.0, 8.0):
        so = to_spin_orbitals(hubbard_chain(3, 1.0, U))
        space = enumerate_space(3, 6, so.layout, 1)
        state = solve_ground(so, space)
        spectrum = natural_spectrum(one_rdm(state))
        assert classify_regime_36(spectrum) == "weak"
        natural = rotate_ci(state, spectrum.natural_rotation)
        survivors = filter_pinned(natural.space, constraints).survivors
        keep = [natural.space.index_of(d) for d in survivors]
        leak = np.delete(natural.coeffs, keep)
        assert np.abs(leak).max() < 1e-12


def test_pinned_solve_recovers_weak_rank_six_exactly() -> None:
    cat = catalog(3, 6)
    constraints = (*cat.equalities, cat.find(1))
    for U in (0.5, 2.0, 8.0):
        so = to_spin_orbitals(hubbard_chain(3, 1.0, U))
        space = enumerate_space(3, 6, so.layout, 1)
        result = pinned_solve(so, solve_ground(so, space), constraints)
        assert result.converged
        assert result.iterations == 1
        assert abs(result.pinned_energy - result.full_energy) < 1e-9
        assert abs(result.recovered_fraction - 1.0) < 1e-9
        assert result.census_full.counts == {0: 1, 1: 4, 2: 4}
        assert result.census_pinned.counts == {0: 1, 2: 2}
        assert result.reference_energy > result.full_energy


def test_pinned_solve_is_variational_and_self_consistent() -> None:
    d14 = catalog(4, 8).find(14)
    instances = [
        to_spin_orbitals(hubbard_chain(4, 1.0, 1.0)),
        to_spin_orbitals(hubbard_chain(4, 1.0, 4.0)),
        to_spin_orbitals(pairing_model(4, 1.0, 0.5)),
    ]
    for so in instances:
        space = enumerate_space(4, 8, so.layout, 0)
        result = pinned_solve(so, solve_ground(so, space), [d14])
        assert result.converged
        assert result.pinned_energy >= result.full_energy - 1e-9
        assert 0.0 < result.recovered_fraction <= 1.0 + 1e-9
        # reference + doubles only, and the facet is saturated at the fixed point
        assert set(result.census_pinned.counts) <= {0, 2}
        assert abs(d14.residual(result.occupations)) < 1e-8


def test_pinned_solve_guards() -> None:
    so = to_spin_orbitals(hubbard_chain(3, 1.0, 2.0))
    space = enumerate_space(3, 6, so.layout, 1)
    with pytest.raises(ValueError):
        pinned_solve(so, solve_ground(so, space), [])
    impossible = GPConstraint(3, 6, "impossible", 1, (0, 0, 0, 0, 0, 0))
    with pytest.raises(NoSurvivorsError):
        pinned_solve(so, solve_ground(so, space), [impossible])
    wide = GPConstraint(3, 7, "wide", 2, (-1, -1, 0, -1, 0, 0, -1))
    with pytest.raises(WidthError):
        pinned_solve(so, solve_ground(so, space), [wide])
    with pytest.raises(ValueError):
        pinned_solve(so, solve_ground(so, space), [catalog(3, 6).find(1)], max_iterations=0)
    with pytest.raises(ValueError):  # an unsolved vector carries no energy
        pinned_solve(so, CIVector(space, np.eye(len(space))[0]), [catalog(3, 6).find(1)])


def test_pinned_solve_picks_constraints_from_the_full_spectrum() -> None:
    cat = catalog(3, 6)
    so = to_spin_orbitals(hubbard_chain(3, 1.0, 2.0))
    state = solve_ground(so, enumerate_space(3, 6, so.layout, 1))
    seen = []

    def select(spectrum):
        seen.append(spectrum.n)
        return (*cat.equalities, cat.find(1))

    chosen = pinned_solve(so, state, select)
    given = pinned_solve(so, state, (*cat.equalities, cat.find(1)))
    assert len(seen) == 1
    assert np.array_equal(seen[0], natural_spectrum(one_rdm(state)).n)
    assert chosen.survivors.imposed == given.survivors.imposed
    assert chosen.pinned_energy == given.pinned_energy
    assert np.array_equal(chosen.occupations, given.occupations)


def test_pinned_solve_rotates_once_per_iteration(monkeypatch) -> None:
    from fermipin.integrals import SpinOrbitalIntegrals

    rotations = []
    original = SpinOrbitalIntegrals.rotated

    def spy(self, U, layout=None):
        rotations.append(layout)
        return original(self, U, layout)

    monkeypatch.setattr(SpinOrbitalIntegrals, "rotated", spy)
    d14 = catalog(4, 8).find(14)
    so = to_spin_orbitals(hubbard_chain(4, 1.0, 1.0))
    state = solve_ground(so, enumerate_space(4, 8, so.layout, 0))
    # one run that converges, one that stops at max_iterations
    for tol, max_iterations, converged in ((1e-10, 100, True), (0.0, 3, False)):
        rotations.clear()
        result = pinned_solve(so, state, [d14], max_iterations, tol)
        assert result.converged is converged
        assert len(rotations) == result.iterations
    assert result.iterations == 3


def _unshared_pinned_loop(so, state, constraints, max_iterations=100, tol=1e-10):
    """The pinned loop written out from public functions, every frame built
    afresh on every iteration.  Returns the last solve and spectrum, the last
    survivors, each iteration's (drift, survivor count) and each frame's layout."""
    space = state.space
    spectrum = natural_spectrum(one_rdm(state))
    ints, layouts, history = so, [], []
    while True:
        layout = spectrum.natural_rotation.layout
        ints = ints.rotated(spectrum.natural_rotation.U, layout)
        if space.sector is None:
            nat_space = ConfigurationSpace(space.N, space.m, space.masks, layout)
        else:
            nat_space = enumerate_space(space.N, space.m, layout, space.sector)
        layouts.append(layout)
        survivors = filter_pinned(nat_space, constraints).survivors
        truncated = solve_ground(ints, survivors)
        previous, spectrum = spectrum, natural_spectrum(one_rdm(truncated))
        history.append((float(np.abs(spectrum.n - previous.n).max()), len(survivors)))
        if history[-1][0] < tol or len(history) == max_iterations:
            return truncated, spectrum, survivors, history, layouts


@pytest.mark.parametrize("N, sector, layout, mu, iterations, frames", [
    (3, 1, True, 2, 100, 3),  # cycles without converging
    (4, 0, True, 1, 3, 2),
    (3, None, True, 2, 100, 3),
    (3, None, False, 2, 45, 1),  # spin-mixing frames: the layout is None
])
def test_pinned_solve_matches_a_loop_that_rebuilds_every_frame(
    monkeypatch, N, sector, layout, mu, iterations, frames
) -> None:
    import fermipin.selection as selection

    so = to_spin_orbitals(hubbard_chain(4, 1.0, 4.0))
    state = solve_ground(so, enumerate_space(N, 8, so.layout if layout else None, sector))
    constraints = [catalog(N, 8).find(mu)]
    truncated, spectrum, survivors, history, layouts = _unshared_pinned_loop(
        so, state, constraints
    )
    calls = []

    def spy(space, imposed):
        calls.append(space.layout)
        return filter_pinned(space, imposed)

    monkeypatch.setattr(selection, "filter_pinned", spy)
    result = pinned_solve(so, state, constraints)
    assert result.iterations == len(history) == iterations
    assert result.converged is (history[-1][0] < 1e-10) is (iterations < 100)
    assert result.occupations.tobytes() == spectrum.n.tobytes()
    assert np.float64(result.pinned_energy).tobytes() == np.float64(truncated.energy).tobytes()
    assert result.survivors.survivors.masks.tobytes() == survivors.masks.tobytes()
    assert list(result.history) == history
    # one filter per distinct frame, in the order the loop first meets them
    assert calls == list(dict.fromkeys(layouts))
    assert len(calls) == frames


@pytest.mark.parametrize("form", ["generator", "selector returning a generator"])
def test_pinned_solve_filters_every_frame_with_an_iterator_of_constraints(form) -> None:
    # the cycling case above: three frames, 100 iterations without converging
    so = to_spin_orbitals(hubbard_chain(4, 1.0, 4.0))
    state = solve_ground(so, enumerate_space(3, 8, so.layout, 1))
    d2 = catalog(3, 8).find(2)
    given = pinned_solve(so, state, [d2])
    if form == "generator":
        result = pinned_solve(so, state, (c for c in [d2]))
    else:
        result = pinned_solve(so, state, lambda spectrum: (c for c in [d2]))
    assert result.survivors.imposed == given.survivors.imposed == (d2,)
    assert np.float64(result.pinned_energy).tobytes() == np.float64(given.pinned_energy).tobytes()
    assert result.occupations.tobytes() == given.occupations.tobytes()
    assert result.survivors.survivors.masks.tobytes() == given.survivors.survivors.masks.tobytes()
    assert result.history == given.history
    with pytest.raises(ValueError, match="at least one constraint"):
        pinned_solve(so, state, iter(()))


_MODELS = {
    "hubbard": lambda n, rng: hubbard_chain(n, 1.0, rng.uniform(0, 8), bool(rng.integers(2))),
    "pairing": lambda n, rng: pairing_model(n, 1.0, rng.uniform(0.1, 1.0)),
    "random": random_spatial,
}


@pytest.mark.parametrize("model", list(_MODELS))
def test_the_natural_frame_is_an_exact_change_of_basis(model) -> None:
    """Re-solved over the frame's space, the frame's integrals give the
    state's energy and natural spectrum back.  The frame's space is built
    here from ``enumerate_space``: a whole S_z sector in the new layout, or
    every mask.  A restricted space without a sector does not qualify, since
    its masks span another subspace in the new orbitals."""
    rng = np.random.default_rng(sum(map(ord, model)))
    solved = dict.fromkeys(product(["interleaved", "blocked"], ["sector", "spins", "no spins"]), 0)
    for ordering, kind in list(solved) * 16:
        n_spatial = int(rng.integers(2, 5))
        so = to_spin_orbitals(_MODELS[model](n_spatial, rng), ordering)
        N = int(rng.integers(1, 2 * n_spatial))
        n_up = int(rng.integers(max(0, N - n_spatial), min(N, n_spatial) + 1))
        sector = 2 * n_up - N if kind == "sector" else None
        space = enumerate_space(N, so.m, None if kind == "no spins" else so.layout, sector)
        state = solve_ground(so, space)
        if state.degenerate:
            continue
        spectrum = natural_spectrum(one_rdm(state))
        frame = natural_frame(so, space, spectrum)
        assert (frame.layout is None) is (kind == "no spins")
        resolved = solve_ground(frame, enumerate_space(N, so.m, frame.layout, sector))
        # max|h| too: a filled spin block alone has H = 0, and its energy in
        # the frame is a rotated trace, zero only to rounding
        H = build_hamiltonian(so, space)
        scale = max(abs(state.energy), np.abs(H).max(), np.abs(so.h).max())
        assert abs(resolved.energy - state.energy) <= 1e-12 * scale
        assert np.abs(natural_spectrum(one_rdm(resolved)).n - spectrum.n).max() <= 1e-10
        solved[ordering, kind] += 1
    assert min(solved.values()) > 0, solved


def test_the_natural_frame_refuses_a_spin_mixing_rotation_of_a_sector() -> None:
    so = to_spin_orbitals(hubbard_chain(3, 1.0, 2.0))
    space = enumerate_space(3, 6, so.layout, 1)
    spectrum = natural_spectrum(one_rdm(solve_ground(so, space)))
    assert natural_frame(so, space, spectrum).layout == spectrum.natural_rotation.layout
    mixing = OccupationSpectrum(
        spectrum.n, spectrum.N, OrbitalRotation(spectrum.natural_rotation.U, None)
    )
    with pytest.raises(SectorError, match="spin-mixing"):
        natural_frame(so, space, mixing)
    whole = enumerate_space(3, 6, so.layout)
    assert natural_frame(so, whole, mixing).layout is None


def test_pinned_solve_history_records_each_iteration() -> None:
    so = to_spin_orbitals(hubbard_chain(4, 1.0, 4.0))
    state = solve_ground(so, enumerate_space(3, 8, so.layout, 1))
    d2 = catalog(3, 8).find(2)
    for max_iterations, tol in ((100, 1e-10), (5, 1e-10), (100, 1.0)):
        result = pinned_solve(so, state, [d2], max_iterations, tol)
        assert len(result.history) == result.iterations
        last_drift, last_count = result.history[-1]
        assert result.converged is (last_drift < tol)
        assert last_count == len(result.survivors)
        assert all(drift >= tol for drift, _ in result.history[:-1])
    assert result.converged and result.iterations == 1


def test_sector_presets() -> None:
    restricted = SECTOR_PRESETS["4in8-restricted"]
    unrestricted = SECTOR_PRESETS["4in8-unrestricted"]
    assert restricted.layout.indices_with_spin("up") == (1, 2, 3, 5)
    assert unrestricted.layout.indices_with_spin("up") == (1, 2, 3, 5, 6)

    ref = Determinant.from_orbitals((1, 2, 3, 4), 8)
    d14 = catalog(4, 8).find(14)

    space = restricted.space()
    assert len(space) == 16
    assert space.sector == 2
    assert census(space, ref).counts == {0: 1, 1: 6, 2: 9}
    assert census(filter_pinned(space, [d14]).survivors, ref).counts == {0: 1, 2: 9}

    space = unrestricted.space()
    assert len(space) == 30
    assert census(space, ref).counts == {0: 1, 1: 8, 2: 15, 3: 6}
    assert census(filter_pinned(space, [d14]).survivors, ref).counts == {0: 1, 2: 12}
