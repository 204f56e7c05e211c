"""Generalized Pauli constraints: catalogs, evaluation, pinning tiers.

A constraint is an integer-coefficient linear form on the decreasingly
sorted natural occupations,

    D = kappa0 + sum_i kappa_i n_i  >=  0,

that every pure N-fermion state on m orbitals must satisfy — a facet of the
allowed occupation polytope, strictly inside the Pauli hypercube.  A state
sitting exactly on a facet is *pinned* there; sitting very close is
*quasipinned*.  Residual magnitudes are graded into tiers:

    pinned              D <= 1e-10
    strong-quasipinned  D <= 1e-4
    quasipinned         D <= 1e-2
    unpinned            otherwise

with the thresholds adjustable per evaluation.  A residual is ``kappa0``
plus the products ``kappa_i n_i`` summed strictly left to right, the same
on any BLAS; :func:`evaluate_stack` computes those of a whole stack of
spectra with one such sum, and :func:`evaluate` is it on a stack of one.

Built-in catalogs cover three fermions on six, seven, and eight orbitals
and four fermions on eight.  The rank-(3,8) list carries the 19
published facets of the 31 known ones; further facets can be supplied
through :func:`load_catalog_file`.  For (3,6) the polytope degenerates:
three equalities ``n_r + n_{7-r} = 1`` always hold, and one genuine
inequality ``2 - n1 - n2 - n4 >= 0`` remains.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    ParseError,
    RepresentabilityError,
    RegimeError,
    UnsupportedRankError,
    WidthError,
)
from .ci import _sequential_sum
from .rdm import OccupationSpectrum, hf_distance

DEFAULT_TIERS = (1e-10, 1e-4, 1e-2)
TIER_NAMES = ("pinned", "strong-quasipinned", "quasipinned", "unpinned")
_TIER_ARRAY = np.array(TIER_NAMES)
NEGATIVITY_TOL = 1e-9


@dataclass(frozen=True)
class GPConstraint:
    """One linear facet ``kappa0 + sum kappa_i n_i >= 0`` (or ``= 0``), with
    integer coefficients of at most 2**46 in magnitude."""

    N: int
    m: int
    mu: int | str
    kappa0: int
    kappa: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.kappa) != self.m:
            raise WidthError(
                f"constraint {self.mu}: {len(self.kappa)} coefficients for m={self.m}"
            )
        # within the bound, every sum of up to 65 coefficients is an exact float
        if max(map(abs, (self.kappa0, *self.kappa))) > 2**46:
            raise ValueError("a constraint coefficient exceeds 2**46 in magnitude")

    @property
    def label(self) -> str:
        return f"D^{self.mu}" if isinstance(self.mu, int) else str(self.mu)

    def residual(self, n: Sequence[float]) -> float:
        """The constraint value on a sorted occupation vector."""
        if len(n) != self.m:
            raise WidthError(f"{len(n)} occupations for a width-{self.m} constraint")
        kappa = np.array([self.kappa], float)
        return float(_residuals(self.kappa0, kappa, np.asarray(n, float))[0])

    @cached_property
    def formula(self) -> str:
        """Human-readable linear form, e.g. ``2 - n1 - n2 - n4``, built once."""
        parts: list[str] = [str(self.kappa0)] if self.kappa0 else []
        for i, k in enumerate(self.kappa, start=1):
            if k == 0:
                continue
            term = f"n{i}" if abs(k) == 1 else f"{abs(k)}*n{i}"
            if not parts:
                parts.append(term if k > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if k > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"


@dataclass(frozen=True)
class Catalog:
    """All constraints known for one (N, m) setting."""

    N: int
    m: int
    constraints: tuple[GPConstraint, ...]
    equalities: tuple[GPConstraint, ...] = ()

    def __post_init__(self) -> None:
        for c in self.constraints + self.equalities:
            if (c.N, c.m) != (self.N, self.m):
                raise ValueError(f"constraint {c.mu} does not belong to ({self.N},{self.m})")
        labels = [c.mu for c in self.constraints + self.equalities]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate constraint identifiers")

    def __len__(self) -> int:
        return len(self.constraints)

    @cached_property
    def _forms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``kappa0`` and the rows of ``kappa`` of every inequality, then every
        equality, as float arrays, and where some form weighs neighbouring
        positions ``i + 1`` and ``i + 2`` differently; built once."""
        forms = self.constraints + self.equalities
        kappa = np.array([c.kappa for c in forms], float).reshape(len(forms), self.m)
        uneven = (kappa[:, :-1] != kappa[:, 1:]).any(axis=0)
        return np.array([c.kappa0 for c in forms], float), kappa, uneven

    def find(self, mu: int | str) -> GPConstraint:
        for c in self.constraints + self.equalities:
            if c.mu == mu:
                return c
        raise KeyError(f"no constraint {mu!r} in the ({self.N},{self.m}) catalog")

    def merged(self, other: Catalog) -> Catalog:
        """This catalog extended by another one for the same (N, m)."""
        if (other.N, other.m) != (self.N, self.m):
            raise ValueError("cannot merge catalogs for different (N, m)")
        return Catalog(
            self.N,
            self.m,
            self.constraints + other.constraints,
            self.equalities + other.equalities,
        )


def _rows(N: int, m: int, rows: list[tuple[int, tuple[int, ...]]],
          start: int = 1) -> tuple[GPConstraint, ...]:
    return tuple(
        GPConstraint(N, m, mu, k0, kappa)
        for mu, (k0, kappa) in enumerate(rows, start=start)
    )


# three fermions, six orbitals: one facet + the pair-sum equalities
_CAT_36 = Catalog(
    3, 6,
    _rows(3, 6, [(2, (-1, -1, 0, -1, 0, 0))]),
    equalities=tuple(
        GPConstraint(3, 6, f"n{r}+n{7 - r}", 1, kappa)
        for r, kappa in (
            (1, (-1, 0, 0, 0, 0, -1)),
            (2, (0, -1, 0, 0, -1, 0)),
            (3, (0, 0, -1, -1, 0, 0)),
        )
    ),
)

# three fermions, seven orbitals
_CAT_37 = Catalog(
    3, 7,
    _rows(3, 7, [
        (2, (-1, -1, 0, -1, 0, 0, -1)),
        (2, (-1, -1, 0, 0, -1, -1, 0)),
        (2, (0, -1, -1, -1, -1, 0, 0)),
        (2, (-1, 0, -1, -1, 0, -1, 0)),
    ]),
)

# three fermions, eight orbitals: the 19 published facets of the 31 known
_CAT_38 = Catalog(
    3, 8,
    _rows(3, 8, [
        (2, (-1, -1, 0, -1, 0, 0, -1, 0)),
        (2, (-1, -1, 0, 0, -1, -1, 0, 0)),
        (2, (0, -1, -1, -1, -1, 0, 0, 0)),
        (2, (-1, 0, -1, -1, 0, -1, 0, 0)),
        (1, (-1, -1, 1, 0, 0, 0, 0, 0)),
        (1, (0, -1, 0, 0, -1, 0, 1, 0)),
        (1, (-1, 0, 0, 0, 0, -1, 1, 0)),
        (1, (0, -1, 0, -1, 0, 1, 0, 0)),
        (1, (-1, 0, 0, -1, 1, 0, 0, 0)),
        (1, (0, 0, -1, -1, 0, 0, 1, 0)),
        (1, (-1, 0, 0, 0, 0, 0, 0, -1)),
        (0, (0, -1, 1, 0, 0, 1, 1, 0)),
        (0, (0, 0, 0, -1, 1, 1, 1, 0)),
        (0, (-1, 0, 1, 0, 1, 0, 1, 0)),
        (2, (0, -1, -1, -2, 1, 0, 1, -1)),
        (2, (-1, 0, -1, -2, 1, 1, 0, -1)),
        (2, (-1, -2, 1, -1, 1, 0, 0, -1)),
        (2, (-1, -2, 1, 0, -1, 1, 0, -1)),
        (0, (-1, -1, 2, 1, 1, 0, 0, 0)),
    ]),
)

# four fermions, eight orbitals: 7 base facets, their particle-hole
# partners D^{7+mu} = 2 - sum_i kappa^mu_{9-i} n_i, and the Pauli bound
_BASE_48 = [
    (0, (-1, 0, 0, 1, 0, 1, 1, 0)),
    (0, (-1, 0, 0, 1, 1, 0, 0, 1)),
    (0, (-1, 0, 1, 0, 0, 1, 0, 1)),
    (0, (-1, 1, 0, 0, 0, 0, 1, 1)),
    (0, (0, -1, 0, 1, 0, 1, 0, 1)),
    (0, (0, 0, -1, 1, 0, 0, 1, 1)),
    (0, (0, 0, 0, 0, -1, 1, 1, 1)),
]
_CAT_48 = Catalog(
    4, 8,
    _rows(4, 8, _BASE_48)
    + _rows(
        4, 8,
        [(2, tuple(-k for k in reversed(kappa))) for _, kappa in _BASE_48],
        start=8,
    )
    + (GPConstraint(4, 8, "pauli", 1, (-1, 0, 0, 0, 0, 0, 0, 0)),),
)

_BUILTIN = {(3, 6): _CAT_36, (3, 7): _CAT_37, (3, 8): _CAT_38, (4, 8): _CAT_48}


def catalog(N: int, m: int) -> Catalog:
    """The built-in constraint catalog for ``N`` fermions on ``m`` orbitals."""
    try:
        return _BUILTIN[(N, m)]
    except KeyError:
        raise UnsupportedRankError(
            f"no built-in catalog for (N, m) = ({N}, {m}); "
            "supply one with load_catalog_file"
        ) from None


def load_catalog_file(path: str) -> Catalog:
    """Read a constraint catalog from text.

    Each significant line holds integers ``N m mu kappa0 kappa1 ... kappam``;
    ``#`` starts a comment.  All lines must share one (N, m); constraints
    keep file order and duplicate ``mu`` values are rejected.
    """
    constraints: list[GPConstraint] = []
    shape: tuple[int, int] | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                numbers = [int(tok) for tok in text.split()]
            except ValueError:
                raise ParseError("catalog lines must be all integers", lineno) from None
            if len(numbers) < 4:
                raise ParseError("expected 'N m mu kappa0 kappa...'", lineno)
            N, m, mu, kappa0 = numbers[:4]
            kappa = tuple(numbers[4:])
            if shape is None:
                shape = (N, m)
            elif (N, m) != shape:
                raise ParseError(
                    f"line mixes ({N},{m}) into a ({shape[0]},{shape[1]}) catalog", lineno
                )
            if len(kappa) != m:
                raise ParseError(
                    f"inconsistent width: {len(kappa)} coefficients for m={m}", lineno
                )
            if any(c.mu == mu for c in constraints):
                raise ParseError(f"duplicate constraint index {mu}", lineno)
            try:
                constraints.append(GPConstraint(N, m, mu, kappa0, kappa))
            except ValueError as exc:  # a coefficient past 2**46
                raise ParseError(str(exc), lineno) from None
    if shape is None:
        raise ParseError("catalog file holds no constraints")
    return Catalog(shape[0], shape[1], tuple(constraints))


@dataclass
class PinningReport:
    """Residuals and pinning tiers of one spectrum against one catalog."""

    catalog: Catalog
    residuals: tuple[tuple[int | str, float], ...]
    tiers: dict[int | str, str]
    equality_residuals: tuple[tuple[int | str, float], ...]
    xi: float
    thresholds: tuple[float, float, float]
    degeneracy_warning: bool = False

    def payload(self) -> dict:
        """The report as plain JSON-ready values, one entry per constraint in
        catalog order; the residuals are stored in that same order."""
        cat = self.catalog
        return {
            "N": cat.N,
            "m": cat.m,
            "xi": self.xi,
            "thresholds": list(self.thresholds),
            "degeneracy_warning": self.degeneracy_warning,
            "constraints": [
                {"mu": c.mu, "formula": c.formula, "residual": value, "tier": self.tiers[c.mu]}
                for c, (_, value) in zip(cat.constraints, self.residuals, strict=True)
            ],
            "equalities": [
                {"mu": c.mu, "formula": c.formula, "residual": value}
                for c, (_, value) in zip(cat.equalities, self.equality_residuals, strict=True)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.payload())


def _residuals(kappa0, kappa: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``kappa0 + sum_i kappa_i n_i``: the products summed strictly left to
    right, then ``kappa0`` added.  With ``kappa`` of shape ``(forms, m)`` and
    ``n`` of shape ``(count, m)`` it gives every form on every spectrum."""
    return kappa0 + _sequential_sum(n[..., None, :] * kappa)


def classify_tier(residual, thresholds=DEFAULT_TIERS):
    """The first tier whose threshold the residual does not exceed (a NaN
    exceeds them all); an array of residuals gives an array of tier names.
    Thresholds that are not positive and ascending raise ``ValueError``."""
    if not (0 < thresholds[0] <= thresholds[1] <= thresholds[2]):
        raise ValueError("tier thresholds must be positive and ascending")
    return _TIER_ARRAY[np.searchsorted(thresholds, residual)]


def evaluate_stack(
    cat: Catalog,
    spectra: OccupationSpectrum,
    thresholds: tuple[float, float, float] = DEFAULT_TIERS,
) -> list[PinningReport]:
    """Evaluate every constraint of ``cat`` on each spectrum of a stack, one
    report per row; a single spectrum is a stack of one.

    Each residual is ``kappa0`` plus the products ``kappa_i n_i`` summed
    strictly left to right, so it does not depend on the BLAS, and all of
    them come from one sum over the stack.  Raises ``RepresentabilityError``
    when an inequality dips below -1e-9 or an equality misses zero by more
    than 1e-9 — for a correctly computed pure-state spectrum that can only
    mean the inputs do not belong together.  The message names the first
    such row's first violated inequality, or else its first equality.
    """
    if spectra.m != cat.m:
        raise WidthError(f"spectrum width {spectra.m} vs catalog width {cat.m}")
    if spectra.N != cat.N:
        raise ValueError(f"spectrum has N={spectra.N}, catalog N={cat.N}")
    n = spectra.n.reshape(-1, cat.m)
    if np.any(np.diff(n, axis=1) > 1e-12):
        raise ValueError("occupations must be sorted in descending order")

    kappa0, kappa, uneven = cat._forms
    values = _residuals(kappa0, kappa, n)
    inequality, equality = values[:, : len(cat.constraints)], values[:, len(cat.constraints) :]
    # classified first, so bad thresholds are refused before a violation
    tiers = classify_tier(np.maximum(inequality, 0.0), thresholds).tolist()
    violated = ((inequality < -NEGATIVITY_TOL).any(axis=1)
                | (np.abs(equality) > NEGATIVITY_TOL).any(axis=1))
    if violated.any():
        k = np.argmax(violated)
        violations = [
            f"constraint {c.label} = {value:.3e} is negative: "
            "spectrum is not consistent with a pure state of this rank"
            for c, value in zip(cat.constraints, inequality[k].tolist())
            if value < -NEGATIVITY_TOL
        ] + [
            f"equality {c.label} deviates by {value:.3e}"
            for c, value in zip(cat.equalities, equality[k].tolist())
            if abs(value) > NEGATIVITY_TOL
        ]
        raise RepresentabilityError(violations[0])
    # a run of ties whose members carry different weights in some constraint
    warn = (spectra.ties.reshape(len(n), -1) & uneven).any(axis=1)
    xi = np.reshape(hf_distance(spectra), -1)

    mus = [c.mu for c in cat.constraints]
    equality_mus = [c.mu for c in cat.equalities]
    return [
        PinningReport(
            cat,
            tuple(zip(mus, row)),
            dict(zip(mus, row_tiers)),
            tuple(zip(equality_mus, row_equalities)),
            xi=row_xi,
            thresholds=tuple(thresholds),
            degeneracy_warning=row_warn,
        )
        for row, row_tiers, row_equalities, row_xi, row_warn in zip(
            inequality.tolist(), tiers, equality.tolist(), xi.tolist(), warn.tolist()
        )
    ]


def evaluate(
    cat: Catalog,
    spectrum: OccupationSpectrum,
    thresholds: tuple[float, float, float] = DEFAULT_TIERS,
) -> PinningReport:
    """Evaluate every constraint of ``cat`` on a sorted spectrum:
    :func:`evaluate_stack` on a stack of one."""
    return evaluate_stack(cat, spectrum, thresholds)[0]


def classify_regime_36(spectrum: OccupationSpectrum, tol: float = 1e-9) -> str:
    """Which spin-compensated regime a rank-six spectrum belongs to.

    For three electrons on six orbitals with total spin projection 1/2,
    the up-spin block carries two electrons and the down-spin block one,
    which forces exactly one of two sum rules on the sorted occupations:

        weak    n1 + n2 + n4 = 2   (the up block is {1, 2, 4})
        strong  n1 + n2 + n3 = 2   (the up block is {1, 2, 3})

    ``border`` means both hold (n3 = n4 = 1/2 up to ties); neither holding
    means the spectrum did not come from such a sector state.
    """
    if spectrum.m != 6 or spectrum.N != 3:
        raise ValueError("regime classification applies to (N, m) = (3, 6) only")
    n = spectrum.n
    weak = abs(n[0] + n[1] + n[3] - 2.0)
    strong = abs(n[0] + n[1] + n[2] - 2.0)
    if weak <= tol and strong <= tol:
        return "border"
    if weak <= tol:
        return "weak"
    if strong <= tol:
        return "strong"
    raise RegimeError(
        f"neither sum rule holds (weak dev {weak:.2e}, strong dev {strong:.2e}); "
        "spectrum is not from a spin-compensated sector state"
    )
