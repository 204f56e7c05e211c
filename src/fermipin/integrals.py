"""One- and two-electron integrals over spatial and spin orbitals.

Spatial two-electron integrals use the chemists' convention:
``g[i, j, k, l]`` holds ``(ij|kl)``, the Coulomb repulsion between charge
distributions ``i j`` and ``k l``.  Spin-orbital two-electron integrals are
stored antisymmetrized in the physicists' convention:
``g[p, q, r, s]`` holds ``<pq||rs> = <pq|rs> - <pq|sr>``.  All arrays are
0-indexed; spin orbital ``p`` of a layout lives at array index ``p - 1``.

Integral files are plain text.  The first significant line is a header

    NORB=<int> NELEC=<int> MS2=<int>

followed by one entry per line, ``<value> i j k l`` with 1-based indices:
``k = l = 0`` stores the one-electron element ``h[i, j]``, all four indices
zero stores the scalar core energy, anything else stores ``(ij|kl)``.
Lines starting with ``#`` (and blank lines) are ignored.  Index-symmetry
images are filled in automatically; entries that conflict with an earlier
line by more than 1e-10 are rejected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SymmetryViolationError, WidthError
from .fock import MAX_WIDTH, UP, SpinOrbitalLayout, blocked_layout, interleaved_layout

_CONFLICT_TOL = 1e-10


@dataclass
class SpatialIntegrals:
    """Spin-free integrals over ``n_spatial`` orbitals, or a stack of them:
    ``h`` of shape ``(count, n, n)``, ``g`` of shape ``(count, n, n, n, n)``
    and ``core_energy`` of shape ``(count,)``, one entry per point.

    ``n_electrons`` and ``ms2`` (twice the spin projection) are bookkeeping
    carried by integral files; model builders leave them ``None``.
    """

    n_spatial: int
    h: np.ndarray
    g: np.ndarray
    core_energy: float | np.ndarray = 0.0
    n_electrons: int | None = None
    ms2: int | None = None

    def __post_init__(self) -> None:
        n = self.n_spatial
        self.h = np.asarray(self.h, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        stack = self.h.shape[:-2]
        if self.h.shape != (*stack, n, n) or self.g.shape != (*stack, n, n, n, n):
            raise ValueError("integral array shapes do not match n_spatial")


@dataclass
class SpinOrbitalIntegrals:
    """Integrals expanded to ``m`` spin orbitals, or a stack of them over
    one layout: ``h`` of shape ``(count, m, m)``, ``g`` of shape
    ``(count, m, m, m, m)`` and ``core_energy`` of shape ``(count,)``, one
    entry per point, as :func:`to_spin_orbitals` expands a stack.

    ``g`` is antisymmetrized, ``g[p-1, q-1, r-1, s-1] = <pq||rs>``, so
    Hamiltonian matrix elements never need explicit exchange terms.
    ``layout`` records the spin of each orbital, or is ``None`` when the
    orbitals have no definite spins.
    """

    layout: SpinOrbitalLayout | None
    h: np.ndarray
    g: np.ndarray
    core_energy: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        m, stack = self.h.shape[-1], self.h.shape[:-2]
        if self.h.shape != (*stack, m, m) or self.g.shape != (*stack, m, m, m, m):
            raise ValueError("integral arrays are not m x m and m x m x m x m")
        if self.layout is not None and self.layout.m != m:
            raise ValueError("integral array shapes do not match the layout")

    @property
    def m(self) -> int:
        return self.h.shape[-1]

    def truncated(self, m: int) -> SpinOrbitalIntegrals:
        """Restrict to the first ``m`` spin orbitals."""
        if not 0 < m <= self.m:
            raise ValueError(f"cannot truncate width {self.m} to {m}")
        return SpinOrbitalIntegrals(
            None if self.layout is None else self.layout.truncated(m),
            self.h[..., :m, :m].copy(),
            self.g[..., :m, :m, :m, :m].copy(),
            self.core_energy,
        )

    def rotated(
        self, U: np.ndarray, layout: SpinOrbitalLayout | None = None
    ) -> SpinOrbitalIntegrals:
        """Transform to the orbital basis defined by ``U``.

        Row ``p`` of ``U`` expands new spin orbital ``p`` in the current
        ones.  ``layout`` is the layout of the rotated basis, as
        :class:`~fermipin.ci.OrbitalRotation` carries it, and is stored as
        given: the default ``None`` says the new orbitals have no definite
        spins.  The integrals must be one point's: a stack is refused with
        a ``ValueError`` that names its leading shape, before any product.

        ``g`` is transformed one index at a time, in the contraction order
        einsum's optimizer picks, by four products that copy nothing: each
        is ``g.reshape(m, -1).T @ U.T``, which contracts the leading index
        and leaves the new one last, so the next index leads the next
        reshape and the fourth product ends in the original axis order.
        Each element is the same sum, over the same index in the same
        order, as in einsum's ``U @ g.reshape(m, -1)``; with OpenBLAS the
        bits agree at every even width tried (2 to 40, one or two
        threads), while at odd widths from 17 up the transposed product
        can round the last bit differently.
        """
        if self.h.ndim != 2:
            raise ValueError(
                f"cannot rotate a stack of integrals (leading shape {self.h.shape[:-2]}); "
                "rotate one point at a time"
            )
        U = np.asarray(U, dtype=float)
        m = self.m
        if U.shape != (m, m):
            raise WidthError("rotation dimension does not match the integrals")
        h_new = U @ self.h @ U.T
        g_new = self.g
        for _ in range(4):
            g_new = g_new.reshape(m, -1).T @ U.T
        return SpinOrbitalIntegrals(layout, h_new, g_new.reshape(m, m, m, m), self.core_energy)


def _require_width(n_spatial: int) -> None:
    """Refuse, before an n**4 array exists, what the spin-orbital width cannot hold."""
    if 2 * n_spatial > MAX_WIDTH:
        raise WidthError(f"{n_spatial} spatial orbitals exceed the {MAX_WIDTH // 2} that fit")


def _require_finite(**parameters: float) -> None:
    """Refuse a NaN or infinite model parameter, naming it."""
    for name, value in parameters.items():
        if not np.isfinite(value):
            raise ValueError(f"model parameter {name} must be finite, got {float(value)!r}")


def hubbard_chain(sites: int, t: float, U: float, periodic: bool = False) -> SpatialIntegrals:
    """A one-band Hubbard chain: hopping ``-t`` between neighbours, on-site
    repulsion ``U``; ``periodic`` adds the wrap-around bond."""
    if sites < 1:
        raise ValueError("need at least one site")
    _require_width(sites)
    _require_finite(t=t, U=U)
    h = np.zeros((sites, sites))
    for i in range(sites - 1):
        h[i, i + 1] = h[i + 1, i] = -t
    if periodic and sites > 1:
        h[0, sites - 1] = h[sites - 1, 0] = -t
    g = np.zeros((sites,) * 4)
    for i in range(sites):
        g[i, i, i, i] = U
    return SpatialIntegrals(sites, h, g)


def pairing_model(levels: int, spacing: float, G: float) -> SpatialIntegrals:
    """A picket-fence pairing model: level ``k`` (1-based) at energy
    ``k * spacing``, constant pair-scattering amplitude ``-G`` between all
    level pairs, the diagonal ``(kk|kk) = -G`` included."""
    if levels < 1:
        raise ValueError("need at least one level")
    _require_width(levels)
    _require_finite(spacing=spacing, G=G)
    h = np.diag([k * spacing for k in range(1, levels + 1)])
    g = np.zeros((levels,) * 4)
    for k in range(levels):
        for l in range(levels):
            # (kl|kl) = -G and its index-symmetry images
            g[k, l, k, l] = g[l, k, k, l] = g[k, l, l, k] = g[l, k, l, k] = -G
    return SpatialIntegrals(levels, h, g)


def to_spin_orbitals(
    spatial: SpatialIntegrals, ordering: str = "interleaved"
) -> SpinOrbitalIntegrals:
    """Expand spatial integrals, or a stack of them, onto ``2 * n_spatial``
    spin orbitals; a stack expands point by point, bit for bit as each
    point alone.

    ``ordering`` selects the layout: ``"interleaved"`` alternates up/down
    within each spatial orbital, ``"blocked"`` puts all up spin orbitals
    first.  The two-electron output is antisymmetrized:

        <pq||rs> = (pr|qs) d(s_p,s_r) d(s_q,s_s) - (ps|qr) d(s_p,s_s) d(s_q,s_r)

    A difference of two huge integrals can overflow to infinity; that is
    not refused here but where a Hamiltonian element sums it.
    """
    n = spatial.n_spatial
    if ordering == "interleaved":
        layout, sp = interleaved_layout(n), np.repeat(np.arange(n), 2)
    elif ordering == "blocked":
        layout, sp = blocked_layout(n), np.tile(np.arange(n), 2)
    else:
        raise ValueError(f"unknown ordering {ordering!r}")

    up = np.array([s == UP for s in layout.spin_of])
    same = up[:, None] == up[None, :]

    h = spatial.h[(..., *np.ix_(sp, sp))] * same

    # <pq|rs> = (pr|qs) d(s_p,s_r) d(s_q,s_s): one gather from the chemists'
    # tensor read in physicists' index order, masked by the spins; the
    # exchange term is the same array with r and s swapped
    coulomb = spatial.g.swapaxes(-3, -2)[(..., *np.ix_(sp, sp, sp, sp))]
    coulomb *= same[:, None, :, None] & same[None, :, None, :]
    with np.errstate(over="ignore"):
        g = coulomb - coulomb.swapaxes(-2, -1)
    return SpinOrbitalIntegrals(layout, h, g, spatial.core_energy)


def load_integral_file(path: str) -> SpatialIntegrals:
    """Read a spatial-integral file (format in the module docstring)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()

    header: dict[str, int] | None = None
    h_entries: dict[tuple[int, int], float] = {}
    g_entries: dict[tuple[int, int, int, int], float] = {}
    core = 0.0
    core_seen = False

    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if header is None:
            header = _parse_header(text, lineno)
            continue
        tokens = text.split()
        if len(tokens) != 5:
            raise ParseError(f"expected '<value> i j k l', got {text!r}", lineno)
        try:
            value = float(tokens[0])
            i, j, k, l = (int(tok) for tok in tokens[1:])
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        if not np.isfinite(value):
            raise ParseError(f"non-finite value {tokens[0]!r}", lineno)

        n = header["NORB"]
        if (i, j, k, l) == (0, 0, 0, 0):
            if core_seen and abs(core - value) > _CONFLICT_TOL:
                raise SymmetryViolationError(
                    f"line {lineno}: core energy restated as {value!r}, had {core!r}"
                )
            core, core_seen = value, True
        elif k == 0 and l == 0:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(f"orbital index outside 1..{n}", lineno)
            _store(h_entries, (min(i, j), max(i, j)), value, lineno)
        else:
            if not all(1 <= x <= n for x in (i, j, k, l)):
                raise ParseError(f"orbital index outside 1..{n}", lineno)
            _store(g_entries, min(_images(i, j, k, l)), value, lineno)

    if header is None:
        raise ParseError("missing 'NORB= NELEC= MS2=' header line")

    n = header["NORB"]
    h = np.zeros((n, n))
    for (i, j), value in h_entries.items():
        h[i - 1, j - 1] = h[j - 1, i - 1] = value
    g = np.zeros((n, n, n, n))
    for key, value in g_entries.items():
        for a, b, c, d in _images(*key):
            g[a - 1, b - 1, c - 1, d - 1] = value

    return SpatialIntegrals(n, h, g, core, header["NELEC"], header["MS2"])


def _images(i: int, j: int, k: int, l: int) -> tuple[tuple[int, int, int, int], ...]:
    """The eight index-symmetry images of ``(ij|kl)``; the smallest is the stored key."""
    return (
        (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
        (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
    )


def _parse_header(text: str, lineno: int) -> dict[str, int]:
    fields: dict[str, int] = {}
    for token in text.split():
        key, eq, value = token.partition("=")
        if eq != "=" or key not in ("NORB", "NELEC", "MS2"):
            raise ParseError(f"unexpected header token {token!r}", lineno)
        try:
            fields[key] = int(value)
        except ValueError:
            raise ParseError(f"non-integer header value {token!r}", lineno) from None
    missing = {"NORB", "NELEC", "MS2"} - fields.keys()
    if missing:
        raise ParseError(f"header missing {sorted(missing)}", lineno)
    if fields["NORB"] < 1:
        raise ParseError("NORB must be positive", lineno)
    _require_width(fields["NORB"])
    return fields


def _store(entries: dict, key: tuple, value: float, lineno: int) -> None:
    if key in entries and abs(entries[key] - value) > _CONFLICT_TOL:
        raise SymmetryViolationError(
            f"line {lineno}: entry {key} restated as {value!r}, had {entries[key]!r}"
        )
    entries[key] = value


def save_integral_file(path: str, spatial: SpatialIntegrals) -> None:
    """Write ``spatial`` in the text format read by ``load_integral_file``.

    Floats are written with 17 significant digits, so a load of the saved
    file reproduces the arrays bit for bit.  Only one representative of each
    symmetry orbit is written, and exact zeros are skipped.
    """
    n = spatial.n_spatial
    out = [
        f"NORB={n} NELEC={spatial.n_electrons or 0} MS2={spatial.ms2 or 0}",
        f"{spatial.core_energy:.17g} 0 0 0 0",
    ]
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if spatial.h[i - 1, j - 1] != 0.0:
                out.append(f"{spatial.h[i - 1, j - 1]:.17g} {i} {j} 0 0")
    # in ascending order each symmetry orbit is first met at its smallest image
    for key in itertools.product(range(1, n + 1), repeat=4):
        if key == min(_images(*key)):
            value = spatial.g[tuple(index - 1 for index in key)]
            if value != 0.0:
                out.append(f"{value:.17g} {' '.join(map(str, key))}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
