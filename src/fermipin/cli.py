"""Command-line front end for the solve -> spectrum -> pinning pipeline.

Each command computes a JSON-serializable payload first; the table and CSV
renderers format that same payload, so every output format carries identical
numbers.  Exit codes: 0 success, 2 argument/model/parse problems, 3
representability violations, 4 when imposed constraints leave no
determinants.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from .ci import DENSE_CROSSOVER, CIVector, ground_states, solve_ground
from .errors import (
    FermipinError,
    NoSurvivorsError,
    RepresentabilityError,
    SpectralRangeError,
)
from .fock import (
    Determinant,
    ExcitationCensus,
    census,
    enumerate_space,
    interleaved_layout,
)
from .gpc import (
    DEFAULT_TIERS,
    TIER_NAMES,
    Catalog,
    GPConstraint,
    catalog,
    evaluate,
    evaluate_stack,
    load_catalog_file,
)
from .integrals import (
    SpatialIntegrals,
    SpinOrbitalIntegrals,
    hubbard_chain,
    load_integral_file,
    pairing_model,
    to_spin_orbitals,
)
from .rdm import OccupationSpectrum, natural_spectra, natural_spectrum, one_rdm, one_rdms
from .selection import SECTOR_PRESETS, filter_pinned, pinned_solve

LEADING_COEFFICIENTS = 8
# the most grid points a --scan may ask for, each one a solve, and the most
# states polytope --random may sample, each about 10 KB of report
MAX_POINTS = 10_000
# coefficients per stack of polytope --random samples (8 states of the
# 56-determinant (3, 8) space): stacks of 35 states ran 100 samples about
# 1.5 ms faster but raised the peak memory of a survey pass by 0.2-0.6 MB
_RANDOM_BLOCK = 500
# bytes of spin-orbital two-electron integrals per stack of scan points:
# 16 points at m = 8, where stacks of 16 ran the 41-point bench scan in
# about half the time of one point at a time; without a cap, 10 000 points
# at m = 16 would stack 5.2 GB
_SCAN_BLOCK = 512 * 1024
DEGREE_NAMES = {0: "reference", 1: "singles", 2: "doubles", 3: "triples"}
# the flags each model reads, with their defaults; a file: model reads none,
# and the float-valued ones are what scan may vary
MODEL_FLAGS = {
    "hubbard": {"sites": 2, "U": 0.0, "t": 1.0, "periodic": False},
    "pairing": {"levels": 2, "G": 0.0, "spacing": 1.0},
}


# ---------------------------------------------------------------------------
# model and catalog resolution


def _spatial_model(cfg: argparse.Namespace) -> tuple[SpatialIntegrals, str]:
    """The spatial integrals of the configured model, and its name."""
    if cfg.model is None:
        raise ValueError("this command needs --model")
    if cfg.model not in MODEL_FLAGS and not cfg.model.startswith("file:"):
        raise ValueError(f"unknown model {cfg.model!r}")
    own = MODEL_FLAGS.get(cfg.model, {})
    for flag in (flag for flags in MODEL_FLAGS.values() for flag in flags):
        if flag not in own and getattr(cfg, flag) is not None:
            raise ValueError(f"--{flag} does not apply to model {cfg.model!r}")
        if flag in own and getattr(cfg, flag) is None:
            setattr(cfg, flag, own[flag])
    if cfg.model == "hubbard":
        spatial = hubbard_chain(cfg.sites, cfg.t, cfg.U, cfg.periodic)
        periodic = ", periodic" if cfg.periodic else ""
        name = f"hubbard(sites={cfg.sites}, t={cfg.t:g}, U={cfg.U:g}{periodic})"
    elif cfg.model == "pairing":
        spatial = pairing_model(cfg.levels, cfg.spacing, cfg.G)
        name = f"pairing(levels={cfg.levels}, spacing={cfg.spacing:g}, G={cfg.G:g})"
    else:
        path = cfg.model[len("file:") :]
        spatial = load_integral_file(path)
        name = path
        if cfg.N is None:
            cfg.N = spatial.n_electrons
    return spatial, name


def _spin_orbitals(cfg: argparse.Namespace, spatial: SpatialIntegrals) -> SpinOrbitalIntegrals:
    """Spatial integrals, or a stack of them, expanded in the configured
    ordering and truncated to the configured rank."""
    so = to_spin_orbitals(spatial, cfg.ordering)
    return so if cfg.rank is None else so.truncated(cfg.rank)


def _resolve_model(cfg: argparse.Namespace) -> tuple[SpinOrbitalIntegrals, str]:
    """Build spin-orbital integrals for the configured model."""
    spatial, name = _spatial_model(cfg)
    return _spin_orbitals(cfg, spatial), name


def _resolve_space(cfg: argparse.Namespace, ints: SpinOrbitalIntegrals):
    if cfg.N is None:
        raise ValueError("this command needs --N (electron count)")
    return enumerate_space(cfg.N, ints.m, ints.layout, cfg.sz)


def _resolve_catalog(cfg: argparse.Namespace, N: int, m: int) -> Catalog:
    merged: Catalog | None = None
    try:
        merged = catalog(N, m)
    except FermipinError:
        pass
    for path in cfg.catalog_files:
        loaded = load_catalog_file(path)
        if (loaded.N, loaded.m) != (N, m):
            raise ValueError(
                f"catalog file {path} is for ({loaded.N},{loaded.m}), run needs ({N},{m})"
            )
        merged = loaded if merged is None else merged.merged(loaded)
    if merged is None:
        raise ValueError(
            f"no constraint catalog for (N, m) = ({N},{m}); supply one with --catalog"
        )
    return merged


def _chosen_constraints(
    cfg: argparse.Namespace, cat: Catalog, spectrum: OccupationSpectrum | None
) -> tuple[GPConstraint, ...]:
    """Resolve --mu/--with-equalities into concrete constraints."""
    if cfg.mu == "auto":
        if spectrum is None:
            raise ValueError("auto constraint selection needs a solved spectrum")
        tiers = evaluate(cat, spectrum, cfg.tiers).tiers
        chosen = [c for c in cat.constraints if tiers[c.mu] in TIER_NAMES[:2]]
        if not chosen:
            raise ValueError(
                "auto selection found no inequality within the "
                f"strong-quasipinning threshold {cfg.tiers[1]:g}; pass --mu explicitly"
            )
        return (*cat.equalities, *chosen)
    chosen = list(cat.equalities) if cfg.with_equalities else []
    chosen += [cat.find(mu) for mu in cfg.mu]
    if not chosen:
        raise ValueError("no constraints selected; pass --mu (or --with-equalities)")
    return tuple(chosen)


def _census_payload(tally: ExcitationCensus) -> dict:
    return {
        "reference": list(tally.reference.orbitals()),
        "counts": {str(k): v for k, v in sorted(tally.counts.items())},
        "total": tally.total,
    }


def _ground(cfg: argparse.Namespace) -> tuple[str, CIVector, OccupationSpectrum]:
    """The model name, its solved ground state and that state's natural
    spectrum."""
    ints, name = _resolve_model(cfg)
    state = solve_ground(ints, _resolve_space(cfg, ints))
    return name, state, natural_spectrum(one_rdm(state))


# ---------------------------------------------------------------------------
# commands (each returns the JSON payload)


def cmd_solve(cfg: argparse.Namespace) -> dict:
    name, state, spectrum = _ground(cfg)
    space = state.space
    return {
        "command": "solve",
        "model": name,
        "N": space.N,
        "m": space.m,
        "sector": space.sector,
        "space_size": len(space),
        "energy": state.energy,
        "degenerate": state.degenerate,
        "occupations": [float(v) for v in spectrum.n],
        "leading": [
            {"determinant": list(det.orbitals()), "coefficient": c}
            for det, c in state.leading(LEADING_COEFFICIENTS)
        ],
    }


def cmd_analyze(cfg: argparse.Namespace) -> dict:
    name, state, spectrum = _ground(cfg)
    space = state.space
    cat = _resolve_catalog(cfg, space.N, space.m)
    return {
        "command": "analyze",
        "model": name,
        "sector": space.sector,
        "space_size": len(space),
        "energy": state.energy,
        "degenerate": state.degenerate,
        "occupations": [float(v) for v in spectrum.n],
        **evaluate(cat, spectrum, cfg.tiers).payload(),
    }


def cmd_census(cfg: argparse.Namespace) -> dict:
    if cfg.preset is not None:
        given = [flag for flag in ("N", "m", "sz") if getattr(cfg, flag) is not None]
        if given:
            flags = ", ".join(f"--{flag}" for flag in given)
            raise ValueError(f"--preset fixes the space; it conflicts with {flags}")
        space = SECTOR_PRESETS[cfg.preset].space()
    else:
        if cfg.N is None or cfg.m is None:
            raise ValueError("census needs either --preset or both --N and --m")
        layout = interleaved_layout(cfg.m // 2) if cfg.sz is not None else None
        if layout is not None and layout.m != cfg.m:
            raise ValueError("--sz needs an even --m (interleaved layout)")
        space = enumerate_space(cfg.N, cfg.m, layout, cfg.sz)
    reference = Determinant.from_orbitals(range(1, space.N + 1), space.m)

    imposed: tuple[GPConstraint, ...] = ()
    if cfg.mu or cfg.with_equalities:
        cat = _resolve_catalog(cfg, space.N, space.m)
        imposed = _chosen_constraints(cfg, cat, None)
    survivors = filter_pinned(space, imposed).survivors if imposed else space
    if len(survivors) == 0:
        raise NoSurvivorsError("no determinant satisfies all imposed constraints")
    tally = _census_payload(census(survivors, reference))
    return {
        "command": "census",
        "N": space.N,
        "m": space.m,
        "sector": space.sector,
        "preset": cfg.preset,
        "imposed": [c.label for c in imposed],
        "base_size": len(space),
        "survivors": len(survivors),
        "removed": len(space) - len(survivors),
        "counts": tally["counts"],
        "determinants": [list(d.orbitals()) for d in survivors],
    }


def cmd_truncate(cfg: argparse.Namespace) -> dict:
    ints, name = _resolve_model(cfg)
    space = _resolve_space(cfg, ints)
    cat = _resolve_catalog(cfg, space.N, space.m)
    if cfg.mu == "auto":  # chosen from the spectrum pinned_solve computes anyway
        constraints = functools.partial(_chosen_constraints, cfg, cat)
    else:
        constraints = _chosen_constraints(cfg, cat, None)
    state = solve_ground(ints, space)
    result = pinned_solve(
        ints, state, constraints, cfg.max_iterations, cfg.occupation_tol
    )
    full_correlation = result.reference_energy - result.full_energy
    pinned_correlation = result.reference_energy - result.pinned_energy
    return {
        "command": "truncate",
        "model": name,
        "sector": space.sector,
        "imposed": [c.label for c in result.survivors.imposed],
        "space_size": len(space),
        "survivor_count": len(result.survivors),
        "full_energy": result.full_energy,
        "full_degenerate": state.degenerate,
        "reference_energy": result.reference_energy,
        "pinned_energy": result.pinned_energy,
        "recovered_fraction": result.recovered_fraction,
        "full_correlation": full_correlation,
        "pinned_correlation": pinned_correlation,
        "census_full": _census_payload(result.census_full),
        "census_pinned": _census_payload(result.census_pinned),
        "occupations": [float(v) for v in result.occupations],
        "iterations": result.iterations,
        "converged": result.converged,
        "survivor_determinants": [list(d.orbitals()) for d in result.survivors.survivors],
        "full_correlation_mha": 1000.0 * full_correlation,
        "pinned_correlation_mha": 1000.0 * pinned_correlation,
    }


def _scan_grid(cfg: argparse.Namespace) -> tuple[str, list[tuple[str, argparse.Namespace]]]:
    """The scan axis: (parameter name, [(row label, arguments of that point)])."""

    def point(**overrides) -> argparse.Namespace:
        return argparse.Namespace(**{**vars(cfg), **overrides})

    if cfg.files:
        if cfg.model is not None:
            raise ValueError("--files gives each point's model; it conflicts with --model")
        return "file", [(path, point(model=f"file:{path}")) for path in cfg.files]
    try:
        name, spec = cfg.scan.split("=", 1)
        start, stop, steps = spec.split(":")
        start, stop, count = _finite_float(start), _finite_float(stop), _parse_count(steps)
        # refused before the grid or any point is allocated
        if count > MAX_POINTS:
            raise ValueError(f"at most {MAX_POINTS} steps, got {count}")
        with np.errstate(all="ignore"):  # a range too wide for a float step
            values = np.linspace(start, stop, count)
        if not np.isfinite(values).all():
            raise ValueError("the grid's points overflow to non-finite values")
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"bad --scan {cfg.scan!r}: {exc}") from None
    allowed = tuple(flag for flag, default in MODEL_FLAGS.get(cfg.model, {}).items()
                    if isinstance(default, float))
    if name not in allowed:
        raise ValueError(
            f"cannot scan {name!r} for model {cfg.model!r}; choose from {allowed}"
        )
    return name, [(f"{v:.10g}", point(**{name: v})) for v in values]


def cmd_scan(cfg: argparse.Namespace) -> dict:
    parameter, grid = _scan_grid(cfg)
    # the geometry and the catalog come from the first grid point, whose
    # integral file also fixes a missing --N for every point; it is solved
    # alone, so that its failure ends the command, and its space serves
    # every point of the same width and layout; later points that fail (or
    # disagree) become NaN rows while the scan goes on
    first = grid[0][1]
    first_spatial, _ = _spatial_model(first)
    ints = _spin_orbitals(first, first_spatial)
    space = _resolve_space(first, ints)

    def solve(ints: SpinOrbitalIntegrals) -> tuple[list[float], OccupationSpectrum]:
        """The ground-state energies and natural spectra of a point or a
        stack of points, over the scan's space when the integrals have its
        width and layout, and over a space of their own otherwise."""
        own = space
        if (ints.m, ints.layout) != (space.m, space.layout):
            own = _resolve_space(first, ints)
        energies, coeffs, _ = ground_states(ints, own)
        return energies.tolist(), natural_spectra(one_rdms(own, coeffs))

    energies, spectra = solve(ints)
    cat = _resolve_catalog(cfg, space.N, space.m)
    # the residual columns follow the report's order: inequalities, then equalities
    columns = (
        [parameter, "energy"]
        + [f"n{i}" for i in range(1, space.m + 1)]
        + [c.label for c in cat.constraints + cat.equalities]
        + ["xi"]
    )
    errors = (FermipinError, OSError, ValueError)

    def values(energies: list[float], spectra: OccupationSpectrum) -> list[list[float]]:
        """The row values of each point of a stack of solved spectra."""
        reports = evaluate_stack(cat, spectra, cfg.tiers)
        return [
            [energy, *n, *(value for _, value in report.residuals + report.equality_residuals),
             report.xi]
            for energy, n, report in zip(energies, spectra.n.reshape(len(reports), -1).tolist(),
                                         reports, strict=True)
        ]

    results: list = []  # each point's row values, or the error that stopped it
    try:
        results += values(energies, spectra)
    except errors as exc:
        results.append(exc)
    # the later points go through as stacks of about _SCAN_BLOCK bytes of
    # g, on the dense path and in a sector only: there no 1-RDM couples the
    # spins, so a stack keeps the layout that each point's own 1-RDM keeps;
    # a stack that fails, or that mixes in another spatial width than the
    # first point's, goes point by point, so each failing point keeps its
    # own NaN row and message
    size = 1
    if space.sector is not None and len(space) <= DENSE_CROSSOVER:
        size = max(1, _SCAN_BLOCK // (8 * space.m**4))
    for start in range(1, len(grid), size):
        points = [point for _, point in grid[start : start + size]]
        for point in points:
            point.N = first.N
        if len(points) > 1:
            try:
                spatials = [_spatial_model(point)[0] for point in points]
                # raises ValueError unless every point has the first's width
                stack = SpatialIntegrals(
                    first_spatial.n_spatial,
                    np.stack([spatial.h for spatial in spatials]),
                    np.stack([spatial.g for spatial in spatials]),
                    np.array([spatial.core_energy for spatial in spatials]),
                )
                results += values(*solve(_spin_orbitals(first, stack)))
                continue
            except errors:
                pass
        for point in points:
            try:
                results += values(*solve(_resolve_model(point)[0]))
            except errors as exc:
                results.append(exc)

    rows: list[dict] = []
    for (label, _), result in zip(grid, results, strict=True):
        if isinstance(result, Exception):
            print(f"warning: {parameter}={label}: {result}", file=sys.stderr)
            rows.append({columns[0]: label, **{c: float("nan") for c in columns[1:]}})
        else:
            rows.append(dict(zip(columns, [label, *result])))
    return {"command": "scan", "parameter": parameter, "columns": columns, "rows": rows}


def cmd_polytope(cfg: argparse.Namespace) -> dict:
    cat = _resolve_catalog(cfg, cfg.N, cfg.m)
    samples: list[dict] = []

    def add(labels: list[str], spectra: OccupationSpectrum) -> None:
        reports = evaluate_stack(cat, spectra, cfg.tiers)
        occupations = spectra.n.reshape(len(reports), -1).tolist()
        samples.extend(
            {"sample": label, "occupations": n, **report.payload()}
            for label, n, report in zip(labels, occupations, reports, strict=True)
        )

    if cfg.occupations is not None:
        add(["supplied"], OccupationSpectrum.from_occupations(cfg.occupations, N=cfg.N))
    else:
        count = cfg.random if cfg.random is not None else 1
        if count > MAX_POINTS:  # refused before any sample is drawn
            raise ValueError(f"--random takes at most {MAX_POINTS} samples, got {count}")
        rng = np.random.default_rng(cfg.seed)
        space = enumerate_space(cfg.N, cfg.m)
        # the samples go through as stacks of about _RANDOM_BLOCK coefficients,
        # so memory does not grow with --random beyond the payload
        rows = max(1, _RANDOM_BLOCK // len(space))
        for start in range(0, count, rows):
            coeffs = rng.standard_normal((min(rows, count - start), len(space)))
            # each row over its np.linalg.norm, bit for bit
            coeffs /= np.sqrt(np.vecdot(coeffs, coeffs))[:, None]
            labels = [f"random-{k}" for k in range(start, start + len(coeffs))]
            add(labels, natural_spectra(one_rdms(space, coeffs)))
    return {
        "command": "polytope",
        "N": cfg.N,
        "m": cfg.m,
        "seed": cfg.seed,
        "samples": samples,
    }


# ---------------------------------------------------------------------------
# rendering (tables and CSV are formatted from the JSON payload)


def _fmt(value) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _grid(rows: list[Sequence[str]], indent: str = "") -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        indent + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _degree_name(degree: int) -> str:
    return DEGREE_NAMES.get(degree, f"degree-{degree}")


def _census_line(counts: dict) -> str:
    degrees = sorted(int(k) for k in counts)
    parts = [f"{_degree_name(d)} {counts[str(d)]}" for d in degrees]
    return ", ".join(parts)


def _occupations(values: list[float]) -> str:
    return "occupations: " + "  ".join(f"{v:.8f}" for v in values)


def _energy(value: float, degenerate: bool) -> str:
    return f"{_fmt(value)} Ha" + ("  (degenerate)" if degenerate else "")


def _report_table(payload: dict) -> list[str]:
    lines = []
    rows: list[Sequence[str]] = [("mu", "constraint", "residual", "tier")]
    for entry in payload["constraints"]:
        rows.append(
            (
                str(entry["mu"]),
                entry["formula"],
                f"{entry['residual']:.6e}",
                entry["tier"],
            )
        )
    lines.append(_grid(rows))
    if payload["equalities"]:
        lines.append("equalities (must vanish):")
        eq_rows: list[Sequence[str]] = [
            (str(e["mu"]), e["formula"], f"{e['residual']:.6e}")
            for e in payload["equalities"]
        ]
        lines.append(_grid(eq_rows, indent="  "))
    lines.append(f"xi (distance from the single-determinant vertex): {payload['xi']:.6e}")
    if payload.get("degeneracy_warning"):
        lines.append(
            "warning: degenerate occupations make some tier labels basis-dependent"
        )
    return lines


def _table_solve(payload: dict) -> str:
    lines = [
        f"model: {payload['model']}",
        f"space: N={payload['N']}, m={payload['m']}, sector={payload['sector']}, "
        f"{payload['space_size']} determinants",
        f"ground energy: {_energy(payload['energy'], payload['degenerate'])}",
        _occupations(payload["occupations"]),
        "leading coefficients:",
    ]
    rows = [
        ("[" + ",".join(str(o) for o in e["determinant"]) + "]", f"{e['coefficient']:+.8f}")
        for e in payload["leading"]
    ]
    lines.append(_grid(rows, indent="  "))
    return "\n".join(lines)


def _table_analyze(payload: dict) -> str:
    lines = [
        f"model: {payload['model']}",
        f"(N, m) = ({payload['N']}, {payload['m']}), sector={payload['sector']}, "
        f"{payload['space_size']} determinants",
        f"ground energy: {_energy(payload['energy'], payload['degenerate'])}",
        _occupations(payload["occupations"]),
    ]
    lines += _report_table(payload)
    return "\n".join(lines)


def _table_census(payload: dict) -> str:
    source = payload["preset"] or f"(N, m) = ({payload['N']}, {payload['m']})"
    lines = [
        f"space: {source}, sector={payload['sector']}, {payload['base_size']} determinants"
    ]
    if payload["imposed"]:
        lines.append(
            f"imposed: {', '.join(payload['imposed'])}  "
            f"(survivors {payload['survivors']}, removed {payload['removed']})"
        )
    rows: list[Sequence[str]] = [("excitation", "count")]
    for degree in sorted(int(k) for k in payload["counts"]):
        rows.append((_degree_name(degree), str(payload["counts"][str(degree)])))
    rows.append(("total", str(payload["survivors"])))
    lines.append(_grid(rows))
    return "\n".join(lines)


def _table_truncate(payload: dict) -> str:
    recovered = 100.0 * payload["recovered_fraction"]
    lines = [
        f"model: {payload['model']}",
        f"imposed: {', '.join(payload['imposed'])}",
        f"determinants: {payload['space_size']} -> {payload['survivor_count']}",
        f"full energy:      {_energy(payload['full_energy'], payload['full_degenerate'])}",
        f"pinned energy:    {_fmt(payload['pinned_energy'])} Ha",
        f"reference energy: {_fmt(payload['reference_energy'])} Ha",
        f"correlation: full {payload['full_correlation_mha']:.2f} mHa, "
        f"pinned {payload['pinned_correlation_mha']:.2f} mHa  "
        f"(recovered {recovered:.2f}%)",
        f"iterations: {payload['iterations']}"
        + ("" if payload["converged"] else "  (not converged)"),
        f"census full:   {_census_line(payload['census_full']['counts'])}",
        f"census pinned: {_census_line(payload['census_pinned']['counts'])}",
        _occupations(payload["occupations"]),
    ]
    return "\n".join(lines)


def _table_scan(payload: dict) -> str:
    rows = [tuple(payload["columns"])] + [
        tuple(_fmt(row[c]) for c in payload["columns"]) for row in payload["rows"]
    ]
    return _grid(rows)


def _table_polytope(payload: dict) -> str:
    lines = [f"(N, m) = ({payload['N']}, {payload['m']})"]
    for sample in payload["samples"]:
        lines.append(f"sample {sample['sample']}:")
        lines.append("  " + _occupations(sample["occupations"]))
        for block in _report_table(sample):
            lines += ["  " + line for line in block.split("\n")]
    return "\n".join(lines)


def _csv_solve(payload: dict) -> tuple[list[str], list[list]]:
    cols = ["energy"] + [f"n{i}" for i in range(1, payload["m"] + 1)]
    return cols, [[payload["energy"], *payload["occupations"]]]


def _csv_samples(samples: list[dict]) -> tuple[list[str], list[list]]:
    """One row per constraint, equality and xi of each evaluated spectrum."""
    cols = ["sample", "mu", "formula", "residual", "tier"]
    rows = []
    for sample in samples:
        label = sample.get("sample", "ground")
        for entry in sample["constraints"]:
            rows.append([label, entry["mu"], entry["formula"], entry["residual"], entry["tier"]])
        for entry in sample["equalities"]:
            rows.append([label, entry["mu"], entry["formula"], entry["residual"], "equality"])
        rows.append([label, "xi", "", sample["xi"], ""])
    return cols, rows


def _csv_census(payload: dict) -> tuple[list[str], list[list]]:
    counts = payload["counts"]
    return ["degree", "count"], [[k, counts[k]] for k in sorted(counts, key=int)]


def _csv_truncate(payload: dict) -> tuple[list[str], list[list]]:
    cols = ["full_energy", "pinned_energy", "reference_energy", "full_correlation_mha",
            "pinned_correlation_mha", "recovered_fraction", "survivor_count", "iterations",
            "converged"]
    return cols, [[payload[c] for c in cols]]


def _csv_scan(payload: dict) -> tuple[list[str], list[list]]:
    cols = payload["columns"]
    return cols, [[row[c] for c in cols] for row in payload["rows"]]


@functools.cache
def _flat_encoder(newline: str):
    """json's C encoder for a container of scalars whose items each start a
    line of ``newline``: it writes ``[a,<newline>b]``, and the caller puts
    the bracket lines around it."""
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
        ": ", "," + newline, False, False, True)


def _write_json(value, newline: str, parts: list[str]) -> None:
    """Append the ``json.dumps(indent=2)`` text of ``value``, which starts on
    a line of ``newline`` ("\\n" and its indentation), to ``parts``.

    Only containers of containers are walked here; every scalar and every
    container of scalars is written by json's C encoder, so each number and
    string has json's own text.  Dict keys are ``str``.
    """
    if isinstance(value, dict):
        opening, closing, items = "{", "}", value.values()
    elif isinstance(value, (list, tuple)):
        opening, closing, items = "[", "]", value
    else:
        parts += _flat_encoder(newline)(value, 0)
        return
    if not value:
        parts.append(opening + closing)
        return
    inner = newline + "  "
    if not any(isinstance(item, (dict, list, tuple)) for item in items):
        text = "".join(_flat_encoder(inner)(value, 0))
        parts += (opening, inner, text[1:-1], newline, closing)
        return
    separator = opening + inner
    if closing == "}":
        for key, item in value.items():
            parts += (separator, json.encoder.encode_basestring_ascii(key), ": ")
            _write_json(item, inner, parts)
            separator = "," + inner
    else:
        for item in value:
            parts.append(separator)
            _write_json(item, inner, parts)
            separator = "," + inner
    parts += (newline, closing)


def _json_text(payload) -> str:
    """Exactly ``json.dumps(payload, indent=2)``, which runs json's
    pure-Python encoder one token at a time, here with each container of
    scalars encoded whole in C.  Without the C encoder it is that call."""
    if json.encoder.c_make_encoder is None:
        return json.dumps(payload, indent=2)
    parts: list[str] = []
    _write_json(payload, "\n", parts)
    return "".join(parts)


def _render(cfg: argparse.Namespace, payload: dict) -> str:
    if cfg.format == "json":
        return _json_text(payload)
    if cfg.format == "csv":
        cols, rows = cfg.csv(payload)
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            # floats are written with enough digits to round-trip exactly
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
        return out.getvalue().rstrip("\n")
    return cfg.table(payload)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(
    sub: argparse.ArgumentParser, catalog: bool = True, tiers: bool = True
) -> None:
    """Output flags, plus --catalog and --tiers where the command reads them."""
    sub.add_argument("--format", choices=("table", "json", "csv"), default="table")
    sub.add_argument("--output", help="write the report to this file")
    if tiers:
        sub.add_argument(
            "--tiers",
            type=_parse_tiers,
            default=DEFAULT_TIERS,
            help="pinning thresholds a,b,c (default 1e-10,1e-4,1e-2)",
        )
    if catalog:
        sub.add_argument(
            "--catalog",
            dest="catalog_files",
            action="append",
            default=[],
            help="append a constraint catalog file (repeatable)",
        )


def _add_model(sub: argparse.ArgumentParser) -> None:
    """--model and its flags; a model flag left out is None here and gets
    its default from MODEL_FLAGS once the model is known."""
    sub.add_argument("--model", help="hubbard, pairing, or file:<path>")
    sub.add_argument("--sites", type=int, help="hubbard chain length")
    # argparse reads -1e-3 and -inf as option strings, so a negative value
    # with an exponent must be attached with '=', as in --U=-1e-3
    sub.add_argument("--t", type=_finite_float,
                     help="hubbard hopping; write -1e-3 as --t=-1e-3")
    sub.add_argument("--U", type=_finite_float,
                     help="hubbard on-site repulsion; write -1e-3 as --U=-1e-3")
    sub.add_argument("--periodic", action="store_true", default=None)
    sub.add_argument("--levels", type=int, help="pairing level count")
    sub.add_argument("--spacing", type=_finite_float,
                     help="pairing level spacing; write -1e-3 as --spacing=-1e-3")
    sub.add_argument("--G", type=_finite_float,
                     help="pairing strength; write -1e-3 as --G=-1e-3")
    sub.add_argument("--N", type=int, default=None, help="number of electrons")
    sub.add_argument("--sz", type=int, default=None, help="2*S_z sector (omit for the full space)")
    sub.add_argument("--rank", type=int, default=None, help="keep only the first RANK spin orbitals")
    sub.add_argument("--ordering", choices=("interleaved", "blocked"), default="interleaved")


def _finite_float(text: str) -> float:
    """The value of a float flag; NaN, infinities and non-numbers exit 2."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number: {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number: {text!r}")
    return value


def _parse_tiers(text: str) -> tuple[float, float, float]:
    parts = [_finite_float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("--tiers needs exactly three values a,b,c")
    return tuple(parts)  # type: ignore[return-value]


def _parse_mu(text: str) -> str | tuple[int, ...]:
    if text.strip() == "auto":
        return "auto"
    try:
        indices = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected indices a,b,... or 'auto': {text!r}") from None
    repeated = [mu for k, mu in enumerate(indices) if mu in indices[:k]]
    if repeated:
        raise argparse.ArgumentTypeError(f"constraint index {repeated[0]} repeated: {text!r}")
    return indices


def _parse_occupations(text: str) -> tuple[float, ...]:
    return tuple(_finite_float(p) for p in text.split(","))


def _parse_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a count of at least 1: {text!r}")
    return int(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: each parse
    starts from a fresh namespace, so no call sees another's values."""
    parser = argparse.ArgumentParser(
        prog="fermipin",
        description="Exact diagonalization and occupation-spectrum pinning analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="ground state, energy, and occupations")
    _add_model(p)
    _add_common(p, catalog=False, tiers=False)
    p.set_defaults(run=cmd_solve, table=_table_solve, csv=_csv_solve)

    p = sub.add_parser("analyze", help="solve, then evaluate every catalog constraint")
    _add_model(p)
    _add_common(p)
    p.set_defaults(run=cmd_analyze, table=_table_analyze,
                   csv=lambda payload: _csv_samples([payload]))

    p = sub.add_parser("census", help="excitation census, optionally after filtering")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--sz", type=int, default=None)
    p.add_argument("--preset", choices=sorted(SECTOR_PRESETS), default=None)
    p.add_argument("--mu", type=_parse_mu, default=(), help="comma-separated constraint indices")
    p.add_argument("--with-equalities", action="store_true")
    _add_common(p, tiers=False)
    p.set_defaults(run=cmd_census, table=_table_census, csv=_csv_census)

    p = sub.add_parser("truncate", help="force-pinned truncated solve vs the full one")
    _add_model(p)
    p.add_argument("--mu", type=_parse_mu, default=(), help="constraint indices, or 'auto'")
    p.add_argument("--with-equalities", action="store_true")
    p.add_argument("--max-iterations", type=int, default=100)
    p.add_argument("--occupation-tol", type=_positive_float, default=1e-10)
    _add_common(p)
    p.set_defaults(run=cmd_truncate, table=_table_truncate, csv=_csv_truncate)

    p = sub.add_parser("scan", help="residual trajectories over a parameter grid")
    _add_model(p)
    axis = p.add_mutually_exclusive_group(required=True)
    axis.add_argument("--scan", help="NAME=START:STOP:STEPS, e.g. U=0:8:9")
    axis.add_argument("--files", nargs="+", help="integral files to scan over")
    _add_common(p)
    p.set_defaults(format="csv", run=cmd_scan, table=_table_scan, csv=_csv_scan)

    p = sub.add_parser("polytope", help="evaluate occupation vectors directly")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--occupations", type=_parse_occupations, default=None)
    source.add_argument(
        "--random", type=_parse_count, default=None, help="sample this many random states"
    )
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the --random samples")
    p.set_defaults(run=cmd_polytope, table=_table_polytope,
                   csv=lambda payload: _csv_samples(payload["samples"]))

    return parser


def _quiet_closed_stdout() -> None:
    """Take a closed stdout pipe as its reader being done (``| head``).

    Where stdout has a file descriptor, it is pointed at devnull, so the
    flush at interpreter exit raises nothing; an in-memory stream has none.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        text = _render(args, args.run(args))
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            try:
                print(text, flush=True)
            except BrokenPipeError:
                _quiet_closed_stdout()
    except NoSurvivorsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (RepresentabilityError, SpectralRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FermipinError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:  # str() of a KeyError is the repr of its key
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
