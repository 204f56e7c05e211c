"""In-process tests for the command-line interface."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from fermipin import cli
from fermipin.ci import DENSE_CROSSOVER, CIVector, solve_ground
from fermipin.cli import main
from fermipin.errors import FermipinError
from fermipin.fock import MAX_WIDTH, UP, SpinOrbitalLayout, enumerate_space, space_size
from fermipin.gpc import catalog, evaluate
from fermipin.integrals import hubbard_chain, save_integral_file, to_spin_orbitals
from fermipin.rdm import natural_spectrum, one_rdm

HUB36 = ["--model", "hubbard", "--sites", "3", "--N", "3", "--sz", "1", "--U", "2"]


def _run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def test_analyze_table(capsys) -> None:
    code, out, err = _run(capsys, ["analyze", *HUB36])
    assert code == 0
    assert err == ""
    assert "2 - n1 - n2 - n4" in out
    assert "pinned" in out
    assert "1 - n1 - n6" in out  # the identity check rides along
    assert "xi" in out


def test_the_model_line_names_a_periodic_chain(capsys) -> None:
    argv = ["solve", "--model", "hubbard", "--sites", "4", "--N", "4", "--sz", "0", "--U", "2"]
    code, chain, _ = _run(capsys, argv)
    assert code == 0
    assert chain.splitlines()[0] == "model: hubbard(sites=4, t=1, U=2)"
    code, ring, _ = _run(capsys, [*argv, "--periodic"])
    assert code == 0
    assert ring.splitlines()[0] == "model: hubbard(sites=4, t=1, U=2, periodic)"
    # the two models have different ground states
    assert chain.splitlines()[2] != ring.splitlines()[2]


def test_json_is_the_source_of_truth(capsys) -> None:
    code, out, _ = _run(capsys, ["analyze", *HUB36, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "analyze"
    assert payload["constraints"][0]["tier"] == "pinned"

    code, table, _ = _run(capsys, ["analyze", *HUB36])
    assert code == 0
    # the table is formatted from the same payload
    assert f"{payload['constraints'][0]['residual']:.6e}" in table
    assert f"{payload['xi']:.6e}" in table

    code, text, _ = _run(capsys, ["analyze", *HUB36, "--format", "csv"])
    rows = _rows(text)
    by_mu = {row["mu"]: row for row in rows}
    assert float(by_mu["1"]["residual"]) == payload["constraints"][0]["residual"]
    assert float(by_mu["xi"]["residual"]) == payload["xi"]
    assert by_mu["n1+n6"]["tier"] == "equality"


def test_solve_csv_round_trips(capsys) -> None:
    argv = ["solve", "--model", "pairing", "--levels", "4", "--G", "0.5",
            "--N", "4", "--sz", "0"]
    code, out, _ = _run(capsys, [*argv, "--format", "json"])
    assert code == 0
    payload = json.loads(out)

    code, text, _ = _run(capsys, [*argv, "--format", "csv"])
    assert code == 0
    (row,) = _rows(text)
    assert float(row["energy"]) == payload["energy"]
    for i, value in enumerate(payload["occupations"], start=1):
        assert float(row[f"n{i}"]) == value


def test_census_reproduces_the_selection_tables(capsys) -> None:
    code, out, _ = _run(
        capsys,
        ["census", "--N", "3", "--m", "6", "--with-equalities", "--mu", "1",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["base_size"] == 20
    assert payload["survivors"] == 3
    assert payload["counts"] == {"0": 1, "2": 2}
    assert payload["determinants"] == [[1, 2, 3], [1, 4, 5], [2, 4, 6]]

    code, out, _ = _run(
        capsys, ["census", "--preset", "4in8-restricted", "--mu", "14",
                 "--format", "json"],
    )
    payload = json.loads(out)
    assert payload["base_size"] == 16
    assert payload["counts"] == {"0": 1, "2": 9}

    code, out, _ = _run(capsys, ["census", "--N", "3", "--m", "6", "--sz", "1",
                                 "--format", "json"])
    payload = json.loads(out)
    assert payload["base_size"] == 9
    assert payload["sector"] == 1


def test_truncate_auto_recovers_the_weak_regime(capsys) -> None:
    code, out, _ = _run(capsys, ["truncate", *HUB36, "--mu", "auto",
                                 "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"]
    assert "D^1" in payload["imposed"]
    assert "n1+n6" in payload["imposed"]
    assert abs(payload["recovered_fraction"] - 1.0) < 1e-9
    assert abs(payload["full_correlation_mha"] - payload["pinned_correlation_mha"]) < 1e-6
    assert payload["survivor_count"] == 3


@pytest.mark.parametrize("model, mu, imposed, iterations, converged", [
    (["--model", "hubbard", "--sites", "4", "--U", "4.0", "--N", "3", "--sz", "1"],
     "2", ["D^2"], 100, False),  # the natural frames cycle
    (["--model", "hubbard", "--sites", "4", "--U", "4.0", "--N", "4", "--sz", "0"],
     "1", ["D^1"], 3, True),
    (["--model", "pairing", "--levels", "4", "--G", "0.5", "--N", "4", "--sz", "0"],
     "5", ["D^5"], 2, True),
    (["--model", "hubbard", "--sites", "3", "--U", "2.0", "--N", "3", "--sz", "1"],
     "auto", ["n1+n6", "n2+n5", "n3+n4", "D^1"], 1, True),
])
def test_truncate_keeps_the_recorded_pinned_loop_outcomes(
    capsys, model, mu, imposed, iterations, converged
) -> None:
    code, out, _ = _run(capsys, ["truncate", *model, "--mu", mu, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["imposed"] == imposed
    assert payload["iterations"] == iterations
    assert payload["converged"] is converged
    assert payload["pinned_energy"] >= payload["full_energy"]


def test_truncate_no_survivors_exits_4(capsys, tmp_path) -> None:
    path = tmp_path / "impossible.cat"
    path.write_text("3 6 99 1 0 0 0 0 0 0\n")
    code, out, err = _run(
        capsys, ["truncate", *HUB36, "--catalog", str(path), "--mu", "99"]
    )
    assert code == 4
    assert "no determinants" in err
    assert out == ""


def test_scan_is_csv_and_continuous(capsys) -> None:
    code, out, err = _run(
        capsys,
        ["scan", "--model", "hubbard", "--sites", "3", "--N", "3", "--sz", "1",
         "--scan", "U=0:8:9"],
    )
    assert code == 0
    assert err == ""
    rows = _rows(out)
    assert len(rows) == 9
    assert [row["U"] for row in rows] == [f"{v:g}" for v in range(9)]
    for column in ("energy", "D^1", "xi", "n1"):
        values = [float(row[column]) for row in rows]
        assert not any(np.isnan(values))
        assert max(abs(np.diff(values))) < 0.1 or column == "energy"


def test_single_point_scan_matches_analyze(capsys) -> None:
    code, out, _ = _run(capsys, ["analyze", *HUB36, "--format", "json"])
    payload = json.loads(out)
    code, text, _ = _run(
        capsys,
        ["scan", "--model", "hubbard", "--sites", "3", "--N", "3", "--sz", "1",
         "--scan", "U=2:2:1"],
    )
    assert code == 0
    (row,) = _rows(text)
    assert float(row["energy"]) == payload["energy"]
    assert float(row["xi"]) == payload["xi"]
    assert float(row["D^1"]) == payload["constraints"][0]["residual"]


def test_scan_over_files_tolerates_bad_points(capsys, tmp_path) -> None:
    paths = []
    for i, U in enumerate((1.0, 4.0)):
        spatial = hubbard_chain(3, 1.0, U)
        spatial.n_electrons = 3
        spatial.ms2 = 1
        path = tmp_path / f"geom{i}.ints"
        save_integral_file(str(path), spatial)
        paths.append(str(path))
    broken = tmp_path / "broken.ints"
    broken.write_text("NORB=what\n")
    paths.append(str(broken))

    code, out, err = _run(capsys, ["scan", "--files", *paths, "--sz", "1"])
    assert code == 0
    assert "warning" in err and "broken.ints" in err
    rows = _rows(out)
    assert len(rows) == 3
    assert not np.isnan(float(rows[0]["energy"]))
    assert not np.isnan(float(rows[1]["energy"]))
    assert np.isnan(float(rows[2]["energy"]))


@pytest.mark.parametrize("ordering, spaces", [("blocked", 2), ("interleaved", 1)])
def test_scan_files_of_another_width_equal_their_own_analysis(capsys, monkeypatch, tmp_path,
                                                               ordering, spaces) -> None:
    # truncated to 6 spin orbitals, the 4-site chain keeps the 3-site one's
    # layout when interleaved, and has 4 up and 2 down orbitals when blocked
    paths = []
    for sites, U in ((3, 1.0), (4, 2.0), (3, 4.0)):
        spatial = hubbard_chain(sites, 1.0, U)
        spatial.n_electrons, spatial.ms2 = 3, 1
        paths.append(str(tmp_path / f"chain{sites}-{U:g}.ints"))
        save_integral_file(paths[-1], spatial)
    flags = ["--sz", "1", "--rank", "6", "--ordering", ordering, "--format", "json"]
    analyses = []
    for path in paths:
        code, out, _ = _run(capsys, ["analyze", "--model", f"file:{path}", *flags])
        assert code == 0
        analyses.append(json.loads(out))
    assert (analyses[1]["space_size"] == analyses[0]["space_size"]) is (spaces == 1)

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return enumerate(*args, **kwargs)

    enumerate = cli.enumerate_space
    monkeypatch.setattr(cli, "enumerate_space", spy)
    code, out, err = _run(capsys, ["scan", "--files", *paths, *flags])
    assert (code, err, len(calls)) == (0, "", spaces)
    payload = json.loads(out)
    for row, analysis in zip(payload["rows"], analyses, strict=True):
        expected = [analysis["energy"], *analysis["occupations"],
                    *(entry["residual"] for entry in analysis["constraints"]),
                    *(entry["residual"] for entry in analysis["equalities"]), analysis["xi"]]
        assert [row[c] for c in payload["columns"][1:]] == expected


def test_polytope_is_seeded_and_deterministic(capsys) -> None:
    argv = ["polytope", "--N", "3", "--m", "6", "--random", "3",
            "--seed", "42", "--format", "json"]
    code, first, _ = _run(capsys, argv)
    assert code == 0
    code, second, _ = _run(capsys, argv)
    assert first == second

    code, other, _ = _run(capsys, [*argv[:-3], "7", "--format", "json"])
    assert json.loads(other)["samples"][0]["occupations"] != (
        json.loads(first)["samples"][0]["occupations"]
    )
    # every random sample satisfies the rank-six identities
    for sample in json.loads(first)["samples"]:
        for entry in sample["equalities"]:
            assert abs(entry["residual"]) < 1e-10


def test_polytope_rejects_infeasible_occupations(capsys) -> None:
    code, out, err = _run(
        capsys,
        ["polytope", "--N", "3", "--m", "6",
         "--occupations", "0.9,0.9,0.9,0.4,0.2,0.1"],
    )
    assert code == 3
    assert "negative" in err


def test_vertex_spectrum_analysis(capsys) -> None:
    code, out, _ = _run(
        capsys,
        ["analyze", "--model", "hubbard", "--sites", "3", "--N", "3",
         "--sz", "3", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["space_size"] == 1
    assert payload["xi"] == 0.0
    assert all(entry["tier"] == "pinned" for entry in payload["constraints"])


def test_tier_threshold_override(capsys) -> None:
    code, out, _ = _run(
        capsys,
        ["analyze", *HUB36, "--tiers", "1e-18,1e-12,1e-2", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["thresholds"] == [1e-18, 1e-12, 1e-2]
    assert payload["constraints"][0]["tier"] == "strong-quasipinned"


def test_catalog_files_append_to_the_built_in(capsys, tmp_path) -> None:
    path = tmp_path / "extra.cat"
    path.write_text("3 6 50 1 -1 -1 1 0 0 0\n")
    code, out, _ = _run(
        capsys, ["analyze", *HUB36, "--catalog", str(path), "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    labels = [entry["mu"] for entry in payload["constraints"]]
    assert labels == [1, 50]


def test_output_file(capsys, tmp_path) -> None:
    target = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, ["analyze", *HUB36, "--format", "json", "--output", str(target)]
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "analyze"


def test_usage_errors_exit_2(capsys, tmp_path) -> None:
    assert _run(capsys, ["solve", "--model", "nosuch"])[0] == 2
    assert _run(capsys, ["solve", "--model", "hubbard", "--sites", "3"])[0] == 2
    assert _run(capsys, ["census"])[0] == 2
    assert _run(capsys, ["scan", "--model", "hubbard", "--sites", "3", "--N", "3",
                         "--scan", "U=zero:8:9"])[0] == 2
    assert _run(capsys, ["truncate", *HUB36])[0] == 2  # no constraints picked
    assert _run(capsys, ["census", "--N", "3", "--m", "6", "--mu", "x"])[0] == 2
    assert _run(capsys, ["scan", "--model", "hubbard", "--sites", "2", "--N", "2",
                         "--sz", "0", "--scan", "U=0:8:0"])[0] == 2
    assert _run(capsys, ["truncate", *HUB36, "--mu", "1", "--with-equalities",
                         "--max-iterations", "0"])[0] == 2
    for count in ("-2", "0", "x"):
        assert _run(capsys, ["polytope", "--N", "3", "--m", "6", "--random", count])[0] == 2
    assert _run(capsys, ["polytope", "--N", "3", "--m", "6", "--random", "5",
                         "--occupations", "0.99,0.98,0.97,0.03,0.02,0.01"])[0] == 2
    unwritable = str(tmp_path / "missing" / "report.txt")
    code, out, err = _run(capsys, ["solve", "--model", "hubbard", "--sites", "2", "--N", "2",
                                   "--output", unwritable])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert _run(capsys, [])[0] == 2
    assert _run(capsys, ["--help"])[0] == 0
    # more spatial orbitals than 64 spin orbitals hold, refused before the
    # n**4 integral array is allocated
    huge = tmp_path / "huge.ints"
    huge.write_text("NORB=1000 NELEC=2 MS2=0\n1.0 1 1 0 0\n")
    for argv in (["solve", "--model", "hubbard", "--sites", "1000", "--N", "2"],
                 ["solve", "--model", "pairing", "--levels", "1000", "--N", "2"],
                 ["solve", "--model", f"file:{huge}"],
                 ["scan", "--model", "hubbard", "--sites", "1000", "--N", "2",
                  "--scan", "U=0:1:2"]):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert "1000 spatial orbitals exceed" in err


def test_non_finite_numbers_exit_2_naming_the_value(capsys) -> None:
    hubbard = ["solve", "--model", "hubbard", "--sites", "2", "--N", "2"]
    pairing = ["solve", "--model", "pairing", "--levels", "2", "--N", "2"]
    for argv, value in (
        ([*hubbard, "--t", "inf"], "inf"),
        ([*hubbard, "--U", "nan"], "nan"),
        ([*pairing, "--spacing=-inf"], "-inf"),
        ([*pairing, "--G", "nan"], "nan"),
        (["analyze", *HUB36, "--tiers", "1e-10,1e-4,inf"], "inf"),
        (["polytope", "--N", "3", "--m", "6", "--occupations", "nan,1,1,0,0,0"], "nan"),
        (["truncate", *HUB36, "--mu", "1", "--occupation-tol", "nan"], "nan"),
        (["truncate", *HUB36, "--mu", "1", "--occupation-tol", "0"], "0"),
        (["scan", *HUB36, "--scan", "U=nan:8:9"], "nan"),
        (["scan", *HUB36, "--scan", "U=0:inf:9"], "inf"),
    ):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert repr(value) in err and "Traceback" not in err, argv


def test_scan_grid_that_overflows_exits_2_without_warnings(capsys) -> None:
    # both ends are finite, but the step between them overflows a float
    for steps in ("3", "9"):
        scan = f"U=-1e308:1e308:{steps}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(capsys, ["scan", *HUB36, "--scan", scan])
        assert (code, out) == (2, "")
        assert err == f"error: bad --scan {scan!r}: the grid's points overflow to non-finite values\n"
        assert caught == []


def test_scan_steps_are_a_count_and_an_unallocatable_grid_exits_2(capsys) -> None:
    for steps in ("0", "x"):
        scan = f"U=0:8:{steps}"
        code, out, err = _run(capsys, ["scan", *HUB36, "--scan", scan])
        assert (code, out) == (2, "")
        assert err == f"error: bad --scan {scan!r}: expected a count of at least 1: {steps!r}\n"
    # 10**16 float64 points are 71 PiB, beyond any 64-bit address space
    scan = f"U=0:8:{10**16}"
    code, out, err = _run(capsys, ["scan", *HUB36, "--scan", scan])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad --scan {scan!r}: ") and "Traceback" not in err
    # np.linspace raises IndexError on 2**63 - 1 points, before any allocation
    scan = f"U=0:8:{2**63 - 1}"
    code, out, err = _run(capsys, ["scan", "--model", "hubbard", "--sites", "3", "--N", "3",
                                   "--sz", "1", "--scan", scan])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad --scan {scan!r}: ") and "Traceback" not in err


def test_scan_steps_above_the_bound_exit_2_before_the_grid_is_built(capsys,
                                                                  monkeypatch) -> None:
    grids = []

    def spy(*args, **kwargs):
        grids.append(args)
        return linspace(*args, **kwargs)

    linspace = np.linspace
    monkeypatch.setattr(np, "linspace", spy)
    scan = "U=0:8:100000000"
    code, out, err = _run(capsys, ["scan", *HUB36, "--scan", scan])
    assert (code, out, grids) == (2, "", [])
    assert err == (f"error: bad --scan {scan!r}: "
                   f"at most {cli.MAX_POINTS} steps, got 100000000\n")
    # the bound itself is allowed, one step more is not
    monkeypatch.setattr(cli, "MAX_POINTS", 3)
    assert _run(capsys, ["scan", *HUB36, "--scan", "U=0:8:3"])[0] == 0
    assert _run(capsys, ["scan", *HUB36, "--scan", "U=0:8:4"])[0] == 2
    assert grids == [(0.0, 8.0, 3)]


def test_random_samples_above_the_bound_exit_2_before_any_is_drawn(capsys,
                                                                   monkeypatch) -> None:
    draws = []

    def spy(*args, **kwargs):
        draws.append(args)
        return default_rng(*args, **kwargs)

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", spy)
    argv = ["polytope", "--N", "3", "--m", "8", "--random"]
    code, out, err = _run(capsys, [*argv, "100000000"])
    assert (code, out, draws) == (2, "", [])
    assert err == f"error: --random takes at most {cli.MAX_POINTS} samples, got 100000000\n"
    # the bound itself is allowed, one sample more is not
    monkeypatch.setattr(cli, "MAX_POINTS", 3)
    assert _run(capsys, [*argv, "3"])[0] == 0
    assert _run(capsys, [*argv, "4"])[0] == 2
    assert draws == [(0,)]


def test_scan_axis_flags_exclude_each_other_and_the_model(capsys, tmp_path) -> None:
    spatial = hubbard_chain(3, 1.0, 2.0)
    spatial.n_electrons, spatial.ms2 = 3, 1
    path = tmp_path / "geom.ints"
    save_integral_file(str(path), spatial)
    code, out, err = _run(capsys, ["scan", "--files", str(path), "--sz", "1",
                                   "--scan", "U=0:8:3"])
    assert (code, out) == (2, "")
    assert "argument --scan: not allowed with argument --files" in err
    code, out, err = _run(capsys, ["scan", "--model", "pairing", "--files", str(path),
                                   "--sz", "1"])
    assert (code, out) == (2, "")
    assert err == "error: --files gives each point's model; it conflicts with --model\n"
    code, out, err = _run(capsys, ["scan", *HUB36])
    assert (code, out) == (2, "")
    assert "one of the arguments --scan --files is required" in err


def test_a_model_refuses_the_flags_of_another(capsys, tmp_path) -> None:
    hubbard_flags = ["--sites", "9", "--U", "5", "--periodic"]
    code, out, err = _run(capsys, ["solve", "--model", "pairing", "--levels", "2", "--N", "2",
                                   "--sz", "0", *hubbard_flags])
    assert (code, out, err) == (2, "", "error: --sites does not apply to model 'pairing'\n")
    code, out, err = _run(capsys, ["solve", "--model", "hubbard", "--sites", "2", "--N", "2",
                                   "--G", "3"])
    assert (code, out, err) == (2, "", "error: --G does not apply to model 'hubbard'\n")
    # an integral file fixes the whole model, so it reads no model flag at all
    spatial = hubbard_chain(3, 1.0, 2.0)
    spatial.n_electrons, spatial.ms2 = 3, 1
    path = tmp_path / "geom.ints"
    save_integral_file(str(path), spatial)
    code, out, err = _run(capsys, ["solve", "--model", f"file:{path}", "--sz", "1", "--U", "2"])
    assert (code, out, err) == (2, "", f"error: --U does not apply to model 'file:{path}'\n")
    code, out, err = _run(capsys, ["scan", "--files", str(path), "--sz", "1", "--levels", "3"])
    assert (code, out, err) == (2, "", f"error: --levels does not apply to model 'file:{path}'\n")
    # a model's own flags, given at their defaults, change nothing
    plain = _run(capsys, ["solve", "--model", "pairing", "--N", "2", "--sz", "0"])
    assert plain[0] == 0
    assert _run(capsys, ["solve", "--model", "pairing", "--N", "2", "--sz", "0", "--levels",
                         "2", "--spacing", "1", "--G", "0"]) == plain


def test_scan_varies_only_the_float_flags_of_its_model(capsys) -> None:
    pairing = ["scan", "--model", "pairing", "--levels", "3", "--N", "3", "--sz", "1"]
    for model, name, allowed in ((HUB36, "G", "('U', 't')"),
                                 (pairing[1:], "U", "('G', 'spacing')"),
                                 (pairing[1:], "levels", "('G', 'spacing')")):
        argv = ["scan", *model, "--scan", f"{name}=0:1:3"]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err == (f"error: cannot scan {name!r} for model {model[1]!r}; "
                       f"choose from {allowed}\n"), argv
    code, out, err = _run(capsys, [*pairing, "--scan", "spacing=1:2:3"])
    assert (code, err) == (0, "") and len(_rows(out)) == 3


def test_polytope_needs_n_and_m(capsys) -> None:
    code, out, err = _run(capsys, ["polytope", "--N", "3", "--random", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: fermipin polytope")
    assert "the following arguments are required: --m" in err


def test_truncate_auto_applies_the_tier_rules_of_analyze(capsys, tmp_path) -> None:
    descending = ["--tiers", "1e-2,1e-4,1e-10"]
    refused = _run(capsys, ["analyze", *HUB36, *descending])
    assert refused == (2, "", "error: tier thresholds must be positive and ascending\n")
    assert _run(capsys, ["truncate", *HUB36, "--mu", "auto", *descending]) == refused
    # a catalog facet the ground state violates is a representability error
    path = tmp_path / "violated.cat"
    path.write_text("3 6 51 -1 0 0 0 0 0 0\n")
    violated = ["--catalog", str(path)]
    for argv in (["analyze", *HUB36, *violated],
                 ["truncate", *HUB36, "--mu", "auto", *violated]):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (3, ""), argv
        assert "constraint D^51 = -1.000e+00 is negative" in err


def test_census_preset_rejects_space_flags(capsys) -> None:
    code, out, err = _run(capsys, ["census", "--preset", "4in8-restricted",
                                   "--N", "3", "--m", "6", "--sz", "1"])
    assert (code, out) == (2, "")
    assert "--N, --m, --sz" in err
    code, out, err = _run(capsys, ["census", "--preset", "4in8-restricted", "--sz", "0"])
    assert (code, out) == (2, "")
    assert "--sz" in err and "--N" not in err


def test_unknown_constraint_index_exits_2_naming_it(capsys) -> None:
    code, out, err = _run(capsys, ["truncate", *HUB36, "--mu", "99"])
    assert (code, out, err) == (2, "", "error: no constraint 99 in the (3,6) catalog\n")


def test_repeated_constraint_index_exits_2(capsys) -> None:
    for argv, message in (
        (["census", "--N", "3", "--m", "6", "--mu", "1,1", "--format", "json"],
         "constraint index 1 repeated: '1,1'"),
        (["truncate", *HUB36, "--mu", "2,1,2"], "constraint index 2 repeated: '2,1,2'"),
    ):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.endswith(f"error: argument --mu: {message}\n"), argv


def test_rank_keeps_the_leading_spin_orbitals(capsys) -> None:
    hubbard = ["solve", "--model", "hubbard", "--sites", "4", "--N", "3", "--sz", "1"]
    code, out, err = _run(capsys, [*hubbard, "--rank", "6", "--format", "json"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    ints = to_spin_orbitals(hubbard_chain(4, 1, 0)).truncated(6)
    state = solve_ground(ints, enumerate_space(3, 6, ints.layout, 1))
    assert (payload["m"], payload["space_size"]) == (6, len(state.space)) == (6, 9)
    assert payload["energy"] == state.energy
    assert payload["occupations"] == natural_spectrum(one_rdm(state)).n.tolist()
    for rank in ("0", "99"):
        code, out, err = _run(capsys, [*hubbard, "--rank", rank])
        assert (code, out, err) == (2, "", f"error: cannot truncate width 8 to {rank}\n")


def test_a_sector_with_an_empty_spin_block_keeps_its_layout(capsys, tmp_path) -> None:
    # the leading 6 spin orbitals of the blocked 6-site chain are all up, so
    # 2*S_z = 3 is every determinant of 3 electrons, and the 1-RDM is
    # spin-blocked with an empty down block
    path = tmp_path / "C"
    path.write_text("3 6 9 2 -1 -1 0 -1 0 0\n")
    argv = ["truncate", "--model", "hubbard", "--sites", "6", "--U", "2", "--ordering",
            "blocked", "--rank", "6", "--N", "3", "--mu", "9", "--catalog", str(path)]
    code, out, err = _run(capsys, [*argv, "--sz", "3"])
    assert (code, err) == (0, "")
    assert out == _run(capsys, argv)[1]
    ints = to_spin_orbitals(hubbard_chain(6, 1, 2), "blocked").truncated(6)
    assert ints.layout == SpinOrbitalLayout((UP,) * 6)
    state = solve_ground(ints, enumerate_space(3, 6, ints.layout, 3))
    assert one_rdm(state).layout == ints.layout


def test_oversize_space_exits_2_before_enumerating(capsys, monkeypatch, tmp_path) -> None:
    calls = []

    def spy(*args):
        calls.append(args)
        raise AssertionError("an oversize space was enumerated")

    monkeypatch.setattr("fermipin.fock._subset_masks", spy)
    for command in (["solve"], ["scan", "--scan", "U=0:8:3"]):
        code, out, err = _run(capsys, [*command, "--model", "hubbard", "--sites", "10",
                                       "--N", "10", "--sz", "0"])
        assert code == 2
        assert "63504 determinants exceed the dense budget" in err
        assert out == ""
    wide = tmp_path / "wide.cat"
    wide.write_text("10 40 1 1 -1" + " 0" * 39 + "\n")
    for command in (["census"], ["polytope", "--random", "1", "--catalog", str(wide)]):
        code, out, err = _run(capsys, [*command, "--N", "10", "--m", "40"])
        assert code == 2
        assert "847660528 determinants exceed the dense budget" in err
        assert out == ""
    assert calls == []


def test_astronomical_space_is_refused_without_its_exact_count(capsys) -> None:
    # C(10**1500, 3) has more digits than Python converts to text, and
    # C(10**12, 10**5) takes seconds to work out exactly
    for N, m in ((3, 10**1500), (10**5, 10**12)):
        start = time.perf_counter()
        code, out, err = _run(capsys, ["census", "--N", str(N), "--m", str(m)])
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == "error: more than 2**63 determinants exceed the dense budget of 20000\n"


def test_catalog_coefficients_past_2_46_exit_2(capsys, tmp_path) -> None:
    # a kappa0 or a kappa_i too large for exact float sums, whether or not it
    # fits a float at all, is refused where its constraint is built
    commands = [
        ["analyze", *HUB36],
        ["truncate", *HUB36, "--mu", "99"],
        ["census", "--N", "3", "--m", "6", "--mu", "99"],
        ["polytope", "--N", "3", "--m", "6", "--random", "1"],
    ]
    path = tmp_path / "huge.cat"
    for line in (f"3 6 99 {10**400} -1 0 0 0 0 0", f"3 6 99 1 -1 0 0 0 0 {-10**400}",
                 f"3 6 99 1 {2**46 + 1} 0 0 0 0 0"):
        # a good facet first, so the message must name the second line
        path.write_text("3 6 1 2 -1 -1 0 -1 0 0\n" + line + "\n")
        for command in commands:
            code, out, err = _run(capsys, [*command, "--catalog", str(path)])
            assert (code, out) == (2, ""), command
            assert err == "error: line 2: a constraint coefficient exceeds 2**46 in magnitude\n"


def test_truncate_auto_solves_the_full_space_once(capsys, monkeypatch) -> None:
    import fermipin.cli
    import fermipin.selection

    sizes, rdm_sizes = [], []
    solve, rdm = fermipin.cli.solve_ground, fermipin.cli.one_rdm

    def solve_spy(ints, space):
        sizes.append(len(space))
        return solve(ints, space)

    def rdm_spy(vector):
        rdm_sizes.append(len(vector.space))
        return rdm(vector)

    for module in (fermipin.cli, fermipin.selection):
        monkeypatch.setattr(module, "solve_ground", solve_spy)
        monkeypatch.setattr(module, "one_rdm", rdm_spy)
    code, out, _ = _run(capsys, ["truncate", *HUB36, "--mu", "auto", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["space_size"] == 9 and payload["survivor_count"] == 3
    # the full space is solved once, and its 1-RDM serves both the auto
    # choice and the first natural frame
    assert sizes.count(payload["space_size"]) == 1
    assert rdm_sizes.count(payload["space_size"]) == 1
    assert len(sizes) == len(rdm_sizes) == 1 + payload["iterations"]


def test_catalog_rank_mismatch_exits_2(capsys, tmp_path) -> None:
    path = tmp_path / "wrong.cat"
    path.write_text("3 6 1 2 -1 -1 0 -1 0 0\n")
    code, out, err = _run(
        capsys,
        ["truncate", "--model", "pairing", "--levels", "4", "--N", "4",
         "--sz", "0", "--G", "0.5", "--catalog", str(path), "--mu", "14"],
    )
    assert code == 2
    assert "(3,6)" in err


def test_commands_take_only_the_flags_they_read(capsys) -> None:
    solve = ["solve", "--model", "hubbard", "--sites", "2", "--N", "2"]
    census = ["census", "--N", "3", "--m", "6"]
    for argv in ([*solve, "--seed", "1"], [*solve, "--tiers", "1e-10,1e-4,1e-2"],
                 [*solve, "--catalog", "extra.cat"], [*census, "--tiers", "1e-10,1e-4,1e-2"],
                 [*census, "--seed", "1"], ["analyze", *HUB36, "--seed", "1"],
                 ["truncate", *HUB36, "--mu", "1", "--seed", "1"]):
        code, out, err = _run(capsys, argv)
        assert code == 2, argv
        assert out == "" and "unrecognized arguments" in err
    code, out, _ = _run(capsys, ["polytope", "--N", "3", "--m", "6", "--random", "2",
                                 "--seed", "5", "--format", "json"])
    assert code == 0
    assert json.loads(out)["seed"] == 5


def test_degenerate_ground_state_is_reported(capsys) -> None:
    degenerate = ["--model", "hubbard", "--sites", "4", "--N", "4", "--U", "0",
                  "--periodic", "--sz", "0"]
    for model, flag in ((degenerate, True), (HUB36, False)):
        for argv, energy, key, line_start in (
            (["analyze", *model], "energy", "degenerate", "ground energy:"),
            (["truncate", *model, "--mu", "1"], "full_energy", "full_degenerate", "full energy:"),
        ):
            code, out, _ = _run(capsys, [*argv, "--format", "json"])
            assert code == 0
            payload = json.loads(out)
            assert payload[key] is flag
            assert list(payload).index(key) == list(payload).index(energy) + 1

            code, table, _ = _run(capsys, argv)
            (line,) = [row for row in table.splitlines() if row.startswith(line_start)]
            assert line.endswith("  (degenerate)") is flag
            assert table.count("(degenerate)") == int(flag)

            # CSV keeps its columns: the flag annotates JSON and tables only
            code, text, _ = _run(capsys, [*argv, "--format", "csv"])
            assert "degenerate" not in text


def test_scan_builds_each_grid_point_once(capsys, monkeypatch) -> None:
    import fermipin.cli

    calls = {"to_spin_orbitals": 0, "enumerate_space": 0}

    def spy(name):
        real = getattr(fermipin.cli, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(fermipin.cli, name, spy(name))
    code, out, _ = _run(capsys, ["scan", "--model", "hubbard", "--sites", "4", "--N", "4",
                                 "--sz", "0", "--scan", "U=0:8:41"])
    assert code == 0
    assert len(_rows(out)) == 41
    # the first point fixes the geometry and the catalog, serves row 0, and
    # lends its space to every later point of the same width and layout;
    # the later points are expanded to spin orbitals a stack at a time
    stacks = -(-40 // (cli._SCAN_BLOCK // (8 * 8**4)))
    assert (stacks, calls) == (3, {"to_spin_orbitals": 1 + stacks, "enumerate_space": 1})


@pytest.mark.parametrize("rows", [None, 1, 7])
def test_scan_stacks_print_the_same_bytes_with_one_eigh_each(capsys, monkeypatch,
                                                             rows) -> None:
    argv = ["scan", "--model", "hubbard", "--sites", "4", "--N", "4", "--sz", "0",
            "--scan", "U=0:8:41", "--format", "json"]
    expected = _run(capsys, argv)
    shapes = []

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", spy)
    if rows is not None:
        # rows points of m = 8 per stack; 7 does not divide 41
        monkeypatch.setattr(cli, "_SCAN_BLOCK", rows * 8 * 8**4)
    assert _run(capsys, argv) == expected
    rows = rows or cli._SCAN_BLOCK // (8 * 8**4)
    # the first point alone, then the other 40 in stacks of rows points
    sizes = [1] + [rows] * (40 // rows) + [40 % rows] * (40 % rows > 0)
    # per stack: the 36-determinant Hamiltonians, then the up and down
    # blocks of the 1-RDMs
    assert shapes == [shape for size in sizes
                      for shape in ((size, 36, 36), (size, 4, 4), (size, 4, 4))]


# (model, size flag, size, N, rank) with a built-in catalog for (N, rank)
SCAN_MODELS = [("hubbard", "--sites", 3, 3, 6), ("hubbard", "--sites", 4, 3, 8),
               ("hubbard", "--sites", 4, 4, 8), ("pairing", "--levels", 3, 3, 6),
               ("pairing", "--levels", 4, 3, 8), ("pairing", "--levels", 4, 4, 8),
               ("hubbard", "--sites", 4, 3, 6), ("pairing", "--levels", 4, 3, 6)]


@st.composite
def _scan_argv(draw) -> tuple[list[str], int]:
    """A scan command line, and the spin-orbital width of its points."""
    model, size_flag, size, N, m = draw(st.sampled_from(SCAN_MODELS))
    flag = draw(st.sampled_from(["U", "t"] if model == "hubbard" else ["G", "spacing"]))
    start, stop = (draw(st.floats(-4.0, 8.0)) for _ in range(2))
    steps = draw(st.integers(1, 40))
    # every sector of N, or the full space
    sz = draw(st.sampled_from([None, *range(-N, N + 1, 2)]))
    return (["scan", "--model", model, size_flag, str(size), "--N", str(N),
             "--scan", f"{flag}={start!r}:{stop!r}:{steps}",
             "--ordering", draw(st.sampled_from(["interleaved", "blocked"]))]
            + ([] if m == 2 * size else ["--rank", str(m)])
            + ([] if sz is None else ["--sz", str(sz)])), m


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_scan_argv(), st.integers(1, 40))
def test_stacked_scan_equals_the_per_point_pipeline(drawn, rows) -> None:
    argv, m = drawn
    cfg = cli._build_parser().parse_args(argv)
    block, cli._SCAN_BLOCK = cli._SCAN_BLOCK, rows * 8 * m**4
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            payload = cli.cmd_scan(cfg)
    except FermipinError as exc:
        payload = exc
    finally:
        cli._SCAN_BLOCK = block
    # the same grid, each point solved over a space of its own, analysed
    # and evaluated alone
    parameter, grid = cli._scan_grid(cli._build_parser().parse_args(argv))
    first = grid[0][1]
    try:
        space = cli._ground(first)[1].space
    except FermipinError as exc:  # such as a sector the truncated layout cannot hold
        assert repr(payload) == repr(exc)
        return
    cat = catalog(space.N, space.m)
    expected, warned = [], ""
    for label, point in grid:
        try:
            point.N = first.N
            ints = cli._resolve_model(point)[0]
            state = solve_ground(ints, enumerate_space(point.N, ints.m, ints.layout, point.sz))
            spectrum = natural_spectrum(one_rdm(state))
            report = evaluate(cat, spectrum, point.tiers)
            values = ([label, state.energy, *(float(v) for v in spectrum.n)]
                      + [v for _, v in report.residuals + report.equality_residuals]
                      + [report.xi])
        except (FermipinError, ValueError) as exc:
            warned += f"warning: {parameter}={label}: {exc}\n"
            values = [label] + [float("nan")] * (len(payload["columns"]) - 1)
        expected.append(dict(zip(payload["columns"], values, strict=True)))
    # repr tells -0.0 from 0.0, so equal text is equal bits
    assert json.dumps(payload["rows"]) == json.dumps(expected)
    assert err.getvalue() == warned


OVERFLOWING_INTEGRALS = "NORB=3 NELEC=3 MS2=1\n-1 1 2 0 0\n-1 2 3 0 0\n1e308 1 1 1 1\n1e308 1 1 2 2\n"
OVERFLOW_MESSAGE = "Hamiltonian element between determinants [1, 2, 3] and [1, 2, 3] is inf, not finite"


def test_an_overflowing_integral_file_exits_2_naming_the_element(capsys, tmp_path) -> None:
    # every entry is finite, but (11|11) + (11|22) on the diagonal is not
    path = tmp_path / "over.ints"
    path.write_text(OVERFLOWING_INTEGRALS)
    for command in ("solve", "analyze"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(capsys, [command, "--model", f"file:{path}", "--sz", "1",
                                           "--format", "json"])
        assert (code, out, err, caught) == (2, "", f"error: {OVERFLOW_MESSAGE}\n", [])


def test_elements_past_the_lanczos_norm_bound_exit_2_before_iterating(capsys, tmp_path) -> None:
    # every element and the energy are finite, but the 400-determinant
    # sector is solved by Lanczos, whose squared norms of H·v would overflow
    path = tmp_path / "huge.ints"
    path.write_text("NORB=6 NELEC=6 MS2=0\n"
                    + "".join(f"-1e308 {i} {i + 1} 0 0\n" for i in range(1, 6))
                    + "".join(f"1e307 {i} {i} {i} {i}\n" for i in range(1, 7)))
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, ["solve", "--model", f"file:{path}", "--sz", "0"])
    elapsed = time.perf_counter() - started
    assert (code, out, caught) == (2, "", [])
    assert err == ("error: Hamiltonian elements up to 1e+308 in magnitude would overflow the "
                   "sparse eigensolver's squared norms over 400 determinants\n")
    assert elapsed < 0.1  # all 200 restarts took about 0.4 s


def test_scan_gives_an_overflowing_file_in_a_stack_its_own_nan_row(capsys, tmp_path) -> None:
    paths = []
    for U in (1.0, 2.0, 3.0, 4.0, 5.0):
        spatial = hubbard_chain(3, 1.0, U)
        spatial.n_electrons, spatial.ms2 = 3, 1
        paths.append(str(tmp_path / f"U{U:g}.ints"))
        save_integral_file(paths[-1], spatial)
    over = tmp_path / "over.ints"
    over.write_text(OVERFLOWING_INTEGRALS)
    # 50 points of m = 6 fit one stack, so each scan below is a single stack
    assert cli._SCAN_BLOCK // (8 * 6**4) >= 6
    code, clean, err = _run(capsys, ["scan", "--files", *paths, "--sz", "1"])
    assert (code, err) == (0, "")
    clean = clean.splitlines()
    files = [*paths[:2], str(over), *paths[2:]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, ["scan", "--files", *files, "--sz", "1"])
    assert (code, err, caught) == (0, f"warning: file={over}: {OVERFLOW_MESSAGE}\n", [])
    lines = out.splitlines()
    # the header, then every other file's row, byte for byte
    assert lines[:3] + lines[4:] == clean
    assert lines[3] == ",".join([str(over)] + ["nan"] * (len(lines[0].split(",")) - 1))
    # the first file fixes the space, and its failure ends the scan
    code, out, err = _run(capsys, ["scan", "--files", str(over), *paths, "--sz", "1"])
    assert (code, out, err) == (2, "", f"error: {OVERFLOW_MESSAGE}\n")


def test_polytope_decodes_its_space_once(capsys, monkeypatch) -> None:
    import fermipin.fock

    calls = []

    def spy(space):
        calls.append(len(space))
        return search(space)

    search = fermipin.fock.excitations
    monkeypatch.setattr(fermipin.fock, "excitations", spy)
    code, out, _ = _run(capsys, ["polytope", "--N", "3", "--m", "8", "--random", "100",
                                 "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["samples"]) == 100
    # one decoded pair list of the 56-determinant space serves all hundred 1-RDMs
    assert calls == [56]


@pytest.mark.parametrize("rows", [None, 1, 7])
def test_polytope_stacks_print_the_same_bytes_with_one_eigh_each(capsys, monkeypatch,
                                                                 rows) -> None:
    argv = ["polytope", "--N", "3", "--m", "8", "--random", "20", "--seed", "3",
            "--format", "json"]
    expected = _run(capsys, argv)
    shapes = []

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", spy)
    if rows is not None:
        # rows samples of the 56-determinant space per stack; 7 does not divide 20
        monkeypatch.setattr(cli, "_RANDOM_BLOCK", rows * space_size(3, 8))
    assert _run(capsys, argv) == expected
    rows = rows or cli._RANDOM_BLOCK // space_size(3, 8)
    sizes = [rows] * (20 // rows) + [20 % rows] * (20 % rows > 0)
    assert shapes == [(size, 8, 8) for size in sizes]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from([(3, 6), (3, 7), (3, 8), (4, 8)]), st.integers(0, 2**32 - 1),
       st.integers(1, 40), st.integers(1, 40))
def test_stacked_polytope_equals_the_per_state_pipeline(shape, seed, count, rows) -> None:
    N, m = shape
    cfg = cli._build_parser().parse_args(
        ["polytope", "--N", str(N), "--m", str(m), "--random", str(count), "--seed", str(seed)]
    )
    block, cli._RANDOM_BLOCK = cli._RANDOM_BLOCK, rows * space_size(N, m)
    try:
        samples = cli.cmd_polytope(cfg)["samples"]
    finally:
        cli._RANDOM_BLOCK = block
    rng = np.random.default_rng(seed)
    space, cat = enumerate_space(N, m), catalog(N, m)
    expected = []
    for k in range(count):
        coeffs = rng.standard_normal(len(space))
        coeffs /= np.linalg.norm(coeffs)
        spectrum = natural_spectrum(one_rdm(CIVector(space, coeffs)))
        expected.append({"sample": f"random-{k}", "occupations": [float(v) for v in spectrum.n],
                         **evaluate(cat, spectrum).payload()})
    # repr tells -0.0 from 0.0, so equal text is equal bits
    assert json.dumps(samples) == json.dumps(expected)


def test_wide_file_catalog_residuals_are_the_dot_product_within_4_ulp(capsys,
                                                                      tmp_path) -> None:
    # 560 determinants: above the crossover, the 1-RDM takes the generated singles
    assert space_size(3, 16) > DENSE_CROSSOVER
    rng = np.random.default_rng(5)
    kappas = rng.integers(-3, 4, size=(6, 16))
    kappa0 = np.abs(kappas).sum(axis=1)  # no residual can be negative
    path = tmp_path / "wide.cat"
    path.write_text("".join(f"3 16 {mu} {k0} {' '.join(map(str, kappa))}\n"
                            for mu, (k0, kappa) in enumerate(zip(kappa0, kappas), start=1)))
    code, out, err = _run(capsys, ["polytope", "--N", "3", "--m", "16", "--random", "25",
                                   "--catalog", str(path), "--format", "json"])
    assert (code, err) == (0, "")
    samples = json.loads(out)["samples"]
    assert len(samples) == 25
    for sample in samples:
        n = np.array(sample["occupations"])
        for entry, k0, kappa in zip(sample["constraints"], kappa0, kappas, strict=True):
            # the sum as BLAS's ddot adds it, which rounds differently at this width
            dot = float(k0 + np.dot(kappa, n))
            assert abs(entry["residual"] - dot) <= 4 * np.spacing(dot)


def test_scan_gives_a_point_of_another_width_its_own_space(capsys, monkeypatch,
                                                          tmp_path) -> None:
    import fermipin.cli

    paths = []
    for name, sites, U in (("a", 3, 1.0), ("wide", 4, 2.0), ("b", 3, 4.0)):
        spatial = hubbard_chain(sites, 1.0, U)
        spatial.n_electrons, spatial.ms2 = 3, 1
        paths.append(tmp_path / f"{name}.ints")
        save_integral_file(str(paths[-1]), spatial)
    spaces = []

    def spy(*args):
        spaces.append(real(*args))
        return spaces[-1]

    real = fermipin.cli.enumerate_space
    monkeypatch.setattr(fermipin.cli, "enumerate_space", spy)
    code, out, err = _run(capsys, ["scan", "--files", *map(str, paths), "--sz", "1"])
    assert code == 0
    # the 8-orbital file is solved over a space of its own, then fails the catalog
    assert [(space.N, space.m) for space in spaces] == [(3, 6), (3, 8)]
    assert err == f"warning: file={paths[1]}: spectrum width 8 vs catalog width 6\n"
    energies = [float(row["energy"]) for row in _rows(out)]
    assert not np.isnan(energies[0]) and np.isnan(energies[1]) and not np.isnan(energies[2])


def test_shared_parser_runs_each_command_as_a_fresh_process(capsys, tmp_path) -> None:
    catalog = tmp_path / "extra.cat"
    catalog.write_text("3 6 50 1 -1 -1 1 0 0 0\n")
    spatial = hubbard_chain(3, 1.0, 2.0)
    spatial.n_electrons, spatial.ms2 = 3, 1
    model = tmp_path / "geom.ints"
    save_integral_file(str(model), spatial)
    # each command could inherit a value the one before it set: an appended
    # catalog, the N an integral file fixes, a scan's grid
    commands = [
        ["analyze", *HUB36, "--catalog", str(catalog), "--format", "json"],
        ["analyze", *HUB36, "--format", "json"],
        ["solve", "--model", f"file:{model}", "--sz", "1", "--format", "json"],
        ["solve", "--model", "hubbard", "--sites", "3", "--sz", "1"],
        ["scan", *HUB36, "--scan", "U=0:8:5"],
        ["analyze", *HUB36, "--format", "csv"],
    ]
    in_process = [_run(capsys, argv) for argv in commands]
    assert cli._build_parser() is cli._build_parser()
    env = dict(os.environ)
    source = Path(cli.__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(source), env.get("PYTHONPATH")]))
    for argv, (code, out, err) in zip(commands, in_process):
        fresh = subprocess.run([sys.executable, "-m", "fermipin.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120, check=False)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert in_process[3][0] == 2 and "needs --N" in in_process[3][2]


_JSON_STRINGS = ["", '"', "\\", "\x00\x1f\n\t\x7f", "é∑😀\ud800", "</script>"]
_JSON_EDGES = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308, 2**64,
               -(10**40), True, False, None, *_JSON_STRINGS]
_JSON_SCALARS = (st.sampled_from(_JSON_EDGES) | st.none() | st.booleans() | st.integers()
                 | st.floats() | st.text(max_size=6))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.sampled_from(_JSON_STRINGS) | st.text(max_size=3),
                                     inner, max_size=4)),
    max_leaves=40)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_JSON_VALUES)
@example([])
@example({})
@example([[], {}, ()])
@example({"a": [[], [{}]], "b": {"c": {}}})
@example((1, (2.5, ()), {"x": (None,)}))
def test_json_writer_prints_the_bytes_of_json_dumps(value) -> None:
    assert cli._json_text(value) == json.dumps(value, indent=2)


def test_json_without_the_c_encoder_is_json_dumps(capsys, monkeypatch) -> None:
    argv = ["polytope", "--N", "3", "--m", "8", "--random", "2", "--seed", "1", "--format", "json"]
    code, written, err = _run(capsys, argv)
    assert (code, err) == (0, "")

    def unreachable(*args):
        raise AssertionError("the writer ran without the C encoder")

    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(cli, "_write_json", unreachable)
    assert _run(capsys, argv) == (0, written, "")


def test_closed_output_pipe_exits_0_quietly(capsys) -> None:
    # the reader is gone before the command writes, as when `| head` has
    # read its lines: every write, and the flush at exit, meets a closed pipe
    env = dict(os.environ)
    source = Path(cli.__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(source), env.get("PYTHONPATH")]))
    read, write = os.pipe()
    os.close(read)
    try:
        for argv in (["polytope", "--N", "3", "--m", "6", "--random", "3", "--format", "json"],
                     ["solve", "--model", "hubbard", "--sites", "2", "--N", "2", "--sz", "0"]):
            done = subprocess.run([sys.executable, "-m", "fermipin.cli", *argv], env=env,
                                  stdout=write, stderr=subprocess.PIPE, timeout=120, check=False)
            assert (done.returncode, done.stderr) == (0, b""), argv
        # only stdout's reader can be done: a closed pipe named by --output
        # is an error like any other unwritable file
        code, out, err = _run(capsys, ["census", "--N", "3", "--m", "6",
                                       "--output", f"/dev/fd/{write}"])
    finally:
        os.close(write)
    assert (code, out, err) == (2, "", "error: [Errno 32] Broken pipe\n")


def test_negative_exponent_values_need_the_equals_form(capsys) -> None:
    hubbard = ["solve", "--model", "hubbard", "--sites", "2", "--N", "2", "--format", "json"]
    code, out, err = _run(capsys, [*hubbard, "--U=-1e-3"])
    assert (code, err) == (0, "")
    assert json.loads(out)["model"] == "hubbard(sites=2, t=1, U=-0.001)"
    # after a space argparse takes -1e-3 for an option: a usage error, no traceback
    code, out, err = _run(capsys, [*hubbard, "--U", "-1e-3"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: fermipin solve")
    assert "argument --U: expected one argument" in err and "Traceback" not in err


# Sizes drawn for --sites and --levels: small ones, plus out-of-range ones.
FUZZ_SIZES = st.one_of(st.integers(2, 4), st.sampled_from([0, 1, 33, 10**6]))
FUZZ_CAP = 200  # largest space a drawn command may build
NON_FINITE = ("nan", "inf", "-inf")
# Integral files drawn by name: (text, NORB or None when the file cannot
# load, NELEC).  They stand in the directory FUZZ_DIR names in a command.
FUZZ_DIR = "<fuzz-files>"
FUZZ_FILES = {
    "chain": ("NORB=3 NELEC=3 MS2=1\n-1 1 2 0 0\n-1 2 3 0 0\n"
              "2 1 1 1 1\n2 2 2 2 2\n2 3 3 3 3\n", 3, 3),
    "chain-U5": ("NORB=3 NELEC=3 MS2=1\n-1 1 2 0 0\n-1 2 3 0 0\n"
                 "5 1 1 1 1\n5 2 2 2 2\n5 3 3 3 3\n", 3, 3),
    "wide": ("NORB=4 NELEC=3 MS2=1\n-1 1 2 0 0\n-1 2 3 0 0\n-1 3 4 0 0\n"
             "1 1 1 1 1\n1 4 4 4 4\n", 4, 3),
    # finite entries whose sums overflow, whose antisymmetrized
    # (11|22) - (12|21) does, and whose eigenvalues do
    "overflow": (OVERFLOWING_INTEGRALS, 3, 3),
    "overflow-exchange": ("NORB=3 NELEC=3 MS2=1\n1e308 1 1 2 2\n-1e308 1 2 1 2\n", 3, 3),
    "huge": ("NORB=3 NELEC=3 MS2=1\n1e308 1 2 0 0\n1e308 2 3 0 0\n", 3, 3),
    "non-finite": ("NORB=3 NELEC=3 MS2=1\n-1 1 2 0 0\ninf 1 1 1 1\n", None, 3),
    "bad-header": ("NORB=three NELEC=3 MS2=1\n-1 1 2 0 0\n", None, 3),
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("fuzz-files")
    for name, (text, _, _) in FUZZ_FILES.items():
        (directory / f"{name}.ints").write_text(text)
    return directory


@st.composite
def _cli_argv(draw) -> tuple[list[str], int, bool]:
    """A command line, the size of the largest space it can build, and
    whether it must exit 2: it carries a non-finite number, or it gives a
    model the size flag of the other model."""
    command = draw(st.sampled_from(["solve", "analyze", "census", "truncate", "scan",
                                    "polytope"]))
    N = draw(st.integers(2, 4) | st.sampled_from([None, 0, 1, 9]))
    argv = [command] + ([] if N is None else ["--N", str(N)])
    # a quarter of the commands with a float flag get a non-finite number
    bad = None
    if command != "census" and draw(st.integers(0, 3)) == 0:
        bad = draw(st.sampled_from(NON_FINITE))
    refused = bad is not None
    if command in ("census", "polytope"):
        m = draw(st.integers(5, 8) | st.sampled_from([None, 0, 33, 10**6]))
        argv += [] if m is None else ["--m", str(m)]
        size = space_size(N, m) if None not in (N, m) else 0
    else:
        model, size_flag, other_flag, scanned = draw(st.sampled_from(
            [("hubbard", "--sites", "--levels", "U"), ("pairing", "--levels", "--sites", "G")]))
        # a third of the solves, analyses and scans read integral files,
        # most of them with the electron count the first file gives
        files = []
        if command != "truncate" and draw(st.integers(0, 2)) == 0:
            files = draw(st.lists(st.sampled_from(sorted(FUZZ_FILES)), min_size=1,
                                  max_size=4 if command == "scan" else 1))
            if draw(st.integers(0, 3)) > 0:
                N, argv = None, [command]
            paths = [f"{FUZZ_DIR}/{name}.ints" for name in files]
            argv += ["--files", *paths] if command == "scan" else ["--model", f"file:{paths[0]}"]
            _, norb, nelec = FUZZ_FILES[files[0]]
            size = 0 if norb is None else space_size(nelec if N is None else N, 2 * norb)
        else:
            n = draw(FUZZ_SIZES)
            argv += ["--model", model, size_flag, str(n)]
            size = space_size(N, 2 * n) if N is not None and 2 * n <= MAX_WIDTH else 0
        if draw(st.integers(0, 7)) == 0:
            argv += [other_flag, "2"]
            refused = True
        if command == "scan" and not files:
            # half the scans get a count that no grid can hold
            steps = draw(st.sampled_from(["3", "0", "x"])
                         | st.sampled_from([str(10**16), str(2**63 - 1)]))
            argv += ["--scan", f"{scanned}=0:2:{steps}"]
        if bad is not None:
            argv += [f"{draw(st.sampled_from(['--U', '--G']))}={bad}"]
    if command != "polytope":
        sz = draw(st.sampled_from([None, 0, 1]) | st.integers(-3, 3))
        argv += [] if sz is None else ["--sz", str(sz)]
    if command in ("census", "truncate"):
        mu = draw(st.sampled_from([None, "1", "2", "1,2", "9", "auto"]))
        argv += [] if mu is None else ["--mu", mu]
        argv += ["--with-equalities"] if draw(st.booleans()) else []
    if command == "truncate":
        argv += ["--max-iterations", "10"]
    if command == "polytope":
        if bad is not None:
            argv += [f"--occupations={bad},1,0.5"]
        else:
            argv += ["--random", str(draw(st.integers(1, 2)))]
    argv += ["--format", draw(st.sampled_from(["table", "json", "csv"]))]
    return argv, size, refused


@settings(max_examples=250, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(drawn=_cli_argv())
# every kind of file in one scan, each after a valid first file
@example(drawn=(["scan", "--files", *(f"{FUZZ_DIR}/{name}.ints" for name in ["chain", *FUZZ_FILES]),
                 "--sz", "1", "--format", "csv"], 20, False))
def test_fuzzed_command_lines_exit_with_a_documented_code(fuzz_files, drawn) -> None:
    argv, size, refused = drawn
    assume(size <= FUZZ_CAP or refused)
    argv = [arg.replace(FUZZ_DIR, str(fuzz_files)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in ((2,) if refused else (0, 2, 3, 4)), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert caught == [] and "RuntimeWarning" not in err.getvalue(), argv
    if code == 0 and "--files" in argv:
        files = [arg for arg in argv if arg.startswith(str(fuzz_files))]
        text = out.getvalue()
        rows = (json.loads(text)["rows"] if argv[-1] == "json"
                else text.splitlines()[1:])  # a table and a CSV have one header line
        assert len(rows) == len(files), argv
