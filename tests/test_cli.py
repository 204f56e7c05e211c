"""In-process tests for the command-line interface."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fermipin import cli
from fermipin.ci import solve_ground
from fermipin.cli import main
from fermipin.fock import MAX_WIDTH, enumerate_space, space_size
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
    state = solve_ground(ints, enumerate_space(3, 6, ints.layout, 1))[0]
    assert (payload["m"], payload["space_size"]) == (6, len(state.space)) == (6, 9)
    assert payload["energy"] == state.energy
    assert payload["occupations"] == natural_spectrum(one_rdm(state)).n.tolist()
    for rank in ("0", "99"):
        code, out, err = _run(capsys, [*hubbard, "--rank", rank])
        assert (code, out, err) == (2, "", f"error: cannot truncate width 8 to {rank}\n")


def test_oversize_space_exits_2_before_enumerating(capsys, monkeypatch, tmp_path) -> None:
    calls = []

    def spy(*args):
        calls.append(args)
        raise AssertionError("an oversize space was enumerated")

    monkeypatch.setattr("fermipin.cli.enumerate_space", spy)
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


def test_truncate_auto_solves_the_full_space_once(capsys, monkeypatch) -> None:
    import fermipin.cli
    import fermipin.selection

    sizes, rdm_sizes = [], []
    solve, rdm = fermipin.cli.solve_ground, fermipin.cli.one_rdm

    def solve_spy(ints, space, k=1):
        sizes.append(len(space))
        return solve(ints, space, k)

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
    # lends its space to every later point of the same width and layout
    assert calls == {"to_spin_orbitals": 41, "enumerate_space": 1}


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


@st.composite
def _cli_argv(draw) -> tuple[list[str], int, bool]:
    """A command line, the size of the largest space it can build, and
    whether it carries a non-finite number."""
    command = draw(st.sampled_from(["solve", "analyze", "census", "truncate", "scan",
                                    "polytope"]))
    N = draw(st.integers(2, 4) | st.sampled_from([None, 0, 1, 9]))
    argv = [command] + ([] if N is None else ["--N", str(N)])
    # a quarter of the commands with a float flag get a non-finite number
    bad = None
    if command != "census" and draw(st.integers(0, 3)) == 0:
        bad = draw(st.sampled_from(NON_FINITE))
    if command in ("census", "polytope"):
        m = draw(st.integers(5, 8) | st.sampled_from([None, 0, 33, 10**6]))
        argv += [] if m is None else ["--m", str(m)]
        size = space_size(N, m) if None not in (N, m) else 0
    else:
        model, size_flag, scanned = draw(st.sampled_from(
            [("hubbard", "--sites", "U"), ("pairing", "--levels", "G")]))
        n = draw(FUZZ_SIZES)
        argv += ["--model", model, size_flag, str(n)]
        size = space_size(N, 2 * n) if N is not None and 2 * n <= MAX_WIDTH else 0
        if command == "scan":
            steps = draw(st.sampled_from(["3", "0", "x", str(10**16)]))
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
    return argv, size, bad is not None


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_cli_argv())
def test_fuzzed_command_lines_exit_with_a_documented_code(drawn) -> None:
    argv, size, non_finite = drawn
    assume(size <= FUZZ_CAP or non_finite)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in ((2,) if non_finite else (0, 2, 3, 4)), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
