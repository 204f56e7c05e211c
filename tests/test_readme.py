"""README's library quickstart and command lines run as written and show
what they claim."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from fermipin.cli import main
from fermipin.integrals import hubbard_chain, save_integral_file

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run_and_hold_their_claims() -> None:
    blocks = _blocks("python")
    assert len(blocks) >= 2
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    # "The spin-compensated sector ground state above pins the facet"
    assert namespace["report"].tiers[1] == "pinned"
    # "1.0 — the 3-determinant solve is exact here"
    assert abs(namespace["result"].recovered_fraction - 1.0) <= 1e-12
    # "zero to rounding: the same ground state"
    assert abs(namespace["natural"].energy - namespace["state"].energy) <= 1e-12


def test_readme_command_lines_run_and_hold_their_claims(capsys, tmp_path,
                                                        monkeypatch) -> None:
    commands = [shlex.split(line)[1:] for block in _blocks("sh")
                for line in block.splitlines() if line.startswith("fermipin ")]
    assert len(commands) == 8
    # the integral files the scan over --files reads: 3-site Hubbard chains
    monkeypatch.chdir(tmp_path)
    for name, U in (("geom1.ints", 2.0), ("geom2.ints", 4.0)):
        spatial = hubbard_chain(3, 1.0, U)
        spatial.n_electrons, spatial.ms2 = 3, 1
        save_integral_file(name, spatial)
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()
    # "excitation census of a filtered space (reference + 2 doubles survive)"
    (census,) = [argv for argv in commands if argv[0] == "census"]
    assert main([*census, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["counts"] == {"0": 1, "2": 2}
