"""Reference answers for the benchmark, by a route independent of the package.

Reads an oracle request (see ``workloads.py``) as JSON on standard input and
writes the references as JSON on standard output.  Each solve expands the
model's spatial integrals by explicit loops, enumerates its determinants
with ``itertools``, builds H by operator application, diagonalizes it with
``numpy.linalg.eigh`` and takes occupations from the operator-built 1-RDM,
all from ``tests/oracles.py``.  Only the model definitions and the catalog
coefficients come from the package.  Runs in its own process so that the
benchmark's peak memory reflects the program alone.

    python3 bench/oracle_job.py < request.json
"""

from __future__ import annotations

import json
import sys
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from fermipin.gpc import catalog  # noqa: E402
from fermipin.integrals import hubbard_chain, pairing_model  # noqa: E402
from tests import oracles  # noqa: E402


class _Det:
    def __init__(self, mask: int, m: int):
        self.mask = mask
        self._orbitals = tuple(i + 1 for i in range(m) if mask >> i & 1)

    def orbitals(self) -> tuple:
        return self._orbitals


class _Space(list):
    """Determinants in increasing mask order, as the oracles iterate them."""

    def __init__(self, masks, m: int):
        super().__init__(_Det(mask, m) for mask in sorted(masks))
        self.m = m


def _masks(N: int, m: int, sz: int | None):
    """N-electron masks; odd spin orbitals (1-based) are up, as interleaved."""
    for occupied in combinations(range(m), N):
        n_up = sum(1 for i in occupied if i % 2 == 0)
        if sz is None or n_up - (N - n_up) == sz:
            yield sum(1 << i for i in occupied)


def _occupations(space: _Space, coeffs: np.ndarray) -> list:
    rho = oracles.brute_force_one_rdm(space, coeffs)
    return [float(v) for v in np.sort(np.linalg.eigvalsh(rho))[::-1]]


def _residuals(N: int, m: int, n: list) -> dict:
    cat = catalog(N, m)
    return {c.label: float(c.kappa0 + sum(k * x for k, x in zip(c.kappa, n)))
            for c in cat.constraints + cat.equalities}


def solve(spec: dict) -> dict:
    if spec["model"] == "hubbard":
        spatial = hubbard_chain(spec["size"], 1.0, spec["param"])
    else:
        spatial = pairing_model(spec["size"], 1.0, spec["param"])
    h, g = oracles.spin_expansion_by_loops(spatial)
    ints = SimpleNamespace(h=h, g=g, core_energy=spatial.core_energy)
    m = 2 * spatial.n_spatial
    space = _Space(_masks(spec["N"], m, spec["sz"]), m)
    values, vectors = np.linalg.eigh(oracles.brute_force_hamiltonian(ints, space))
    n = _occupations(space, vectors[:, 0])
    ref = {"energy": float(values[0]), "occupations": n}
    if spec["residuals"]:
        ref["residuals"] = _residuals(spec["N"], m, n)
    return ref


def polytope(spec: dict) -> list:
    """The random states ``polytope --random COUNT --seed SEED`` evaluates."""
    N, m = spec["N"], spec["m"]
    space = _Space(_masks(N, m, None), m)
    rng = np.random.default_rng(spec["seed"])
    refs = []
    for _ in range(spec["count"]):
        coeffs = rng.standard_normal(len(space))
        coeffs /= np.linalg.norm(coeffs)
        n = _occupations(space, coeffs)
        refs.append({"occupations": n, "residuals": _residuals(N, m, n)})
    return refs


def main() -> None:
    request = json.load(sys.stdin)
    refs = {"solves": {label: solve(spec) for label, spec in request["solves"].items()}}
    if "polytope" in request:
        refs["polytope"] = polytope(request["polytope"])
    json.dump(refs, sys.stdout)


if __name__ == "__main__":
    main()
