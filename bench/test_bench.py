"""Tests of the benchmark itself.

    python3 -m pytest bench
"""

import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
from run import Speed, run_pass  # noqa: E402
from workloads import WORKLOADS, tally  # noqa: E402


def _solve_output(energy: float, occupations: list) -> str:
    return json.dumps({"energy": energy, "occupations": occupations})


def test_perturbed_energy_counts_as_failure():
    workload = WORKLOADS["fci-large"](1)
    occupations = [0.5] * 14
    refs = {"solves": {label: {"energy": -3.5, "occupations": occupations}
                       for label in ("hubbard-7", "pairing-7")}}
    exact = _solve_output(-3.5, occupations)
    outputs = Counter({
        (0, 0, exact, ""): 3,
        (1, 0, exact, ""): 2,
        (1, 0, _solve_output(-3.5 + 1e-7, occupations), ""): 1,
        (0, 2, "", "error: bad input"): 1,
    })
    attempted, failed, reasons = tally(workload, outputs, refs)
    assert (attempted, failed) == (7, 2)
    assert any("pairing-7 energy" in reason for reason in reasons)
    assert any("exit code 2" in reason for reason in reasons)


def test_self_time_of_nested_spans(monkeypatch):
    # root [0, 10] holds a [1, 4] (which holds a.inner [2, 3]) and b [5, 6.5]
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.5, 10.0])
    monkeypatch.setattr(spans, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    tracer = spans.Tracer()
    root = tracer.open("cli.main")
    a = tracer.open("ci.solve_ground")
    inner = tracer.open("ci.build_hamiltonian")
    tracer.close(inner)
    tracer.close(a)
    b = tracer.open("rdm.one_rdm")
    tracer.close(b)
    tracer.close(root)

    assert spans.self_times(tracer.spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])
    metrics = spans.layer_metrics(tracer)
    assert metrics["cli.main.self_ms"] == pytest.approx(5500.0)
    assert metrics["ci.solve_ground.self_ms"] == pytest.approx(2000.0)
    assert metrics["gpc.evaluate.self_ms"] == 0.0
    assert {s.command for s in tracer.spans} == {root}


@pytest.mark.parametrize("name", ["survey", "pinned-loop"])
def test_counts_repeat_across_traced_runs(name):
    from fermipin import cli

    workload = WORKLOADS[name](3)
    runs = []
    for _ in range(2):
        tracer = spans.Tracer()
        with spans.tracing(tracer):
            run_pass(cli, workload, Counter(), Speed())
        runs.append({k: v for k, v in spans.layer_metrics(tracer).items()
                     if not k.endswith("_ms")})
    assert runs[0] == runs[1]
    assert runs[0]["cli.main.calls"] == len(workload.commands)
    assert runs[0]["ci.solve_ground.calls"] > 0


def test_missing_binding_stops_tracing(monkeypatch):
    import fermipin.ci
    import fermipin.cli
    import fermipin.selection

    monkeypatch.delattr(fermipin.selection, "solve_ground")
    with pytest.raises(RuntimeError, match="ci.solve_ground"):
        with spans.tracing(spans.Tracer()):
            pass
    assert fermipin.cli.solve_ground is fermipin.ci.solve_ground
    assert fermipin.ci.build_hamiltonian.__module__ == "fermipin.ci"
    assert not hasattr(fermipin.ci.build_hamiltonian, "__wrapped__")
