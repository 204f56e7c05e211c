"""Spans around calls into fermipin's public functions, for the traced run.

The package itself is not edited.  While tracing, each traced function is
rebound, in every fermipin module namespace that holds it, to a wrapper that
records a span, so calls made inside the package (``build_hamiltonian`` from
``solve_ground``, ``solve_ground`` from ``pinned_solve``) are seen too.
``SpinOrbitalIntegrals.rotated`` is rebound on its class.  Each target names
the modules whose binding the workloads call through; if a refactor leaves
one of them without the function, installing the wrappers fails instead of
silently dropping the span.

Counters that need the call's arguments or result run in a child span named
``trace.count``, so the time they take is no layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

COUNT_SPAN = "trace.count"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for a root
    command: int  # index of the root span, one per CLI command


class Tracer:
    """Spans and counters of one pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    def reset(self) -> None:
        self.spans, self.counts, self._open = [], {}, []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        command = self.spans[parent].command if parent >= 0 else index
        self.spans.append(Span(name, 0.0, 0.0, parent, command))
        self._open.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)


def _count_hamiltonian(tracer: Tracer, args: dict, H: np.ndarray) -> None:
    n = len(args["space"])
    tracer.add("ci.pairs_scanned", n * (n - 1) // 2)
    tracer.add("ci.connected_pairs", int(np.count_nonzero(np.triu(H, 1))))


def _count_solve(tracer: Tracer, args: dict, states) -> None:
    n = len(args["space"])
    tracer.maximum("ci.dim_max", n)
    tracer.maximum("ci.h_bytes_max", 8 * n * n)


def _count_rdm(tracer: Tracer, args: dict, rdm) -> None:
    space = args["vector"].space
    masks = np.fromiter((det.mask for det in space), dtype=np.uint64, count=len(space))
    n = len(masks)
    tracer.add("rdm.pairs_scanned", n * (n - 1) // 2)
    singles = np.bitwise_count(masks[:, None] ^ masks[None, :]) == 2
    tracer.add("rdm.connected_pairs", int(np.count_nonzero(singles)) // 2)


def _count_space(tracer: Tracer, args: dict, space) -> None:
    tracer.add("fock.dets_enumerated", len(space))


def _count_filter(tracer: Tracer, args: dict, pinned) -> None:
    tracer.add("selection.survivors", len(pinned.survivors))
    tracer.add("selection.filtered", len(pinned.base))


def _count_pinned(tracer: Tracer, args: dict, result) -> None:
    tracer.add("selection.iterations", result.iterations)
    tracer.add("selection.converged", int(result.converged))


CLI, CI, SELECTION = "fermipin.cli", "fermipin.ci", "fermipin.selection"

# (layer, defining module, attribute, modules that must hold a binding, counter)
TARGETS = (
    ("cli.main", CLI, "main", (CLI,), None),
    ("ci.build_hamiltonian", CI, "build_hamiltonian", (CI, SELECTION), _count_hamiltonian),
    ("ci.solve_ground", CI, "solve_ground", (CLI, SELECTION), _count_solve),
    ("rdm.one_rdm", "fermipin.rdm", "one_rdm", (CLI, SELECTION), _count_rdm),
    ("rdm.natural_spectrum", "fermipin.rdm", "natural_spectrum", (CLI, SELECTION), None),
    ("integrals.rotated", "fermipin.integrals", "SpinOrbitalIntegrals.rotated", (), None),
    ("integrals.to_spin_orbitals", "fermipin.integrals", "to_spin_orbitals", (CLI,), None),
    ("fock.enumerate_space", "fermipin.fock", "enumerate_space", (CLI, SELECTION), _count_space),
    ("fock.census", "fermipin.fock", "census", (CLI, SELECTION), None),
    ("gpc.evaluate", "fermipin.gpc", "evaluate", (CLI,), None),
    ("selection.filter_pinned", SELECTION, "filter_pinned", (CLI, SELECTION), _count_filter),
    ("selection.pinned_solve", SELECTION, "pinned_solve", (CLI,), _count_pinned),
)
LAYERS = tuple(target[0] for target in TARGETS)


def _wrap(tracer: Tracer, layer: str, fn: Callable, counter) -> Callable:
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.add(f"{layer}.calls", 1)
        index = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counter is not None:
            index = tracer.open(COUNT_SPAN)
            counter(tracer, signature.bind(*args, **kwargs).arguments, result)
            tracer.close(index)
        return result

    return traced


@contextlib.contextmanager
def tracing(tracer: Tracer) -> Iterator[None]:
    """Rebind every target to a span-recording wrapper, restoring on exit.

    Raises RuntimeError when a module listed for a target does not hold the
    function, so a span cannot disappear unnoticed.
    """
    import fermipin.cli  # noqa: F401  (loads every traced module)

    restore: list[tuple[object, str, object]] = []
    try:
        for layer, owner_name, attr, required, counter in TARGETS:
            owner = sys.modules[owner_name]
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name)
                original = vars(cls)[method]
                restore.append((cls, method, original))
                setattr(cls, method, _wrap(tracer, layer, original, counter))
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(tracer, layer, original, counter)
            rebound = set()
            for module_name, module in list(sys.modules.items()):
                if module_name != "fermipin" and not module_name.startswith("fermipin."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, original))
                        setattr(module, key, wrapper)
                        rebound.add(module_name)
            missing = sorted(set(required) - rebound)
            if missing:
                raise RuntimeError(f"cannot trace {layer}: not bound in {', '.join(missing)}")
        yield
    finally:
        for target, key, original in reversed(restore):
            setattr(target, key, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans open and close in stack order, so children never overlap.
    """
    result = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            result[span.parent] -= span.end - span.start
    return result


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the pass the tracer recorded."""
    counts = tracer.counts
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = counts.get(f"{layer}.calls", 0)
        metrics[f"{layer}.self_ms"] = 0.0
    for span, seconds in zip(tracer.spans, self_times(tracer.spans)):
        if span.name != COUNT_SPAN:
            metrics[f"{span.name}.self_ms"] += 1000.0 * seconds
    for key in ("ci.pairs_scanned", "ci.dim_max", "ci.h_bytes_max", "rdm.pairs_scanned",
                "fock.dets_enumerated", "selection.iterations"):
        metrics[key] = counts.get(key, 0)
    metrics["ci.connected_frac"] = _ratio(counts.get("ci.connected_pairs", 0),
                                          counts.get("ci.pairs_scanned", 0))
    metrics["rdm.connected_frac"] = _ratio(counts.get("rdm.connected_pairs", 0),
                                           counts.get("rdm.pairs_scanned", 0))
    metrics["selection.converged_frac"] = _ratio(counts.get("selection.converged", 0),
                                                 counts.get("selection.pinned_solve.calls", 0))
    metrics["selection.survivor_frac"] = _ratio(counts.get("selection.survivors", 0),
                                                counts.get("selection.filtered", 0))
    return metrics
