"""fermipin benchmark: the CLI driven in-process by one closed-loop client.

Run from the repository root:

    python3 bench/run.py --workload fci-large --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, one table
    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl

One run builds the workload's command list from the seed (``workloads.py``),
computes reference answers in a separate process (``oracle_job.py``), and,
untraced, times ``setup_s`` as the median of several fresh processes that
import fermipin and run the workload's first command cold
(``setup_job.py``).  It then calls ``fermipin.cli.main`` in this process:
one warm-up pass over the command list, then passes back to back, each
command starting when the previous one returns, until ``--seconds`` have
passed.  Output is captured in memory and checked after the timing.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
``run_s`` (median pass time, the sum of its command times), ``setup_s`` and ``peak_rss_mb`` (this
process's peak resident memory, taken right after the timed passes).  The
per-command times ``cmd.<command>_s``, ``failed_frac`` and the unscaled
``run_wall_s`` and ``setup_wall_s`` go to the run record and the table
printed above the result line.  Times are scaled to a reference machine
speed (see ``Speed``): commands and cold starts are bracketed by a fixed
calibration kernel, so drift in the speed of shared hardware cancels.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
record spans around the package's public functions (``spans.py``) and the
run reports the per-layer metrics of one pass (medians over the traced
passes; self times are unscaled) and the tracing overhead, traced minus
untraced median pass time.

BLAS is pinned to one thread through the environment of this process
before numpy is first imported; the helper processes inherit it.  Each run
appends a record with its metrics and the environment to
``.bench_results/results.jsonl`` (``--results`` to change), and a traced run
writes its spans next to it.  ``--compare`` reads two such files.
"""

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from compare import compare, quartiles
from workloads import WORKLOADS, Workload, tally

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_REPEATS = 5
HELPER_TIMEOUT = 120
RUN_TIMEOUT = 900
REFERENCE_CALIBRATION_S = 0.0125
CALIBRATION_INTERVAL_S = 0.5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _helper(script: str, *args: str, stdin: str | None = None) -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / script), *args], input=stdin, capture_output=True,
        text=True, cwd=ROOT, timeout=HELPER_TIMEOUT, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{script} failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    return done.stdout


def references(workload: Workload) -> dict:
    return json.loads(_helper("oracle_job.py", stdin=json.dumps(workload.oracle_request)))


def calibration() -> float:
    """Seconds a fixed kernel takes now (median of three): integer and dict
    work in Python plus small dense eigensolves, the mix the workloads run,
    sharing no code with fermipin."""
    import numpy as np

    matrix = np.arange(36.0 * 36.0).reshape(36, 36)
    matrix += matrix.T
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(40000):
            total += (i ^ (i >> 3)).bit_count()
            table[i & 1023] = total
        for _ in range(30):
            np.linalg.eigh(matrix)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Speed:
    """Converts wall times to the reference machine speed.

    On shared hardware the speed of the whole machine drifts (up to 1.8x
    over minutes on a 2-vCPU x86-64 VM), which no run length averages out.  Each timed
    interval is bracketed by the calibration kernel, and its time is scaled
    by ``REFERENCE_CALIBRATION_S`` over the mean of the two calibrations.
    """

    def __init__(self) -> None:
        calibration()  # warm-up
        self.last = calibration()
        self.samples = [self.last]

    def scale(self) -> float:
        """The factor for the interval since the previous call or creation."""
        now = calibration()
        factor = REFERENCE_CALIBRATION_S / ((self.last + now) / 2.0)
        self.last = now
        self.samples.append(now)
        return factor


def setup_times(workload: Workload, speed: Speed) -> tuple[list[float], list[float], list[int]]:
    """Scaled and wall times of cold starts, and their exit codes."""
    argv = json.dumps(list(workload.commands[0].argv))
    scaled, wall, codes = [], [], []
    for _ in range(SETUP_REPEATS):
        probe = json.loads(_helper("setup_job.py", argv))
        scaled.append(probe["seconds"] * speed.scale())
        wall.append(probe["seconds"])
        codes.append(probe["exit"])
    return scaled, wall, codes


def run_pass(cli, workload: Workload, outputs: Counter,
             speed: Speed) -> tuple[float, float, dict[str, float]]:
    """Issue every command once: the scaled and the wall time of the pass
    (the sum of its command times) and the scaled time per command name.

    A calibration follows the last command, and any command once the
    commands since the previous calibration took ``CALIBRATION_INTERVAL_S``;
    each command is scaled by its interval's factor (see ``Speed``).  Each distinct output is counted in ``outputs`` after the
    timing, so memory does not grow with the number of passes.
    """
    gc.collect()
    captured = []
    pending: list[tuple[str, float]] = []
    per_command: dict[str, float] = {}
    scaled = wall = 0.0
    for index, command in enumerate(workload.commands):
        out, err = io.StringIO(), io.StringIO()
        begin = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(command.argv))
            except Exception:  # a crash is a failed command; the run goes on
                traceback.print_exc()
                code = None
        seconds = time.perf_counter() - begin
        captured.append((index, code, out, err))
        pending.append((command.name, seconds))
        wall += seconds
        if (index == len(workload.commands) - 1
                or sum(s for _, s in pending) >= CALIBRATION_INTERVAL_S):
            factor = speed.scale()
            for name, value in pending:
                per_command[name] = per_command.get(name, 0.0) + value * factor
                scaled += value * factor
            pending = []
    for index, code, out, err in captured:
        outputs[(index, code, out.getvalue(), err.getvalue())] += 1
    return scaled, wall, per_command


def _metric(values: list[float], unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def measure(cli, workload: Workload, seconds: float, outputs: Counter, speed: Speed) -> dict:
    """End-to-end metrics of untraced passes (setup_s is added by the caller)."""
    passes: list[float] = []
    wall: list[float] = []
    per_command: dict[str, list[float]] = {}
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        scaled, unscaled, times = run_pass(cli, workload, outputs, speed)
        passes.append(scaled)
        wall.append(unscaled)
        for name, value in times.items():
            per_command.setdefault(name, []).append(value)
    metrics = {"run_s": _metric(passes, "s")}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    for name, values in per_command.items():
        metrics[f"cmd.{name}_s"] = _metric(values, "s")
    metrics["run_wall_s"] = _metric(wall, "s")
    return metrics


def measure_traced(cli, workload: Workload, seconds: float, outputs: Counter, speed: Speed,
                   units: dict):
    """Per-layer metrics and the spans of every traced pass."""
    from spans import Tracer, layer_metrics, tracing

    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    spans: list[list] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(run_pass(cli, workload, outputs, speed)[0])
        with tracing(tracer):
            tracer.reset()
            traced.append(run_pass(cli, workload, outputs, speed)[0])
        layers.append(layer_metrics(tracer))
        spans.append(tracer.spans)
    metrics = {name: _metric([pass_metrics[name] for pass_metrics in layers], units[name])
               for name in layers[0]}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(plain), "unit": "s",
        "traced_run_s": statistics.median(traced), "untraced_run_s": statistics.median(plain)}
    return metrics, spans


def _blas_threads() -> int | None:
    """The thread count the loaded OpenBLAS reports, when it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = done.stdout.strip() or None
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, results: Path) -> dict:
    declared = _spec()["per_layer" if trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    from fermipin import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"imported fermipin from {cli.__file__}, not from {SRC}")
    if trace:
        from spans import Tracer, tracing

        with tracing(Tracer()):  # fails now if a traced function is no longer bound
            pass

    workload = WORKLOADS[name](seed)
    refs = references(workload)
    speed = Speed()
    setup, setup_wall, setup_codes = ([], [], []) if trace else setup_times(workload, speed)
    outputs: Counter = Counter()
    run_pass(cli, workload, outputs, speed)  # warm-up
    if trace:
        metrics, spans = measure_traced(cli, workload, seconds, outputs, speed,
                                        {m["name"]: m["unit"] for m in declared})
    else:
        metrics, spans = measure(cli, workload, seconds, outputs, speed), None
        metrics["setup_s"] = _metric(setup, "s")
        metrics["setup_wall_s"] = _metric(setup_wall, "s")

    attempted, failed, reasons = tally(workload, outputs, refs)
    bad_setups = [code for code in setup_codes if code != 0]
    attempted += len(setup_codes)
    failed += len(bad_setups)
    if bad_setups:
        reasons.append(f"cold start exited {bad_setups[0]}")
    if not trace:
        metrics["failed_frac"] = {"value": failed / attempted, "unit": "fraction"}

    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "commands": [list(c.argv) for c in workload.commands],
        "attempted": attempted, "failed": failed, "failures": reasons,
        "metrics": metrics, "calibration_s": _metric(speed.samples, "s"),
        "env": environment(), "time": time.time(),
    }
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    if spans is not None:
        with open(results.parent / f"spans-{name}-seed{seed}.jsonl", "w",
                  encoding="utf-8") as handle:
            for number, pass_spans in enumerate(spans):
                for span in pass_spans:
                    handle.write(json.dumps({"pass": number, **vars(span)}) + "\n")

    for reason in reasons:
        print(f"FAILED {reason}")
    for metric_name, metric in metrics.items():
        spread = f"  [q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, n={metric['n']}]" \
            if "q1" in metric else ""
        print(f"{name:12s} {metric_name:34s} {metric['value']:14.6g} {metric['unit']}{spread}")
    print("env " + json.dumps(record["env"]))
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in declared},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Every workload in its own process; their metric tables, then a summary."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--results", str(args.results)],
            capture_output=True, text=True, timeout=RUN_TIMEOUT, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} failed: {done.stderr.strip()[-2000:]}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=RESULTS / "results.jsonl")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)

    if args.compare:
        print("\n".join(compare(*args.compare, _spec())))
        return 0
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    missing = [p for p in (SRC / "fermipin" / "cli.py", ROOT / "tests" / "oracles.py")
               if not p.is_file()]
    if missing:
        print(f"error: benchmark needs the fermipin sources; missing {missing}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy is first imported; helper processes inherit it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.results)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
