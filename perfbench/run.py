"""qrecsim benchmark: seeded workloads against the package's public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload experiment-1024 --seed 1 --seconds 55 --trace 0

Workloads (see BENCHMARK.json for why each exists):

    experiment-1024   run_experiment at 1024 x 1024, the exact pipeline in one call
    stream-serve-256  triplet ingest with reads, store round trip, cold and warm serving

Every run also executes the other phases a fixed number of times (the
experiment at 256 x 256, the stream at 256 x 256, and the circuit path on
fresh 32 x 32 instances), so every metric exists on every workload.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` runs the same
phases twice on half the time and half the companion iterations each,
untraced and then with spans recorded around each layer's public functions,
and reports per-layer metrics plus the tracing overhead.

Every timing is the median of its samples, each sample scaled to a nominal
host speed measured while it ran (see speed.py); the wall-time medians are
printed and written beside them. Human-readable results go to standard
output, the full record (environment, samples, report digests) to
perfbench/results/, and the last line of standard output is one JSON object
with the metrics named in BENCHMARK.json. A failed output check exits 1; a
checkout without the package exits 2. Both print no result.

The package is imported from src/ of this checkout, never from an installed
copy. BLAS runs on one thread, so all load comes from one thread of one
process, which moves to the quietest usable CPU before each iteration.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MODULES = ("store", "linalg", "subsample", "recsys", "qproject", "qsim", "experiment", "errors")
SETUP_REPEATS = 9
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> int:
    """Pin BLAS to one thread before numpy loads.

    On a two-CPU machine a second BLAS thread competes with the interpreter
    thread, and the run-to-run spread of the Python-bound metrics doubled.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def import_program() -> SimpleNamespace:
    """Fresh import of qrecsim from this checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "qrecsim" or m.startswith("qrecsim.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("qrecsim")
    if Path(package.__file__).resolve().parent != SRC / "qrecsim":
        raise ImportError(f"qrecsim resolved to {package.__file__}, not {SRC / 'qrecsim'}")
    modules = {name: importlib.import_module(f"qrecsim.{name}") for name in MODULES}
    return SimpleNamespace(module_names=("package", *MODULES), package=package, **modules)


def set_up(workload: str, seed: int, sizes, cpus: frozenset):
    """Import the package and generate inputs, several times; keep the last."""
    from workloads import make_inputs, pick_quiet_cpu

    spans = []
    for _ in range(SETUP_REPEATS):
        pick_quiet_cpu(cpus)
        start = time.perf_counter()
        program = import_program()
        inputs = make_inputs(workload, seed, sizes)
        spans.append((start, time.perf_counter()))
    return program, inputs, spans


def run_phases(program, inputs: dict, workload: str, seconds: float, sizes, tracer, cpus) -> dict:
    """All three phases interleaved over ``seconds``; see workloads.interleave."""
    from workloads import WORKLOADS, circuit_phase, experiment_phase, interleave, stream_phase

    phases = {
        "experiment": experiment_phase(program, inputs["experiment"], tracer),
        "stream": stream_phase(program, inputs["stream"], tracer),
        "circuit": circuit_phase(program, inputs["circuit"], tracer),
    }
    return interleave(phases, WORKLOADS[workload], seconds, sizes, cpus)


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Set up, measure and check one workload; returns the full result record."""
    cpus = frozenset(os.sched_getaffinity(0))
    try:
        return _measure(workload, seed, seconds, trace, sizes, cpus)
    finally:
        os.sched_setaffinity(0, cpus)


def _measure(workload, seed, seconds, trace, sizes, cpus) -> dict:
    from speed import SpeedClock, raw
    from tracing import SpanTable, Tracer, layer_metrics
    from workloads import WORKLOADS, Sizes, end_to_end, tally

    sizes = sizes or Sizes()
    primary = WORKLOADS[workload]
    off = Tracer()
    with SpeedClock() as clock:
        program, inputs, setup = set_up(workload, seed, sizes, cpus)
        if not trace:
            records = run_phases(program, inputs, workload, seconds, sizes, off, cpus)
            return {
                "records": records,
                "end_to_end": end_to_end(records, setup, clock.scaled),
                "end_to_end_raw": end_to_end(records, setup, raw),
                "speed": clock.summary(),
                "tally": tally(records),
            }
        # Each half gets half the companion iterations, so a traced run takes
        # about as long as an untraced one.
        halved = {phase: max(1, n // 2) for phase, n in sizes.companion_iterations.items()}
        half = dataclasses.replace(sizes, companion_iterations=halved)
        untraced = run_phases(program, inputs, workload, seconds / 2, half, off, cpus)
        tracer = Tracer()
        tracer.install(program)
        try:
            traced = run_phases(program, inputs, workload, seconds / 2, half, tracer, cpus)
        finally:
            tracer.uninstall()
    base = end_to_end(untraced, setup, clock.scaled)
    with_spans = end_to_end(traced, setup, clock.scaled)
    layers = layer_metrics(SpanTable(tracer), traced)
    base_iter, traced_iter = (
        statistics.median(clock.scaled(*r["iteration"]) for r in half_run[primary])
        for half_run in (untraced, traced)
    )
    layers["trace.overhead_pct"] = (100.0 * (traced_iter / base_iter - 1.0), "%")
    both = [tally(untraced), tally(traced)]
    return {
        "records": traced,
        "end_to_end": base,
        "end_to_end_traced": with_spans,
        "tracing_overhead": {
            name: with_spans[name][0] - value for name, (value, _, _) in base.items()
        },
        "per_layer": layers,
        "speed": clock.summary(),
        "tally": tuple(map(sum, zip(*both))),
        "tracer": tracer,
    }


# -- environment and output ---------------------------------------------------


def git_commit() -> str | None:
    """HEAD of this checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "qrecsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": threads,
        "workload_seed": seed,
    }


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def summary_lines(args, env: dict, result: dict) -> list[str]:
    lines = [
        f"qrecsim benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        "environment: " + ", ".join(f"{k}={v}" for k, v in env.items()),
        "speed probes: " + ", ".join(f"{k}={v:.4g}" for k, v in result["speed"].items()),
        "end-to-end metrics (untraced medians at nominal speed, then in wall time;"
        " n = samples behind each value):",
    ]
    for name, (value, unit, n) in result["end_to_end"].items():
        wall = result["end_to_end_raw"][name][0] if "end_to_end_raw" in result else value
        lines.append(f"  {name:<22} {value:>14.6g} {unit:<6} wall={wall:<12.6g} n={n}")
    if "per_layer" in result:
        lines.append("per-layer metrics (traced pass):")
        for name, (value, unit) in result["per_layer"].items():
            lines.append(f"  {name:<34} {value:>14.6g} {unit}")
        lines.append("tracing overhead (traced - untraced end-to-end):")
        for name, diff in result["tracing_overhead"].items():
            lines.append(f"  {name:<22} {diff:>+14.6g}")
    digests = sorted({r["digest"] for r in result["records"]["experiment"]})
    lines.append(f"experiment report sha256 (without 'created'): {', '.join(digests)}")
    return lines


def write_results(args, env: dict, result: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    path = RESULTS / f"{stem}.json"
    body = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": result["tally"][0],
        "failed": result["tally"][1],
        **{k: v for k, v in result.items() if k not in ("tracer", "tally")},
    }
    if "tracer" in result:
        spans = RESULTS / f"{stem}-spans.npz"
        result["tracer"].save(spans)
        body["spans_file"] = os.path.relpath(spans, ROOT)
    path.write_text(json.dumps(body, indent=1, default=_jsonable) + "\n", encoding="utf-8")
    return path


def _jsonable(obj):
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, sizes=None) -> int:
    """Command-line entry; ``sizes`` (default full size) lets tests shrink it."""
    threads = limit_blas_threads()
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, CheckFailed

    args = parse_args(argv, WORKLOADS)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    except ImportError as exc:
        print(f"cannot import qrecsim from {SRC}: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 1
    env = environment(args.seed, threads)
    print("\n".join(summary_lines(args, env, result)))
    print(f"results: {os.path.relpath(write_results(args, env, result), ROOT)}")
    source = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {
        name: {"value": source[name][0], "unit": source[name][1]}
        for name in declared_metrics(bool(args.trace))
    }
    attempted, failed = result["tally"]
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
