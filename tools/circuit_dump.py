"""Dump and compare every circuit-path output on the benchmark's circuit instances.

    python3 tools/circuit_dump.py dump CHECKOUT OUT.json [--seeds 1 7] [--sizes 32:16 64:2]
                                   [--part {sve,project,both}]
    python3 tools/circuit_dump.py compare BEFORE.json AFTER.json

``dump`` imports qrecsim from CHECKOUT/src (one checkout per process) and runs
what perfbench's circuit phase runs, on the instances that
``perfbench/workloads.circuit_input`` generates next to this file: per instance
the walk's group count, ``sve_circuit`` on every stored row, then the circuit
``threshold_project`` of every row, all on the instance's rng, whose state is
recorded after the instance. ``--part sve`` or ``--part project`` runs that
part alone, from the instance's fresh rng, so that a change to one sampler
can be checked to leave the other's outputs bit for bit; the default
``both`` is the benchmark's order. BLAS runs on one thread, as in the
benchmark.
``compare`` walks two dumps in step: integers, flags and strings must match
exactly, and floats may differ by FLOAT_TOL. It prints the integer mismatches
(the first 20 in full) and the largest float difference, and exits 1 when
either check fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FLOAT_TOL = 1e-15


def load_workloads():
    bench = HERE.parent / "perfbench"
    if str(bench) not in sys.path:
        sys.path.insert(0, str(bench))
    importlib.import_module("run").limit_blas_threads()
    return importlib.import_module("workloads")


def import_qrecsim(checkout: Path):
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    package = importlib.import_module("qrecsim")
    if Path(package.__file__).resolve().parent != src / "qrecsim":
        raise ImportError(f"qrecsim resolved to {package.__file__}, not {src / 'qrecsim'}")
    return {name: importlib.import_module(f"qrecsim.{name}")
            for name in ("errors", "qproject", "qsim", "store")}


PARTS = ("sve", "project")


def dump_instance(q: dict, wl, inst, parts=PARTS) -> dict:
    qsim, qproject = q["qsim"], q["qproject"]
    wop = qsim.WalkOperator.from_store(q["store"].MatrixStore.from_dense(inst.matrix))
    params = qproject.ProjectionParams(
        sigma=inst.sigma, kappa=wl.KAPPA, max_iterations=wl.CIRCUIT_RETRY_CAP
    )
    rng = wl._rng(inst.seed, 7)
    sve = []
    for row in inst.rows if "sve" in parts else ():
        out = qsim.sve_circuit(wop, inst.matrix[row], wl.SVE_EPS, rng)
        sve.append([[c.index, c.bin, c.amplitude, c.sigma, c.theta, c.theta_est, c.sigma_est]
                    for c in out.components])
    projections = []
    for row in inst.rows if "project" in parts else ():
        try:
            out = qproject.threshold_project(wop, inst.matrix[row], params, rng, path="circuit")
        except q["errors"].ProjectionEmptyError as err:
            projections.append({"empty": True, "iterations": err.iterations,
                                "beta_sq": err.beta_sq})
            continue
        projections.append({
            "iterations": out.iterations,
            "kept": out.kept_indices(),
            "beta_sq": out.beta_sq,
            "components": [[c.index, c.kept, c.amplitude, c.sigma, c.sigma_est]
                           for c in out.components],
            "state": out.state.tolist(),
        })
    return {
        "seed": inst.seed,
        "m": int(inst.matrix.shape[0]),
        "groups": len(wop.phase_groups()),
        "sve": sve,
        "project": projections,
        "rng_state": rng.bit_generator.state,
    }


def dump(checkout: Path, seeds: list[int], sizes: list[tuple[int, int]],
         parts=PARTS) -> list[dict]:
    wl = load_workloads()
    q = import_qrecsim(checkout)
    return [dump_instance(q, wl, inst, parts)
            for seed in seeds for m, count in sizes for inst in wl.circuit_input(seed, m, count)]


def compare(a, b, path: str = "") -> tuple[list[str], float, str]:
    """(integer-field mismatches, largest float difference, where it is)."""
    if isinstance(a, float) and isinstance(b, float):
        return [], abs(a - b), path
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [(f"{path}[{k}]", x, y) for k, (x, y) in enumerate(zip(a, b))]
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        pairs = [(f"{path}.{k}", a[k], b[k]) for k in a]
    else:
        return ([] if type(a) is type(b) and a == b else [f"{path}: {a!r} != {b!r}"]), 0.0, path
    mismatches, worst, where = [], 0.0, path
    for sub, x, y in pairs:
        bad, diff, at = compare(x, y, sub)
        mismatches += bad
        if diff > worst:
            worst, where = diff, at
    return mismatches, worst, where


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="run one checkout's circuit path and write its outputs")
    d.add_argument("checkout", type=Path)
    d.add_argument("out", type=Path)
    d.add_argument("--seeds", type=int, nargs="+", default=[1, 7, 21, 22])
    d.add_argument("--sizes", nargs="+", default=["32:16", "64:2"],
                   help="M:COUNT pairs, COUNT instances of M x M per seed")
    d.add_argument("--part", choices=(*PARTS, "both"), default="both",
                   help="run only sve_circuit or only the projections (default: both)")
    c = sub.add_parser("compare", help="compare two dumps")
    c.add_argument("before", type=Path)
    c.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    if args.command == "dump":
        sizes = [tuple(int(v) for v in s.split(":")) for s in args.sizes]
        parts = PARTS if args.part == "both" else (args.part,)
        records = dump(args.checkout, args.seeds, sizes, parts)
        args.out.write_text(json.dumps(records), encoding="utf-8")
        print(f"{len(records)} instances -> {args.out}")
        return 0
    before, after = (json.loads(p.read_text(encoding="utf-8")) for p in (args.before, args.after))
    mismatches, worst, where = compare(before, after)
    for line in mismatches[:20]:
        print(f"mismatch {line}")
    print(f"integer mismatches: {len(mismatches)}")
    print(f"max float difference: {worst:.3g}" + (f" at {where}" if worst > 0.0 else ""))
    return 0 if not mismatches and worst <= FLOAT_TOL else 1


if __name__ == "__main__":
    sys.exit(main())
