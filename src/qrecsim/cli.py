"""Command line front end.

Subcommands mirror the pipeline stages: ``ingest`` builds a store from
triplet text, ``sve`` estimates singular values carried by a vector,
``project`` runs the threshold projection, ``recommend`` samples products
for a user, and ``experiment`` executes a full seeded run and writes the
JSON report. Exit codes: 0 success, 1 input/runtime error, 3 cold-start
user, 4 empty projection, 5 hard invariant failure in an experiment.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .errors import ColdStartError, MatrixError, ProjectionEmptyError, QrecsimError
from .experiment import MAX_SERVED, ExperimentConfig, run_experiment, write_report, write_user_csv
from .linalg import check_count
from .qproject import DEFAULT_KAPPA, ProjectionParams, threshold_project
from .qsim import sve
from .recsys import RecommendContext, recommendation_sigma
from .rng import DEFAULT_SEED, stream
from .store import MatrixStore, ingest_triplets

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_COLD_START = 3
EXIT_PROJECTION_EMPTY = 4
EXIT_INVARIANT = 5


def _parse_vector(spec: str, store: MatrixStore) -> np.ndarray:
    """Vector specs: row:<i>, basis:<j>, uniform, @file, or inline floats."""
    if spec == "uniform":
        return np.full(store.n, 1.0 / np.sqrt(store.n))
    if spec.startswith("row:"):
        return store.row_dense(int(spec[4:]))
    if spec.startswith("basis:"):
        j = int(spec[6:])
        if not 0 <= j < store.n:
            raise MatrixError(f"basis index {j} outside [0, {store.n})")
        vec = np.zeros(store.n)
        vec[j] = 1.0
        return vec
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
        return np.array([float(v) for v in text.replace(",", " ").split()])
    return np.array([float(v) for v in spec.split(",")])


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"master seed (default {DEFAULT_SEED})",
    )


def _seed_of(args) -> int:
    """--seed, checked by the config's seed rule, or DEFAULT_SEED."""
    seed = DEFAULT_SEED if args.seed is None else args.seed
    check_count(0, **{"--seed": seed})
    return seed


def cmd_ingest(args) -> int:
    with open(args.triplets, "r", encoding="utf-8") as fh:
        store = ingest_triplets(fh, m=args.rows, n=args.cols)
    if args.out:
        store.save(args.out)
    print(f"rows={store.m} cols={store.n} entries={store.entry_count}")
    print(f"frobenius={store.frobenius_norm():.12g}")
    if args.out:
        print(f"store={args.out}")
    return EXIT_OK


def cmd_sve(args) -> int:
    store = MatrixStore.load(args.store)
    vec = _parse_vector(args.vector, store)
    rng = stream(_seed_of(args), "cli", "sve")
    out = sve(store, vec, args.eps, path=args.path, rng=rng)
    lines = ["index,amplitude,sigma,sigma_est,theta,bin"]
    for c in out.components:
        lines.append(
            f"{c.index},{c.amplitude:.12g},{c.sigma:.12g},{c.sigma_est:.12g},"
            f"{c.theta:.12g},{c.bin}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_project(args) -> int:
    check_count(0, MAX_SERVED, **{"--samples": args.samples})
    store = MatrixStore.load(args.store)
    vec = _parse_vector(args.vector, store)
    params = ProjectionParams(
        sigma=args.sigma, kappa=args.kappa, max_iterations=args.max_iterations
    )
    rng = stream(_seed_of(args), "cli", "project")
    outcome = threshold_project(store, vec, params, rng, path=args.path)
    print(f"beta_sq={outcome.beta_sq:.12g} iterations={outcome.iterations}")
    for c in outcome.components:
        if c.kept:
            print(f"kept index={c.index} sigma={c.sigma:.12g} sigma_est={c.sigma_est:.12g}")
    if args.samples:
        draws = rng.choice(store.n, size=args.samples, p=outcome.state**2)
        print("samples=" + ",".join(str(int(d)) for d in draws))
    if args.state:
        print("state=" + ",".join(f"{v:.12g}" for v in outcome.state))
    return EXIT_OK


def cmd_recommend(args) -> int:
    check_count(1, MAX_SERVED, **{"--count": args.count})
    store = MatrixStore.load(args.store)
    if args.sigma is not None:
        sigma = args.sigma
    else:
        if args.eps is None or args.k is None:
            raise QrecsimError("recommend needs either --sigma or both --eps and --k")
        sigma = recommendation_sigma(args.eps, args.p, args.k, store.frobenius_norm())
    params = ProjectionParams(sigma=sigma, kappa=args.kappa)
    ctx = RecommendContext(store, params)
    rng = stream(_seed_of(args), "cli", "recommend")
    products = []
    outcome = None
    for _ in range(args.count):
        outcome = ctx.recommend(args.user, rng)
        products.append(outcome.product)
    print(f"user={args.user} sigma={sigma:.12g} beta_sq={outcome.beta_sq:.12g}")
    print("products=" + ",".join(str(p) for p in products))
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        config = ExperimentConfig.from_dict({**config.__dict__, "seed": _seed_of(args)})
    report, rows = run_experiment(config)
    write_report(report, args.out)
    if args.csv:
        write_user_csv(rows, args.csv)
    measured = report["measured"]
    print(
        f"eps_k={report['instance']['eps_k']:.6g} "
        f"realized_error={measured['realized_error']:.6g} "
        f"bad_rate={measured['bad_rate_typical']} "
        f"precondition={report['params']['precondition']}"
    )
    print(f"report={args.out}")
    if not report["checks"]["sandwich"]:
        print("invariant failure: kept set violated the threshold sandwich", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrecsim",
        description="Desk-scale simulator for sampling-tree quantum recommendations",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a binary store from i,j,value lines")
    p.add_argument("triplets", help="path to UTF-8 triplet lines")
    p.add_argument("--out", help="write the serialized store here")
    p.add_argument("--rows", type=int, default=None, help="row count (default: inferred)")
    p.add_argument("--cols", type=int, default=None, help="column count (default: inferred)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("sve", help="estimate singular values carried by a vector")
    p.add_argument("store", help="path to a serialized store")
    p.add_argument("--vector", required=True, help="row:<i>, basis:<j>, uniform, @file, or floats")
    p.add_argument("--eps", type=float, required=True, help="precision relative to ||A||_F")
    p.add_argument("--path", choices=("exact", "circuit"), default="exact")
    p.add_argument("--out", help="also write the CSV here")
    _add_seed(p)
    p.set_defaults(func=cmd_sve)

    p = sub.add_parser("project", help="project a vector onto large singular directions")
    p.add_argument("store", help="path to a serialized store")
    p.add_argument("--vector", required=True, help="row:<i>, basis:<j>, uniform, @file, or floats")
    p.add_argument("--sigma", type=float, required=True, help="singular value threshold")
    p.add_argument("--kappa", type=float, default=DEFAULT_KAPPA, help="band width (default 1/3)")
    p.add_argument("--path", choices=("exact", "circuit"), default="exact")
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--samples", type=int, default=0, help="measure this many indices")
    p.add_argument("--state", action="store_true", help="print outcome amplitudes")
    _add_seed(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("recommend", help="sample products for a user")
    p.add_argument("store", help="path to a serialized store")
    p.add_argument("--user", type=int, required=True)
    p.add_argument("--sigma", type=float, default=None, help="explicit threshold")
    p.add_argument("--eps", type=float, default=None, help="relative truncation error")
    p.add_argument("--k", type=int, default=None, help="target rank")
    p.add_argument("--p", type=float, default=1.0, help="subsampling probability used")
    p.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    p.add_argument("--count", type=int, default=1, help="number of recommendations")
    _add_seed(p)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("experiment", help="run a seeded end-to-end experiment")
    p.add_argument("config", help="path to a JSON config")
    p.add_argument("--out", default="report.json", help="report path (default report.json)")
    p.add_argument("--csv", default=None, help="also write per-user rows here")
    _add_seed(p)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ColdStartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLD_START
    except ProjectionEmptyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROJECTION_EMPTY
    except (QrecsimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
