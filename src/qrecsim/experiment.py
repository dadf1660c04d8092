"""End-to-end reconstruction experiment: plant, subsample, project, measure.

One run generates a preference matrix, hides part of it by subsampling,
builds the sampling-tree store, thresholds the subsample's spectrum at
sigma = sqrt(eps^2 p / 2k) ||That||_F, and recommends products to users
drawn from the typical set. The report compares measured bad-recommendation
rates and per-user overheads against the analytic bounds, and labels every
derived guarantee with whether the Frobenius-mass precondition held
("precondition-satisfied") or the run extrapolates below it
("extrapolated").
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import BoundVacuousError, MatrixError, ProjectionEmptyError
from .linalg import check_count, check_real, svd
from .qproject import DEFAULT_KAPPA, ProjectionParams
from .recsys import (
    RecommendContext,
    bad_sample_bound,
    check_bound_params,
    generate_T,
    quantum_typical_user_bound,
    recommendation_sigma,
    typical_set,
    typical_user_bound,
    w_statistic_bound,
)
from .rng import DEFAULT_SEED, stream
from .store import MAX_INGEST_DIM, MatrixStore
from .subsample import bound_threshold_family_error, derive_params, subsample

REPORT_SCHEMA = "qrecsim-report/1"
# Largest ``users``, ``recs_per_user`` and their product, the run's
# recommendation draws. The user draw allocates one int64 per user (8 MiB at
# the cap), and at a few microseconds a draw the product's cap keeps a run's
# recommendations to seconds.
MAX_SERVED = 1 << 20


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for one seeded end-to-end run. Each is checked under the rule of
    the code it feeds, in a message that starts with "config "."""

    m: int = 64
    n: int = 64
    k: int = 4
    noise: float = 0.05
    p: float | None = 0.5
    seed: int = DEFAULT_SEED
    gamma: float = 0.1
    delta: float = 0.1
    zeta: float = 0.1
    xi: float = 0.1
    kappa: float = DEFAULT_KAPPA
    users: int = 50
    recs_per_user: int = 40

    def __post_init__(self):
        try:
            # The store's shape limit, which the rank shares.
            check_count(1, MAX_INGEST_DIM, m=self.m, n=self.n, k=self.k)
            check_count(0, seed=self.seed)
            check_count(0, MAX_SERVED, users=self.users, recs_per_user=self.recs_per_user)
            check_count(0, MAX_SERVED, **{"users * recs_per_user": self.users * self.recs_per_user})
            check_real("rate", noise=self.noise)
            if self.p is not None:
                check_real("probability", p=self.p)
            check_bound_params(self.gamma, self.delta, self.zeta, xi=self.xi)
            check_real("fraction", kappa=self.kappa)
        except MatrixError as exc:
            raise MatrixError(f"config {exc}") from None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise MatrixError(f"config must be a JSON object, got {type(raw).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise MatrixError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def run_experiment(config: ExperimentConfig) -> tuple[dict, list[dict]]:
    """Execute one run; returns (report, per-user rows for CSV export)."""
    seed = config.seed
    truth = generate_T(config.m, config.n, config.k, config.noise, stream(seed, "preference"))
    f_truth = svd(truth, top=config.k)
    fro_truth = f_truth.frobenius_norm()
    if fro_truth <= 0.0:
        raise MatrixError("generated preference matrix is all zero")
    tail_sq = float(np.sum(f_truth.sigma[config.k :] ** 2)) + f_truth.rest_sq
    eps_k = float(np.sqrt(tail_sq) / fro_truth)
    if eps_k <= 0.0:
        # Noise-free instances reconstruct exactly; keep bounds well defined.
        eps_k = 1e-9

    sub_params = derive_params(truth, config.k, eps_k, p=config.p)
    sampled = subsample(truth, sub_params.p, stream(seed, "subsample"))
    if not sampled.any():
        raise MatrixError("subsample kept no entries; raise p or the matrix mass")
    fro_hat = MatrixStore.from_dense(sampled).frobenius_norm()
    sigma = recommendation_sigma(eps_k, sub_params.p, config.k, fro_hat)
    params = ProjectionParams(sigma=sigma, kappa=config.kappa)

    # The store's dense view is sampled bit for bit: sqrt(x^2) = |x| in binary64.
    ctx = RecommendContext(sampled, params)
    kept = ctx.kept
    kept_rank = int(np.sum(kept))
    # The kept-set reconstruction U_k S_k V_k^T, as (A V_k) V_k^T without U.
    surrogate = (ctx.dense @ ctx.v_kept) @ ctx.v_kept.T
    realized_err = float(np.linalg.norm(truth - surrogate) / fro_truth)

    mask = typical_set(ctx.dense, config.gamma)
    typical_idx = np.flatnonzero(mask)
    report_flags: list[str] = [sub_params.status]

    # Sandwich check on the realized kept set (hard invariant). Directions the
    # context left unresolved lie below its floor, hence below sigma, and are
    # never kept, so only the resolved ones can miss.
    sigmas = ctx.f.column_sigma()
    misses = ((sigmas >= sigma) & ~kept) | ((sigmas < (1.0 - config.kappa) * sigma) & kept)
    sandwich_ok = not misses.any()

    rows: list[dict] = []
    iterations = 0
    failures = 0
    user_rng = stream(seed, "users")
    rec_rng = stream(seed, "recommend")
    if typical_idx.size:
        row_sq = np.sum(ctx.dense[typical_idx] ** 2, axis=1)
        user_probs = row_sq / row_sq.sum()
        chosen = user_rng.choice(typical_idx, size=config.users, p=user_probs)
        for user, count in zip(*np.unique(chosen, return_counts=True)):
            stats = {"user": int(user), "typical": True, "recs": 0, "bad": 0}
            _, beta_sq, _ = ctx.user_state(int(user))
            stats["beta_sq"] = beta_sq
            stats["w_stat"] = float(np.inf) if beta_sq <= 0 else 1.0 / beta_sq
            for _ in range(count * config.recs_per_user):
                try:
                    out = ctx.recommend(int(user), rec_rng)
                except ProjectionEmptyError:
                    failures += 1
                    continue
                iterations += out.iterations
                stats["recs"] += 1
                stats["bad"] += int(truth[user, out.product] == 0.0)
            stats["bad_rate"] = stats["bad"] / stats["recs"] if stats["recs"] else None
            rows.append(stats)

    total = sum(row["recs"] for row in rows)
    bad = sum(row["bad"] for row in rows)
    bad_rate = bad / total if total else None

    eps_hat = realized_err / 9.0
    bounds: dict[str, object] = {
        "bad_sample": bad_sample_bound(eps_k),
        "family_error_relative": bound_threshold_family_error(
            np.sqrt(tail_sq),
            sub_params.eta,
            config.k,
            sub_params.mu,
            sub_params.p,
            config.kappa,
            fro_truth,
        )
        / fro_truth,
    }
    # The config checked gamma, delta, zeta and xi, so a MatrixError here means
    # an eps outside (0, 1), as eps_hat can reach 1: a vacuous bound.
    fractions = (config.gamma, config.delta, config.zeta)
    for key, label, bound, args in (
        ("typical_user", "typical_user bound", typical_user_bound, (eps_k, *fractions)),
        ("quantum_typical_user", "quantum bound", quantum_typical_user_bound,
         (eps_hat, *fractions)),
        ("w_statistic", "w bound", w_statistic_bound, (eps_hat, *fractions, config.xi)),
    ):
        try:
            bounds[key] = bound(*args)
        except (BoundVacuousError, MatrixError) as exc:
            bounds[key] = None
            report_flags.append(f"{label} vacuous: {exc}")

    finite_w = [row["w_stat"] for row in rows if np.isfinite(row["w_stat"])]
    checks = {
        "sandwich": sandwich_ok,
        "rate_within_quantum_bound": (
            None
            if bad_rate is None or bounds["quantum_typical_user"] is None
            else bad_rate <= bounds["quantum_typical_user"]
        ),
    }
    report = {
        "schema": REPORT_SCHEMA,
        "created": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "config": asdict(config),
        "instance": {
            "m": config.m,
            "n": config.n,
            "k": config.k,
            "noise": config.noise,
            "fro_T": fro_truth,
            "fro_That": fro_hat,
            "eps_k": eps_k,
            "entry_bound": sub_params.b,
            "typical_users": int(typical_idx.size),
            "typical_fraction": float(typical_idx.size / config.m),
        },
        "params": {
            "p": sub_params.p,
            "eta": sub_params.eta,
            "eta_max": sub_params.eta_max,
            "mu": sub_params.mu,
            "sigma": sigma,
            "kappa": config.kappa,
            "precondition": sub_params.status,
        },
        "bounds": bounds,
        "measured": {
            "realized_error": realized_err,
            "eps_hat": eps_hat,
            "kept_rank": kept_rank,
            "recommendations": total,
            "bad_recommendations": bad,
            "bad_rate_typical": bad_rate,
            "projection_failures": failures,
            "mean_iterations": iterations / total if total else None,
            "w_mean": float(np.mean(finite_w)) if finite_w else None,
            "w_max": float(np.max(finite_w)) if finite_w else None,
            "users_sampled": len(rows),
        },
        "checks": checks,
        "flags": report_flags,
    }
    return report, rows


def report_to_json(report: dict) -> str:
    """Canonical serialization: stable key order, newline terminated."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(_sanitize(report)))


def write_user_csv(rows: list[dict], path) -> None:
    """Per-user series: one row per sampled user."""
    names = ["user", "typical", "beta_sq", "w_stat", "recs", "bad", "bad_rate"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=names)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k) for k in names})


def _sanitize(obj):
    """Make numpy scalars and infinities JSON safe."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj
