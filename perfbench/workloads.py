"""Seeded inputs, the three measured phases, their output checks and metrics.

Every run executes all three phases so that every metric exists on every
workload: the workload's own phase fills the time budget at its full size,
and the other phases run a fixed number of iterations as companions (the
experiment companion at 256², the others at their full size), interleaved
with it. The circuit phase (fresh 32² instances through the walk, phase
groups, circuit SVE and circuit projection) runs only as a companion. Each
iteration of the experiment and stream phases sees identical inputs, and
circuit iterations walk a seeded list of instances, so counts taken in
iteration 0 repeat exactly across runs with the same seed.

Nothing here imports qrecsim: ``program`` is the namespace returned by
run.import_program, and each call goes through its module attributes so that
a traced run sees it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = {
    "experiment-1024": "experiment",
    "stream-serve-256": "stream",
}

PLANTED_TYPES = 4
PLANTED_NOISE = 0.05
KEEP_P = 0.5
KAPPA = 1.0 / 3.0
OVERWRITE_SHARE = 0.1
READ_EVERY = 16
CHUNK = 1024
REPEATS = 2
CONTEXT_BUILDS = 4
SVE_EPS = 0.05
MIN_SIGMA_SHARE = 0.05
# A 32x32 instance can split into disconnected blocks, leaving a row with
# numerically zero overlap with the kept groups (beta^2 ~ 1e-32). The default
# retry budget ceil((ln n + 7) / beta^2) is then ~1e33 attempts of a few ms
# each; with this cap the row ends in a counted ProjectionEmptyError instead.
# Rows with beta^2 above ~0.01 get the same or a larger budget than default.
CIRCUIT_RETRY_CAP = 512
AMPLITUDE_TOL = 1e-9
PROBE_LOOPS = 4000
PROBE_REPEATS = 2


@dataclass(frozen=True)
class Sizes:
    """Problem sizes and iteration counts; ``tiny()`` is for smoke tests."""

    experiment_m: int = 1024
    companion_experiment_m: int = 256
    stream_m: int = 256
    warm_recs: int = 4096
    circuit_m: int = 32
    companion_iterations: dict = field(
        default_factory=lambda: {"experiment": 20, "stream": 8, "circuit": 16}
    )
    min_iterations: dict = field(default_factory=lambda: {"experiment": 3, "stream": 6})

    @classmethod
    def tiny(cls) -> "Sizes":
        return cls(
            experiment_m=24,
            companion_experiment_m=16,
            stream_m=64,
            warm_recs=2 * CHUNK,
            circuit_m=8,
            companion_iterations={"experiment": 2, "stream": 2, "circuit": 2},
            min_iterations={"experiment": 2, "stream": 2},
        )


class CheckFailed(Exception):
    """A deterministic output check failed; the run must not report success."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- inputs ----------------------------------------------------------------


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _derived_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def planted_subsample(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """k user types, per-cell noise flips, then keep-with-p and rescale by 1/p."""
    types = rng.integers(0, 2, size=(PLANTED_TYPES, n))
    types[np.arange(PLANTED_TYPES), rng.integers(0, n, size=PLANTED_TYPES)] = 1
    liked = types[rng.integers(0, PLANTED_TYPES, size=m)]
    liked = np.where(rng.random((m, n)) < PLANTED_NOISE, 1 - liked, liked)
    kept = rng.random((m, n)) < KEEP_P
    return np.where(kept & (liked == 1), 1.0 / KEEP_P, 0.0)


def spectral_gap_sigma(a: np.ndarray) -> float:
    """Threshold between the planted rank and the noise: sqrt(s_k s_{k+1}).

    Floored at MIN_SIGMA_SHARE of ||A||_F: the circuit path's phase grid
    grows as ||A||_F / sigma, and tiny test matrices can have s_{k+1} ~ 0.
    """
    s = np.linalg.svd(a, compute_uv=False)
    gap = np.sqrt(s[PLANTED_TYPES - 1] * s[PLANTED_TYPES])
    return float(max(gap, MIN_SIGMA_SHARE * np.linalg.norm(a)))


@dataclass(frozen=True)
class StreamInput:
    lines: list
    final: np.ndarray
    users: np.ndarray
    sigma: float
    seed: int
    warm_recs: int


@dataclass(frozen=True)
class CircuitInstance:
    matrix: np.ndarray
    rows: np.ndarray
    sigma: float
    seed: int


def stream_input(seed: int, m: int, warm_recs: int) -> StreamInput:
    """Shuffled triplet lines with stale values overwritten later in the stream."""
    rng = _rng(seed, 2)
    final = planted_subsample(rng, m, m)
    ii, jj = np.nonzero(final)
    arrival = rng.random(ii.size)
    stale = np.flatnonzero(rng.random(ii.size) < OVERWRITE_SHARE)
    stale_arrival = arrival[stale] * rng.random(stale.size)
    stale_values = rng.choice([-1.0, 0.5, 3.0], size=stale.size)
    keys = np.concatenate([arrival, stale_arrival])
    rows = np.concatenate([ii, ii[stale]])
    cols = np.concatenate([jj, jj[stale]])
    values = np.concatenate([final[ii, jj], stale_values])
    order = np.argsort(keys, kind="stable")
    lines = [
        f"{i},{j},{v!r}"
        for i, j, v in zip(rows[order].tolist(), cols[order].tolist(), values[order].tolist())
    ]
    users = np.flatnonzero(final.any(axis=1))
    return StreamInput(lines, final, users, spectral_gap_sigma(final), seed, warm_recs)


def circuit_input(seed: int, m: int, count: int) -> list[CircuitInstance]:
    out = []
    for k in range(count):
        instance_seed = _derived_seed(seed, 3 + k)
        a = planted_subsample(_rng(instance_seed), m, m)
        rows = np.flatnonzero(a.any(axis=1))
        out.append(CircuitInstance(a, rows, spectral_gap_sigma(a), instance_seed))
    return out


def make_inputs(workload: str, seed: int, sizes: Sizes) -> dict:
    primary = WORKLOADS[workload]
    exp_m = sizes.experiment_m if primary == "experiment" else sizes.companion_experiment_m
    return {
        "experiment": {"m": exp_m, "n": exp_m, "seed": _derived_seed(seed, 1)},
        "stream": stream_input(seed, sizes.stream_m, sizes.warm_recs),
        "circuit": circuit_input(seed, sizes.circuit_m, sizes.companion_iterations["circuit"]),
    }


def _probe_ms() -> float:
    start = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        acc[i & 255] = acc.get(i & 255, 0) + i
    return 1e3 * (time.perf_counter() - start)


def pick_quiet_cpu(cpus: frozenset) -> None:
    """Pin this process to whichever of ``cpus`` runs a short probe fastest.

    On a shared host each virtual CPU is slowed by other tenants for seconds
    at a time (a pure-Python loop then takes about 1.6x as long), mostly not
    both at once, so moving to the quieter CPU before each iteration measures the
    program rather than its neighbours. The probe runs outside every timed
    region.
    """
    best, best_ms = None, float("inf")
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        probe = min(_probe_ms() for _ in range(PROBE_REPEATS))
        if probe < best_ms:
            best, best_ms = cpu, probe
    os.sched_setaffinity(0, {best})


def interleave(phases: dict, primary: str, seconds: float, sizes: Sizes, cpus: frozenset) -> dict:
    """Run the phases' iterations spread over ``seconds``; returns their records.

    Each companion phase runs a fixed number of iterations, the k-th of n
    started once k/n of the time has passed, so that a burst of interference
    from other tenants of the machine does not land on one phase only. The
    workload's own phase fills the remaining time, with a minimum count; it
    starts no iteration that its last one says would overrun ``seconds``
    together with the companion iterations still to run.
    """
    counts = {p: sizes.companion_iterations[p] for p in phases if p != primary}
    records = {p: [] for p in phases}
    last = {p: 0.0 for p in phases}
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        share = elapsed / seconds if seconds > 0 else 1.0
        due = [p for p, n in counts.items() if len(records[p]) < n and len(records[p]) <= share * n]
        still = sum((n - len(records[p])) * last[p] for p, n in counts.items())
        primary_done = len(records[primary]) >= sizes.min_iterations[primary] and (
            elapsed + last[primary] + still > seconds
        )
        rest = [p for p, n in counts.items() if len(records[p]) < n]
        if due:
            phase = due[0]
        elif not primary_done:
            phase = primary
        elif rest:
            phase = rest[0]
        else:
            return records
        pick_quiet_cpu(cpus)
        began = time.perf_counter()
        records[phase].append(next(phases[phase]))
        last[phase] = time.perf_counter() - began


# -- phases ----------------------------------------------------------------


def report_digest(report: dict) -> str:
    """SHA-256 of a seeded report without its wall-clock ``created`` field."""
    body = {k: v for k, v in report.items() if k != "created"}
    text = json.dumps(body, sort_keys=True, default=float)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def experiment_phase(program, config_kwargs: dict, tracer):
    """One ``run_experiment`` per iteration, same config every time."""
    config = program.experiment.ExperimentConfig(**config_kwargs)
    draws = config.users * config.recs_per_user
    first_digest = None
    for it in itertools.count():
        with tracer.span("bench.experiment", it):
            start = time.perf_counter()
            report, _ = program.experiment.run_experiment(config)
            end = time.perf_counter()
        measured = report["measured"]
        check(report["checks"]["sandwich"] is True, "experiment: sandwich check failed")
        check(
            measured["recommendations"] + measured["projection_failures"] == draws,
            f"experiment: recommendations + failures != {draws} draws",
        )
        digest = report_digest(report)
        first_digest = first_digest or digest
        check(digest == first_digest, "experiment: one seed gave two different reports")
        yield {
            "iteration": (start, end),
            "attempted": draws,
            "failed": measured["projection_failures"],
            "digest": digest,
        }


def stream_phase(program, inp: StreamInput, tracer):
    """Ingest-with-reads, round trip, context, then cold and warm serving.

    One closed-loop client asks for the next recommendation only after the
    previous one returned.

    Ingest and warm serving are timed in chunks, and the round trip and the
    context build with its cold pass are repeated, so that one iteration
    gives many samples. Contexts built from the same store are identical, so
    served products are checked against the last one.
    """
    store_mod, recsys = program.store, program.recsys
    empty_error = program.errors.ProjectionEmptyError
    m, n = inp.final.shape
    params = program.qproject.ProjectionParams(sigma=inp.sigma, kappa=KAPPA)
    for it in itertools.count():
        read_rng = _rng(inp.seed, 4)
        user_rng = _rng(inp.seed, 5)
        rec_rng = _rng(inp.seed, 6)
        served = []
        failed = 0
        ingest, roundtrip, ready, cold, warm = [], [], [], [], []
        with tracer.span("bench.stream", it):
            t0 = mark = time.perf_counter()
            with tracer.span("bench.stream.ingest"):
                store = store_mod.MatrixStore(m, n)
                for k, (i, j, value) in enumerate(store_mod.parse_triplets(inp.lines), 1):
                    store.insert(i, j, value)
                    if k % READ_EVERY == 0:
                        store.sample_entry(read_rng)
                    if k % CHUNK == 0:
                        mark, last = time.perf_counter(), mark
                        ingest.append((last, mark))
            with tracer.span("bench.stream.roundtrip"):
                for _ in range(REPEATS):
                    start = time.perf_counter()
                    blob = store.serialize()
                    loaded = store_mod.MatrixStore.deserialize(blob)
                    roundtrip.append((start, time.perf_counter()))
            # Each context starts cold; every user is served cold once by the
            # last of each round of builds.
            for _ in range(REPEATS):
                with tracer.span("bench.stream.ready"):
                    for _ in range(CONTEXT_BUILDS):
                        start = time.perf_counter()
                        ctx = recsys.RecommendContext(loaded, params)
                        ready.append((start, time.perf_counter()))
                cold_pass = []
                with tracer.span("bench.stream.cold"):
                    for user in inp.users:
                        start = time.perf_counter()
                        try:
                            out = ctx.recommend(int(user), rec_rng)
                        except empty_error:
                            failed += 1
                        else:
                            served.append((out.user, out.product))
                        cold_pass.append((start, time.perf_counter()))
                cold.append(cold_pass)
            with tracer.span("bench.stream.warm"):
                mark = time.perf_counter()
                for k in range(1, inp.warm_recs + 1):
                    user = loaded.l2_sample_row_index(user_rng)
                    try:
                        out = ctx.recommend(user, rec_rng)
                    except empty_error:
                        failed += 1
                    else:
                        served.append((out.user, out.product))
                    if k % CHUNK == 0:
                        mark, last = time.perf_counter(), mark
                        warm.append((last, mark))
            end = time.perf_counter()
        with tracer.paused():
            check(loaded.serialize() == blob, "stream: loaded store re-serializes differently")
            check(
                np.array_equal(loaded.to_dense(), inp.final),
                "stream: loaded store differs from the final written matrix",
            )
            for user, product in served:
                check(
                    ctx.user_state(user)[0][product] > 0.0,
                    f"stream: product {product} has zero projected probability for user {user}",
                )
        yield {
            "iteration": (t0, end),
            "ingest": ingest,
            "roundtrip": roundtrip,
            "ready": ready,
            "cold": cold,
            "warm": warm,
            "attempted": len(inp.lines)
            + len(inp.lines) // READ_EVERY
            + REPEATS * (1 + CONTEXT_BUILDS + len(inp.users))
            + inp.warm_recs,
            "failed": failed,
        }


def circuit_phase(program, instances: list, tracer):
    """Walk, phase groups, SVE on every row, circuit projection of every row."""
    qsim, qproject = program.qsim, program.qproject
    empty_error = program.errors.ProjectionEmptyError
    for it, inst in enumerate(instances):
        store = program.store.MatrixStore.from_dense(inst.matrix)
        params = qproject.ProjectionParams(
            sigma=inst.sigma, kappa=KAPPA, max_iterations=CIRCUIT_RETRY_CAP
        )
        rng = _rng(inst.seed, 7)
        estimates, projections = [], []
        failed = 0
        with tracer.span("bench.circuit", it):
            start = time.perf_counter()
            wop = qsim.WalkOperator.from_store(store)
            groups = wop.phase_groups()
            for row in inst.rows:
                estimates.append(qsim.sve_circuit(wop, inst.matrix[row], SVE_EPS, rng))
            for row in inst.rows:
                try:
                    projections.append(
                        qproject.threshold_project(wop, inst.matrix[row], params, rng, path="circuit")
                    )
                except empty_error:
                    failed += 1
            end = time.perf_counter()
        for out in estimates:
            mass = sum(c.amplitude**2 for c in out.components)
            check(abs(mass - 1.0) < AMPLITUDE_TOL, f"circuit: SVE component mass {mass} != 1")
        # Sandwich misses are statistical (the median boost can fail), so
        # they count as failed operations instead of ending the run.
        misses = missed = 0
        floor = (1.0 - KAPPA) * inst.sigma
        for out in projections:
            wrong = sum(
                (c.kept and c.sigma < floor) or (c.sigma >= inst.sigma and not c.kept)
                for c in out.components
            )
            misses += wrong
            missed += wrong > 0
        yield {
            "iteration": (start, end),
            "attempted": 2 * len(inst.rows),
            "failed": failed + missed,
            "sandwich_misses": misses,
            "phase_groups": len(groups),
            "walk_dim": wop.m * wop.n,
        }


# -- end-to-end metrics ----------------------------------------------------


# End-to-end metric -> (phase, record key, unit, scale). Each interval of the
# key gives one sample: its duration times the scale, or for a rate (negative
# scale) the magnitude of the scale divided by its duration.
PHASE_METRICS = {
    "experiment_s": ("experiment", "iteration", "s", 1.0),
    "ingest_per_s": ("stream", "ingest", "1/s", -CHUNK),
    "roundtrip_ms": ("stream", "roundtrip", "ms", 1e3),
    "ready_ms": ("stream", "ready", "ms", 1e3),
    "recs_per_s": ("stream", "warm", "1/s", -CHUNK),
    "circuit_instance_s": ("circuit", "iteration", "s", 1.0),
}


def _sample(duration: float, scale: float) -> float:
    return -scale / duration if scale < 0 else scale * duration


def cold_percentiles(records: list, duration) -> tuple[float, float]:
    """p50 and p95 over users of each user's median cold latency in ms.

    Every cold pass serves the same users from an identical fresh context,
    so a user's cold request does the same work each time; the median over
    passes leaves the spread between users.
    """
    passes = np.array(
        [[duration(*span) for span in cold] for r in records for cold in r["cold"]]
    )
    p50, p95 = np.percentile(1e3 * np.median(passes, axis=0), [50, 95])
    return float(p50), float(p95)


def tally(records: dict) -> tuple[int, int]:
    """(attempted, failed) operations over every phase's iterations."""
    attempted = sum(r["attempted"] for recs in records.values() for r in recs)
    failed = sum(r["failed"] for recs in records.values() for r in recs)
    return attempted, failed


def end_to_end(records: dict, setup: list, duration) -> dict:
    """Metric -> (median, unit, number of samples behind it).

    ``duration(start, end)`` turns each recorded interval into seconds:
    speed.raw for wall time, or SpeedClock.scaled for time at nominal speed.
    """
    attempted, failed = tally(records)
    p50, p95 = cold_percentiles(records["stream"], duration)
    cold_n = sum(len(p) for r in records["stream"] for p in r["cold"])
    out = {
        "setup_s": (float(np.median([duration(*span) for span in setup])), "s", len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "fail_rate": (failed / attempted, "ratio", attempted),
        "cold_user_ms_p50": (p50, "ms", cold_n),
        "cold_user_ms_p95": (p95, "ms", cold_n),
    }
    for name, (phase, key, unit, scale) in PHASE_METRICS.items():
        values = []
        for record in records[phase]:
            spans = record[key]
            for span in spans if isinstance(spans, list) else [spans]:
                values.append(_sample(duration(*span), scale))
        out[name] = (float(np.median(values)), unit, len(values))
    return out
