"""Acceptance suite: one test per shipping criterion.

Every test prints a single ``criterion N (<label>): PASS|FAIL`` line (visible
with ``pytest -s`` or in the captured output of a failing run) and asserts
the full criterion at its stated tolerance and time budget.
"""

import time

import numpy as np
from scipy import stats

from qrecsim.errors import ProjectionEmptyError
from qrecsim.experiment import ExperimentConfig, run_experiment
from qrecsim.linalg import svd
from qrecsim.qproject import ProjectionParams, kept_mask, threshold_project
from qrecsim.qsim import WalkOperator, sve_circuit, sve_exact
from qrecsim.recsys import (
    RecommendContext,
    bad_sample_bound,
    generate_T,
    recommendation_sigma,
    typical_set,
)
from qrecsim.rng import DEFAULT_SEED, stream
from qrecsim.store import MatrixStore, TreeTable
from qrecsim.subsample import subsample

from oracles import (
    OracleWalk,
    QuantumState,
    bad_mass,
    band_indices,
    calibration_ratio,
    max_error,
    pseudo_project_row,
    threshold_indices,
    truncate_top_k,
)

MASTER = DEFAULT_SEED


def _report(num: int, label: str, problems: list, elapsed: float, budget: float):
    if elapsed > budget:
        problems.append(f"time budget exceeded: {elapsed:.1f}s > {budget:.0f}s")
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {num} ({label}): {status}", flush=True)
    assert not problems, f"criterion {num} ({label}): " + "; ".join(map(str, problems))


def _full_rows(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    a = rng.normal(size=(m, n))
    while np.any(np.linalg.norm(a, axis=1) == 0.0):
        a = rng.normal(size=(m, n))
    return a


def _merged_chi_pvalue(counts: np.ndarray, expected: np.ndarray) -> float:
    """Chi-square with bins of expectation < 5 pooled into one bucket."""
    mask = expected >= 5.0
    if (~mask).any():
        counts = np.append(counts[mask], counts[~mask].sum())
        expected = np.append(expected[mask], expected[~mask].sum())
    expected = expected * counts.sum() / expected.sum()
    return float(stats.chisquare(counts, expected).pvalue)


def test_criterion_1_worked_tree_example():
    t0 = time.perf_counter()
    problems = []
    row = [0.4, 0.4, 0.8, 0.2]
    tree = TreeTable(1, 4)
    for j, v in enumerate(row):
        tree.insert(0, j, v)
    # Level t of the heap row is columns 2^t .. 2^(t+1).
    level = [tree.nodes[0, 1 << t : 2 << t].tolist() for t in range(3)]
    leaves = [v * v for v in row]
    if level[2] != leaves:
        problems.append(f"leaf level {level[2]} != {leaves}")
    internals = [leaves[0] + leaves[1], leaves[2] + leaves[3]]
    if level[1] != internals:
        problems.append(f"internal level {level[1]} != {internals}")
    if level[0] != [internals[0] + internals[1]]:
        problems.append(f"root level {level[0]}")
    for got, want in ((level[1][0], 0.32), (level[1][1], 0.68), (tree.root(0), 1.0)):
        if abs(got - want) > 1e-12:
            problems.append(f"node {got} differs from {want} by {abs(got - want)}")
    for j, v in enumerate(row):
        if abs(tree.amplitude(0, j) - v) > 1e-12:
            problems.append(f"amplitude({j}) = {tree.amplitude(0, j)} != {v}")
    state = tree.states()[0]
    if np.max(np.abs(state - row)) > 1e-12:
        problems.append(f"prepared state off by {np.max(np.abs(state - row))}")

    store = MatrixStore(2, 4)
    for j, v in enumerate(row):
        store.insert(0, j, v)
    for j in range(4):
        store.insert(1, j, 0.5)
    if abs(store.frobenius_sq() - 2.0) > 1e-12:
        problems.append(f"norm tree root {store.frobenius_sq()} != 2")
    if abs(store.subtree_weight(0, "1") - 0.68) > 1e-12:
        problems.append(f"subtree weight {store.subtree_weight(0, '1')} != 0.68")
    probs = [store.rows.leaves[0, j] / store.rows.root(0) for j in range(4)]
    for got, want in zip(probs, (0.16, 0.16, 0.64, 0.04)):
        if abs(got - want) > 1e-12:
            problems.append(f"sampling probability {got} != {want}")
    _report(1, "worked tree example exact", problems, time.perf_counter() - t0, 30.0)


def test_criterion_2_walk_correspondence():
    t0 = time.perf_counter()
    problems = []
    rng = stream(MASTER, "acceptance", "walk")
    for run in range(100):
        m = int(rng.integers(2, 17))
        n = int(rng.integers(2, 17))
        a = _full_rows(rng, m, n)
        w = OracleWalk.from_dense(a)
        p, q = w.matrices()
        fro = np.linalg.norm(a)
        factor_err = float(np.max(np.abs(p.T @ q - a / fro)))
        if factor_err > 1e-10:
            problems.append(f"run {run}: P^T Q error {factor_err}")
        f = svd(a)
        walk_thetas = np.array([g.theta for g in w.dense_phase_groups])
        for i in range(f.rank):
            want = 2.0 * np.arccos(min(f.sigma[i] / fro, 1.0))
            miss = float(np.min(np.abs(walk_thetas - want)))
            if miss > 1e-8:
                problems.append(f"run {run}: sigma_{i} phase off by {miss}")
    _report(2, "walk factorization and phases", problems, time.perf_counter() - t0, 30.0)


def test_criterion_3_sve_precision():
    t0 = time.perf_counter()
    problems = []
    eps = 0.05
    rng_m = stream(MASTER, "acceptance", "sve-matrices")
    rng_c = stream(MASTER, "acceptance", "sve-circuit")
    run_hits = 0
    for run in range(200):
        a = _full_rows(rng_m, 8, 8)
        x = rng_m.normal(size=8)
        f = svd(a)
        exact = sve_exact(f, x, eps)
        worst = max_error(exact)
        if worst > eps * f.frobenius_norm():
            problems.append(f"run {run}: exact error {worst} > eps ||A||_F")
        circ = sve_circuit(WalkOperator.from_dense(a), x, eps, rng_c)
        size = circ.grid.size
        ok = True
        for c in circ.components:
            e = min(exact.components, key=lambda e: abs(e.theta - c.theta))
            ok &= min((c.bin - e.bin) % size, (e.bin - c.bin) % size) <= 1
        run_hits += ok
    if run_hits < 190:
        problems.append(f"circuit within one bin on only {run_hits}/200 runs")
    _report(3, "estimation within eps, circuit within one bin", problems,
            time.perf_counter() - t0, 300.0)


def test_criterion_4_projection_sandwich_and_retries():
    t0 = time.perf_counter()
    problems = []
    rng = stream(MASTER, "acceptance", "project")
    for run in range(500):
        a = _full_rows(rng, 5, 5)
        f = svd(a)
        sigma = float(rng.uniform(f.sigma[-1], f.sigma[0]))
        if sigma <= 0.0:
            continue
        params = ProjectionParams(sigma=sigma)
        mask = kept_mask(f, params)
        kept = {i for i in range(5) if mask[i]}
        must = set(threshold_indices(f, sigma))
        allowed = must | set(band_indices(f, sigma, params.kappa))
        if not must <= kept <= allowed:
            problems.append(f"run {run}: sandwich broken {must} !<= {kept} !<= {allowed}")
            continue
        x = rng.normal(size=5)
        alpha = f.v.T @ (x / np.linalg.norm(x))
        if float(np.sum(alpha[mask] ** 2)) <= 1e-12:
            continue
        try:
            out = threshold_project(f, x, params, rng)
        except ProjectionEmptyError:
            continue  # tiny beta^2 can exhaust the retry budget legitimately
        band = set(band_indices(f, sigma, params.kappa))
        selector = sorted(kept & band)
        want = pseudo_project_row(f, x, sigma, params.kappa, selector)
        want /= np.linalg.norm(want)
        fid = float(np.dot(out.state, want)) ** 2
        if fid < 1.0 - 1e-8:
            problems.append(f"run {run}: fidelity {fid}")

    gap = np.diag([3.0, 1.0])
    x = np.array([np.sqrt(0.3), np.sqrt(0.7)])
    # A wide retry budget: the default cap of 26 truncates roughly one
    # geometric(0.3) run per ten thousand and would bias the mean check.
    params = ProjectionParams(sigma=2.0, max_iterations=1000)
    rng = stream(MASTER, "acceptance", "project-iters")
    iters = np.empty(10_000)
    for t in range(10_000):
        out = threshold_project(gap, x, params, rng)
        iters[t] = out.iterations
        if abs(out.beta_sq - 0.3) > 1e-12:
            problems.append(f"beta_sq {out.beta_sq} != 0.3")
            break
    mean = float(np.mean(iters))
    if abs(mean - 1.0 / 0.3) > 0.05 / 0.3:
        problems.append(f"mean iterations {mean} not within 5% of {1.0 / 0.3}")
    _report(4, "projection sandwich, fidelity, geometric retries", problems,
            time.perf_counter() - t0, 300.0)


def test_criterion_5a_tree_sampling_distribution():
    t0 = time.perf_counter()
    problems = []
    rng = stream(MASTER, "acceptance", "chi-tree")
    a = rng.uniform(0.5, 1.5, size=(64, 64)) * rng.choice([-1.0, 1.0], size=(64, 64))
    store = MatrixStore.from_dense(a)
    probs = (a**2 / np.sum(a**2)).reshape(-1)
    draws = np.empty(100_000, dtype=np.int64)
    for t in range(100_000):
        i, j = store.sample_entry(rng)
        draws[t] = i * 64 + j
    counts = np.bincount(draws, minlength=64 * 64)
    pvalue = _merged_chi_pvalue(counts, probs * 100_000)
    if pvalue <= 0.01:
        problems.append(f"chi-square p = {pvalue}")
    _report("5a", "tree entry sampling chi-square", problems, time.perf_counter() - t0, 120.0)


def _planted_context():
    rng = stream(MASTER, "acceptance", "chi-instance")
    t = generate_T(64, 64, 4, 0.05, rng)
    f = svd(t)
    tail = float(np.sqrt(np.sum(f.sigma[4:] ** 2)))
    eps_k = tail / f.frobenius_norm()
    sigma = recommendation_sigma(eps_k, 1.0, 4, f.frobenius_norm())
    ctx = RecommendContext(t, ProjectionParams(sigma=sigma))
    user = int(np.flatnonzero(typical_set(t, 0.1))[0])
    return t, f, ctx, user


def test_criterion_5b_projected_state_distribution():
    t0 = time.perf_counter()
    problems = []
    _, _, ctx, user = _planted_context()
    probs, beta_sq, state = ctx.user_state(user)
    rng = stream(MASTER, "acceptance", "chi-state")
    outcomes = QuantumState(state, (64,)).measure_many(rng, 100_000)
    counts = np.bincount(outcomes, minlength=64)
    pvalue = _merged_chi_pvalue(counts, probs * 100_000)
    if pvalue <= 0.01:
        problems.append(f"chi-square p = {pvalue} (beta_sq = {beta_sq})")
    _report("5b", "projection outcome measurement chi-square", problems,
            time.perf_counter() - t0, 120.0)


def test_criterion_5c_quantum_vs_classical_recommendations():
    t0 = time.perf_counter()
    problems = []
    t, f, ctx, user = _planted_context()
    params = ctx.params
    mask = kept_mask(f, params)
    band = set(band_indices(f, params.sigma, params.kappa))
    selector = sorted({i for i in range(64) if mask[i]} & band)
    classical = pseudo_project_row(f, t[user], params.sigma, params.kappa, selector)
    classical_probs = classical**2 / np.sum(classical**2)
    rng = stream(MASTER, "acceptance", "chi-recommend")
    draws = np.empty(100_000, dtype=np.int64)
    for i in range(100_000):
        draws[i] = ctx.recommend(user, rng).product
    counts = np.bincount(draws, minlength=64)
    pvalue = _merged_chi_pvalue(counts, classical_probs * 100_000)
    if pvalue <= 0.01:
        problems.append(f"chi-square p = {pvalue}")
    _report("5c", "quantum vs classical recommendation chi-square", problems,
            time.perf_counter() - t0, 120.0)


def test_criterion_6_planted_recommendation_quality():
    t0 = time.perf_counter()
    problems = []
    for eps_target in (0.05, 0.1, 0.2):
        noise = eps_target**2 / 2.0
        rng = stream(MASTER, "acceptance", "planted", f"eps={eps_target}")
        for trial in range(50):
            truth = generate_T(64, 64, 4, noise, rng)
            surrogate = truncate_top_k(truth, svd(truth), 4)
            eps_hat = float(np.linalg.norm(truth - surrogate) / np.linalg.norm(truth))
            rate = bad_mass(surrogate, truth)
            bound = bad_sample_bound(eps_hat)
            if rate > bound:
                problems.append(
                    f"eps={eps_target} trial {trial}: rate {rate} > bound {bound}"
                )

    config = ExperimentConfig(
        m=256, n=256, k=4, noise=0.05, p=0.5, delta=0.8, users=100, recs_per_user=100
    )
    report, _ = run_experiment(config)
    if "extrapolated" not in report["flags"]:
        problems.append(f"expected extrapolated flag, got {report['flags']}")
    if not report["checks"]["sandwich"]:
        problems.append("end-to-end run violated the kept-set sandwich")
    if report["bounds"]["quantum_typical_user"] is None:
        problems.append("quantum typical-user bound vacuous at delta = 0.8")
    elif report["checks"]["rate_within_quantum_bound"] is not True:
        problems.append(
            f"bad rate {report['measured']['bad_rate_typical']} above bound "
            f"{report['bounds']['quantum_typical_user']}"
        )
    _report(6, "planted bad-rate bounds and end-to-end run", problems,
            time.perf_counter() - t0, 600.0)


def test_criterion_7_calibration_ratio():
    t0 = time.perf_counter()
    problems = []
    ratio = calibration_ratio(1e-3, 0.1, 0.1, 0.1)
    if not ratio <= 1.5:
        problems.append(f"ratio {ratio} > 1.5")
    _report(7, "typical-user calibration ratio", problems, time.perf_counter() - t0, 1.0)


def test_criterion_8_node_touch_bound():
    t0 = time.perf_counter()
    problems = []
    store = MatrixStore(1024, 1024)
    bound = int(np.ceil(np.log2(1024)) + np.ceil(np.log2(1024)) + 2)
    rng = stream(MASTER, "acceptance", "touch")
    ii = rng.integers(0, 1024, size=100_000)
    jj = rng.integers(0, 1024, size=100_000)
    vv = rng.normal(size=100_000)
    worst = 0
    for i, j, v in zip(ii, jj, vv):
        worst = max(worst, store.insert(int(i), int(j), float(v)))
    if worst > bound:
        problems.append(f"worst insert touched {worst} nodes > bound {bound}")
    _report(8, "insert node-touch bound", problems, time.perf_counter() - t0, 30.0)


def test_criterion_9_subsample_unbiased_and_bounded():
    t0 = time.perf_counter()
    problems = []
    p = 0.5
    rng = stream(MASTER, "acceptance", "unbiased")
    a = rng.uniform(1.0, 2.0, size=(4, 4)) * rng.choice([-1.0, 1.0], size=(4, 4))
    trials = 10_000
    total = np.zeros_like(a)
    for _ in range(trials):
        total += subsample(a, p, rng)
    mean = total / trials
    se = np.abs(a) * np.sqrt((1.0 - p) / (p * trials))
    off = np.abs(mean - a) / se
    if np.max(off) > 4.0:
        problems.append(f"cell mean off by {np.max(off):.2f} standard errors")

    rng = stream(MASTER, "acceptance", "norm-bound")
    violations = 0
    bound = 4.0 * np.sqrt(64.0) * 1.0 / np.sqrt(p)
    for _ in range(200):
        signs = rng.choice([-1.0, 1.0], size=(64, 64))
        a_hat = subsample(signs, p, rng)
        if np.linalg.norm(a_hat - signs, 2) > bound:
            violations += 1
    if violations:
        problems.append(f"{violations}/200 runs broke the spectral norm bound")
    _report(9, "subsample unbiasedness and norm bound", problems,
            time.perf_counter() - t0, 120.0)
