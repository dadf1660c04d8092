"""Golden outputs of the seeded exact and circuit pipelines.

Same-seed-twice checks cannot see a change that alters the random draws the
same way on both runs; these pin the draws themselves. Each value was
recorded once and must not move unless a change says why the draws changed.
"""

import hashlib

import numpy as np
import pytest

from qrecsim.cli import EXIT_OK, main
from qrecsim.errors import ProjectionEmptyError
from qrecsim.experiment import ExperimentConfig, report_to_json, run_experiment
from qrecsim.qproject import ProjectionParams, threshold_project
from qrecsim.qsim import WalkOperator, sve_circuit
from qrecsim.rng import stream
from qrecsim.store import MatrixStore

# A planted 12 x 10 preference matrix (three user types, 15% flips).
PLANTED = np.array(
    [[int(c) for c in row]
     for row in (
         "0111000101", "0111000101", "1011111100", "0101100111",
         "0011000101", "1011011101", "1110001101", "0100111111",
         "1100100111", "1011010100", "0010111100", "0011000100",
     )],
    dtype=np.float64,
)

# A 4 x 4 matrix with singular values 4.83, 3.05, 1.95 and 0.17; the circuit
# threshold sqrt(3.05 * 1.95) sits in the middle of the gap between the second
# and third.
SMALL = np.array(
    [[4.0, 1.0, 0.0, 0.5], [1.0, 3.0, 1.0, 0.0], [0.0, 1.0, 2.0, 1.0], [0.5, 0.0, 1.0, 1.0]]
)
SMALL_X = np.cos(np.arange(4.0)) + 0.3
SMALL_SIGMA = 2.4396600205789

# A 4 x 5 matrix with singular values sqrt 3 and sqrt 2 (three times) and a
# one-dimensional kernel, so its walk has a three-column phase group and a
# theta = pi group; REPEATED_X puts weight on all three groups.
REPEATED = np.array(
    [[1.0, 1.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0, 1.0],
     [0.0, 0.0, 1.0, -1.0, 0.0]]
)
REPEATED_X = np.array([0.5, -0.2, 1.0, 0.9, -1.6])
# Float pins hold to this absolute tolerance: how the input's coordinates are
# summed per group may move them in the last bit, never an integer outcome.
FLOAT_TOL = 1e-15


def test_experiment_report_digest():
    report, _ = run_experiment(ExperimentConfig(m=64, n=64, seed=20161))
    del report["created"]
    digest = hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()
    assert digest == "65d894c970792af68b88dfb1535e5b92f4a767ca738b2c08280bae443f1ac9bd"


def test_cli_recommend_products(tmp_path, capsys):
    triplets = tmp_path / "t.txt"
    triplets.write_text(
        "".join(f"{i},{j},1.0\n" for i, j in zip(*np.nonzero(PLANTED))), encoding="utf-8"
    )
    store = tmp_path / "t.qrst"
    assert main(["ingest", str(triplets), "--out", str(store)]) == EXIT_OK
    capsys.readouterr()
    argv = ["recommend", str(store), "--user", "10", "--sigma", "3.0", "--count", "20",
            "--seed", "11"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == (
        "user=10 sigma=3 beta_sq=0.830633993996\n"
        "products=0,7,2,2,5,6,7,7,5,4,5,3,6,5,5,6,6,0,0,5\n"
    )


def test_exact_threshold_project_outcome():
    x = np.cos(np.arange(10.0))
    out = threshold_project(
        PLANTED, x, ProjectionParams(sigma=3.5), stream(5, "golden", "project")
    )
    assert out.iterations == 71
    assert out.beta_sq.hex() == "0x1.78cc8e0488a66p-8"
    assert out.kept_indices() == [0, 1]
    assert hashlib.sha256(out.state.tobytes()).hexdigest() == (
        "79acbcc376893640a037b8dbfa04274aabe337a40deb5dbcce47b19750a99502"
    )


def test_circuit_sve_draws():
    out = sve_circuit(WalkOperator.from_dense(SMALL), SMALL_X, 0.05, stream(5, "golden", "sve"))
    assert out.grid.bits == 8
    assert [(c.index, c.bin, c.sigma_est.hex()) for c in out.components] == [
        (0, 52, "0x1.3690f2052af44p+2"),
        (1, 85, "0x1.8564cd342d511p+1"),
        (2, 101, "0x1.f722766ea7a58p+0"),
        (3, 126, "0x1.2fa64ad7c2432p-3"),
    ]


def test_circuit_threshold_project_outcome():
    out = threshold_project(
        SMALL, SMALL_X, ProjectionParams(sigma=SMALL_SIGMA), stream(5, "golden", "circuit"),
        path="circuit",
    )
    assert out.iterations == 1
    assert out.beta_sq.hex() == "0x1.6c3756f6094d9p-1"
    assert out.kept_indices() == [0, 1]
    assert [c.sigma_est.hex() for c in out.components] == [
        "0x1.3690f2052af44p+2", "0x1.8564cd342d511p+1", "0x1.f722766ea7a58p+0",
        "0x1.2fa64ad7c2432p-3",
    ]
    assert hashlib.sha256(out.state.tobytes()).hexdigest() == (
        "bc41366b1d7401e57d935c1d094b26bd8862383ab077aa2584ff498bca47b6d1"
    )


def test_circuit_sve_draws_with_multi_column_groups():
    out = sve_circuit(
        WalkOperator.from_dense(REPEATED), REPEATED_X, 0.05, stream(5, "golden", "sve-repeated")
    )
    assert out.grid.bits == 8
    assert [(c.index, c.bin) for c in out.components] == [(0, 78), (1, 88), (2, 128)]
    got = [[c.amplitude, c.sigma, c.theta, c.theta_est, c.sigma_est] for c in out.components]
    want = [
        [0.08023570427399103, 1.7320508075688772, 1.9106332362490186, 1.9144080232812801,
         1.727424574253536],
        [0.2516042945381555, 1.4142135623730947, 2.1598272970111707, 2.1598449493429825,
         1.4141902104779933],
        [0.9644985799520982, 1.8369701987210297e-16, 3.141592653589793, 3.141592653589793,
         1.8369701987210297e-16],
    ]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=FLOAT_TOL)


def test_circuit_threshold_project_with_multi_column_groups():
    out = threshold_project(
        REPEATED, REPEATED_X, ProjectionParams(sigma=1.2),
        stream(5, "golden", "circuit-repeated"), path="circuit",
    )
    assert out.iterations == 25
    assert out.kept_indices() == [0, 1]
    assert [(c.index, c.kept) for c in out.components] == [(0, True), (1, True), (2, False)]
    np.testing.assert_allclose(
        [[c.amplitude, c.sigma, c.sigma_est] for c in out.components],
        [
            [0.08023570427399103, 1.7320508075688772, 1.727424574253536],
            [0.2516042945381555, 1.4142135623730947, 1.4141902104779933],
            [0.9644985799520982, 1.8369701987210297e-16, 1.8369701987210297e-16],
        ],
        rtol=0.0,
        atol=FLOAT_TOL,
    )
    assert abs(out.beta_sq - 0.06974248927038626) <= FLOAT_TOL
    np.testing.assert_allclose(
        out.state,
        [0.8770580193070292, -0.35082320772281145, 0.26311740579210907, 0.08770580193070258,
         0.1754116038614058],
        rtol=0.0,
        atol=FLOAT_TOL,
    )


def test_circuit_attempt_draws_on_default_store(default_context_input):
    # Every stored row of the default 64 x 64 store on one stream, then a
    # three-attempt run that exhausts its budget: each outcome's attempts,
    # kept set, beta^2 and state bytes, the error's fields, and the stream's
    # final state. The capped input is V's last column, far below the cut,
    # plus a tenth of the first row, so that beta^2 is about 1%.
    a, params = default_context_input
    wop = WalkOperator.from_store(MatrixStore.from_dense(a))
    rng = stream(5, "golden", "default-store")
    digest = hashlib.sha256()
    rows = np.flatnonzero(a.any(axis=1)).tolist()
    for row in rows:
        out = threshold_project(wop, a[row], params, rng, path="circuit")
        digest.update(repr((row, out.iterations, out.kept_indices(), out.beta_sq.hex())).encode())
        digest.update(out.state.tobytes())
    capped = ProjectionParams(sigma=params.sigma, kappa=params.kappa, max_iterations=3)
    x = wop.phase_groups().v[:, -1] + 0.1 * a[rows[0]] / np.linalg.norm(a[rows[0]])
    with pytest.raises(ProjectionEmptyError) as info:
        threshold_project(wop, x, capped, rng, path="circuit")
    digest.update(repr((info.value.beta_sq.hex(), info.value.iterations)).encode())
    digest.update(repr(rng.bit_generator.state).encode())
    assert len(rows) == 64 and digest.hexdigest() == (
        "8ba3829b39cd12cde09140b2421141187de70600a41ec357ff80e8e24f18b4ea"
    )


def test_circuit_rows_on_their_own_streams(default_context_input):
    # Every stored row of the default 64 x 64 store, each projected from its
    # own stream: attempts, kept set, beta^2 and state bytes. The estimates
    # are left out, so this pins the attempt draws alone.
    a, params = default_context_input
    wop = WalkOperator.from_store(MatrixStore.from_dense(a))
    digest = hashlib.sha256()
    rows = np.flatnonzero(a.any(axis=1)).tolist()
    for row in rows:
        rng = stream(5, "golden", "circuit-row", str(row))
        out = threshold_project(wop, a[row], params, rng, path="circuit")
        digest.update(repr((row, out.iterations, out.kept_indices(), out.beta_sq.hex())).encode())
        digest.update(out.state.tobytes())
    assert len(rows) == 64 and digest.hexdigest() == (
        "bc7c2afe6c6a45cfd9d0962185ab10a43e1d3c82917cc34f2de972bbda0bd111"
    )
