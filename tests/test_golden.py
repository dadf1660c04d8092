"""Golden outputs of the seeded exact and circuit pipelines.

Same-seed-twice checks cannot see a change that alters the random draws the
same way on both runs; these pin the draws themselves. Each value was
recorded once and must not move unless a change says why the draws changed.
"""

import hashlib

import numpy as np

from qrecsim.cli import EXIT_OK, main
from qrecsim.experiment import ExperimentConfig, report_to_json, run_experiment
from qrecsim.qproject import ProjectionParams, threshold_project
from qrecsim.qsim import WalkOperator, sve_circuit
from qrecsim.rng import stream

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


def test_experiment_report_digest():
    report, _ = run_experiment(ExperimentConfig(m=64, n=64, seed=20161))
    del report["created"]
    digest = hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()
    assert digest == "1fc1b4b130f81c8338c237dc2cc1dbde1d10811d728d4fc65887865e10665330"


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
        (3, 53, "0x1.33b75e73f5b5cp+2"),
        (4, 85, "0x1.8564cd342d511p+1"),
        (5, 101, "0x1.f722766ea7a58p+0"),
        (6, 126, "0x1.2fa64ad7c2432p-3"),
    ]


def test_circuit_threshold_project_outcome():
    out = threshold_project(
        SMALL, SMALL_X, ProjectionParams(sigma=SMALL_SIGMA), stream(5, "golden", "circuit"),
        path="circuit",
    )
    assert out.iterations == 2
    assert out.beta_sq.hex() == "0x1.6c3756f6094d7p-1"
    assert out.kept_indices() == [3, 4]
    assert hashlib.sha256(out.state.tobytes()).hexdigest() == (
        "48cd2027fb1d94296cbdb32f615685fc29667b89f92d9b109840dfb02566ee17"
    )
