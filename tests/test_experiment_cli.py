"""End-to-end experiment runs, report serialization, and the CLI."""

import contextlib
import csv
import io
import json
import os
import runpy
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrecsim import __version__, experiment, recsys
from qrecsim.cli import (
    EXIT_COLD_START,
    EXIT_ERROR,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PROJECTION_EMPTY,
    main,
)
from qrecsim.experiment import (
    MAX_SERVED,
    REPORT_SCHEMA,
    ExperimentConfig,
    report_to_json,
    run_experiment,
    write_report,
    write_user_csv,
)
from qrecsim.errors import MatrixError
from qrecsim.qproject import ProjectionParams
from qrecsim.rng import DEFAULT_SEED
from qrecsim.store import MAX_INGEST_DIM, MatrixStore

SMALL = dict(
    m=24, n=24, k=2, noise=0.02, p=0.8, users=6, recs_per_user=10, delta=0.8, seed=77
)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def assert_close_report(a, b, rel: float, path: str = "") -> None:
    """``a`` and ``b`` hold the same keys, lengths, integers, flags and
    strings, and floats within ``rel`` of each other, relative."""
    assert type(a) is type(b), path
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            assert_close_report(a[key], b[key], rel, f"{path}/{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for k, (x, y) in enumerate(zip(a, b)):
            assert_close_report(x, y, rel, f"{path}[{k}]")
    elif isinstance(a, float):
        assert abs(a - b) <= rel * max(abs(a), abs(b)), (path, a, b)
    else:
        assert a == b, (path, a, b)


def write_triplets(path, matrix):
    lines = ["# test matrix"]
    for i, row in enumerate(np.asarray(matrix)):
        for j, v in enumerate(row):
            if v != 0.0:
                lines.append(f"{i},{j},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert (cfg.m, cfg.n, cfg.k) == (64, 64, 4)
        assert cfg.seed == DEFAULT_SEED
        assert cfg.kappa == pytest.approx(1.0 / 3.0)

    def test_dimensions_at_the_ingest_limit_accepted(self):
        cfg = ExperimentConfig(m=MAX_INGEST_DIM, n=MAX_INGEST_DIM, k=MAX_INGEST_DIM)
        assert (cfg.m, cfg.n, cfg.k) == (MAX_INGEST_DIM,) * 3

    @pytest.mark.parametrize(
        "field, value, consumer",
        [
            ("m", 0, lambda v: MatrixStore(v, 4)),
            ("n", MAX_INGEST_DIM + 1, lambda v: MatrixStore(4, v)),
            ("noise", 1.0, lambda v: recsys.generate_T(4, 4, 1, v, np.random.default_rng(0))),
            ("kappa", 0.0, lambda v: ProjectionParams(sigma=1.0, kappa=v)),
            ("p", 1.5, lambda v: experiment.subsample(np.ones((2, 2)), v, np.random.default_rng(0))),
            ("gamma", 1.0, lambda v: recsys.typical_user_bound(0.01, v, 0.1, 0.1)),
            ("xi", 0.0, lambda v: recsys.w_statistic_bound(0.01, 0.1, 0.1, 0.1, v)),
        ],
    )
    def test_config_applies_its_consumers_rules(self, field, value, consumer):
        with pytest.raises(MatrixError) as used:
            consumer(value)
        with pytest.raises(MatrixError) as config:
            ExperimentConfig(**{field: value})
        assert str(config.value) == f"config {used.value}"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(MatrixError) as info:
            ExperimentConfig.from_dict({"m": 8, "banana": 1})
        assert "banana" in str(info.value)

    def test_from_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"m": 8, "n": 8, "k": 1, "users": 2}), encoding="utf-8")
        cfg = ExperimentConfig.from_json(path)
        assert (cfg.m, cfg.n, cfg.k, cfg.users) == (8, 8, 1, 2)


class TestRunExperiment:
    def test_report_shape_and_counts(self):
        report, rows = run_experiment(ExperimentConfig(**SMALL))
        assert report["schema"] == REPORT_SCHEMA
        assert report["seed"] == 77
        assert report["checks"]["sandwich"] is True
        measured = report["measured"]
        # Draws are with replacement; rows cover the distinct users hit.
        assert measured["users_sampled"] == len(rows) <= 6
        assert measured["recommendations"] + measured["projection_failures"] == 6 * 10
        assert measured["recommendations"] == sum(r["recs"] for r in rows)
        assert measured["bad_recommendations"] == sum(r["bad"] for r in rows)
        assert 0.0 <= measured["bad_rate_typical"] <= 1.0
        assert report["params"]["precondition"] in (
            "precondition-satisfied",
            "extrapolated",
        )
        assert report["params"]["precondition"] in report["flags"]
        assert report["instance"]["typical_users"] == int(
            round(report["instance"]["typical_fraction"] * 24)
        )

    def test_deterministic_given_seed(self):
        r1, rows1 = run_experiment(ExperimentConfig(**SMALL))
        r2, rows2 = run_experiment(ExperimentConfig(**SMALL))
        r1.pop("created")
        r2.pop("created")
        assert report_to_json(r1) == report_to_json(r2)
        assert rows1 == rows2

    def test_blas_thread_count_moves_only_float_last_bits(self):
        # A report is bit for bit only for a fixed numpy/BLAS build and thread
        # count: BLAS splits its sums by thread. At 256 x 256 (seed 801) one
        # and two threads differ in 71 float fields, by at most 1.6e-15
        # relative; every integer, flag and string agrees.
        script = (
            "import json, sys\n"
            "from qrecsim.experiment import ExperimentConfig, run_experiment\n"
            "report, rows = run_experiment(ExperimentConfig(m=256, n=256, seed=801))\n"
            "report.pop('created')\n"
            "json.dump([report, rows], sys.stdout)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, **dict.fromkeys(BLAS_THREAD_VARS, threads)}
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, check=True)
            runs.append(json.loads(proc.stdout))
        assert_close_report(*runs, rel=1e-12)

    def test_seed_changes_instance(self):
        r1, _ = run_experiment(ExperimentConfig(**SMALL))
        r2, _ = run_experiment(ExperimentConfig(**{**SMALL, "seed": 78}))
        assert r1["measured"]["realized_error"] != r2["measured"]["realized_error"]

    def test_formula_probability_when_p_omitted(self):
        report, _ = run_experiment(ExperimentConfig(**{**SMALL, "p": None}))
        assert 0.0 < report["params"]["p"] <= 1.0

    def test_vacuous_quantum_bound_is_flagged(self):
        # delta = 0.1 cannot absorb a 9x realized error on a noisy instance.
        report, _ = run_experiment(ExperimentConfig(**{**SMALL, "delta": 0.1}))
        if report["bounds"]["quantum_typical_user"] is None:
            assert any("quantum bound vacuous" in f for f in report["flags"])
            assert report["checks"]["rate_within_quantum_bound"] is None
        else:  # tiny instances can round the other way; the check must exist
            assert isinstance(report["checks"]["rate_within_quantum_bound"], bool)

    def test_report_json_is_stable_and_newline_terminated(self, tmp_path):
        report, rows = run_experiment(ExperimentConfig(**SMALL))
        path = tmp_path / "report.json"
        write_report(report, path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["schema"] == REPORT_SCHEMA
        assert list(parsed) == sorted(parsed)

    def test_report_infinities_written_as_strings(self, tmp_path):
        path = tmp_path / "report.json"
        write_report({"w": np.float64(np.inf), "ws": (1.0, -np.inf)}, path)
        assert json.loads(path.read_text(encoding="utf-8")) == {"w": "inf", "ws": [1.0, "-inf"]}

    def test_user_csv(self, tmp_path):
        _, rows = run_experiment(ExperimentConfig(**SMALL))
        path = tmp_path / "users.csv"
        write_user_csv(rows, path)
        with open(path, newline="", encoding="utf-8") as fh:
            got = list(csv.DictReader(fh))
        assert len(got) == len(rows)
        assert set(got[0]) == {"user", "typical", "beta_sq", "w_stat", "recs", "bad", "bad_rate"}


class TestKeptSetDropped:
    """A context whose kept set is empty: every projection fails, and the
    directions at or above sigma are missed, which breaks the sandwich."""

    @pytest.fixture(autouse=True)
    def keep_nothing(self, monkeypatch):
        monkeypatch.setattr(
            recsys, "kept_mask", lambda f, params: np.zeros(f.column_sigma().size, dtype=bool)
        )

    def test_projection_failures_are_counted(self):
        report, rows = run_experiment(ExperimentConfig(**SMALL))
        measured = report["measured"]
        assert measured["projection_failures"] == SMALL["users"] * SMALL["recs_per_user"]
        assert measured["recommendations"] == measured["bad_recommendations"] == 0
        assert measured["bad_rate_typical"] is None and measured["mean_iterations"] is None
        assert measured["w_mean"] is None and measured["kept_rank"] == 0
        assert rows and all(row["recs"] == 0 and row["bad_rate"] is None for row in rows)
        assert report["checks"]["sandwich"] is False

    def test_experiment_exits_on_a_sandwich_failure(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(SMALL), encoding="utf-8")
        report_path = tmp_path / "report.json"
        assert main(["experiment", str(cfg), "--out", str(report_path)]) == EXIT_INVARIANT
        assert capsys.readouterr().err == (
            "invariant failure: kept set violated the threshold sandwich\n"
        )
        assert json.loads(report_path.read_text(encoding="utf-8"))["checks"]["sandwich"] is False


@pytest.fixture()
def wide_store(tmp_path):
    """Serialized store for [[0.4, 0.4, 0.8, 0.2], [0.5, 0.5, 0.5, 0.5]]."""
    matrix = np.array([[0.4, 0.4, 0.8, 0.2], [0.5, 0.5, 0.5, 0.5]])
    triplets = tmp_path / "m.txt"
    write_triplets(triplets, matrix)
    store_path = tmp_path / "m.qrst"
    assert main(["ingest", str(triplets), "--out", str(store_path)]) == EXIT_OK
    return store_path


@pytest.fixture()
def gap_store(tmp_path):
    """Serialized store for diag(3, 1)."""
    triplets = tmp_path / "gap.txt"
    write_triplets(triplets, np.diag([3.0, 1.0]))
    store_path = tmp_path / "gap.qrst"
    assert main(["ingest", str(triplets), "--out", str(store_path)]) == EXIT_OK
    return store_path


class TestCliIngest:
    def test_reports_shape_and_norm(self, tmp_path, capsys):
        matrix = np.array([[0.4, 0.4, 0.8, 0.2], [0.5, 0.5, 0.5, 0.5]])
        triplets = tmp_path / "m.txt"
        write_triplets(triplets, matrix)
        out_path = tmp_path / "m.qrst"
        assert main(["ingest", str(triplets), "--out", str(out_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "rows=2 cols=4 entries=8" in out
        fro = float(out.split("frobenius=")[1].splitlines()[0])
        assert fro == pytest.approx(np.linalg.norm(matrix), rel=1e-10)  # 12 sig figs
        assert np.array_equal(MatrixStore.load(out_path).to_dense(), matrix)

    def test_explicit_shape_padding(self, tmp_path, capsys):
        triplets = tmp_path / "m.txt"
        triplets.write_text("0,0,1.0\n", encoding="utf-8")
        assert main(["ingest", str(triplets), "--rows", "3", "--cols", "5"]) == EXIT_OK
        assert "rows=3 cols=5 entries=1" in capsys.readouterr().out

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        triplets = tmp_path / "bad.txt"
        triplets.write_text("0,0,1.0\nnot-a-triplet\n", encoding="utf-8")
        assert main(["ingest", str(triplets)]) == EXIT_ERROR
        assert "line 2" in capsys.readouterr().err

    def test_square_that_underflows_rejected(self, tmp_path, capsys):
        triplets = tmp_path / "tiny.txt"
        triplets.write_text("0,1,1.0\n0,0,1e-170\n", encoding="utf-8")
        assert main(["ingest", str(triplets)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: entry (0, 0) too small: its square underflows\n"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "nope.txt")]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, flags",
        [
            ("10000000000,0,1.0", []),
            ("0,10000000000,1.0", []),
            (f"{MAX_INGEST_DIM},0,1.0", []),
            ("0,0,1.0", ["--rows", str(MAX_INGEST_DIM + 1)]),
            ("0,0,1.0", ["--cols", "1000000000"]),
        ],
    )
    def test_shape_beyond_limit_rejected(self, tmp_path, capsys, line, flags):
        triplets = tmp_path / "huge.txt"
        triplets.write_text(line + "\n", encoding="utf-8")
        assert main(["ingest", str(triplets), *flags]) == EXIT_ERROR
        assert "exceeds the ingest limit" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--rows", "3"], ["--cols", "3"]])
    def test_empty_triplets_need_both_dimensions(self, tmp_path, capsys, flags):
        triplets = tmp_path / "empty.txt"
        triplets.write_text("# no entries\n", encoding="utf-8")
        assert main(["ingest", str(triplets), *flags]) == EXIT_ERROR
        assert "cannot infer shape from an empty triplet stream" in capsys.readouterr().err

    def test_shape_at_limit_accepted(self, tmp_path, capsys):
        triplets = tmp_path / "edge.txt"
        triplets.write_text(f"{MAX_INGEST_DIM - 1},0,1.0\n", encoding="utf-8")
        assert main(["ingest", str(triplets)]) == EXIT_OK
        assert f"rows={MAX_INGEST_DIM} cols=1 entries=1" in capsys.readouterr().out


class TestCliSve:
    def test_csv_output(self, wide_store, tmp_path, capsys):
        out_csv = tmp_path / "sve.csv"
        code = main(
            ["sve", str(wide_store), "--vector", "uniform", "--eps", "0.05",
             "--out", str(out_csv)]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout == out_csv.read_text(encoding="utf-8")
        lines = stdout.strip().splitlines()
        assert lines[0] == "index,amplitude,sigma,sigma_est,theta,bin"
        assert len(lines) == 1 + 4
        store = MatrixStore.load(wide_store)
        fro = store.frobenius_norm()
        for line in lines[1:]:
            fields = line.split(",")
            assert abs(float(fields[3]) - float(fields[2])) <= 0.05 * fro

    def test_inline_and_basis_vectors_agree(self, gap_store, capsys):
        assert main(["sve", str(gap_store), "--vector", "basis:0", "--eps", "0.1"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["sve", str(gap_store), "--vector", "1,0", "--eps", "0.1"]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_file_vector(self, gap_store, tmp_path, capsys):
        vec = tmp_path / "v.txt"
        vec.write_text("1 0\n", encoding="utf-8")
        assert main(["sve", str(gap_store), "--vector", f"@{vec}", "--eps", "0.1"]) == EXIT_OK
        assert "index," in capsys.readouterr().out

    def test_circuit_path_seeded_determinism(self, wide_store, capsys):
        args = ["sve", str(wide_store), "--vector", "uniform", "--eps", "0.1",
                "--path", "circuit", "--seed", "5"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_circuit_span_cap_is_input_error(self, tmp_path, capsys):
        # 2 x 2048 keeps the median table small on a 5-bit grid, but the span
        # decomposition's SVD would hold n^2 + 2 mn = 4,202,496 > 2^22 entries.
        store_path = tmp_path / "wide.qrst"
        MatrixStore.from_dense(np.hstack([np.eye(2), np.zeros((2, 2046))])).save(store_path)
        code = main(["sve", str(store_path), "--vector", "uniform", "--eps", "0.5",
                     "--path", "circuit"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: span decomposition of ")

    def test_circuit_path_on_a_zero_store(self, tmp_path, capsys):
        triplets = tmp_path / "zero.txt"
        triplets.write_text("0,0,0.0\n1,2,-0.0\n", encoding="utf-8")
        store_path = tmp_path / "zero.qrst"
        assert main(["ingest", str(triplets), "--out", str(store_path)]) == EXIT_OK
        capsys.readouterr()
        code = main(["sve", str(store_path), "--vector", "uniform", "--eps", "0.1",
                     "--path", "circuit"])
        assert code == EXIT_ERROR
        assert "cannot build a walk from zero mass" in capsys.readouterr().err

    def test_zero_vector_rejected(self, gap_store, capsys):
        assert main(["sve", str(gap_store), "--vector", "0,0", "--eps", "0.1"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_basis_index_past_last_column(self, gap_store, capsys):
        assert main(["sve", str(gap_store), "--vector", "basis:9", "--eps", "0.1"]) == EXIT_ERROR
        assert "error: basis index 9 outside [0, 2)" in capsys.readouterr().err

    def test_negative_basis_index(self, gap_store, capsys):
        assert main(["sve", str(gap_store), "--vector", "basis:-1", "--eps", "0.1"]) == EXIT_ERROR
        assert "error: basis index -1 outside [0, 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["exact", "circuit"])
    def test_precision_outside_the_fraction_rule(self, gap_store, capsys, path):
        code = main(["sve", str(gap_store), "--vector", "uniform", "--eps", "4", "--path", path])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: eps must be a number in (0, 1), got 4.0\n"


class TestCliProject:
    def test_gap_projection(self, gap_store, capsys):
        x = f"{float(np.sqrt(0.3))!r},{float(np.sqrt(0.7))!r}"
        code = main(
            ["project", str(gap_store), "--vector", x, "--sigma", "2.0",
             "--samples", "5", "--state", "--seed", "3"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "beta_sq=0.3 " in out
        assert "kept index=0 sigma=3" in out
        samples = out.split("samples=")[1].splitlines()[0]
        assert set(samples.split(",")) == {"0"}  # survivor is the first axis
        state = [float(v) for v in out.split("state=")[1].splitlines()[0].split(",")]
        assert state == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_empty_projection_exit_code(self, gap_store, capsys):
        code = main(
            ["project", str(gap_store), "--vector", "basis:1", "--sigma", "2.0",
             "--max-iterations", "4"]
        )
        assert code == EXIT_PROJECTION_EMPTY
        assert "projection empty" in capsys.readouterr().err

    def test_circuit_register_cap_is_input_error(self, gap_store, capsys):
        code = main(["project", str(gap_store), "--vector", "uniform", "--sigma", "1e-9",
                     "--path", "circuit"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: register of ")

    @pytest.mark.parametrize(
        "vector, message",
        [
            ("1,0,0", "expected a vector of length 2, got 3"),
            ("1", "expected a vector of length 2, got 1"),
            ("1,nan", "vector entries must be finite"),
            ("inf,1", "vector entries must be finite"),
        ],
    )
    def test_bad_vector_is_input_error(self, gap_store, capsys, vector, message):
        code = main(["project", str(gap_store), "--vector", vector, "--sigma", "2.0"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_sigma_is_input_error(self, gap_store, capsys):
        code = main(["project", str(gap_store), "--vector", "basis:0", "--sigma", "9.0"])
        assert code == EXIT_ERROR
        assert "exceeds" in capsys.readouterr().err


class TestCliRecommend:
    def test_products_for_user(self, wide_store, capsys):
        code = main(
            ["recommend", str(wide_store), "--user", "0", "--sigma", "1e-9",
             "--count", "8", "--seed", "1"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "user=0" in out and "beta_sq=1" in out
        products = out.split("products=")[1].strip().split(",")
        assert len(products) == 8
        assert set(products) <= {"0", "1", "2", "3"}

    def test_eps_k_threshold_route(self, wide_store, capsys):
        code = main(
            ["recommend", str(wide_store), "--user", "1", "--eps", "0.5",
             "--k", "1", "--count", "2", "--seed", "2"]
        )
        assert code == EXIT_OK
        assert "sigma=" in capsys.readouterr().out

    def test_cold_start_exit_code(self, tmp_path, capsys):
        triplets = tmp_path / "cold.txt"
        triplets.write_text("0,0,1.0\n0,1,1.0\n", encoding="utf-8")
        store_path = tmp_path / "cold.qrst"
        assert main(["ingest", str(triplets), "--rows", "2", "--cols", "2",
                     "--out", str(store_path)]) == EXIT_OK
        capsys.readouterr()
        code = main(["recommend", str(store_path), "--user", "1", "--sigma", "0.5"])
        assert code == EXIT_COLD_START
        assert "cold-start" in capsys.readouterr().err

    def test_missing_threshold_arguments(self, wide_store, capsys):
        assert main(["recommend", str(wide_store), "--user", "0"]) == EXIT_ERROR
        assert "--sigma" in capsys.readouterr().err

    def test_huge_sigma_is_input_error(self, wide_store, capsys):
        # The factorization floor (1 - kappa) sigma must not overflow when
        # squared before the threshold check rejects it.
        code = main(["recommend", str(wide_store), "--user", "0", "--sigma", "1e300"])
        assert code == EXIT_ERROR
        assert "exceeds ||A||_F" in capsys.readouterr().err

    def test_zero_norm_store_is_input_error(self, tmp_path, capsys):
        # A store of explicit zeros loads with entries, yet ||A||_F = 0.
        store_path = tmp_path / "zeros.qrst"
        store = MatrixStore(3, 3)
        for i in range(3):
            store.insert(i, i, 0.0)
        store.save(store_path)
        code = main(["recommend", str(store_path), "--user", "0", "--sigma", "1e-171"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: ||A||_F is 0: every entry is 0 or too small to square\n"
        )

    def test_zero_count_rejected(self, wide_store, capsys):
        code = main(
            ["recommend", str(wide_store), "--user", "0", "--sigma", "1e-9", "--count", "0"]
        )
        assert code == EXIT_ERROR
        assert f"error: --count must be an integer in [1, {MAX_SERVED}], got 0" in (
            capsys.readouterr().err
        )


@pytest.mark.parametrize(
    "command, flag, value, bound",
    [("project", "--samples", -1, ">= 0"),
     ("project", "--samples", MAX_SERVED + 1, f"<= {MAX_SERVED}"),
     ("project", "--samples", 10**12, f"<= {MAX_SERVED}"),
     ("recommend", "--count", -1, ">= 1"),
     ("recommend", "--count", 10**8, f"<= {MAX_SERVED}"),
     ("recommend", "--count", 10**12, f"<= {MAX_SERVED}")],
)
def test_draw_counts_are_bounded_before_loading(tmp_path, capsys, command, flag, value, bound):
    # ``bound`` names the end of [low, MAX_SERVED] that ``value`` falls past.
    low = {"--samples": 0, "--count": 1}[flag]
    assert bound in (f">= {low}", f"<= {MAX_SERVED}")
    # The store path does not exist: the bound is checked before it is read.
    required = ["--vector", "uniform", "--sigma", "1"] if command == "project" else ["--user", "0"]
    argv = [command, str(tmp_path / "none.qrst"), *required, flag, str(value)]
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: {flag} must be an integer in [{low}, {MAX_SERVED}], got {value}\n"
    )


@pytest.mark.parametrize(
    "command, required",
    [("sve", ["--vector", "uniform", "--eps", "0.1"]),
     ("project", ["--vector", "uniform", "--sigma", "2"]),
     ("recommend", ["--user", "0", "--sigma", "2"]),
     ("experiment", [])],
)
def test_negative_seed_is_named_input_error(gap_store, tmp_path, capsys, command, required):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SMALL), encoding="utf-8")
    source = cfg if command == "experiment" else gap_store
    argv = [command, str(source), *required, "--seed", "-1"]
    if command == "experiment":
        argv += ["--out", str(tmp_path / "report.json")]
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == "error: --seed must be an integer in [0, inf], got -1\n"


class TestCliExperiment:
    def test_end_to_end_files(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(SMALL), encoding="utf-8")
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "users.csv"
        code = main(
            ["experiment", str(cfg), "--out", str(report_path), "--csv", str(csv_path)]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "eps_k=" in out and f"report={report_path}" in out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["seed"] == 77
        with open(csv_path, newline="", encoding="utf-8") as fh:
            got = list(csv.DictReader(fh))
        assert 0 < len(got) <= SMALL["users"]  # one row per distinct user

    def test_seed_override(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(SMALL), encoding="utf-8")
        report_path = tmp_path / "report.json"
        code = main(["experiment", str(cfg), "--out", str(report_path), "--seed", "123"])
        assert code == EXIT_OK
        assert json.loads(report_path.read_text(encoding="utf-8"))["seed"] == 123

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"m": 8, "mystery": True}), encoding="utf-8")
        assert main(["experiment", str(cfg)]) == EXIT_ERROR
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, field",
        [
            ({"m": "8"}, "m"),
            ({"recs_per_user": 1.5}, "recs_per_user"),
            ({"users": -3}, "users"),
            ({"k": 0}, "k"),
            ({"seed": -1}, "seed"),
            ({"noise": True}, "noise"),
            ({"p": float("nan")}, "p"),
            ({"kappa": 1.0}, "kappa"),
            ([8, 8], "JSON object"),
            ({"m": 16385}, "m"),
            ({"n": 10000000}, "n"),
            ({"k": 16385}, "k"),
            ({"users": 1000000000000}, "users"),
            ({"users": 1048577}, "users"),
            ({"recs_per_user": 1048577}, "recs_per_user"),
            ({"users": 1024, "recs_per_user": 1025}, "users * recs_per_user"),
        ],
    )
    def test_invalid_config_value(self, tmp_path, capsys, raw, field):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        report_path = tmp_path / "report.json"
        assert main(["experiment", str(cfg), "--out", str(report_path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: config ") and field in err
        assert not report_path.exists()


    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"gamma": 1.5}, "config gamma must be a number in (0, 1), got 1.5"),
            ({"delta": 0.6, "zeta": 0.5}, "config delta + zeta must be < 1, got 0.6 + 0.5"),
        ],
    )
    def test_bound_params_rejected_before_the_pipeline(
        self, tmp_path, capsys, monkeypatch, raw, message
    ):
        def reached(*args):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(experiment, "generate_T", reached)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        report_path = tmp_path / "report.json"
        assert main(["experiment", str(cfg), "--out", str(report_path)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not report_path.exists()


class TestCliMisc:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "qrecsim" in capsys.readouterr().out

    def test_module_runs_main(self, monkeypatch, capsys):
        # In process, so that a line tracer sees the ``__main__`` guard run.
        # The module is dropped from sys.modules first: runpy warns when the
        # module it runs is already imported.
        monkeypatch.delitem(sys.modules, "qrecsim.cli")
        monkeypatch.setattr(sys, "argv", ["qrecsim", "--version"])
        with pytest.raises(SystemExit) as info:
            runpy.run_module("qrecsim.cli", run_name="__main__")
        assert info.value.code == 0
        assert capsys.readouterr().out == f"qrecsim {__version__}\n"

    @pytest.mark.parametrize(
        "command",
        [
            ["recommend", "--user", "0", "--sigma", "0.5"],
            ["sve", "--vector", "uniform", "--eps", "0.1"],
            ["project", "--vector", "uniform", "--sigma", "0.5"],
        ],
    )
    def test_wide_store_header_is_input_error(self, tmp_path, capsys, command):
        # One entry in a 1 x 2^36 store: densifying it would take 512 GiB.
        path = tmp_path / "wide.qrst"
        path.write_bytes(struct.pack("<4sIQQQQQdb", b"QRST", 1, 1, 1 << 36, 1, 1, 0, 1.0, 1))
        tracemalloc.start()
        try:
            code = main([command[0], str(path), *command[1:]])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: invalid shape 1x68719476736")
        assert peak < 1 << 20

    def test_zero_generated_truth_is_input_error(self, tmp_path, capsys):
        # At the default seed the one 1 x 1 cell flips to 0.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"m": 1, "n": 1}), encoding="utf-8")
        report_path = tmp_path / "report.json"
        assert main(["experiment", str(cfg), "--out", str(report_path)]) == EXIT_ERROR
        assert "error: generated preference matrix is all zero" in capsys.readouterr().err
        assert not report_path.exists()

    def test_empty_subsample_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"m": 4, "n": 4, "k": 1, "noise": 0.0, "p": 1e-9}),
                       encoding="utf-8")
        report_path = tmp_path / "report.json"
        assert main(["experiment", str(cfg), "--out", str(report_path)]) == EXIT_ERROR
        assert "error: subsample kept no entries" in capsys.readouterr().err
        assert not report_path.exists()

    def test_missing_store_path(self, tmp_path, capsys):
        code = main(["sve", str(tmp_path / "none.qrst"), "--vector", "uniform",
                     "--eps", "0.1"])
        assert code == EXIT_ERROR


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A 4 x 3 store (diag(3, 1, 0.5) over an empty row), its triplets, and a tiny config."""
    root = tmp_path_factory.mktemp("fuzz")
    matrix = np.vstack([np.diag([3.0, 1.0, 0.5]), np.zeros((1, 3))])
    MatrixStore.from_dense(matrix).save(root / "s.qrst")
    write_triplets(root / "t.txt", matrix)
    (root / "c.json").write_text(
        json.dumps({"m": 8, "n": 8, "k": 1, "users": 2, "recs_per_user": 2}), encoding="utf-8"
    )
    return root


def cli_argvs(root):
    paths = [str(root / name) for name in ("s.qrst", "t.txt", "c.json", "none")]
    values = {
        "--vector": ["row:0", "row:3", "row:9", "basis:1", "basis:3", "uniform", "1,2,3",
                     "1,2", "x", f"@{root / 't.txt'}", f"@{root / 'none'}"],
        "--eps": ["0.1", "0.5", "1e-300", "2", "0", "nan", "x"],
        "--sigma": ["0.5", "2", "1e300", "1e-9", "1e-300", "0", "-1", "nan", "inf", "x"],
        "--kappa": ["0.3", "0.9", "0", "1", "nan"],
        "--path": ["exact", "circuit", "other"],
        "--max-iterations": ["0", "1", "5", "-2"],
        "--samples": ["0", "3", "-1", "1000000000000"],
        "--seed": ["0", "7", "-1", "x"],
        "--user": ["0", "2", "3", "5", "-1"],
        "--count": ["1", "3", "0", "-1", "1000000000000"],
        "--k": ["1", "2", "0"],
        "--p": ["1", "0.5", "0", "2"],
        "--rows": ["2", "4", "0", "100000"],
        "--cols": ["2", "3", "0", "100000"],
        "--out": [str(root / "out.bin"), str(root), str(root / "none" / "x")],
        "--csv": [str(root / "out.csv"), str(root)],
    }
    # Required flags first, then a few of the command's own options, then
    # at most one stray word, so most calls get past argparse.
    commands = {
        "ingest": ([], ["--out", "--rows", "--cols"]),
        "sve": (["--vector", "--eps"], ["--path", "--out", "--seed"]),
        "project": (["--vector", "--sigma"],
                    ["--kappa", "--path", "--max-iterations", "--samples", "--seed"]),
        "recommend": (["--user"], ["--sigma", "--eps", "--k", "--p", "--kappa", "--count",
                                   "--seed"]),
        "experiment": (["--out"], ["--csv", "--seed"]),
    }

    def pairs(flags):
        return st.tuples(*[st.sampled_from(values[f]).map(lambda v, f=f: [f, v]) for f in flags])

    @st.composite
    def argv(draw):
        command = draw(st.sampled_from(sorted(commands)))
        required, optional = commands[command]
        chosen = required + draw(st.lists(st.sampled_from(optional), max_size=4))
        words = [command, draw(st.sampled_from(paths))]
        for pair in draw(pairs(chosen)):
            words += pair
        if command == "project" and draw(st.booleans()):
            words.append("--state")
        stray = draw(st.lists(st.sampled_from(["x", "--state", "--eps", *paths]), max_size=1))
        return words + stray

    return argv()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_no_argv_ends_in_a_traceback_property(fuzz_files, data):
    argv = data.draw(cli_argvs(fuzz_files))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage error
            code = ("usage", exc.code)
    assert code in (0, 1, 3, 4, 5, ("usage", 2)), argv
