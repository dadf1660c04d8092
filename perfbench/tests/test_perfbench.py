"""Tiny-size smoke tests of the benchmark: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS, Sizes  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_UNITS = {"count", "bytes", "bytes_computed", "ratio"}


@pytest.fixture(autouse=True)
def results_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path)


def _run_main(capsys, workload: str, trace: int) -> tuple[list[str], dict]:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, sizes=Sizes.tiny()) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(capsys, workload):
    table, result = _run_main(capsys, workload, trace=0)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0
    # fail_rate is printed in the table; the JSON line carries it as attempted/failed.
    for name in [m["name"] for m in declared] + ["fail_rate"]:
        assert any(line.split()[:1] == [name] and len(line.split()) >= 4 for line in table)


def test_traced_smoke_prints_every_per_layer_metric(capsys):
    _, result = _run_main(capsys, "experiment-1024", trace=1)
    declared = SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        result = run.run_benchmark("stream-serve-256", 5, 0.0, True, Sizes.tiny())
        counts.append(
            {name: value for name, (value, unit) in result["per_layer"].items() if unit in EXACT_UNITS}
        )
    assert counts[0] == counts[1]
    assert counts[0]["linalg.svd_calls"] == 2
    assert counts[0]["store.node_touches"] > 0


def test_checkout_without_the_package_fails_without_a_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    skip = shutil.ignore_patterns("results", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=skip)
    argv = ["--workload", "stream-serve-256", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""


def test_speed_scaling_divides_out_a_uniform_slowdown():
    from speed import NOMINAL_PROBE_S as N
    from speed import SpeedClock

    clock = SpeedClock()
    # A tick every 10 ms; from t = 1 s on, the probe takes twice the nominal time.
    clock.when = [k / 100 for k in range(200)]
    clock.took = [N if t < 1.0 else 2 * N for t in clock.when]
    # 40 probes fall inside each 0.4 s interval; their time is taken out.
    assert clock.scaled(0.205, 0.605) == pytest.approx(0.4 - 40 * N)
    assert clock.scaled(1.205, 1.605) == pytest.approx(0.5 * (0.4 - 40 * 2 * N))
    # An interval between two ticks borrows the probes around its midpoint.
    assert clock.scaled(1.5011, 1.5091) == pytest.approx(0.5 * 0.008)
