"""Smoke tests of tools/: circuit_dump.py on one 8 x 8 benchmark circuit
instance (both parts and each alone), untested_lines.py on one small test module, and code_lines.py on
a snippet and on a copy of the package in a scratch git repository; and a
check of the benchmark circuit instances that circuit_dump.py loads."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("circuit_dump", ROOT / "tools" / "circuit_dump.py")
circuit_dump = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(circuit_dump)
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_circuit_dump_matches_itself_and_reports_changes(tmp_path, capsys):
    before = tmp_path / "before.json"
    argv = ["dump", str(ROOT), str(before), "--seeds", "1", "--sizes", "8:1"]
    assert circuit_dump.main(argv) == 0
    records = json.loads(before.read_text(encoding="utf-8"))
    assert len(records) == 1 and records[0]["m"] == 8 and records[0]["groups"] >= 1
    assert len(records[0]["sve"]) == len(records[0]["project"]) >= 1
    assert circuit_dump.main(["compare", str(before), str(before)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "integer mismatches: 0",
        "max float difference: 0",
    ]

    records[0]["sve"][0][0][1] += 1  # the first component's bin
    records[0]["sve"][0][0][2] += 1e-12  # and its amplitude
    after = tmp_path / "after.json"
    after.write_text(json.dumps(records), encoding="utf-8")
    assert circuit_dump.main(["compare", str(before), str(after)]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "integer mismatches: 1",
        "max float difference: 1e-12 at [0].sve[0][0][2]",
    ]


def test_circuit_dump_runs_each_part_alone_from_a_fresh_rng(tmp_path):
    from qrecsim.qproject import ProjectionParams, threshold_project
    from qrecsim.qsim import WalkOperator
    from qrecsim.store import MatrixStore

    dumps = {}
    for part in ("both", "sve", "project"):
        out = tmp_path / f"{part}.json"
        argv = ["dump", str(ROOT), str(out), "--seeds", "1", "--sizes", "8:1", "--part", part]
        assert circuit_dump.main(argv) == 0
        dumps[part] = json.loads(out.read_text(encoding="utf-8"))[0]
    both, sve, project = dumps["both"], dumps["sve"], dumps["project"]
    assert sve["sve"] == both["sve"] and sve["project"] == []
    assert project["sve"] == [] and len(project["project"]) == len(both["project"]) >= 1
    # The projections alone are those of the instance's fresh rng.
    wl = circuit_dump.load_workloads()
    (inst,) = wl.circuit_input(1, 8, 1)
    wop = WalkOperator.from_store(MatrixStore.from_dense(inst.matrix))
    params = ProjectionParams(sigma=inst.sigma, kappa=wl.KAPPA, max_iterations=wl.CIRCUIT_RETRY_CAP)
    rng = wl._rng(inst.seed, 7)
    for row, got in zip(inst.rows, project["project"]):
        out = threshold_project(wop, inst.matrix[row], params, rng, path="circuit")
        assert (got["iterations"], got["kept"], got["state"]) == (
            out.iterations, out.kept_indices(), out.state.tolist())
    assert project["rng_state"] == rng.bit_generator.state


def test_benchmark_circuit_kernels_hold_eight_over_pi_sq_within_one_bin():
    # Every phase group of the benchmark's 32 x 32 circuit instances (the
    # dump's first two seeds), on the SVE grid and on the projection grid.
    import numpy as np
    from qrecsim.qproject import ProjectionParams, projection_grid
    from qrecsim.qsim import PhaseGrid, WalkOperator

    from oracles import qpe_bin_probabilities

    wl = circuit_dump.load_workloads()
    worst = 1.0
    for inst in wl.circuit_input(1, 32, 16) + wl.circuit_input(7, 32, 16):
        wop = WalkOperator.from_dense(inst.matrix)
        theta = wop.phase_groups().theta
        params = ProjectionParams(sigma=inst.sigma, kappa=wl.KAPPA)
        for grid in (PhaseGrid.for_sigma_precision(wl.SVE_EPS), projection_grid(params, wop.fro)):
            probs = qpe_bin_probabilities(theta, grid)
            near = grid.bin_of(theta)[:, None] + np.arange(-1, 2)
            worst = min(worst, float(np.take_along_axis(probs, near % grid.size, 1).sum(1).min()))
    assert worst >= 8.0 / np.pi**2 - 1e-12


def test_untested_lines_lists_what_a_run_skips():
    # tests/test_package.py imports the package but never the CLI.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "untested_lines.py"), "tests/test_package.py",
         "-q", "-p", "no:cacheprovider"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    listed = [line for line in lines if line.startswith("src/")]
    assert all(re.fullmatch(r"src/qrecsim/\w+\.py:\d+: \S.*", line) for line in listed)
    assert lines[-1] == f"{len(listed)} statements never ran"

    def at(module: str, statement: str) -> str:
        text = (ROOT / "src" / "qrecsim" / module).read_text(encoding="utf-8").splitlines()
        return f"src/qrecsim/{module}:{text.index(statement) + 1}: {statement.strip()}"

    assert at("cli.py", "EXIT_OK = 0") in listed
    floor_and_top = '        raise MatrixError("svd takes a floor or a top count, not both")'
    assert at("linalg.py", floor_and_top) in listed
    assert at("linalg.py", "EPS = float(np.finfo(np.float64).eps)") not in listed  # ran at import


def test_code_lines_skip_docstrings_comments_and_blanks():
    snippet = (
        '"""Module docstring,\n'
        'on two lines."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # a trailing comment does not hide the statement\n"
        "\n"
        "def f():\n"
        '    """Function docstring."""\n'
    )
    assert code_lines.count_code_lines(snippet) == 2
    assert code_lines.count_code_lines("y = (\n    1,\n)\n") == 3


def test_code_lines_against_head(tmp_path):
    # A scratch repository holding the package and the tool, one commit deep.
    shutil.copytree(ROOT / "src" / "qrecsim", tmp_path / "src" / "qrecsim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tools", tmp_path / "tools", ignore=shutil.ignore_patterns("__pycache__"))

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "snapshot")
    errors = tmp_path / "src" / "qrecsim" / "errors.py"
    errors.write_text(errors.read_text(encoding="utf-8") + "\nEXTRA = 1\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, str(tmp_path / "tools" / "code_lines.py"), "HEAD"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [re.fullmatch(r"(\S+): (\d+) -> (\d+) \(([+-]\d+)\)", line)
            for line in proc.stdout.splitlines()]
    assert all(rows), proc.stdout
    modules = sorted(f"src/qrecsim/{p.name}" for p in (ROOT / "src" / "qrecsim").glob("*.py"))
    assert [row[1] for row in rows] == [*modules, "total"]
    changed = {row[1]: row[4] for row in rows if row[4] != "+0"}
    assert changed == {"src/qrecsim/errors.py": "+1", "total": "+1"}
