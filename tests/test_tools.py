"""Smoke tests of tools/: circuit_dump.py on one 8 x 8 benchmark circuit
instance, untested_lines.py on one small test module, and code_lines.py on
a snippet and on a copy of the package in a scratch git repository."""

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
    assert at("linalg.py", "ORTHO_TOL = 1e-10") not in listed  # ran at import


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
