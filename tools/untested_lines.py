"""Print every statement of src/qrecsim that a pytest run never executes.

    python3 tools/untested_lines.py [PYTEST ARGS ...]

Runs pytest in this process, from the repository root and with the given
arguments (none runs the whole configured suite), under a ``sys.settrace``
line tracer restricted to src/qrecsim, so coverage.py is not needed. Then it
prints ``path:line: statement`` for each line of the package that holds
bytecode and never ran, and a count. Tracing roughly doubles the run time.
Exits with pytest's status.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qrecsim"


def code_lines(code) -> set[int]:
    """Lines that hold bytecode in ``code`` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}  # 0: a module's prologue
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and, per package file, the lines that ran."""
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    import pytest

    os.chdir(ROOT)
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    status, ran = traced_run(sys.argv[1:] if argv is None else argv)
    missing = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        seen = ran.get(str(path), set())
        for line in sorted(code_lines(compile(source, str(path), "exec")) - seen):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missing += 1
    print(f"{missing} statements never ran")
    return status


if __name__ == "__main__":
    sys.exit(main())
