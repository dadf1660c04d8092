"""Count the code lines of each src/qrecsim module at a git ref and in the working tree.

    python3 tools/code_lines.py [REF]

A code line holds at least one token that is not a comment and lies outside
every docstring (module, class or function), so blank lines, comment-only
lines and docstrings do not count; a statement that spans several lines
counts each of them. REF (default HEAD) is read with ``git show``. Prints
``path: before -> after (change)`` for every module present on either side,
a missing module counting 0, then the same for the total. Exits 1 when
git cannot read REF.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/qrecsim"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def counts_at(ref: str) -> dict[str, int]:
    names = git("ls-tree", "--name-only", f"{ref}:{PACKAGE}").split()
    return {f"{PACKAGE}/{name}": count_code_lines(git("show", f"{ref}:{PACKAGE}/{name}"))
            for name in names if name.endswith(".py")}


def counts_in_tree() -> dict[str, int]:
    return {f"{PACKAGE}/{path.name}": count_code_lines(path.read_text(encoding="utf-8"))
            for path in (ROOT / PACKAGE).glob("*.py")}


def main(argv: list[str]) -> int:
    ref = argv[0] if argv else "HEAD"
    try:
        before = counts_at(ref)
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    after = counts_in_tree()
    rows = [(path, before.get(path, 0), after.get(path, 0)) for path in sorted({*before, *after})]
    rows.append(("total", sum(before.values()), sum(after.values())))
    for name, old, new in rows:
        print(f"{name}: {old} -> {new} ({new - old:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
