"""The package surface: the public names, the README example, no dead helpers."""

import ast
import re
from pathlib import Path

import pytest

import qrecsim

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qrecsim"

PUBLIC_API = [
    "BoundVacuousError",
    "ColdStartError",
    "EmptyRowError",
    "MatrixError",
    "MatrixStore",
    "PhaseGrid",
    "ProjectionEmptyError",
    "ProjectionOutcome",
    "ProjectionParams",
    "QrecsimError",
    "RecommendContext",
    "RegisterCapError",
    "StoreFormatError",
    "SubsampleParams",
    "SvdFactorization",
    "SveOutput",
    "TreeTable",
    "WalkOperator",
    "bad_sample_bound",
    "bound_threshold_family_error",
    "derive_params",
    "eigenphases",
    "generate_T",
    "ingest_triplets",
    "parse_triplets",
    "quantum_typical_user_bound",
    "stream",
    "svd",
    "sve",
    "threshold_project",
    "typical_set",
    "typical_user_bound",
]


def test_public_api_is_pinned():
    assert sorted(qrecsim.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(qrecsim, name) is not None, name


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["proj"].beta_sq == pytest.approx(0.3, abs=1e-12)
    assert capsys.readouterr().out.strip().isdigit()


def test_no_dead_helpers():
    # Every module-level function and class is either named somewhere in the
    # package (a call, a reference, an attribute access) or public.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    dead = sorted(
        f"{module}:{node.name}"
        for module, tree in trees.items()
        if module != "__init__.py"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in named
        and node.name not in qrecsim.__all__
    )
    assert not dead, f"defined in the package but never named there: {dead}"
