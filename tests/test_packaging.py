import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def project():
    return tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]


def distribution_names(requirements):
    """The distribution names of PEP 508 requirement strings."""
    return {re.match(r"[A-Za-z0-9._-]+", req).group().lower() for req in requirements}


def test_console_scripts_name_importable_callables():
    for name, target in project().get("scripts", {}).items():
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{name} = {target!r}"


def test_numpy_is_the_one_runtime_dependency():
    assert distribution_names(project()["dependencies"]) == {"numpy"}


def test_every_third_party_import_is_a_declared_dependency():
    # every import statement, function-local ones too, so that a lazy
    # import of an undeclared package cannot come back unseen
    imported = {}
    for path in sorted((ROOT / "src" / "asrboot").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "asrboot":
                    imported.setdefault(top, f"{path.name}:{node.lineno}")
    assert "numpy" in imported  # the scan reads the package
    declared = distribution_names(project()["dependencies"])
    assert {m: where for m, where in imported.items() if m not in declared} == {}
