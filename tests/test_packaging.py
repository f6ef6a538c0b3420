import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_console_scripts_name_importable_callables():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    for name, target in project.get("scripts", {}).items():
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{name} = {target!r}"
