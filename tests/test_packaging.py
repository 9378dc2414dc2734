"""Packaging: what the package imports, its install declares."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_level_modules() -> set:
    """The top-level names of every absolute import in ``src/``."""
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in project["dependencies"]
    }
    third_party = _imported_top_level_modules() - set(sys.stdlib_module_names) - {"filamentlab"}
    assert {"numpy", "orjson"} <= third_party  # the scan sees the imports it should
    assert third_party <= declared, f"imported but not in dependencies: {third_party - declared}"


def test_every_console_script_target_imports_and_is_callable():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{name} = {target!r} is not callable"


def _unused_imports(text: str) -> list:
    """``name (line N)`` for each name the module ``text`` imports and never reads.

    A name imported on a line marked ``# noqa: F401`` is kept on purpose.
    """
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{name} (line {alias.lineno})")
    return unused


def test_no_module_imports_a_name_it_does_not_use():
    # the check sees a stray import, and the marker keeps one
    assert _unused_imports("import time as _time\nimport os\nos.sep\n") == ["_time (line 1)"]
    assert _unused_imports("from .geometry import deriv  # noqa: F401\n") == []
    # __init__.py imports to re-export
    found = {
        path.name: _unused_imports(path.read_text())
        for path in (ROOT / "src").rglob("*.py")
        if path.name != "__init__.py"
    }
    assert not {name: unused for name, unused in found.items() if unused}


def test_import_leaves_logging_out():
    # hasimoto imports logging only on its two rare warning paths, so a run
    # on a curved filament never pays for it at start-up
    code = "import sys, filamentlab; print('logging' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
