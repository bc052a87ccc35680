"""The package declares every third-party module it imports.

A module imported when ``repro`` loads (in a module body) must be one
of ``[project] dependencies`` in ``pyproject.toml``, or a plain
``pip install .`` leaves ``import repro...`` raising ``ImportError``.
A module imported only inside a function may instead come from an
optional extra (``obs.run_benchmark`` imports pytest to run the
pytest-style benchmark scenarios).
"""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

pytestmark = pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"),
    reason="needs sys.stdlib_module_names (Python 3.10+)")


def _requirement_names(block: str) -> set:
    """Distribution names in a TOML string array, lower-cased, ``-``
    folded to ``_``, version specifiers and extras dropped."""
    names = re.findall(r'"\s*([A-Za-z0-9_.\-]+)', block)
    return {name.lower().replace("-", "_") for name in names}


def _declared():
    """``([project] dependencies, names in every optional extra)``."""
    text = (ROOT / "pyproject.toml").read_text()
    required = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text,
                         re.M | re.S)
    extras = re.search(r"^\[project\.optional-dependencies\]\n(.*?)^\[",
                       text, re.M | re.S)
    return (_requirement_names(required.group(1)),
            _requirement_names(extras.group(1)) if extras else set())


def _third_party_imports():
    """``{module: (load_time_files, function_local_files)}`` over every
    absolute import under ``src/repro``."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        local = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local.update(id(inner) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top == "repro" or top in sys.stdlib_module_names:
                    continue
                load_time, function_local = found.setdefault(
                    top, (set(), set()))
                (function_local if id(node) in local else load_time).add(
                    str(path.relative_to(ROOT)))
    return found


def test_every_third_party_import_is_declared():
    required, extras = _declared()
    imports = _third_party_imports()
    assert "networkx" in imports and "numpy" in imports
    missing = []
    for module, (load_time, function_local) in sorted(imports.items()):
        if load_time and module not in required:
            missing.append("%s (imported at load time by %s)"
                           % (module, ", ".join(sorted(load_time))))
        elif module not in required | extras:
            missing.append("%s (imported by %s)"
                           % (module, ", ".join(sorted(function_local))))
    assert not missing, "undeclared dependencies: %s" % "; ".join(missing)
