"""Every public name resolves: each ``__all__`` entry of the package and
of its modules exists and is listed once, and so does every name the
README imports.  A name deleted from a module but left in a list fails
here, not in a caller that looks names up with ``getattr``."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import poncelet

MODULES = ["poncelet"] + [f"poncelet.{m.name}" for m in pkgutil.iter_modules(poncelet.__path__)]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists_once(name):
    module = importlib.import_module(name)
    names = module.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(module, n)] == []


def test_readme_imports_resolve():
    imports = re.findall(r"^from (poncelet[.\w]*) import (?:\(([^)]*)\)|(.*))$",
                         README.read_text(), re.MULTILINE)
    assert imports
    for module_name, *listed in imports:
        module = importlib.import_module(module_name)
        names = re.findall(r"\w+", " ".join(listed))
        assert names
        for name in names:
            assert hasattr(module, name), f"{module_name}.{name}"


ROOT = Path(__file__).resolve().parents[1]
LINTED = sorted(
    [p for p in (ROOT / "src" / "poncelet").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
)


def _unused_imports(source: str) -> list:
    """Module-level imported names that the module never reads.

    A name counts as read where it is loaded, named in ``__all__``, or
    named inside a string annotation.
    """
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            for leaf in ast.walk(annotation) if annotation is not None else ():
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(leaf.value, mode="eval"))
                                if isinstance(n, ast.Name))
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", LINTED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_import(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_sees_annotations_and_all():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import List, Optional\n"
        "from a import b as c, d\n"
        "__all__ = ['d']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return None\n"
    )
    assert _unused_imports(source) == ["line 2: os", "line 3: List", "line 4: c"]
