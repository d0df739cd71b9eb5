"""Every public name resolves: each ``__all__`` entry of the package and
of its modules exists and is listed once, and so does every name the
README imports.  A name deleted from a module but left in a list fails
here, not in a caller that looks names up with ``getattr``."""

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
