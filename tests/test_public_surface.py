"""Every exported name still exists: a deletion cannot leave a stale export."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tailkit

MODULES = sorted(info.name for info in pkgutil.iter_modules(tailkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"tailkit.{name}")
    for entry in getattr(module, "__all__", ()):
        assert hasattr(module, entry), f"tailkit.{name}.__all__ names missing {entry!r}"


def reexports():
    """(source module, name) for each ``from .module import name`` in __init__."""
    tree = ast.parse(Path(tailkit.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_package_reexports_are_exported_by_their_modules():
    found = reexports()
    assert found
    for module_name, name in found:
        module = importlib.import_module(f"tailkit.{module_name}")
        assert name in module.__all__, f"tailkit.{module_name} does not export {name!r}"
        assert name in tailkit.__all__, f"tailkit.__all__ lacks re-exported {name!r}"


def test_library_errors_share_one_base():
    # the CLI maps a TailkitError to exit 2; its own two errors map themselves
    errors = {name: getattr(importlib.import_module(f"tailkit.{module}"), name)
              for module in MODULES
              for name in getattr(importlib.import_module(f"tailkit.{module}"), "__all__", ())
              if name.endswith("Error")}
    assert {"GraphError", "AutodiffError", "TheoryError", "DatasetFileError"} <= set(errors)
    for name, cls in errors.items():
        if name not in ("ConfigError", "MissingInputError"):
            assert issubclass(cls, tailkit.TailkitError), name
