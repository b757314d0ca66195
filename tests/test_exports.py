"""Every name a ``riskplan`` module exports in ``__all__`` exists, and the
modules that read extracted plans import nothing of the search."""

import ast
import importlib
import pkgutil
from pathlib import Path

import riskplan


def test_every_exported_name_resolves():
    modules = [riskplan] + [
        importlib.import_module(f"riskplan.{info.name}")
        for info in pkgutil.iter_modules(riskplan.__path__)]
    assert len(modules) > 1  # the submodules were found
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []


def _relative_imports(name: str) -> set[str]:
    """The package modules that ``riskplan.<name>`` imports relatively."""
    path = Path(riskplan.__file__).parent / f"{name}.py"
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:  # ``from . import x``
                out.update(alias.name for alias in node.names)
    return out


def test_plan_readers_import_nothing_of_the_search():
    # nothing of plangraph, probmodel, search, linear or nonlinear
    assert _relative_imports("conditional") == {"domain", "errors"}
    assert _relative_imports("simulator") == {"conditional", "domain",
                                              "errors"}
