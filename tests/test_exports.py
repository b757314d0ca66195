"""Every name a ``riskplan`` module exports in ``__all__`` exists."""

import importlib
import pkgutil

import riskplan


def test_every_exported_name_resolves():
    modules = [riskplan] + [
        importlib.import_module(f"riskplan.{info.name}")
        for info in pkgutil.iter_modules(riskplan.__path__)]
    assert len(modules) > 1  # the submodules were found
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []
