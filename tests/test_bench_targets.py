"""The benchmark's tracer wraps package functions by name; a rename in the
package, or a traced function that nothing calls any more, must fail here,
in the main test run, not only in the bench's own tests.  ``bench/tracer.py``
and ``bench/test_bench.py`` are loaded from their files and only read."""

import cProfile
import importlib
import importlib.util
import pstats
import sys
from pathlib import Path

import riskplan

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name: str):
    """A module of the bench, loaded from its file.  The bench's modules put
    their own directory on ``sys.path``; it is taken off again."""
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                      BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def _targets():
    """(metric name, function) of every traced target that resolves."""
    out, missing = [], []
    for name, targets in load_bench_module("tracer").TARGETS.items():
        for mod_name, attr in targets:
            owner = importlib.import_module(f"riskplan.{mod_name}")
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if callable(owner):
                out.append((name, owner))
            else:
                missing.append(f"{name}: riskplan.{mod_name}.{attr}")
    return out, missing


def test_every_traced_target_resolves():
    assert _targets()[1] == []


def test_every_traced_target_is_called():
    # the bench's own small cases, run on the package already imported
    # here: the bench's loader would drop it from sys.modules mid-suite
    bench = load_bench_module("test_bench")
    prof = cProfile.Profile()
    prof.enable()
    try:
        bench.pipeline(riskplan)
    finally:
        prof.disable()
    ncalls = {k: v[1] for k, v in pstats.Stats(prof).stats.items()}
    uncalled = []
    for name, fn in _targets()[0]:
        code = fn.__code__
        if ncalls.get((code.co_filename, code.co_firstlineno,
                       code.co_name), 0) == 0:
            uncalled.append(f"{name}: {fn.__qualname__}")
    assert uncalled == []
