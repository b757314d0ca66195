"""The benchmark's tracer wraps package functions by name; a rename in the
package must fail here, in the main test run, not only in the bench's own
tests.  ``bench/tracer.py`` is loaded from its file and only read."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, targets in tracer.TARGETS.items():
        for mod_name, attr in targets:
            owner = importlib.import_module(f"riskplan.{mod_name}")
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{name}: riskplan.{mod_name}.{attr}")
    assert missing == []
