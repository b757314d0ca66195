"""The demos, run as a user runs them, print what they printed before.

Each ``demos/*.py`` runs in its own interpreter with ``PYTHONPATH=src``;
the test pins its exit code and the sha256 of its stdout.  The demos are
deterministic (fixed seeds, sorted output), so any change to the plans,
masses, nets or Monte Carlo streams they show moves a digest here.

To see a demo's digest after an intended change of output::

    PYTHONPATH=src python demos/01_ski_trip.py | sha256sum
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "01_ski_trip.py":
        "025a023a8da997c61c763184a1107c52da076ba4e87f24184d5e0fb08909d7a6",
    "02_belief_net.py":
        "ec4227df64da5907cfe5f0de146ee35b98b0662fbfdd1cc3f75d6da78728f7b7",
    "03_simulation.py":
        "b85c8f0da2f60bfb582f15c5af2788e27ae457dabcc8a51e6112facf4c12e1d3",
    "04_blocks.py":
        "22d4e289e1380e0fd6a8a8a5e9280824be6b702b02fca75fd7226ec67da48905",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == \
        sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[name]
