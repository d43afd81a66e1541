"""Every demo prints exactly the text recorded in ``tests/golden/demos``.

Each demo runs in its own interpreter with ``src`` on ``PYTHONPATH``, as the
README tells a reader to run it, and its standard output is compared byte
for byte.  After a change that is meant to keep outputs, a mismatch here
names the demo whose story changed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("FORESTSOLVE_LOG", None)
    run = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / f"{demo.stem}.txt").read_text()
