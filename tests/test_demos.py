"""Every demo script runs to completion against the current package.

Demos whose verdicts the tests pin also print the expected lines.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
VERDICT_LINES = {
    "01_grid_basics.py": ["deviation of X vs A (unconditional): 0.5"],
    "02_support_classes.py": ["components: 7", "classes: 3"],
    "05_sem_example1.py": [
        "(A, B) support: 2 components, 2 classes",
        "intersection property: FAILS",
    ],
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for line in VERDICT_LINES.get(demo.name, []):
        assert line in lines, line
