"""Each demo prints exactly the bytes recorded in ``tests/golden/<demo>.txt``.

To re-record after a deliberate change of output:
``PYTHONPATH=src python demos/<demo>.py > tests/golden/<demo>.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"


def test_every_demo_has_a_golden():
    assert [d.stem for d in DEMOS] == sorted(g.stem for g in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_prints_golden_output(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, timeout=120, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
