"""Every demo runs warning-free and prints exactly its recorded output.

The demos import through the package, so a dropped export or a changed
record field fails here.  To re-record after an intended change:

    for d in demos/*.py; do
        PYTHONPATH=src python "$d" > "tests/data/demo_$(basename "$d" .py).txt"
    done
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_stdout_is_recorded(demo):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "data" / f"demo_{demo.stem}.txt").read_bytes()
