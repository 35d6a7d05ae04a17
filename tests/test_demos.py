"""Golden outputs of the demos: each script under demos/ runs in its own
interpreter with PYTHONPATH=src, and its stdout must match the capture under
tests/golden/demos/ byte for byte.  To re-capture after a deliberate change,
run from the repository root

    for f in demos/*.py; do PYTHONPATH=src python3 $f > tests/golden/demos/$(basename $f .py).out; done
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = pathlib.Path(__file__).with_name("golden") / "demos"


def test_every_demo_has_a_golden():
    assert len(DEMOS) == 5
    assert [d.stem for d in DEMOS] == sorted(g.stem for g in GOLDEN.glob("*.out"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / (demo.stem + ".out")).read_bytes()
