"""Each demo prints the bytes recorded in tests/data/demos/<name>.out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import affa

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "data" / "demos"


def test_every_demo_has_a_golden():
    assert DEMOS
    assert [p.stem for p in DEMOS] == sorted(p.stem for p in GOLDEN.glob("*.out"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_golden(demo):
    # the demo runs on the affa this test imports, with this interpreter's
    # -O level
    src = str(Path(affa.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    flags = ["-" + "O" * sys.flags.optimize] if sys.flags.optimize else []
    out = subprocess.run([sys.executable, *flags, str(demo)], env=env,
                         capture_output=True, check=True).stdout
    assert out == (GOLDEN / f"{demo.stem}.out").read_bytes()
