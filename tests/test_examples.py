"""Smoke test: every script in ``examples/`` runs to completion.

The examples are part of what ``src/repro`` must keep working, so each
one runs here in a fresh interpreter with ``PYTHONPATH=src``, exactly as
the README tells a reader to run it.  The scripts in ``GOLDEN`` must
also print ``tests/data/example_<stem>_golden.txt`` byte for byte.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))
GOLDEN = ("hotspot_failures", "fairness_and_mobility")


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if script.stem in GOLDEN:
        golden = REPO / "tests" / "data" / f"example_{script.stem}_golden.txt"
        assert proc.stdout == golden.read_text()
