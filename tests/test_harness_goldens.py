"""Pin the fault-harness outputs to committed goldens.

``wolt chaos --trials 3`` and ``wolt faults --trials 3`` must print
exactly ``tests/data/chaos_trials3_golden.txt`` and
``tests/data/faults_trials3_golden.txt``.  Any change to the control
loop, the storm's draw order or the controller's rules shows up as a
diff here.  The chaos golden carries its ``ACCEPTANCE: PASS`` line, so
the acceptance verdict is pinned too.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("command, golden", [
    ("chaos", "chaos_trials3_golden.txt"),
    ("faults", "faults_trials3_golden.txt"),
])
def test_stdout_matches_golden(command, golden, capsys):
    assert main([command, "--trials", "3"]) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()
