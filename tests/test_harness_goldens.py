"""Pin the fault-harness outputs to committed goldens.

``wolt chaos --trials 3`` and ``wolt faults --trials 3`` must print
exactly ``tests/data/chaos_trials3_golden.txt`` and
``tests/data/faults_trials3_golden.txt``.  Any change to the control
loop, the storm's draw order or the controller's rules shows up as a
diff here.  The chaos golden carries its ``ACCEPTANCE: PASS`` line, so
the acceptance verdict is pinned too.

``wolt sweeps`` must print ``tests/data/sweeps_golden.txt`` both when
it journals its sweeps and when it resumes them from the journal.

``wolt fig4``, ``wolt fig5`` and ``wolt solve --seed 3`` must print
``tests/data/{fig4,fig5,solve_seed3}_golden.txt``.  They pin the lab
and enterprise floor samplers and the policy scorer
(:func:`repro.sim.runner.run_policy`), including the order in which
the policies draw from a topology's shared generator.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import sweeps

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("command, golden", [
    ("chaos", "chaos_trials3_golden.txt"),
    ("faults", "faults_trials3_golden.txt"),
])
def test_stdout_matches_golden(command, golden, capsys):
    assert main([command, "--trials", "3"]) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


@pytest.mark.parametrize("argv, golden", [
    (["fig4"], "fig4_golden.txt"),
    (["fig5"], "fig5_golden.txt"),
    (["solve", "--seed", "3"], "solve_seed3_golden.txt"),
])
def test_static_experiment_matches_golden(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


def test_sweeps_resume_prints_the_golden(tmp_path, capsys, monkeypatch):
    golden = (DATA / "sweeps_golden.txt").read_text()
    journal = tmp_path / "sweeps.jsonl"
    assert main(["sweeps", "--checkpoint", str(journal)]) == 0
    assert capsys.readouterr().out == golden
    snapshot = journal.read_bytes()

    def recomputed(**kwargs):
        raise AssertionError("a journaled sweep was recomputed")

    for name in ("sweep_extenders", "sweep_users", "sweep_plc_quality"):
        monkeypatch.setattr(sweeps, name, recomputed)
    assert main(["sweeps", "--checkpoint", str(journal), "--resume"]) == 0
    assert capsys.readouterr().out == golden
    assert journal.read_bytes() == snapshot
