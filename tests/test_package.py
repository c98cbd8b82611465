"""Public-API surface tests: everything advertised is importable."""

from __future__ import annotations

import importlib

import pytest

import repro


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_no_missing_headliners(self):
        for name in ("Scenario", "solve_wolt", "evaluate",
                     "rssi_assignment", "greedy_assignment",
                     "enterprise_floor", "EmulatedTestbed",
                     "OnlineSimulation", "jain_fairness"):
            assert name in repro.__all__

    def test_one_exact_solver(self):
        """Branch and bound is the package's one exact Problem-1
        solver; the exhaustive search is a test oracle."""
        import repro.core
        assert "branch_and_bound_optimal" in repro.__all__
        for name in ("brute_force_optimal", "OptimalResult",
                     "search_space_size"):
            assert not hasattr(repro, name)
            assert not hasattr(repro.core, name)
        with pytest.raises(ImportError):
            importlib.import_module("repro.core.optimal")


@pytest.mark.parametrize("module", [
    "repro.core", "repro.wifi", "repro.plc", "repro.net", "repro.sim",
    "repro.testbed", "repro.experiments", "repro.cli",
])
def test_subpackage_all_resolves(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.{name}"


@pytest.mark.parametrize("module", [
    "repro.core.problem", "repro.core.hungarian", "repro.core.phase1",
    "repro.core.phase2", "repro.core.wolt", "repro.core.baselines",
    "repro.core.bnb", "repro.core.controller",
    "repro.core.fairness", "repro.core.partition",
    "repro.wifi.phy", "repro.wifi.mac", "repro.wifi.sharing",
    "repro.wifi.channels",
    "repro.plc.sharing", "repro.plc.mac", "repro.plc.channel",
    "repro.plc.homeplug", "repro.plc.noise",
    "repro.net.engine", "repro.net.topology", "repro.net.metrics",
    "repro.net.estimate", "repro.net.visualize",
    "repro.sim.dynamics", "repro.sim.runner",
    "repro.sim.traffic", "repro.sim.mobility", "repro.sim.failures",
    "repro.sim.workload",
    "repro.testbed.devices", "repro.testbed.measurement",
    "repro.testbed.calibration",
    "repro.experiments.fig2", "repro.experiments.fig3",
    "repro.experiments.fig4", "repro.experiments.fig5",
    "repro.experiments.fig6", "repro.experiments.robustness",
    "repro.experiments.sweeps", "repro.experiments.common",
    "scripts.gates.fleet_chaos", "scripts.gates.ingest_fuzz",
])
def test_every_module_has_docstring(module):
    mod = importlib.import_module(module)
    assert mod.__doc__ and len(mod.__doc__) > 40, module
