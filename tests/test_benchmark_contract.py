"""The benchmark's tracer wraps functions of the package by name
(``benchmarks/tracer.py``) and its workloads write config files
(``benchmarks/workloads.py``); a change that deletes or renames a
traced function, or that rejects a generated config, fails here instead
of in a benchmark run."""

import importlib
from pathlib import Path

import pytest

from otsobolev import cli
from otsobolev.pipeline import ScenarioConfig

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_installs_against_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracer = importlib.import_module("tracer")
    targets = [(importlib.import_module(f"otsobolev.{mod}"), attr)
               for mod, attr in tracer.SPANS + [
                   (mod, attr) for mod, attr, _ in tracer.IMPORTED_SPANS]]
    originals = [getattr(module, attr) for module, attr in targets]
    t = tracer.Tracer()
    try:
        t.install()
        for (module, attr), original in zip(targets, originals):
            assert getattr(module, attr).__wrapped__ is original
    finally:
        t.uninstall()
    for (module, attr), original in zip(targets, originals):
        assert getattr(module, attr) is original


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("workload", ["exact_hyperbolic", "entropic_annulus",
                                      "analytic_suite"])
def test_generated_configs_load(workloads, tmp_path, workload):
    scenario_dir = Path(cli.bundled_scenario_path(""))
    paths = workloads.write_configs(workload, 0, scenario_dir, tmp_path)
    assert len(paths) == len(workloads.WORKLOADS[workload]["scenarios"])
    for path in paths:
        ScenarioConfig.load(path)
