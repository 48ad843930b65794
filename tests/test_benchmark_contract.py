"""The benchmark's tracer wraps functions of the package by name
(``benchmarks/tracer.py``), its workloads write config files
(``benchmarks/workloads.py``) and its worker gates each report
(``benchmarks/worker.py``); a change that deletes or renames a traced
function, rejects a generated config or drops a report field the
worker reads fails here instead of in a benchmark run."""

import importlib
import math
from collections import Counter
from pathlib import Path

import pytest

from otsobolev import cli, pipeline
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


def test_tracer_sees_the_jacobi_stage(monkeypatch):
    """The traced ``jacobi.propagate`` and ``jacobi.riccati_residual``
    are the functions the Jacobi stage calls: on flat_disk_annulus
    shrunk to 20 atoms, one span of each per JACOBI_CHUNK atoms."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracer = importlib.import_module("tracer")
    config = ScenarioConfig.load(
        cli.bundled_scenario_path("flat_disk_annulus.cfg"),
        [("submanifold", "resolution", "6"), ("domain", "samples", "150"),
         ("jacobi", "atoms", "20")])
    t = tracer.Tracer()
    try:
        t.install()
        rec = pipeline.run_scenario(config).checks["jacobi"]
    finally:
        t.uninstall()
    spans = Counter(span["name"] for span in t.spans)
    assert spans["jacobi.propagate"] == math.ceil(
        20 / pipeline.JACOBI_CHUNK) == 2
    assert rec["evaluated_atoms"] == rec["atom_count"] == 20
    assert spans["jacobi.riccati_residual"] == spans["jacobi.propagate"]


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


@pytest.mark.parametrize("workload", ["entropic_annulus", "analytic_suite"])
def test_seed_zero_runs_pass_the_worker_gate(workloads, tmp_path, workload):
    """Each scenario of a benchmarked workload, at seed 0, through the
    worker's gated run: a report field or ``RunReport`` attribute the
    worker reads that goes missing fails here."""
    worker = importlib.import_module("worker")
    scenario_dir = Path(cli.bundled_scenario_path(""))
    for path in workloads.write_configs(workload, 0, scenario_dir, tmp_path):
        rec = worker.run_one(ScenarioConfig.load(path), tmp_path / "reports")
        assert rec["failures"] == [], rec
        assert rec["checks"]
