"""Negative controls: each check of ``pipeline.CHECKS`` fails on a
planted defect that breaks the hypothesis it tests, and passes on the
same run without the defect.  Tangency is report-only and cannot fail.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from otsobolev import cli, geometry, pipeline

TESTS = Path(__file__).resolve().parent

# the test that makes each check fail: ``file::[Class::]function``
CONTROLS = {
    "certification": "test_transport.py::TestExactSolver::"
                     "test_suboptimal_plan_fails_certification",
    "fiber_mass": "test_cli.py::TestRunCommand::"
                  "test_fiber_mass_fails_on_a_wrong_domain_volume",
    "jacobi": "test_jacobi.py::TestChunkedStage::"
              "test_every_atom_flagged_fails",
    "semiconcavity": "test_negative_controls.py::test_semiconcavity_control",
    "ibp": "test_negative_controls.py::test_ibp_control",
    "inequality": "test_negative_controls.py::test_inequality_control",
}

# flat_disk_annulus shrunk to a few seconds, with the two checks that
# read the potential's Hessian; the exact LP solves the transport
ANNULUS_TEXT = """\
[scenario]
name = control
seed = 20240602

[manifold]
variant = euclidean
ambient_dim = 4

[submanifold]
chart = flat_disk
radius = 1.0
resolution = 8

[domain]
variant = annulus_around_sigma
sigma = 0.6
r = 6.0
samples = 400

[solver]
method = exact

[checks]
semiconcavity = true
ibp = true
"""

# |u|^2 / 2 bump height on phi^cc: its Hessian is BUMP times the identity
BUMP = 20.0


def defined_tests(path: Path) -> set:
    """``function`` and ``Class::function`` for each test in ``path``."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return names


def test_every_check_has_a_control():
    """A new registry entry must come with a control; tangency alone is
    exempt, because it has no verdict (``passed`` is null)."""
    assert set(CONTROLS) == set(pipeline.CHECKS) - {"tangency"}
    for check, node in CONTROLS.items():
        path, name = node.split("::", 1)
        assert name in defined_tests(TESTS / path), (check, node)


def bumped_run(tmp_path, monkeypatch, height):
    """The shrunk annulus run with ``height * |u|^2 / 2`` added to phi^cc
    right after certification, ``u`` the chart stencil coordinates."""
    certification = pipeline.CHECKS["certification"]

    def certify_then_bump(ctx):
        record = certification.run(ctx)
        u = ctx.mesh.stencil_coords
        ctx.coupling.phi_cc = ctx.coupling.phi_cc \
            + 0.5 * height * np.sum(u * u, axis=1)
        return record

    monkeypatch.setitem(pipeline.CHECKS, "certification",
                        certification._replace(run=certify_then_bump))
    cfg = tmp_path / "control.cfg"
    cfg.write_text(ANNULUS_TEXT)
    report = pipeline.run_scenario(pipeline.ScenarioConfig.load(cfg))
    assert report.checks["certification"]["passed"]
    return report.checks


@pytest.mark.parametrize("height, passed", [(0.0, True), (BUMP, False)])
def test_semiconcavity_control(tmp_path, monkeypatch, height, passed):
    """A convex bump pushes the potential's second differences above the
    semiconcavity bound, 2.5 on a flat disk with slack 0.5."""
    rec = bumped_run(tmp_path, monkeypatch, height)["semiconcavity"]
    assert rec["passed"] is passed
    assert (rec["worst_margin"] >= 0.0) is passed


@pytest.mark.parametrize("height, passed", [(0.0, True), (-BUMP, False)])
def test_ibp_control(tmp_path, monkeypatch, height, passed):
    """A concave bump adds 2 BUMP to -Lap phi at every node, which puts
    -int f Lap phi above r (int_boundary f + int |grad f|)."""
    rec = bumped_run(tmp_path, monkeypatch, height)["ibp"]
    assert rec["passed"] is passed
    assert (rec["margin"] >= 0.0) is passed


@pytest.mark.parametrize("factor, passed", [(1.0, True), (1.07, False)])
def test_inequality_control(monkeypatch, factor, passed):
    """On the sharp flat disk an asymptotic volume ratio 7 % too large
    puts LHS/RHS at 1.07^(1/2) > 1 + REPORT_TOL: a theorem failure."""
    theta = geometry.asymptotic_volume_ratio
    monkeypatch.setattr(geometry, "asymptotic_volume_ratio",
                        lambda M: factor * theta(M))
    config = pipeline.ScenarioConfig.load(
        cli.bundled_scenario_path("flat_disk_sharp.cfg"),
        [("submanifold", "resolution", "8")])
    report = pipeline.run_scenario(config)
    assert report.checks["inequality"]["passed"] is passed
    assert (report.inequality["ratio"] > 1.02) is not passed
    assert report.ok is passed
