"""Negative controls: each check of ``pipeline.CHECKS`` fails on a
planted defect that breaks the hypothesis it tests, and passes on the
same run without the defect.  Tangency is report-only and cannot fail.
The comparisons that turn a measurement into a verdict are pinned at
their bounds.
"""

import ast
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from otsobolev import (cli, geometry, inequalities, jacobi, pipeline,
                       submanifold, transport)

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
        ctx.certificate = ctx.certificate._replace(
            phi_cc=ctx.certificate.phi_cc
            + 0.5 * height * np.sum(u * u, axis=1))
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


def planted_jacobi_verdict(monkeypatch, measurement, value):
    """``passed`` of the Jacobi check on one atom whose ``measurement``
    the library returns as ``value``, stacked over the one-atom chunk:
    the last step of a determinant profile that starts at 1
    ("monotonicity"), det P(1) under a unit bound ("endpoint"), or the
    t^-m det P limit ("normalization").  The atom sits on a flat disk
    with zero potential Hessian and velocity, where every sub-check
    passes unplanted."""
    one = np.ones(1)
    name, planted = {
        "monotonicity": ("monotonicity_profile",
                         lambda rec: np.array([[1.0, 0.0, value]])),
        "endpoint": ("jacobian_bound_check", lambda rec: (one, value * one)),
        "normalization": ("normalization_limit", lambda rec: value * one),
    }[measurement]
    monkeypatch.setattr(jacobi, name, planted)
    M = geometry.ModelManifold(geometry.EUCLIDEAN, 4, 0.0)
    mesh = submanifold.build_submanifold(
        M, submanifold.FlatDisk(radius=1.0), 6)
    nodes = mesh.node_count
    node = np.zeros(1, dtype=int)
    ctx = SimpleNamespace(
        config=SimpleNamespace(jacobi_atoms=1),
        M=M, mesh=mesh, gradient=(np.zeros((nodes, 2)), None),
        hess_phi=np.zeros((nodes, 2, 2)), atoms=(node, node, one),
        atom_logs=np.zeros((1, 4)),
        report=pipeline.RunReport("planted", 0, {}))
    return pipeline.CHECKS["jacobi"].run(ctx)["passed"]


def planted_verdict(monkeypatch, check, value):
    """``passed`` of ``CHECKS[check]`` when the library function the
    check reads, or for certification the run's certificate, returns the
    measurement ``value``; for fiber_mass ``value`` is the fiber-volume
    proxy of the one node, under a unit envelope, and for ibp the
    left-hand side -int f Lap phi, under a unit right-hand side.  A
    ``jacobi.<measurement>`` check plants that Jacobi measurement
    (``planted_jacobi_verdict``)."""
    if check.startswith("jacobi."):
        return planted_jacobi_verdict(monkeypatch, check[len("jacobi."):],
                                      value)
    if check == "semiconcavity":
        monkeypatch.setattr(transport, "semiconcavity_check",
                            lambda *args: value)
    elif check == "ibp":
        monkeypatch.setattr(inequalities, "integration_by_parts_check",
                            lambda *args: (value, 1.0))
    else:
        monkeypatch.setattr(inequalities, "evaluate_inequality",
                            lambda *args, **kwargs: {"ratio": value})
    monkeypatch.setattr(inequalities, "annulus_fiber_envelope",
                        lambda *args: np.ones(1))
    coupling = SimpleNamespace(converged=True, cost=0.0, duality_gap=0.0,
                               solver="exact")
    config = SimpleNamespace(solver="exact",
                             domain_params={"sigma": 0.5, "r": 1.0},
                             inequality_variant=inequalities.NONNEG_LIMIT)
    certificate = transport.Certificate(
        value if check == "certification" else 0.0, 1, None)
    # one node whose row mass over a unit-volume domain is the proxy
    marginals = transport.Marginals(np.array([value]), 0.0, 0.0)
    ctx = SimpleNamespace(config=config, coupling=coupling,
                          certificate=certificate, marginals=marginals,
                          report=pipeline.RunReport("planted", 0, {}),
                          M=None, mesh=None, f=None,
                          domain=SimpleNamespace(volume=1.0),
                          hess_phi=None, atoms=None,
                          atom_distances=np.ones(1))
    return pipeline.CHECKS[check].run(ctx)["passed"]


@pytest.mark.parametrize("check, bound, outward", [
    # worst_violation <= 1e-8, the exact solver's tolerance
    ("certification", 1e-8, math.inf),
    # worst_margin >= 0
    ("semiconcavity", 0.0, -math.inf),
    # LHS / RHS <= 1 + REPORT_TOL
    ("inequality", 1.0 + inequalities.REPORT_TOL, math.inf),
    # row mass * vol(Omega) <= envelope * 1.05, with a unit envelope
    ("fiber_mass", 1.0 * 1.05, math.inf),
    # -int f Lap phi <= r (int_boundary f + int |grad f|) * 1.05, with a
    # unit right-hand side
    ("ibp", 1.0 * 1.05, math.inf),
    # a determinant profile starting at 1 rises by at most
    # MONOTONICITY_TOL * 1 per step
    ("jacobi.monotonicity", pipeline.MONOTONICITY_TOL * 1.0, math.inf),
    # det P(1) <= bound + BOUND_SLACK_FACTOR * |bound|, with a unit bound:
    # an endpoint margin of exactly 0
    ("jacobi.endpoint", 1.0 + pipeline.BOUND_SLACK_FACTOR * 1.0, math.inf),
    # |limit - 1| <= NORMALIZATION_TOL, or the one atom is flagged and
    # none is evaluated; 1 + 1e-4 rounds to the largest float whose
    # |limit - 1| (1e-4 - 1.1e-17) is within it, and the next float's
    # (1e-4 + 2.1e-16) is not
    ("jacobi.normalization", 1.0 + pipeline.NORMALIZATION_TOL, math.inf),
])
def test_verdict_at_its_bound(monkeypatch, check, bound, outward):
    """A measurement exactly at the bound passes, and the next float
    past it fails."""
    assert planted_verdict(monkeypatch, check, bound) is True
    assert planted_verdict(monkeypatch, check,
                           math.nextafter(bound, outward)) is False
