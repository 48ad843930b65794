"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (visible even under capture via capsys.disabled).  Tolerances are
pinned; do not loosen them here.
"""

import math
import time

import numpy as np
import pytest

from otsobolev import cli, geometry, inequalities, jacobi, submanifold, transport
from otsobolev.fields import constant_field
from otsobolev.pipeline import NORMALIZATION_TOL, ScenarioConfig, run_scenario

from chart_checks import model_space

SCENARIOS = [
    "flat_disk_sharp", "flat_disk_annulus", "flat_graph",
    "sphere_ball_closed", "sphere_transport", "sphere_tube_005",
    "sphere_tube_02", "hyperbolic_disk_r1", "hyperbolic_disk_r2",
]

TRANSPORT_SCENARIOS = ["flat_disk_annulus", "sphere_transport",
                       "hyperbolic_disk_r1"]


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def wronskian_asymmetry(rec, S, P0, P0p):
    """The worst deviation of P' P^T from symmetry over the non-singular
    atoms of a Jacobi stack, with P' from ``closed_form_stack`` on the
    stack's data (the stack keeps no P')."""
    ok = ~rec.singular
    _, Pp = jacobi.closed_form_stack(S[ok], P0[ok], P0p[ok])
    W = np.einsum("aijt,akjt->aikt", Pp, rec.P[ok])
    return float(np.abs(W - W.swapaxes(1, 2)).max(initial=0.0))


@pytest.fixture(scope="module")
def bundled_reports():
    """Run every bundled scenario once; reused by criteria 2 and 4.  Also
    keeps, per scenario with Jacobi checks, the running max of
    ``wronskian_asymmetry`` over its stacks, and not the stacks."""
    out, asymmetry = {}, {}
    propagate = jacobi.propagate

    def recording(S, P0, P0p, lam, n):
        rec = propagate(S, P0, P0p, lam, n)
        asymmetry[name] = max(asymmetry.get(name, 0.0),
                              wronskian_asymmetry(rec, S, P0, P0p))
        return rec

    t0 = time.perf_counter()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(jacobi, "propagate", recording)
        for name in SCENARIOS:
            config = ScenarioConfig.load(
                cli.bundled_scenario_path(f"{name}.cfg"))
            out[name] = run_scenario(config)
    return out, time.perf_counter() - t0, asymmetry


def test_criterion_1_sharp_flat_disk(capsys):
    """Flat disk of codimension 2, f = 1: both sides equal 2 pi."""
    t0 = time.perf_counter()
    M = model_space(geometry.EUCLIDEAN, 4)
    mesh = submanifold.build_submanifold(
        M, submanifold.FlatDisk(radius=1.0), 50)
    rep = inequalities.evaluate_inequality(
        M, mesh, inequalities.inequality_terms(
            M, mesh, constant_field(mesh, 1.0)), inequalities.NONNEG_LIMIT, {})
    elapsed = time.perf_counter() - t0
    ok = (mesh.node_count >= 10_000
          and abs(rep["lhs"] - 2 * math.pi) < 0.02 * 2 * math.pi
          and abs(rep["rhs"] - 2 * math.pi) < 0.02 * 2 * math.pi
          and abs(rep["ratio"] - 1.0) <= 0.02
          and elapsed <= 60.0)
    announce(capsys, 1, ok,
             f"nodes={mesh.node_count}, ratio={rep['ratio']:.2e}, "
             f"time={elapsed:.1f}s")


def failed_runs(reports):
    """The runs that fail criterion 2: a ratio above 1.02, a theorem
    failure or a warning (the ``--strict`` verdict)."""
    return [n for n, r in reports.items()
            if r.inequality["ratio"] > 1.02 or not r.ok or r.warnings]


def test_criterion_2_inequality_suite(capsys, bundled_reports):
    reports, elapsed, _ = bundled_reports
    worst = max(r.inequality["ratio"] for r in reports.values())
    failures = failed_runs(reports)
    ok = not failures and elapsed <= 600.0
    announce(capsys, 2, ok,
             f"{len(reports)} scenarios, worst ratio={worst:.6f}, "
             f"failures={failures}, time={elapsed:.0f}s")


def test_criterion_2_fails_on_a_warning(monkeypatch):
    """A failed non-fatal check is a warning, which leaves ``ok`` set;
    criterion 2 still fails the run."""
    monkeypatch.setattr(transport, "semiconcavity_check",
                        lambda *args: -1.0)
    config = ScenarioConfig.load(
        cli.bundled_scenario_path("flat_disk_annulus.cfg"),
        [("submanifold", "resolution", "6"), ("domain", "samples", "150"),
         ("jacobi", "atoms", "4")])
    report = run_scenario(config)
    assert report.ok and report.warnings == ["semiconcavity"]
    assert failed_runs({"planted": report}) == ["planted"]


def test_criterion_3_jacobi_oracles(capsys):
    """Closed-form solutions at 1000 steps; trimmed normalization."""
    worst = 0.0
    per_traj = []
    s = 0.8
    basis, v = np.eye(4)[None, 1:], np.array([[0.0, s, 0.0, 0.0]])
    Ms = model_space(geometry.SPHERE, 3, 1.0)
    Mh = model_space(geometry.HYPERBOLIC, 3, -1.0)
    Me = model_space(geometry.EUCLIDEAN, 3)
    cases = [
        (Ms, geometry.curvature_matrix(Ms, basis, v),
         lambda t: np.sin(s * t) / s),
        (Mh, geometry.curvature_matrix(Mh, basis, v),
         lambda t: np.sinh(s * t) / s),
        (Me, geometry.curvature_matrix(Me, np.eye(3)[None], v[:, 1:]),
         lambda t: t)]
    norm_worst = 0.0
    for M, S, sol in cases:
        t0 = time.perf_counter()
        (P,) = jacobi.propagate(S, np.zeros((1, 3, 3)), np.eye(3)[None],
                                [0.0], 2).P
        per_traj.append(time.perf_counter() - t0)
        t = jacobi.TIMES
        oracle = np.zeros_like(P)          # (d, d, T), time-last
        oracle[0, 0] = t
        for i in (1, 2):
            oracle[i, i] = sol(t) if M.variant != geometry.EUCLIDEAN \
                else t
        worst = max(worst, float(np.abs(P - oracle).max()))
        # block normalization: t^-m det P at the first trimmed sample
        block = jacobi.propagate(
            S, np.diag([1.0, 1.0, 0.0])[None],
            np.diag([0.0, 0.0, 1.0])[None], [0.0], 2)
        i0 = jacobi.TRIM_SAMPLES
        first = block.det_p[0, i0] / t[i0] ** block.m
        norm_worst = max(norm_worst, abs(first - 1.0))
    ok = worst <= 1e-8 and norm_worst <= 1e-4 and max(per_traj) <= 1.0
    announce(capsys, 3, ok,
             f"oracle err={worst:.1e}, normalization={norm_worst:.1e}, "
             f"slowest trajectory={max(per_traj):.2f}s")


def test_criterion_4_riccati_structure(capsys, bundled_reports):
    reports, _, asymmetry = bundled_reports
    details = []
    ok = True
    for name in TRANSPORT_SCENARIOS:
        st = reports[name].checks["jacobi"]
        this = (st["atom_count"] >= 200
                and asymmetry[name] <= 1e-8
                and st["riccati_residual_max"] <= 1e-6
                and st["singular_atoms"] == 0)
        M_curv = {"flat_disk_annulus": 0.0, "sphere_transport": 1.0,
                  "hyperbolic_disk_r1": -1.0}[name]
        if M_curv >= 0.0:
            this = this and st["mono_failures"] == 0 \
                and st["bound_margin_min"] >= 0.0
        ok = ok and this
        details.append(f"{name}: atoms={st['atom_count']} "
                       f"sym={asymmetry[name]:.1e} "
                       f"ric={st['riccati_residual_max']:.1e}")
    announce(capsys, 4, ok, "; ".join(details))


def test_criterion_5_transport_certification(capsys):
    rng = np.random.default_rng(42)
    M = model_space(geometry.EUCLIDEAN, 3)
    xs = rng.standard_normal((50, 3))
    zs = rng.standard_normal((50, 3)) + np.array([2.0, 0.0, 0.0])
    mu = transport.DiscreteMeasure(xs, np.full(50, 0.02))
    nu = transport.DiscreteMeasure(zs, np.full(50, 0.02))
    C = transport.cost_matrix(M, mu, nu)
    exact = transport.solve_exact(mu, nu, C)
    _, rres, cres = exact.marginals()
    cert = transport.certify_support(exact)
    ent = transport.solve_entropic(mu, nu, C,
                                   eps_reg=1e-4 * float(C.mean()))
    rel = (ent.cost - exact.cost) / exact.cost
    ok = (max(rres, cres) <= 1e-9 and cert.worst_violation <= 1e-8
          and abs(rel) <= 1e-3)
    announce(capsys, 5, ok,
             f"marginals={max(rres, cres):.1e}, "
             f"violation={cert.worst_violation:.1e}, "
             f"entropic rel cost={rel:.1e}")


def test_criterion_6_tangency_convergence(capsys):
    """Median tangential residual under mesh halving on the flat-disk
    annulus: each halving must shrink the median by >= 1/0.75."""
    M = model_space(geometry.EUCLIDEAN, 4)
    params = dict(sigma=0.6, r=6.0)
    medians = []
    for res in (6, 12, 24):
        mesh = submanifold.build_submanifold(
            M, submanifold.FlatDisk(radius=1.0), res)
        f = constant_field(mesh, 1.0)
        dom = inequalities.build_target_domain(
            M, mesh, inequalities.ANNULUS, params, 600, 20240601)
        mu = transport.source_measure(mesh, f)
        nu = transport.target_measure(dom.points)
        C = transport.cost_matrix(M, mu, nu)
        cpl = transport.solve_exact(mu, nu, C, size_cap=(5000, 5000))
        cert = transport.certify_support(cpl)
        assert cert.worst_violation <= 1e-8
        dists = np.sqrt(2.0 * C)
        ii, jj, _ = cpl.atoms()
        cap = np.zeros(C.shape[0])
        np.maximum.at(cap, ii, dists[ii, jj])
        grad, _ = transport.potential_gradient_on_sigma(
            mesh, cert.phi_cc, max_target_distance=cap)
        logs = geometry.log_map(M, mesh.points[ii], cpl.target.points[jj])
        fib = transport.tangency_residuals(mesh, ii, logs, grad)
        medians.append(fib["median"])
    r1 = medians[0] / medians[1]
    r2 = medians[1] / medians[2]
    ok = min(r1, r2) >= 1.0 / 0.75
    announce(capsys, 6, ok,
             f"medians={[f'{m:.4f}' for m in medians]}, "
             f"reduction factors={r1:.2f}, {r2:.2f} (need >= 1.33)")


def test_criterion_7_tube_limit_consistency(capsys):
    M = model_space(geometry.SPHERE, 4)
    mesh = submanifold.build_submanifold(
        M, submanifold.GeodesicBallInSubsphere(math.pi / 2), 16)
    terms = inequalities.inequality_terms(M, mesh, constant_field(mesh, 1.0))
    closed = inequalities.evaluate_inequality(
        M, mesh, terms, inequalities.CLOSED_POSITIVE, {})
    zero = inequalities.evaluate_inequality(
        M, mesh, terms, inequalities.POSITIVE_TUBE, dict(eps=0.0))
    exact_at_zero = all(zero[side] == pytest.approx(closed[side], abs=1e-12)
                        for side in ("lhs", "rhs"))
    diffs = []
    for eps in (0.02, 0.01):
        dom = inequalities.build_target_domain(
            M, mesh, inequalities.COMPLEMENT_OF_TUBE, dict(eps=eps),
            800, 20240606)
        rep = inequalities.evaluate_inequality(
            M, mesh, terms, inequalities.POSITIVE_TUBE, dict(eps=eps),
            domain=dom)
        diffs.append(abs(rep["ratio"] - closed["ratio"]))
    ok = exact_at_zero and max(diffs) <= 1e-3
    announce(capsys, 7, ok,
             f"exact at eps=0: {exact_at_zero}, "
             f"ratio diffs={[f'{d:.1e}' for d in diffs]}")


def test_criterion_8_hand_jacobian_equality(capsys):
    """Flat ambient, Hess phi = -I, vanishing second fundamental form:
    det P(1) = 2^n = 4, meeting the determinant bound exactly."""
    M = model_space(geometry.EUCLIDEAN, 4)
    mesh = submanifold.build_submanifold(
        M, submanifold.FlatDisk(radius=1.0), 8)
    node, u = np.zeros(1, dtype=int), np.zeros((1, 4))
    N = mesh.node_count
    P0, P0p, lam = jacobi.initial_conditions(
        mesh, node, u, np.tile(-np.eye(2), (N, 1, 1)), np.zeros((N, 2)))
    S = geometry.curvature_matrix(M, np.concatenate(
        [mesh.tangent_frames[node], mesh.normal_frames[node]], axis=1), u)
    rec = jacobi.propagate(S, P0, P0p, lam, mesh.n)
    (limit,) = jacobi.normalization_limit(rec)
    bound, det1 = (float(side[0]) for side in jacobi.jacobian_bound_check(rec))
    ok = abs(det1 - 4.0) <= 1e-9 and abs(bound - 4.0) <= 1e-9 \
        and abs(limit - 1.0) <= NORMALIZATION_TOL
    announce(capsys, 8, ok, f"det P(1)={det1!r}, bound={bound!r}")


def test_criterion_9_deterministic_reports(capsys, tmp_path):
    config_path = cli.bundled_scenario_path("flat_disk_annulus.cfg")
    payloads = []
    for name in ("a", "b"):
        config = ScenarioConfig.load(config_path)
        config.resolution = 8
        config.domain_samples = 300
        report = run_scenario(config)
        out = tmp_path / name
        paths = cli.emit_report(report, str(out), "json")
        payloads.append(b"".join(
            open(p, "rb").read() for p in sorted(paths)))
    ok = payloads[0] == payloads[1] and len(payloads[0]) > 0
    announce(capsys, 9, ok,
             f"report bytes={len(payloads[0])}, identical={ok}")
