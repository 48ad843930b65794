"""Jacobi/Riccati propagation: closed-form oracles, profiles, envelopes."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from otsobolev import (cli, geometry, inequalities, jacobi, pipeline,
                       submanifold, transport)
from otsobolev.errors import (
    ArgOutOfDomainError,
    DenominatorVanishesError,
    NonSymmetricHessianError,
    NormalizationDriftError,
    SingularPError,
)
from otsobolev.fields import constant_field


def sphere_frame(K=1.0, speed=0.5):
    M = geometry.sphere(3, K)
    R = M.radius
    x = np.array([R, 0.0, 0.0, 0.0])
    v = np.array([0.0, speed, 0.0, 0.0])
    basis = np.eye(4)[1:]
    return M, geometry.build_parallel_frame(M, x, v, basis[:2], basis[2:],
                                            samples=5)


def hyperbolic_frame(K=-1.0, speed=0.5):
    M = geometry.hyperbolic(3, K)
    R = M.radius
    x = np.array([R, 0.0, 0.0, 0.0])
    v = np.array([0.0, speed, 0.0, 0.0])
    basis = np.eye(4)[1:]
    return M, geometry.build_parallel_frame(M, x, v, basis[:2], basis[2:],
                                            samples=5)


def euclidean_frame(dim=4, speed=0.5):
    M = geometry.euclidean(dim)
    x = np.zeros(dim)
    v = np.zeros(dim)
    v[0] = speed
    basis = np.eye(dim)
    return M, geometry.build_parallel_frame(M, x, v, basis[:2], basis[2:],
                                            samples=5)


class TestClosedFormOracles:
    def test_flat_space_linear_solutions(self):
        M, frame = euclidean_frame()
        P0 = np.eye(4)
        P0p = np.diag([0.3, -0.2, 1.0, 0.7])
        traj = jacobi.propagate(M, frame, P0, P0p, steps=400)
        for k in (0, 100, 400):
            t = traj.times[k]
            assert np.allclose(traj.P[k], P0 + t * P0p, atol=1e-12)
        assert jacobi.riccati_residual(traj) < 1e-8

    def test_sphere_cosine_solutions(self):
        s = 0.8
        M, frame = sphere_frame(K=1.0, speed=s)
        traj = jacobi.propagate(M, frame, np.eye(3), np.zeros((3, 3)),
                                steps=500)
        t = traj.times
        # direction along the velocity is flat; others oscillate at rate s
        oracle = np.zeros((len(t), 3, 3))
        oracle[:, 0, 0] = 1.0
        for i in (1, 2):
            oracle[:, i, i] = np.cos(s * t)
        assert np.abs(traj.P - oracle).max() < 1e-8

    def test_sphere_sine_solutions(self):
        s = 0.8
        M, frame = sphere_frame(K=1.0, speed=s)
        traj = jacobi.propagate(M, frame, np.zeros((3, 3)), np.eye(3),
                                steps=500)
        t = traj.times
        oracle = np.zeros((len(t), 3, 3))
        oracle[:, 0, 0] = t
        for i in (1, 2):
            oracle[:, i, i] = np.sin(s * t) / s
        assert np.abs(traj.P - oracle).max() < 1e-8

    def test_hyperbolic_sinh_solutions(self):
        s = 0.6
        M, frame = hyperbolic_frame(K=-1.0, speed=s)
        traj = jacobi.propagate(M, frame, np.zeros((3, 3)), np.eye(3),
                                steps=500)
        t = traj.times
        oracle = np.zeros((len(t), 3, 3))
        oracle[:, 0, 0] = t
        for i in (1, 2):
            oracle[:, i, i] = np.sinh(s * t) / s
        assert np.abs(traj.P - oracle).max() < 1e-8
        assert jacobi.riccati_residual(traj) < 1e-6

    def test_curvature_scaling(self):
        """K = 4 doubles the oscillation rate of the K = 1 solution."""
        s = 0.5
        M, frame = sphere_frame(K=4.0, speed=s)
        traj = jacobi.propagate(M, frame, np.eye(3), np.zeros((3, 3)),
                                steps=500)
        t = traj.times
        assert np.allclose(traj.P[:, 1, 1], np.cos(2 * s * t), atol=1e-8)


class TestStructuralChecks:
    def make_block_traj(self, p11=0.5, p22=0.5, lam=None, steps=800):
        """Flat-space trajectory with the transport block structure."""
        M, frame = euclidean_frame()
        P0 = np.diag([1.0, 1.0, 0.0, 0.0])
        P0p = np.diag([p11, p22, 1.0, 1.0])
        if lam is None:
            lam = -(p11 + p22)
        return jacobi.propagate(M, frame, P0, P0p, steps=steps,
                                delta_phi=lam, h_dot_v=0.0)

    def test_block_determinant_identity(self):
        """det P(1) = (1 + p11)(1 + p22) for flat diagonal data."""
        traj = self.make_block_traj(p11=1.0, p22=1.0)
        assert abs(traj.det_p[-1] - 4.0) < 1e-9

    def test_symmetry_residuals_vanish(self):
        traj = self.make_block_traj()
        assert traj.symmetry_residual() < 1e-12
        assert traj.q_symmetry_residual() < 1e-9

    def test_normalization_limit(self):
        traj = self.make_block_traj()
        first, limit = jacobi.normalization_limit(traj)
        assert abs(limit - 1.0) < 1e-6

    def test_normalization_drift_detected(self):
        M, frame = euclidean_frame()
        P0 = np.diag([1.0, 1.0, 0.0, 0.0])
        P0p = np.diag([0.5, 0.5, 2.0, 1.0])   # wrong normal-block scale
        traj = jacobi.propagate(M, frame, P0, P0p)
        with pytest.raises(NormalizationDriftError):
            jacobi.jacobian_bound_check(traj)

    def test_monotone_profile_and_endpoint_bound(self):
        """Equality case: diagonal data with equal rates saturates the bound."""
        traj = self.make_block_traj(p11=-0.7, p22=-0.7)
        t, prof, mono, worst = jacobi.monotonicity_profile(traj)
        assert mono
        assert np.allclose(prof, prof[0], atol=1e-9)  # exact equality case
        margin, bound, det1 = jacobi.jacobian_bound_check(traj)
        assert margin >= 0.0
        assert abs(det1 - bound) < 1e-9

    def test_strictly_decreasing_profile_when_rates_differ(self):
        traj = self.make_block_traj(p11=-0.9, p22=-0.1)
        t, prof, mono, worst = jacobi.monotonicity_profile(traj)
        assert mono
        assert prof[-1] < prof[0] - 1e-4
        margin, bound, det1 = jacobi.jacobian_bound_check(traj)
        assert det1 < bound and margin > 0.0

    def test_hyperbolic_control_breaks_monotonicity(self):
        """Negative curvature violates the S >= 0 hypothesis: the profile
        must increase, and the check must say so."""
        s = 0.9
        M, frame = hyperbolic_frame(K=-1.0, speed=s)
        P0 = np.diag([1.0, 1.0, 0.0])
        P0p = np.diag([0.0, 0.0, 1.0])
        traj = jacobi.propagate(M, frame, P0, P0p, steps=600, n=2)
        t, prof, mono, worst = jacobi.monotonicity_profile(traj)
        assert not mono
        assert prof[-1] > prof[0]

    def test_lap_lower_bound_margin(self):
        traj = self.make_block_traj(lam=1.2)
        assert jacobi.lap_lower_bound_check(traj) == pytest.approx(2.0 - 1.2)
        bad = self.make_block_traj(lam=2.5)   # violates lam <= n = 2
        assert jacobi.lap_lower_bound_check(bad) < 0.0

    def test_conjugate_point_detected(self):
        # det P = cos(2t) sin(2t)/2 turns negative past t = pi/4
        M, frame = sphere_frame(K=1.0, speed=2.0)
        P0 = np.diag([1.0, 1.0, 0.0])
        P0p = np.diag([0.0, 0.0, 1.0])
        with pytest.raises(SingularPError):
            jacobi.propagate(M, frame, P0, P0p)

    def test_non_symmetric_hessian_rejected(self):
        M = geometry.euclidean(4)
        mesh = submanifold.build_submanifold(
            M, submanifold.FlatDisk(radius=1.0), 8)
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(NonSymmetricHessianError):
            jacobi.initial_conditions(mesh, 0, np.zeros(2), bad, np.zeros(2))


class TestFiniteDifferences:
    def test_second_derivative_fourth_order_interior(self):
        errs_in, errs_edge = [], []
        for T in (100, 200):
            t = np.linspace(0.0, 1.0, T + 1)
            d2 = jacobi.second_derivative(np.sin(3 * t), t[1] - t[0])
            err = np.abs(d2 + 9 * np.sin(3 * t))
            errs_in.append(float(err[5:-5].max()))
            errs_edge.append(float(err.max()))
        assert errs_in[1] < errs_in[0] / 12.0    # 4th order: ~16x per halving
        assert errs_edge[1] < errs_edge[0] / 6.0  # one-sided edges: >= 3rd

    def test_riccati_residual_flags_wrong_curvature(self):
        """A trajectory propagated with S = 0 fails the Riccati identity
        when its stored S is falsified."""
        M, frame = euclidean_frame()
        traj = jacobi.propagate(M, frame, np.diag([1.0, 1, 0, 0]),
                                np.diag([0.3, 0.3, 1, 1]))
        traj.S = traj.S + 0.5 * np.eye(4)
        assert jacobi.riccati_residual(traj) > 0.1


class TestComparisonProfiles:
    def test_positive_case_limits_to_nonneg(self):
        lam = -0.8
        non = jacobi.comparison_profiles("nonneg", lam, 0.0, 2, 2)
        pos = jacobi.comparison_profiles("positive", lam, 0.0, 2, 2,
                                         k1=1e-8, k2=1e-8, eps=1.0)
        t = np.linspace(0.05, 1.0, 40)
        assert np.allclose(pos.trq1_bound(t), non.trq1_bound(t), atol=1e-6)
        assert np.allclose(pos.trq3_bound(t), non.trq3_bound(t), rtol=1e-6)
        assert np.allclose(pos.det_envelope(t), non.det_envelope(t),
                           atol=1e-6)

    def test_negative_case_limits_to_nonneg(self):
        # lam = 0 keeps the artanh argument inside (-1, 1) as k -> 0
        lam = 0.0
        non = jacobi.comparison_profiles("nonneg", lam, 0.0, 2, 2)
        neg = jacobi.comparison_profiles("negative", lam, 0.0, 2, 2,
                                         k1=-1e-8, k2=-1e-8, r=1.0)
        t = np.linspace(0.05, 1.0, 40)
        assert np.allclose(neg.trq1_bound(t), non.trq1_bound(t), atol=1e-6)
        assert np.allclose(neg.det_envelope(t), non.det_envelope(t),
                           atol=1e-6)

    @pytest.mark.parametrize("case,kw", [
        ("nonneg", {}),
        ("positive", dict(k1=1.0, k2=1.0, eps=0.4)),
        ("negative", dict(k1=-1.0, k2=-1.0, r=0.7)),
    ])
    def test_endpoint_equals_envelope_at_one(self, case, kw):
        prof = jacobi.comparison_profiles(case, -0.5, 0.0, 2, 2, **kw)
        assert np.isclose(prof.endpoint_bound(),
                          float(prof.det_envelope(np.array([1.0]))[0]),
                          atol=1e-12)

    def test_negative_case_domain_guard(self):
        with pytest.raises(ArgOutOfDomainError):
            jacobi.comparison_profiles("negative", -5.0, 0.0, 2, 2,
                                       k1=-1.0, k2=-1.0, r=0.5)

    def test_trace_comparison_on_model_trajectory(self):
        """Flat block trajectory sits under the nonneg envelopes."""
        M, frame = euclidean_frame()
        P0 = np.diag([1.0, 1.0, 0.0, 0.0])
        P0p = np.diag([0.4, 0.2, 1.0, 1.0])
        lam = -(0.4 + 0.2)
        traj = jacobi.propagate(M, frame, P0, P0p, steps=600,
                                delta_phi=lam)
        prof = jacobi.comparison_profiles("nonneg", lam, 0.0, 2, 2)
        rep = jacobi.trace_comparison_check(traj, prof)
        assert rep.passed
        assert rep.worst_trq1_excess <= rep.tol
        assert rep.worst_trq3_excess <= rep.tol


def rk4_reference(S, P0, P0p, steps):
    """One atom's RK4 on (d, d) matrices, step for step as the kernel."""
    dt = 1.0 / steps
    P, Pp = [P0], [P0p]
    p, pp = P0.copy(), P0p.copy()
    for _ in range(steps):
        k1p, k1v = pp, -p @ S
        k2p, k2v = pp + 0.5 * dt * k1v, -(p + 0.5 * dt * k1p) @ S
        k3p, k3v = pp + 0.5 * dt * k2v, -(p + 0.5 * dt * k2p) @ S
        k4p, k4v = pp + dt * k3v, -(p + dt * k3p) @ S
        p = p + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        pp = pp + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        P.append(p)
        Pp.append(pp)
    return np.array(P), np.array(Pp)


def atom_stack(make_frame, count, seed=5):
    """``count`` atoms on distinct geodesics, ``make_frame(speed)``, with
    transport-shaped data: P0 = diag(1, 1, 0), P0' = diag(a, b, 1) plus
    a symmetric tweak."""
    rng = np.random.default_rng(seed)
    frames, P0, P0p = [], [], []
    for _ in range(count):
        M, frame = make_frame(float(rng.uniform(0.2, 0.9)))
        tweak = 0.05 * rng.standard_normal((3, 3))
        frames.append(frame)
        P0.append(np.diag([1.0, 1.0, 0.0]))
        P0p.append(np.diag([*rng.uniform(-0.5, 0.5, 2), 1.0])
                   + tweak + tweak.T)
    return M, frames, np.array(P0), np.array(P0p)


def flat_atom(speed):
    return euclidean_frame(3, speed)


def positive_atom(speed):
    return sphere_frame(1.0, speed)


def negative_atom(speed):
    return hyperbolic_frame(-1.0, speed)


TRAJ_ARRAYS = ("P", "Pp", "S", "det_p", "Q", "q_defined", "trq1", "trq3")


class TestBatchedKernel:
    @pytest.mark.parametrize("make_frame",
                             [flat_atom, positive_atom, negative_atom])
    def test_stack_equals_single_atom_bitwise(self, make_frame):
        M, frames, P0, P0p = atom_stack(make_frame, 17)
        lam = np.linspace(-0.4, 0.4, 17)
        stacked = jacobi.propagate_atoms(M, frames, P0, P0p, lam, -lam,
                                         steps=300)
        for a, traj in enumerate(stacked):
            single = jacobi.propagate(M, frames[a], P0[a], P0p[a], steps=300,
                                      delta_phi=lam[a], h_dot_v=-lam[a])
            for name in TRAJ_ARRAYS:
                assert getattr(traj, name).tobytes() == \
                    getattr(single, name).tobytes(), name
            assert (traj.lam, traj.n, traj.m) == (single.lam, 2, 1)
            P, Pp = rk4_reference(single.S, P0[a], P0p[a], 300)
            assert single.P.tobytes() == P.tobytes()
            assert single.Pp.tobytes() == Pp.tobytes()

    def test_trajectories_are_contiguous_views(self):
        M, frames, P0, P0p = atom_stack(positive_atom, 3)
        trajs = jacobi.propagate_atoms(M, frames, P0, P0p, np.zeros(3),
                                       np.zeros(3), steps=200)
        for traj in trajs:
            assert traj.P.flags.c_contiguous and traj.P.base is not None
            assert traj.P.shape == (201, 3, 3)

    def test_singular_atom_mid_stack(self):
        """A conjugate point in one atom leaves its neighbours alone."""
        M, frames, P0, P0p = atom_stack(positive_atom, 17)
        _, frames[8] = sphere_frame(K=1.0, speed=2.0)
        P0[8], P0p[8] = np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])
        trajs = jacobi.propagate_atoms(M, frames, P0, P0p, np.zeros(17),
                                       np.zeros(17))
        assert [a for a, t in enumerate(trajs) if t is None] == [8]
        with pytest.raises(SingularPError):
            jacobi.propagate(M, frames[8], P0[8], P0p[8])
        last = jacobi.propagate(M, frames[16], P0[16], P0p[16])
        assert trajs[16].Q.tobytes() == last.Q.tobytes()

    def test_stack_rejects_few_steps_and_bad_shapes(self):
        M, frames, P0, P0p = atom_stack(positive_atom, 2)
        zero = np.zeros(2)
        with pytest.raises(ValueError):
            jacobi.propagate_atoms(M, frames, P0, P0p, zero, zero, steps=99)
        with pytest.raises(ValueError):
            jacobi.propagate_atoms(M, frames, P0[:, :2, :2], P0p[:, :2, :2],
                                   zero, zero)


@pytest.fixture(scope="module")
def annulus_transport():
    """Exact transport from a small flat disk to its annulus: the inputs
    of the pipeline's Jacobi stage."""
    M = geometry.euclidean(4)
    mesh = submanifold.build_submanifold(
        M, submanifold.FlatDisk(radius=1.0), 6)
    params = dict(sigma=0.6, r=6.0)
    dom = inequalities.build_target_domain(
        M, mesh, inequalities.ANNULUS, params, 200, 20240602)
    mu = transport.source_measure(mesh, constant_field(mesh, 1.0))
    nu = transport.target_measure(dom.points)
    C = transport.cost_matrix(M, mu, nu)
    cpl = transport.solve_exact(mu, nu, C)
    assert transport.certify_support(cpl).passed
    grad, _ = transport.potential_gradient_on_sigma(
        mesh, cpl.phi_cc, max_target_distance=float(np.sqrt(2.0 * C.max())))
    hess = submanifold.lsq_hessian(mesh, cpl.phi_cc)
    return params, M, mesh, cpl, grad, hess


def run_stage(inputs, atoms, monkeypatch, chunk):
    """The Jacobi stage on ``atoms`` atoms, JACOBI_CHUNK = ``chunk``;
    returns the report and the number of Riccati residuals evaluated."""
    params, M, mesh, cpl, grad, hess = inputs
    config = SimpleNamespace(jacobi_atoms=atoms, jacobi_steps=200,
                             domain_params=params)
    calls = []
    residual = jacobi.riccati_residual
    monkeypatch.setattr(jacobi, "riccati_residual",
                        lambda traj: calls.append(1) or residual(traj))
    monkeypatch.setattr(pipeline, "JACOBI_CHUNK", chunk)
    report = pipeline.RunReport("stage", 0, {})
    ctx = pipeline.RunContext(config, M, mesh, None, None, cpl, report)
    ctx.gradient, ctx.hess_phi = (grad, None), hess
    report.checks["jacobi"] = pipeline.CHECKS["jacobi"].run(ctx)
    return report, len(calls)


class TestChunkedStage:
    @pytest.mark.parametrize("atoms", [1, 16, 17, 33])
    def test_chunks_match_one_atom_at_a_time(self, annulus_transport,
                                             monkeypatch, atoms):
        """Chunk boundaries change nothing: the report equals that of
        propagating each atom alone, and every atom that is not singular
        has exactly one Riccati residual evaluated."""
        chunked, calls = run_stage(annulus_transport, atoms, monkeypatch,
                                   pipeline.JACOBI_CHUNK)
        alone, _ = run_stage(annulus_transport, atoms, monkeypatch, 1)
        rec = chunked.checks["jacobi"]
        assert rec == alone.checks["jacobi"]
        assert chunked.series == alone.series
        assert rec["atom_count"] == atoms and rec["passed"]
        assert calls == atoms - rec["singular_atoms"]

    def test_singular_atom_mid_chunk(self, annulus_transport, monkeypatch):
        """Atom 8 of 33 gets data whose det P changes sign: it is counted
        once as singular and the 32 others are still evaluated."""
        seen = []
        initial = jacobi.initial_conditions

        def conjugate_at_eighth(*args):
            P0, P0p = initial(*args)
            seen.append(1)
            if len(seen) == 9:
                P0p[0, 0] = -3.0     # P_11 = 1 - 3t crosses zero
            return P0, P0p

        monkeypatch.setattr(jacobi, "initial_conditions", conjugate_at_eighth)
        report, calls = run_stage(annulus_transport, 33, monkeypatch,
                                  pipeline.JACOBI_CHUNK)
        rec = report.checks["jacobi"]
        assert rec["singular_atoms"] == 1 and not rec["passed"]
        assert rec["flagged_atoms"] == 0
        assert calls == 32

    def test_every_atom_flagged_fails(self, annulus_transport, monkeypatch):
        """With no evaluated atom the stage fails, counts each flag by its
        reason and writes the comparison metrics as null."""
        def vanishing(*args, **kwargs):
            raise DenominatorVanishesError("envelope blows up")

        monkeypatch.setattr(jacobi, "comparison_profiles", vanishing)
        report, _ = run_stage(annulus_transport, 5, monkeypatch,
                              pipeline.JACOBI_CHUNK)
        rec = report.checks["jacobi"]
        assert not rec["passed"] and rec["evaluated_atoms"] == 0
        assert rec["flagged_atoms"] == 5
        assert rec["flagged_denominator_vanishes"] == 5
        assert rec["flagged_normalization_drift"] == 0
        assert rec["flagged_arg_out_of_domain"] == 0
        assert rec["trq1_excess_max"] is None
        assert rec["trq3_excess_max"] is None
        assert "jacobi_profile" not in report.series


def test_negative_curvature_leaves_nonneg_metrics_null():
    """On the K < 0 path the monotonicity, endpoint-bound and
    normalization sub-checks never run: their metrics are null, and the
    stage passes on the metrics that did run."""
    config = pipeline.ScenarioConfig.load(
        cli.bundled_scenario_path("hyperbolic_disk_r1.cfg"))
    config.resolution, config.domain_samples = 6, 150
    config.jacobi_atoms, config.jacobi_steps = 4, 100
    rec = pipeline.run_scenario(config).checks["jacobi"]
    for key in ("mono_worst_increase", "mono_failures", "bound_margin_min",
                "normalization_worst"):
        assert rec[key] is None, key
    assert rec["evaluated_atoms"] == rec["atom_count"] == 4
    assert rec["passed"] and rec["lap_margin_min"] is not None
