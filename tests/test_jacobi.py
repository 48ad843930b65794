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
    UnsupportedVariantError,
)
from otsobolev.fields import constant_field

from chart_checks import model_space


def sphere_frame(K=1.0, speed=0.5):
    M = model_space(geometry.SPHERE, 3, K)
    R = M.radius
    x = np.array([R, 0.0, 0.0, 0.0])
    v = np.array([0.0, speed, 0.0, 0.0])
    basis = np.eye(4)[1:]
    return M, geometry.build_parallel_frame(M, x, v, basis[:2], basis[2:],
                                            samples=5)


def hyperbolic_frame(K=-1.0, speed=0.5):
    M = model_space(geometry.HYPERBOLIC, 3, K)
    R = M.radius
    x = np.array([R, 0.0, 0.0, 0.0])
    v = np.array([0.0, speed, 0.0, 0.0])
    basis = np.eye(4)[1:]
    return M, geometry.build_parallel_frame(M, x, v, basis[:2], basis[2:],
                                            samples=5)


def propagate_one(M, frame, P0, P0p, lam=0.0):
    """``jacobi.propagate`` on a one-atom stack: the atom's trajectory,
    or None at a conjugate point."""
    (traj,) = jacobi.propagate(M, [frame], np.asarray(P0)[None],
                               np.asarray(P0p)[None], [lam])
    return traj


def nonincreasing(profile):
    """No step of ``profile`` rises by more than the pipeline's
    monotonicity tolerance of its first value."""
    return np.diff(profile).max() <= \
        pipeline.MONOTONICITY_TOL * abs(profile[0])


def euclidean_frame(dim=4, speed=0.5):
    M = model_space(geometry.EUCLIDEAN, dim)
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
        traj = propagate_one(M, frame, P0, P0p)
        for k in (0, 100, 400):
            t = traj.times[k]
            assert np.allclose(traj.P[k], P0 + t * P0p, atol=1e-12)
        assert jacobi.riccati_residual(traj) < 1e-8

    def test_sphere_cosine_solutions(self):
        s = 0.8
        M, frame = sphere_frame(K=1.0, speed=s)
        traj = propagate_one(M, frame, np.eye(3), np.zeros((3, 3)))
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
        traj = propagate_one(M, frame, np.zeros((3, 3)), np.eye(3))
        t = traj.times
        oracle = np.zeros((len(t), 3, 3))
        oracle[:, 0, 0] = t
        for i in (1, 2):
            oracle[:, i, i] = np.sin(s * t) / s
        assert np.abs(traj.P - oracle).max() < 1e-8

    def test_hyperbolic_sinh_solutions(self):
        s = 0.6
        M, frame = hyperbolic_frame(K=-1.0, speed=s)
        traj = propagate_one(M, frame, np.zeros((3, 3)), np.eye(3))
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
        traj = propagate_one(M, frame, np.eye(3), np.zeros((3, 3)))
        t = traj.times
        assert np.allclose(traj.P[:, 1, 1], np.cos(2 * s * t), atol=1e-8)


class TestStructuralChecks:
    def make_block_traj(self, p11=0.5, p22=0.5, lam=None):
        """Flat-space trajectory with the transport block structure."""
        M, frame = euclidean_frame()
        P0 = np.diag([1.0, 1.0, 0.0, 0.0])
        P0p = np.diag([p11, p22, 1.0, 1.0])
        if lam is None:
            lam = -(p11 + p22)
        return propagate_one(M, frame, P0, P0p, lam=lam)

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
        traj = propagate_one(M, frame, P0, P0p)
        _, limit = jacobi.normalization_limit(traj)
        assert abs(limit - 1.0) > pipeline.NORMALIZATION_TOL

    def test_monotone_profile_and_endpoint_bound(self):
        """Equality case: diagonal data with equal rates saturates the bound."""
        traj = self.make_block_traj(p11=-0.7, p22=-0.7)
        prof = jacobi.monotonicity_profile(traj)
        assert nonincreasing(prof)
        assert np.allclose(prof, prof[0], atol=1e-9)  # exact equality case
        _, limit = jacobi.normalization_limit(traj)
        assert abs(limit - 1.0) <= pipeline.NORMALIZATION_TOL
        bound, det1 = jacobi.jacobian_bound_check(traj)
        assert abs(det1 - bound) < 1e-9

    def test_strictly_decreasing_profile_when_rates_differ(self):
        traj = self.make_block_traj(p11=-0.9, p22=-0.1)
        prof = jacobi.monotonicity_profile(traj)
        assert nonincreasing(prof)
        assert prof[-1] < prof[0] - 1e-4
        _, limit = jacobi.normalization_limit(traj)
        assert abs(limit - 1.0) <= pipeline.NORMALIZATION_TOL
        bound, det1 = jacobi.jacobian_bound_check(traj)
        assert det1 < bound

    def test_hyperbolic_control_breaks_monotonicity(self):
        """Negative curvature violates the S >= 0 hypothesis: the profile
        must increase, and the check must say so."""
        s = 0.9
        M, frame = hyperbolic_frame(K=-1.0, speed=s)
        P0 = np.diag([1.0, 1.0, 0.0])
        P0p = np.diag([0.0, 0.0, 1.0])
        traj = propagate_one(M, frame, P0, P0p)
        prof = jacobi.monotonicity_profile(traj)
        assert not nonincreasing(prof)
        assert prof[-1] > prof[0]

    def test_conjugate_point_detected(self):
        # det P = cos(2t) sin(2t)/2 turns negative past t = pi/4
        M, frame = sphere_frame(K=1.0, speed=2.0)
        P0 = np.diag([1.0, 1.0, 0.0])
        P0p = np.diag([0.0, 0.0, 1.0])
        assert propagate_one(M, frame, P0, P0p) is None

    def test_non_symmetric_hessian_rejected(self):
        M = model_space(geometry.EUCLIDEAN, 4)
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
        traj = propagate_one(M, frame, np.diag([1.0, 1, 0, 0]),
                             np.diag([0.3, 0.3, 1, 1]))
        traj.S = traj.S + 0.5 * np.eye(4)
        assert jacobi.riccati_residual(traj) > 0.1


class TestComparisonProfiles:
    def test_positive_case_limits_to_nonneg(self):
        lam = -0.8
        non = jacobi.ComparisonProfile("nonneg", 2, 2, lam)
        pos = jacobi.ComparisonProfile("positive", 2, 2, lam,
                                       k1=1e-8, k2=1e-8, eps=1.0)
        t = np.linspace(0.05, 1.0, 40)
        assert np.allclose(pos.trq1_bound(t), non.trq1_bound(t), atol=1e-6)
        assert np.allclose(pos.trq3_bound(t), non.trq3_bound(t), rtol=1e-6)
        assert np.allclose(pos.det_envelope(t), non.det_envelope(t),
                           atol=1e-6)

    def test_negative_case_limits_to_nonneg(self):
        # lam = 0 keeps the artanh argument inside (-1, 1) as k -> 0
        lam = 0.0
        non = jacobi.ComparisonProfile("nonneg", 2, 2, lam)
        neg = jacobi.ComparisonProfile("negative", 2, 2, lam,
                                       k1=-1e-8, k2=-1e-8, r=1.0)
        t = np.linspace(0.05, 1.0, 40)
        assert np.allclose(neg.trq1_bound(t), non.trq1_bound(t), atol=1e-6)
        assert np.allclose(neg.det_envelope(t), non.det_envelope(t),
                           atol=1e-6)

    @staticmethod
    def endpoint_formula(prof):
        """det P(1) bound of each case: (1 - lam/n)^n, and the
        cos*sinc / cosh*sinh endpoint expressions."""
        n, m, lam = prof.n, prof.m, prof.lam
        if prof.case == "nonneg":
            return (1.0 - lam / n) ** n
        if prof.case == "positive":
            return (math.cos(prof.a1) - np.sinc(prof.a1 / math.pi) * lam / n
                    ) ** n * np.sinc(prof.a2 / math.pi) ** m
        return (math.cosh(prof.b1) - math.sinh(prof.b1)
                / (prof.r * n * math.sqrt(-prof.k1)) * lam
                ) ** n * (math.sinh(prof.b2) / prof.b2) ** m

    @pytest.mark.parametrize("case,kw", [
        ("nonneg", {}),
        ("positive", dict(k1=1.0, k2=1.0, eps=0.4)),
        ("negative", dict(k1=-1.0, k2=-1.0, r=0.7)),
    ])
    def test_endpoint_equals_envelope_at_one(self, case, kw):
        prof = jacobi.ComparisonProfile(case, 2, 2, -0.5, **kw)
        assert np.isclose(self.endpoint_formula(prof),
                          float(prof.det_envelope(np.array([1.0]))[0]),
                          atol=1e-12)

    def test_negative_case_domain_guard(self):
        with pytest.raises(ArgOutOfDomainError):
            jacobi.ComparisonProfile("negative", 2, 2, -5.0,
                                     k1=-1.0, k2=-1.0, r=0.5)

    def test_trace_comparison_on_model_trajectory(self):
        """Flat block trajectory sits under the nonneg envelopes."""
        M, frame = euclidean_frame()
        P0 = np.diag([1.0, 1.0, 0.0, 0.0])
        P0p = np.diag([0.4, 0.2, 1.0, 1.0])
        lam = -(0.4 + 0.2)
        traj = propagate_one(M, frame, P0, P0p, lam=lam)
        prof = jacobi.ComparisonProfile("nonneg", 2, 2, lam)
        trq1_excess, trq3_excess = jacobi.trace_comparison_check(traj, prof)
        tol = 1e-6 * traj.m / traj.times[jacobi.TRIM_SAMPLES]
        assert trq1_excess <= tol and trq3_excess <= tol
        assert jacobi.riccati_residual(traj) <= 1e-6


def rk4_reference(S, P0, P0p, steps):
    """One atom's classical RK4 on (d, d) matrices over ``steps`` equal
    steps of [0, 1]: the oracle of the closed-form kernel."""
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


def cond_mask(P):
    """The Q mask from one SVD per sample."""
    with np.errstate(all="ignore"):
        cond = np.linalg.cond(P)
    return np.isfinite(cond) & (cond < jacobi.COND_LIMIT)


def svd_counting(monkeypatch):
    """Patch ``np.linalg.cond`` to record how many samples it is given."""
    counts = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond",
                        lambda P: counts.append(len(P)) or cond(P))
    return counts


def with_singular_values(rng, sigma):
    """A random (d, d) matrix with the given singular values."""
    d = len(sigma)
    U, _ = np.linalg.qr(rng.standard_normal((d, d)))
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return U @ np.diag(sigma) @ V.T


class TestBatchedKernel:
    @pytest.mark.parametrize("make_frame",
                             [flat_atom, positive_atom, negative_atom])
    def test_stack_equals_single_atom_bitwise(self, make_frame):
        M, frames, P0, P0p = atom_stack(make_frame, 17)
        lam = np.linspace(-0.4, 0.4, 17)
        stacked = jacobi.propagate(M, frames, P0, P0p, lam)
        for a, traj in enumerate(stacked):
            single = propagate_one(M, frames[a], P0[a], P0p[a],
                                   lam=lam[a])
            for name in TRAJ_ARRAYS:
                assert getattr(traj, name).tobytes() == \
                    getattr(single, name).tobytes(), name
            assert (traj.lam, traj.n, traj.m) == (single.lam, 2, 1)
            # the closed form against RK4 on the same grid, to 1e-12 of
            # the largest entry: RK4's rounding over STEPS steps is most
            # of the difference (about 3e-14)
            P, Pp = rk4_reference(single.S, P0[a], P0p[a], jacobi.STEPS)
            for got, want in ((single.P, P), (single.Pp, Pp)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_trajectories_are_contiguous_views(self):
        M, frames, P0, P0p = atom_stack(positive_atom, 3)
        trajs = jacobi.propagate(M, frames, P0, P0p, np.zeros(3))
        for traj in trajs:
            assert traj.P.flags.c_contiguous and traj.P.base is not None
            assert traj.P.shape == (jacobi.STEPS + 1, 3, 3)

    def test_singular_atom_mid_stack(self):
        """A conjugate point in one atom leaves its neighbours alone."""
        M, frames, P0, P0p = atom_stack(positive_atom, 17)
        _, frames[8] = sphere_frame(K=1.0, speed=2.0)
        P0[8], P0p[8] = np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])
        trajs = jacobi.propagate(M, frames, P0, P0p, np.zeros(17))
        assert [a for a, t in enumerate(trajs) if t is None] == [8]
        assert propagate_one(M, frames[8], P0[8], P0p[8]) is None
        last = propagate_one(M, frames[16], P0[16], P0p[16])
        assert trajs[16].Q.tobytes() == last.Q.tobytes()

    def test_stack_rejects_bad_shapes(self):
        M, frames, P0, P0p = atom_stack(positive_atom, 2)
        with pytest.raises(ValueError):
            jacobi.propagate(M, frames, P0[:, :2, :2], P0p[:, :2, :2],
                             np.zeros(2))

    def test_curvature_off_the_model_form_raises(self):
        """A symmetric S that is not w^2 (I - Pi) has no closed form:
        the kernel refuses it instead of propagating it."""
        rng = np.random.default_rng(7)
        _, _, P0, P0p = atom_stack(positive_atom, 2)
        S = rng.standard_normal((2, 3, 3))
        with pytest.raises(UnsupportedVariantError):
            jacobi.closed_form_stack(S + S.transpose(0, 2, 1), P0, P0p)

    @pytest.mark.parametrize("name", ["flat_disk_annulus", "sphere_transport",
                                      "hyperbolic_disk_r1"])
    def test_equals_svd_mask_on_pipeline_stacks(self, monkeypatch, name):
        """The Q mask decided from det P equals the SVD's on the stacks of
        shrunk K = 0, K > 0 and K < 0 runs; only about one sample per
        atom, the singular P(0), needs an SVD."""
        config = pipeline.ScenarioConfig.load(
            cli.bundled_scenario_path(f"{name}.cfg"))
        config.resolution, config.domain_samples = 6, 150
        config.jacobi_atoms = 20
        stacks = []
        mask = jacobi.well_conditioned
        with monkeypatch.context() as m:
            m.setattr(jacobi, "well_conditioned",
                      lambda P, det_p: stacks.append((P, det_p))
                      or mask(P, det_p))
            pipeline.run_scenario(config)
        assert sum(len(P) for P, _ in stacks) == 20
        counts = svd_counting(monkeypatch)
        for P, det_p in stacks:
            got = mask(P, det_p)
            assert not got[:, 0].any() and got[:, 1:].all()
            assert got.tobytes() == cond_mask(P).tobytes()
        assert 20 <= sum(counts) <= 2 * 20

    def test_equals_svd_mask_on_planted_samples(self, monkeypatch):
        """Singular, near-singular and infinite samples planted among
        well-conditioned ones: each gets the SVD's mask bit, both sides
        of COND_LIMIT included, and each finite one goes to the SVD."""
        rng = np.random.default_rng(3)
        d = 4
        P = np.eye(d) + 0.1 * rng.standard_normal((3, 50, d, d))
        limit = jacobi.COND_LIMIT
        planted = {
            (0, 0): np.diag([1.0, 1.0, 0.0, 0.0]),      # P(0)
            (0, 7): with_singular_values(rng, [1, 1, 1, 1e-13]),
            (1, 9): with_singular_values(rng, [1, 1, 1, 1e-11]),
            (1, 20): with_singular_values(rng, [1, 1, 1, 0.99 / limit]),
            (2, 30): with_singular_values(rng, [1, 1, 1, 1.01 / limit]),
            (2, 41): np.where(np.eye(d) > 0, np.inf, P[2, 41]),
        }
        for (a, t), value in planted.items():
            P[a, t] = value
        want = cond_mask(P)
        assert [bool(want[k]) for k in planted] == \
            [False, False, True, False, True, False]
        assert want.sum() == P.shape[0] * P.shape[1] - 4
        counts = svd_counting(monkeypatch)
        with np.errstate(invalid="ignore"):
            got = jacobi.well_conditioned(P, np.linalg.det(P))
        assert got.tobytes() == want.tobytes()
        assert sum(counts) == len(planted) - 1   # not the infinite one

    def test_non_finite_samples_are_not_ok_without_svd(self, monkeypatch):
        """NaN and infinite samples are masked out without the SVD, which
        raises on NaN; a singular sample beside them still goes to it."""
        P = np.tile(np.eye(3), (2, 5, 1, 1))
        P[1, 3, 0, 2] = np.nan
        P[0, 2, 1, 1] = np.inf
        P[1, 0] = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(np.linalg.LinAlgError):
            cond_mask(P)
        counts = svd_counting(monkeypatch)
        with np.errstate(invalid="ignore"):
            got = jacobi.well_conditioned(P, np.linalg.det(P))
        want = np.ones((2, 5), dtype=bool)
        want[1, 3] = want[0, 2] = want[1, 0] = False
        assert got.tobytes() == want.tobytes()
        assert counts == [1]

    def test_nan_on_the_window_is_singular(self, monkeypatch):
        """An atom whose P turns NaN inside the trimmed window comes back
        as None, like a det sign change, and its neighbours are the ones
        the stack gives without it."""
        M, frames, P0, P0p = atom_stack(positive_atom, 17)
        zero = np.zeros(17)
        clean = jacobi.propagate(M, frames, P0, P0p, zero)
        kernel = jacobi.closed_form_stack

        def nan_in(atom):
            def planted(*args):
                P, Pp = kernel(*args)
                P[atom, 150, 0, 1] = np.nan
                return P, Pp
            return planted

        monkeypatch.setattr(jacobi, "closed_form_stack", nan_in(8))
        with np.errstate(invalid="ignore"):
            trajs = jacobi.propagate(M, frames, P0, P0p, zero)
        assert [a for a, t in enumerate(trajs) if t is None] == [8]
        for a in (0, 7, 9, 16):
            for name in TRAJ_ARRAYS:
                assert getattr(trajs[a], name).tobytes() == \
                    getattr(clean[a], name).tobytes(), name
        monkeypatch.setattr(jacobi, "closed_form_stack", nan_in(0))
        with np.errstate(invalid="ignore"):
            assert propagate_one(M, frames[8], P0[8], P0p[8]) \
                is None


@pytest.fixture(scope="module")
def annulus_transport():
    """Exact transport from a small flat disk to its annulus: the inputs
    of the pipeline's Jacobi stage."""
    M = model_space(geometry.EUCLIDEAN, 4)
    mesh = submanifold.build_submanifold(
        M, submanifold.FlatDisk(radius=1.0), 6)
    params = dict(sigma=0.6, r=6.0)
    dom = inequalities.build_target_domain(
        M, mesh, inequalities.ANNULUS, params, 200, 20240602)
    mu = transport.source_measure(mesh, constant_field(mesh, 1.0))
    nu = transport.target_measure(dom.points)
    C = transport.cost_matrix(M, mu, nu)
    cpl = transport.solve_exact(mu, nu, C)
    cert = transport.certify_support(cpl)
    assert cert.worst_violation <= 1e-8
    grad, _ = transport.potential_gradient_on_sigma(
        mesh, cert.phi_cc, max_target_distance=float(np.sqrt(2.0 * C.max())))
    hess = submanifold.lsq_hessian(mesh, cert.phi_cc)
    return params, M, mesh, cpl, grad, hess


def run_stage(inputs, atoms, monkeypatch, chunk):
    """The Jacobi stage on ``atoms`` atoms, JACOBI_CHUNK = ``chunk``;
    returns the report and the number of Riccati residuals evaluated."""
    params, M, mesh, cpl, grad, hess = inputs
    config = SimpleNamespace(jacobi_atoms=atoms, domain_params=params)
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

    def test_nan_atom_mid_chunk(self, annulus_transport, monkeypatch):
        """Atom 8 of 33 gets NaN initial data: the stage counts it once as
        singular instead of dying in the SVD, and evaluates the 32 others."""
        seen = []
        initial = jacobi.initial_conditions

        def nan_at_eighth(*args):
            P0, P0p = initial(*args)
            seen.append(1)
            if len(seen) == 9:
                P0p[0, 0] = np.nan
            return P0, P0p

        monkeypatch.setattr(jacobi, "initial_conditions", nan_at_eighth)
        with np.errstate(invalid="ignore"):
            report, calls = run_stage(annulus_transport, 33, monkeypatch,
                                      pipeline.JACOBI_CHUNK)
        rec = report.checks["jacobi"]
        assert rec["singular_atoms"] == 1 and not rec["passed"]
        assert rec["flagged_atoms"] == 0
        assert calls == 32

    # -0.05 n at n = 2, the slack of the gate, and the next float below
    @pytest.mark.parametrize("margin, passed", [
        (-0.05 * 2, True), (math.nextafter(-0.05 * 2, -math.inf), False)])
    def test_lap_margin_at_its_bound(self, annulus_transport, monkeypatch,
                                     margin, passed):
        """The gate on the worst margin n - delta_phi - <H, v>: a run
        whose one atom passes every other sub-check passes exactly at
        -LAP_SLACK_FACTOR * n and fails at the next float below."""
        atom = pipeline._jacobi_atom

        def planted(ctx, traj, K, stats):
            atom(ctx, traj, K, stats)
            stats["lap_margin_min"] = margin

        monkeypatch.setattr(pipeline, "_jacobi_atom", planted)
        report, _ = run_stage(annulus_transport, 1, monkeypatch,
                              pipeline.JACOBI_CHUNK)
        rec = report.checks["jacobi"]
        assert rec["lap_margin_min"] == margin
        assert rec["passed"] is passed

    def test_every_atom_flagged_fails(self, annulus_transport, monkeypatch):
        """With no evaluated atom the stage fails, counts each flag by its
        reason and writes the comparison metrics as null."""
        def vanishing(*args, **kwargs):
            raise DenominatorVanishesError("envelope blows up")

        monkeypatch.setattr(jacobi, "ComparisonProfile", vanishing)
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
    config.jacobi_atoms = 4
    rec = pipeline.run_scenario(config).checks["jacobi"]
    for key in ("mono_worst_increase", "mono_failures", "bound_margin_min",
                "normalization_worst"):
        assert rec[key] is None, key
    assert rec["evaluated_atoms"] == rec["atom_count"] == 4
    assert rec["passed"] and rec["lap_margin_min"] is not None
