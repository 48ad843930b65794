"""Jacobi/Riccati propagation: closed-form oracles, profiles, envelopes,
and the per-atom reference that the stacked measurements equal."""

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest

from otsobolev import (cli, geometry, inequalities, jacobi, pipeline,
                       submanifold, transport)
from otsobolev.errors import NonSymmetricHessianError, UnsupportedVariantError
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
    """``jacobi.propagate`` on a one-atom stack."""
    return jacobi.propagate(M, [frame], np.asarray(P0)[None],
                            np.asarray(P0p)[None], [lam])


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
        rec = propagate_one(M, frame, P0, P0p)
        for k in (0, 100, 400):
            t = jacobi.TIMES[k]
            assert np.allclose(rec.P[0, k], P0 + t * P0p, atol=1e-12)
        assert jacobi.riccati_residual(rec)[0] < 1e-8

    def test_sphere_cosine_solutions(self):
        s = 0.8
        M, frame = sphere_frame(K=1.0, speed=s)
        rec = propagate_one(M, frame, np.eye(3), np.zeros((3, 3)))
        t = jacobi.TIMES
        # direction along the velocity is flat; others oscillate at rate s
        oracle = np.zeros((len(t), 3, 3))
        oracle[:, 0, 0] = 1.0
        for i in (1, 2):
            oracle[:, i, i] = np.cos(s * t)
        assert np.abs(rec.P[0] - oracle).max() < 1e-8

    def test_sphere_sine_solutions(self):
        s = 0.8
        M, frame = sphere_frame(K=1.0, speed=s)
        rec = propagate_one(M, frame, np.zeros((3, 3)), np.eye(3))
        t = jacobi.TIMES
        oracle = np.zeros((len(t), 3, 3))
        oracle[:, 0, 0] = t
        for i in (1, 2):
            oracle[:, i, i] = np.sin(s * t) / s
        assert np.abs(rec.P[0] - oracle).max() < 1e-8

    def test_hyperbolic_sinh_solutions(self):
        s = 0.6
        M, frame = hyperbolic_frame(K=-1.0, speed=s)
        rec = propagate_one(M, frame, np.zeros((3, 3)), np.eye(3))
        t = jacobi.TIMES
        oracle = np.zeros((len(t), 3, 3))
        oracle[:, 0, 0] = t
        for i in (1, 2):
            oracle[:, i, i] = np.sinh(s * t) / s
        assert np.abs(rec.P[0] - oracle).max() < 1e-8
        assert jacobi.riccati_residual(rec)[0] < 1e-6

    def test_curvature_scaling(self):
        """K = 4 doubles the oscillation rate of the K = 1 solution."""
        s = 0.5
        M, frame = sphere_frame(K=4.0, speed=s)
        rec = propagate_one(M, frame, np.eye(3), np.zeros((3, 3)))
        t = jacobi.TIMES
        assert np.allclose(rec.P[0, :, 1, 1], np.cos(2 * s * t), atol=1e-8)


class TestStructuralChecks:
    def make_block_traj(self, p11=0.5, p22=0.5, lam=None):
        """Flat-space one-atom stack with the transport block structure."""
        M, frame = euclidean_frame()
        P0 = np.diag([1.0, 1.0, 0.0, 0.0])
        P0p = np.diag([p11, p22, 1.0, 1.0])
        if lam is None:
            lam = -(p11 + p22)
        return propagate_one(M, frame, P0, P0p, lam=lam)

    def test_block_determinant_identity(self):
        """det P(1) = (1 + p11)(1 + p22) for flat diagonal data."""
        rec = self.make_block_traj(p11=1.0, p22=1.0)
        assert abs(rec.det_p[0, -1] - 4.0) < 1e-9

    def test_symmetry_residuals_vanish(self):
        rec = self.make_block_traj()
        assert jacobi.symmetry_residual(rec)[0] < 1e-12
        assert jacobi.q_symmetry_residual(rec)[0] < 1e-9

    def test_normalization_limit(self):
        rec = self.make_block_traj()
        (limit,) = jacobi.normalization_limit(rec)
        assert abs(limit - 1.0) < 1e-6

    def test_normalization_drift_detected(self):
        M, frame = euclidean_frame()
        P0 = np.diag([1.0, 1.0, 0.0, 0.0])
        P0p = np.diag([0.5, 0.5, 2.0, 1.0])   # wrong normal-block scale
        rec = propagate_one(M, frame, P0, P0p)
        (limit,) = jacobi.normalization_limit(rec)
        assert abs(limit - 1.0) > pipeline.NORMALIZATION_TOL

    def test_monotone_profile_and_endpoint_bound(self):
        """Equality case: diagonal data with equal rates saturates the bound."""
        rec = self.make_block_traj(p11=-0.7, p22=-0.7)
        (prof,) = jacobi.monotonicity_profile(rec)
        assert nonincreasing(prof)
        assert np.allclose(prof, prof[0], atol=1e-9)  # exact equality case
        (limit,) = jacobi.normalization_limit(rec)
        assert abs(limit - 1.0) <= pipeline.NORMALIZATION_TOL
        bound, det1 = jacobi.jacobian_bound_check(rec)
        assert abs(det1[0] - bound[0]) < 1e-9

    def test_strictly_decreasing_profile_when_rates_differ(self):
        rec = self.make_block_traj(p11=-0.9, p22=-0.1)
        (prof,) = jacobi.monotonicity_profile(rec)
        assert nonincreasing(prof)
        assert prof[-1] < prof[0] - 1e-4
        (limit,) = jacobi.normalization_limit(rec)
        assert abs(limit - 1.0) <= pipeline.NORMALIZATION_TOL
        bound, det1 = jacobi.jacobian_bound_check(rec)
        assert det1[0] < bound[0]

    def test_hyperbolic_control_breaks_monotonicity(self):
        """Negative curvature violates the S >= 0 hypothesis: the profile
        must increase, and the check must say so."""
        s = 0.9
        M, frame = hyperbolic_frame(K=-1.0, speed=s)
        P0 = np.diag([1.0, 1.0, 0.0])
        P0p = np.diag([0.0, 0.0, 1.0])
        (prof,) = jacobi.monotonicity_profile(propagate_one(M, frame, P0, P0p))
        assert not nonincreasing(prof)
        assert prof[-1] > prof[0]

    def test_conjugate_point_detected(self):
        # det P = cos(2t) sin(2t)/2 turns negative past t = pi/4
        M, frame = sphere_frame(K=1.0, speed=2.0)
        P0 = np.diag([1.0, 1.0, 0.0])
        P0p = np.diag([0.0, 0.0, 1.0])
        assert propagate_one(M, frame, P0, P0p).singular.tolist() == [True]

    def test_empty_window_is_singular(self):
        """P = diag(1 + 1e13 t, 1, t, t) keeps det P > 0, but cond P stays
        above COND_LIMIT on the whole trimmed window, so Q is defined on
        none of it: the atom is singular, not passed unchecked."""
        M, frame = euclidean_frame()
        rec = propagate_one(M, frame, np.diag([1.0, 1.0, 0.0, 0.0]),
                            np.diag([1e13, 0.0, 1.0, 1.0]))
        assert (rec.det_p[0, jacobi.TRIM_SAMPLES:] > 0).all()
        assert not rec.q_defined[0, jacobi.TRIM_SAMPLES:].any()
        assert rec.singular.tolist() == [True]

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
            (d2,) = jacobi.second_derivative(np.sin(3 * t)[None], t[1] - t[0])
            err = np.abs(d2 + 9 * np.sin(3 * t))
            errs_in.append(float(err[5:-5].max()))
            errs_edge.append(float(err.max()))
        assert errs_in[1] < errs_in[0] / 12.0    # 4th order: ~16x per halving
        assert errs_edge[1] < errs_edge[0] / 6.0  # one-sided edges: >= 3rd

    def test_riccati_residual_flags_wrong_curvature(self):
        """A trajectory propagated with S = 0 fails the Riccati identity
        when its stored S is falsified."""
        M, frame = euclidean_frame()
        rec = propagate_one(M, frame, np.diag([1.0, 1, 0, 0]),
                            np.diag([0.3, 0.3, 1, 1]))
        rec.S = rec.S + 0.5 * np.eye(4)
        assert jacobi.riccati_residual(rec)[0] > 0.1


class TestComparisonProfiles:
    def test_positive_case_limits_to_nonneg(self):
        lam = [-0.8]
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
        lam = [0.0]
        non = jacobi.ComparisonProfile("nonneg", 2, 2, lam)
        neg = jacobi.ComparisonProfile("negative", 2, 2, lam,
                                       k1=-1e-8, k2=-1e-8, r=1.0)
        t = np.linspace(0.05, 1.0, 40)
        assert np.allclose(neg.trq1_bound(t), non.trq1_bound(t), atol=1e-6)
        assert np.allclose(neg.det_envelope(t), non.det_envelope(t),
                           atol=1e-6)

    @staticmethod
    def endpoint_formula(prof):
        """det P(1) bound of each case for a one-atom profile:
        (1 - lam/n)^n, and the cos*sinc / cosh*sinh endpoint
        expressions."""
        n, m, (lam,) = prof.n, prof.m, prof.lam
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
        prof = jacobi.ComparisonProfile(case, 2, 2, [-0.5], **kw)
        assert np.isclose(self.endpoint_formula(prof),
                          float(prof.det_envelope(np.array([1.0]))[0, 0]),
                          atol=1e-12)

    def test_negative_case_domain_guard(self):
        """The artanh argument -lam / (r n sqrt(-k1)) leaves (-1, 1) at
        |lam| = 1 here: exactly there the atom is out of the domain."""
        prof = jacobi.ComparisonProfile(
            "negative", 2, 2, [-5.0, -1.0, math.nextafter(-1.0, 0.0), 0.3],
            k1=-1.0, k2=-1.0, r=0.5)
        assert prof.out_of_domain.tolist() == [True, True, False, False]
        assert np.isnan(prof.A[:2]).all() and np.isfinite(prof.A[2:]).all()

    def test_nonneg_domain_is_decided_at_the_endpoint(self):
        """1 - t lam / n vanishes somewhere on the trimmed window exactly
        when it does at t = 1, on both sides of lam = n."""
        n = 2
        lam = np.array([n, math.nextafter(n, 0.0), math.nextafter(n, 3.0),
                        -3.0, 0.0, 1.7])
        prof = jacobi.ComparisonProfile("nonneg", n, 2, lam)
        t = jacobi.TIMES[jacobi.TRIM_SAMPLES:]
        anywhere = np.any(1.0 - t * lam[:, None] / n <= 0, axis=1)
        assert prof.out_of_domain.tolist() == anywhere.tolist() == [
            True, False, True, False, False, False]

    def test_trace_comparison_on_model_trajectory(self):
        """Flat block trajectory sits under the nonneg envelopes."""
        M, frame = euclidean_frame()
        P0 = np.diag([1.0, 1.0, 0.0, 0.0])
        P0p = np.diag([0.4, 0.2, 1.0, 1.0])
        lam = -(0.4 + 0.2)
        rec = propagate_one(M, frame, P0, P0p, lam=lam)
        prof = jacobi.ComparisonProfile("nonneg", 2, 2, rec.lam)
        (trq1_excess,), (trq3_excess,) = jacobi.trace_comparison_check(
            rec, prof)
        tol = 1e-6 * rec.m / jacobi.TIMES[jacobi.TRIM_SAMPLES]
        assert trq1_excess <= tol and trq3_excess <= tol
        assert jacobi.riccati_residual(rec)[0] <= 1e-6


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


STACK_ARRAYS = ("P", "Pp", "S", "det_p", "Q", "q_defined", "lam",
                "singular")


def atom_arrays(rec, a):
    """Atom ``a``'s slice of each per-atom array of a stack, its traces
    included."""
    trq1, trq3 = rec.traces
    return {**{name: getattr(rec, name)[a] for name in STACK_ARRAYS},
            "trq1": trq1[a], "trq3": trq3[a]}


def assert_same_atoms(rec, a, other, b):
    """Atom ``a`` of ``rec`` is bitwise atom ``b`` of ``other``."""
    mine, theirs = atom_arrays(rec, a), atom_arrays(other, b)
    for name, value in mine.items():
        assert np.asarray(value).tobytes() == \
            np.asarray(theirs[name]).tobytes(), name


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
        assert (stacked.n, stacked.m) == (2, 1)
        for a in range(17):
            single = propagate_one(M, frames[a], P0[a], P0p[a],
                                   lam=lam[a])
            assert_same_atoms(stacked, a, single, 0)
            # the closed form against RK4 on the same grid, to 1e-12 of
            # the largest entry: RK4's rounding over STEPS steps is most
            # of the difference (about 3e-14)
            P, Pp = rk4_reference(single.S[0], P0[a], P0p[a], jacobi.STEPS)
            for got, want in ((single.P[0], P), (single.Pp[0], Pp)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_stack_shapes(self):
        M, frames, P0, P0p = atom_stack(positive_atom, 3)
        rec = jacobi.propagate(M, frames, P0, P0p, np.zeros(3))
        T = jacobi.STEPS + 1
        for name in ("P", "Pp", "Q"):
            assert getattr(rec, name).shape == (3, T, 3, 3), name
        assert rec.det_p.shape == rec.q_defined.shape == (3, T)
        assert rec.S.shape == (3, 3, 3)
        assert rec.lam.shape == rec.singular.shape == (3,)
        assert all(tr.shape == (3, T) for tr in rec.traces)

    def test_singular_atom_mid_stack(self):
        """A conjugate point in one atom leaves its neighbours alone."""
        M, frames, P0, P0p = atom_stack(positive_atom, 17)
        _, frames[8] = sphere_frame(K=1.0, speed=2.0)
        P0[8], P0p[8] = np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])
        rec = jacobi.propagate(M, frames, P0, P0p, np.zeros(17))
        assert np.flatnonzero(rec.singular).tolist() == [8]
        assert propagate_one(M, frames[8], P0[8], P0p[8]).singular[0]
        last = propagate_one(M, frames[16], P0[16], P0p[16])
        assert rec.Q[16].tobytes() == last.Q[0].tobytes()

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
        """An atom whose P turns NaN inside the trimmed window is
        singular, like a det sign change, and its neighbours are the ones
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
            rec = jacobi.propagate(M, frames, P0, P0p, zero)
        assert np.flatnonzero(rec.singular).tolist() == [8]
        for a in (0, 7, 9, 16):
            assert_same_atoms(rec, a, clean, a)
        monkeypatch.setattr(jacobi, "closed_form_stack", nan_in(0))
        with np.errstate(invalid="ignore"):
            assert propagate_one(M, frames[8], P0[8], P0p[8]).singular[0]




# ---------------------------------------------------------------------------
# per-atom reference: the measurement code and the running fold of the
# Jacobi stage as they were before the stage was stacked, one atom at a
# time, kept as the oracle of the stacked functions


TRIM = jacobi.TRIM_SAMPLES


class DenominatorVanishes(Exception):
    """1 - t lam / n vanishes on the trimmed window."""


class ArgOutOfDomain(Exception):
    """An envelope argument leaves the domain of arctan/artanh."""


@dataclass
class Trajectory:
    times: np.ndarray          # (T,)
    P: np.ndarray              # (T, d, d)
    Pp: np.ndarray             # (T, d, d)
    n: int
    m: int
    lam: float
    S: np.ndarray              # (d, d)
    det_p: np.ndarray          # (T,)
    Q: np.ndarray              # (T, d, d), nan where undefined
    q_defined: np.ndarray      # (T,) bool
    trq1: np.ndarray = field(init=False)
    trq3: np.ndarray = field(init=False)

    def __post_init__(self):
        self.trq1 = np.einsum("tii->t", self.Q[:, :self.n, :self.n])
        self.trq3 = np.einsum("tii->t", self.Q[:, self.n:, self.n:])

    @property
    def window(self):
        ok = self.q_defined.copy()
        ok[:TRIM] = False
        return ok

    def symmetry_residual(self):
        A = np.einsum("tij,tkj->tik", self.Pp, self.P)
        return float(np.abs(A - A.transpose(0, 2, 1)).max())

    def q_symmetry_residual(self):
        Q = self.Q[self.q_defined]
        if len(Q) == 0:
            return 0.0
        return float(np.abs(Q - Q.transpose(0, 2, 1)).max())


def trajectory(rec, a):
    """Atom ``a`` of a stack as one trajectory: views of the stacked
    arrays, and lam as a Python float."""
    return Trajectory(jacobi.TIMES, rec.P[a], rec.Pp[a], rec.n, rec.m,
                      float(rec.lam[a]), rec.S[a], rec.det_p[a], rec.Q[a],
                      rec.q_defined[a])


def ref_second_derivative(values, dt):
    values = np.asarray(values, dtype=float)
    T = values.shape[0]
    half = jacobi.STENCIL // 2
    out = np.empty_like(values)
    weights = jacobi._second_derivative_weights(dt)
    interior = weights[-half]
    mid = np.zeros_like(values[half:T - half])
    for k in range(jacobi.STENCIL):
        mid += interior[k] * values[k:T - jacobi.STENCIL + 1 + k]
    out[half:T - half] = mid
    for j in list(range(half)) + list(range(T - half, T)):
        lo = min(max(j - half, 0), T - jacobi.STENCIL)
        w = weights[lo - j]
        out[j] = np.tensordot(w, values[lo:lo + jacobi.STENCIL], axes=(0, 0))
    return out


def ref_riccati_residual(traj):
    """Raises ValueError on an empty window (a zero-size max)."""
    Ppp = ref_second_derivative(traj.P, traj.times[1] - traj.times[0])
    ok = traj.window
    q2 = np.einsum("tij,tjk->tik", traj.Q[ok], traj.Q[ok])
    res = np.linalg.solve(traj.P[ok], Ppp[ok]) - q2 + traj.S[None] + q2
    return float(np.abs(res).max())


def ref_singular(rec, a):
    """A det sign change or a non-finite P on the trimmed window, or an
    empty window, on which the reference's Riccati residual raises."""
    if np.any(rec.det_p[a, TRIM:] <= 0) \
            or not np.isfinite(rec.P[a, TRIM:]).all():
        return True
    try:
        ref_riccati_residual(trajectory(rec, a))
    except ValueError:
        return True
    return False


def ref_monotonicity_profile(traj):
    t = traj.times[TRIM:]
    denom = 1.0 - t * traj.lam / traj.n
    if np.any(denom <= 0):
        raise DenominatorVanishes
    return t**(-traj.m) * denom**(-traj.n) * traj.det_p[TRIM:]


def ref_normalization_limit(traj):
    idx = np.array([1, 2, 4]) * TRIM
    z1, z2, z4 = traj.times[idx] ** (-traj.m) * traj.det_p[idx]
    return float((8.0 * z1 - 6.0 * z2 + z4) / 3.0)


def ref_jacobian_bound_check(traj):
    bound = (1.0 - traj.lam / traj.n) ** traj.n
    return float(bound), float(traj.det_p[-1])


@dataclass
class RefProfile:
    case: str
    n: int
    m: int
    lam: float
    k1: float = 0.0
    k2: float = 0.0
    eps: float = 0.0
    r: float = 0.0

    def __post_init__(self):
        n, m, lam = self.n, self.m, self.lam
        if self.case == "positive":
            self.a1 = self.eps * math.sqrt(self.k1 * (n - 1) / n)
            self.a2 = self.eps * math.sqrt(self.k2 * (m - 1) / m) \
                if m > 1 else 0.0
            self.A = math.atan(
                -lam / (self.eps * math.sqrt(self.k1 * n * (n - 1))))
            if self.a2 >= math.pi or self.A - self.a1 <= -math.pi / 2:
                raise ArgOutOfDomain
        elif self.case == "negative":
            self.b1 = self.r * math.sqrt(-self.k1)
            self.b2 = self.r * math.sqrt(-self.k2)
            arg = -lam / (self.r * n * math.sqrt(-self.k1))
            if abs(arg) >= 1.0:
                raise ArgOutOfDomain
            self.A = math.atanh(arg)

    def trq1_bound(self, t):
        n, lam = self.n, self.lam
        if self.case == "nonneg":
            denom = 1.0 - t * lam / n
            if np.any(denom <= 0):
                raise DenominatorVanishes
            return -lam / denom
        if self.case == "positive":
            g1 = -t * self.a1 + self.A
            if np.any(np.abs(g1) >= math.pi / 2):
                raise ArgOutOfDomain
            return n * self.a1 * np.tan(g1)
        return n * self.b1 * np.tanh(t * self.b1 + self.A)

    def trq3_bound(self, t):
        m = self.m
        if self.case == "nonneg" or self.case == "positive" \
                and self.a2 == 0.0:
            return m / t
        if self.case == "positive":
            return m * self.a2 / np.tan(self.a2 * t)
        return m * self.b2 / np.tanh(self.b2 * t)

    def det_envelope(self, t):
        n, m, lam = self.n, self.m, self.lam
        if self.case == "nonneg":
            return t**m * (1.0 - t * lam / n) ** n
        if self.case == "positive":
            g1 = -t * self.a1 + self.A
            radial = np.sinc(self.a2 * t / math.pi) ** m if self.a2 > 0 \
                else np.ones_like(t)
            return (np.cos(g1) / math.cos(self.A)) ** n * t**m * radial
        g1 = t * self.b1 + self.A
        radial = np.ones_like(t) if self.b2 == 0 else \
            (np.sinh(self.b2 * t) / (self.b2 * t)) ** m
        return (np.cosh(g1) / math.cosh(self.A)) ** n * t**m * radial


def ref_trace_comparison_check(traj, profile):
    ok = traj.window
    t = traj.times[ok]
    e1 = traj.trq1[ok] - profile.trq1_bound(t)
    e3 = traj.trq3[ok] - profile.trq3_bound(t)
    return float(e1.max()), float(e3.max())


REF_FLAGS = {DenominatorVanishes: "flagged_denominator_vanishes",
             ArgOutOfDomain: "flagged_arg_out_of_domain"}


def ref_fold(stats, **values):
    for key, value in values.items():
        prev = stats[key]
        stats[key] = value if prev is None else (
            min if key.endswith("_min") else max)(prev, value)


def ref_flag(stats, key):
    stats["flagged_atoms"] += 1
    stats[key] += 1


def ref_atom(traj, K, r, stats, series):
    """One atom's sub-checks, folded into ``stats``; the first evaluated
    atom writes ``series``."""
    ref_fold(stats, sym_residual_max=traj.symmetry_residual(),
             q_sym_residual_max=traj.q_symmetry_residual(),
             riccati_residual_max=ref_riccati_residual(traj),
             lap_margin_min=float(traj.n - traj.lam))
    try:
        if K >= 0.0:
            det_profile = ref_monotonicity_profile(traj)
            scale = abs(det_profile[0])
            worst = float(np.diff(det_profile).max())
            ref_fold(stats, mono_worst_increase=max(0.0, worst / scale))
            stats["mono_failures"] = (stats["mono_failures"] or 0) + (
                not worst <= pipeline.MONOTONICITY_TOL * scale)
            limit = ref_normalization_limit(traj)
            drift = abs(limit - 1.0)
            if drift > pipeline.NORMALIZATION_TOL:
                ref_flag(stats, "flagged_normalization_drift")
                return
            bound, det1 = ref_jacobian_bound_check(traj)
            ref_fold(stats, bound_margin_min=bound
                     + pipeline.BOUND_SLACK_FACTOR * abs(bound) - det1,
                     normalization_worst=drift)
            profile = RefProfile("nonneg", traj.n, traj.m, traj.lam)
        else:
            profile = RefProfile("negative", traj.n, traj.m, traj.lam,
                                 k1=K, k2=K, r=r)
        trq1_excess, trq3_excess = ref_trace_comparison_check(traj, profile)
    except tuple(REF_FLAGS) as exc:
        ref_flag(stats, REF_FLAGS[type(exc)])
        return
    stats["evaluated_atoms"] += 1
    ref_fold(stats, trq1_excess_max=trq1_excess, trq3_excess_max=trq3_excess)
    if not series:
        t = traj.times[TRIM:]
        series.update(
            t=t.tolist(), det_p=traj.det_p[TRIM:].tolist(),
            det_envelope=np.asarray(profile.det_envelope(t)).tolist(),
            trq1=traj.trq1[TRIM:].tolist(),
            trq1_bound=np.asarray(profile.trq1_bound(t)).tolist(),
            trq3=traj.trq3[TRIM:].tolist(),
            trq3_bound=np.asarray(profile.trq3_bound(t)).tolist())


def ref_stage(recs, K, r):
    """The Jacobi record and plot series of the per-atom fold over the
    stacks ``recs`` of one run."""
    stats = {"atom_count": sum(len(rec.lam) for rec in recs),
             "evaluated_atoms": 0, "singular_atoms": 0, "flagged_atoms": 0,
             **dict.fromkeys(pipeline.FLAG_KEYS, 0),
             **dict.fromkeys((
                 "sym_residual_max", "q_sym_residual_max",
                 "riccati_residual_max", "lap_margin_min",
                 "mono_worst_increase", "mono_failures", "bound_margin_min",
                 "normalization_worst", "trq1_excess_max",
                 "trq3_excess_max"))}
    series = {}
    for rec in recs:
        for a in range(len(rec.lam)):
            if ref_singular(rec, a):
                stats["singular_atoms"] += 1
            else:
                ref_atom(trajectory(rec, a), K, r, stats, series)
    passed = (stats["evaluated_atoms"] >= 1
              and stats["sym_residual_max"] <= 1e-8
              and stats["riccati_residual_max"] <= 1e-6
              and not stats["mono_failures"]
              and stats["singular_atoms"] == 0
              and (stats["bound_margin_min"] is None
                   or stats["bound_margin_min"] >= 0.0)
              and stats["lap_margin_min"]
              >= -pipeline.LAP_SLACK_FACTOR * recs[0].n)
    return {"passed": bool(passed), **stats}, series


def plant_reasons(P0, P0p, lam, n):
    """Atoms 3-7 of a chunk made singular twice and flagged for each
    reason: 3 gets P_11 = 1 - 3t, whose det P changes sign; 4 gets
    P0' = diag(1e13, 0, 1, ...), with det P > 0 but Q defined nowhere on
    the window; 5 gets lam = 2.5 > n (the nonneg denominator vanishes;
    the artanh argument is out of (-1, 1) at r <= 1); 6 a normal block of
    P0' doubled (normalization drift); 7 lam = -2.5 (the artanh argument
    again)."""
    P0, P0p, lam = P0.copy(), P0p.copy(), np.array(lam, dtype=float)
    d = P0.shape[1]
    P0p[3, 0, 0] = -3.0
    P0[4] = np.diag([1.0] * n + [0.0] * (d - n))
    P0p[4] = np.diag([1e13] + [0.0] * (n - 1) + [1.0] * (d - n))
    lam[5], lam[7] = 2.5, -2.5
    P0p[6, n:, n:] *= 2.0
    return P0, P0p, lam


PLANTED_RUNS = {"flat_disk_annulus": 0.0, "sphere_transport": 1.0,
                "hyperbolic_disk_r1": -1.0}


@pytest.fixture(scope="module", params=list(PLANTED_RUNS))
def planted_run(request):
    """A shrunk bundled run at 20 atoms, whose first chunk holds the atoms
    of ``plant_reasons``: its Jacobi record and series, the curvature,
    the domain radius, and every stack the stage propagated."""
    config = pipeline.ScenarioConfig.load(
        cli.bundled_scenario_path(f"{request.param}.cfg"),
        [("submanifold", "resolution", "6"), ("domain", "samples", "150"),
         ("jacobi", "atoms", "20")])
    recs = []
    propagate = jacobi.propagate

    def planted(M, frames, P0, P0p, lam):
        if not recs:
            P0, P0p, lam = plant_reasons(P0, P0p, lam, frames[0].n_tangent)
        recs.append(propagate(M, frames, P0, P0p, lam))
        return recs[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(jacobi, "propagate", planted)
        report = pipeline.run_scenario(config)
    K = PLANTED_RUNS[request.param]
    assert config.build_manifold().curvature == K
    return (report.checks["jacobi"], report.series["jacobi_profile"], K,
            config.domain_params.get("r"), recs)


def same(x, y):
    return np.asarray(x, dtype=float).tobytes() == \
        np.asarray(y, dtype=float).tobytes()


class TestPerAtomOracle:
    def test_stacked_measurements_equal_the_reference(self, planted_run):
        """Every stacked measurement of every stack of the run is bitwise
        the reference's on each atom that is not singular, and each
        out-of-domain mask is the set of atoms on which the reference
        raises; the "positive" envelopes are compared on the K > 0 run,
        which checks with "nonneg"."""
        _, _, K, r, recs = planted_run
        profiles = {"nonneg": {}} if K == 0 else \
            {"nonneg": {}, "positive": dict(k1=K, k2=K, eps=0.5)} if K > 0 \
            else {"negative": dict(k1=K, k2=K, r=r)}
        t = jacobi.TIMES[TRIM:]
        for rec in recs:
            A = len(rec.lam)
            singular = [ref_singular(rec, a) for a in range(A)]
            assert rec.singular.tolist() == singular
            sym = jacobi.symmetry_residual(rec)
            q_sym = jacobi.q_symmetry_residual(rec)
            riccati = jacobi.riccati_residual(rec)
            mono = jacobi.monotonicity_profile(rec)
            limit = jacobi.normalization_limit(rec)
            bound, det1 = jacobi.jacobian_bound_check(rec)
            stacked = {case: jacobi.ComparisonProfile(case, rec.n, rec.m,
                                                      rec.lam, **kw)
                       for case, kw in profiles.items()}
            excess = {case: jacobi.trace_comparison_check(rec, profile)
                      for case, profile in stacked.items()}
            for a in np.flatnonzero(~rec.singular):
                traj = trajectory(rec, a)
                assert same(sym[a], traj.symmetry_residual())
                assert same(q_sym[a], traj.q_symmetry_residual())
                assert same(riccati[a], ref_riccati_residual(traj))
                assert same(limit[a], ref_normalization_limit(traj))
                assert same((bound[a], det1[a]),
                            ref_jacobian_bound_check(traj))
                try:
                    assert same(mono[a], ref_monotonicity_profile(traj))
                    vanishes = False
                except DenominatorVanishes:
                    vanishes = True
                assert vanishes == (1.0 - rec.lam[a] / rec.n <= 0)
                for case, kw in profiles.items():
                    profile = stacked[case]
                    try:
                        ref = RefProfile(case, rec.n, rec.m, traj.lam, **kw)
                        e1, e3 = ref_trace_comparison_check(traj, ref)
                    except (DenominatorVanishes, ArgOutOfDomain):
                        assert profile.out_of_domain[a], case
                        continue
                    assert not profile.out_of_domain[a], case
                    assert same((excess[case][0][a], excess[case][1][a]),
                                (e1, e3)), case
                    for name in ("trq1_bound", "trq3_bound", "det_envelope"):
                        assert same(getattr(profile, name)(t)[a],
                                    getattr(ref, name)(t)), (case, name)

    def test_stage_equals_the_reference_fold(self, planted_run):
        """The stage's record and plot series are the per-atom fold's, and
        the planted chunk holds two singular atoms and a flagged atom of
        each reason the run's curvature checks."""
        rec, series, K, r, recs = planted_run
        want, want_series = ref_stage(recs, K, r)
        assert rec == want
        assert series == want_series
        assert rec["singular_atoms"] == 2 and not rec["passed"]
        if K >= 0:
            assert rec["flagged_denominator_vanishes"] >= 1
            assert rec["flagged_normalization_drift"] >= 1
        else:
            assert rec["flagged_arg_out_of_domain"] >= 2
        assert rec["evaluated_atoms"] >= 1



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
    returns the report and the number of ``riccati_residual`` calls,
    one per chunk."""
    params, M, mesh, cpl, grad, hess = inputs
    config = SimpleNamespace(jacobi_atoms=atoms, domain_params=params)
    calls = []
    residual = jacobi.riccati_residual
    monkeypatch.setattr(jacobi, "riccati_residual",
                        lambda rec: calls.append(1) or residual(rec))
    monkeypatch.setattr(pipeline, "JACOBI_CHUNK", chunk)
    report = pipeline.RunReport("stage", 0, {})
    ctx = pipeline.RunContext(config, M, mesh, None, None, cpl, report)
    ctx.gradient, ctx.hess_phi = (grad, None), hess
    report.checks["jacobi"] = pipeline.CHECKS["jacobi"].run(ctx)
    return report, len(calls)


def plant_in_eighth(monkeypatch, plant):
    """Let ``plant(P0, P0p)`` change the initial data of atom 8 in place."""
    seen = []
    initial = jacobi.initial_conditions

    def planted(*args):
        P0, P0p = initial(*args)
        seen.append(1)
        if len(seen) == 9:
            plant(P0, P0p)
        return P0, P0p

    monkeypatch.setattr(jacobi, "initial_conditions", planted)


class TestChunkedStage:
    @pytest.mark.parametrize("atoms", [1, 16, 17, 33])
    def test_chunks_match_one_atom_at_a_time(self, annulus_transport,
                                             monkeypatch, atoms):
        """Chunk boundaries change nothing: the report equals that of
        propagating each atom alone, and each chunk has its Riccati
        residuals evaluated in one call."""
        chunk = pipeline.JACOBI_CHUNK
        chunked, calls = run_stage(annulus_transport, atoms, monkeypatch,
                                   chunk)
        alone, alone_calls = run_stage(annulus_transport, atoms, monkeypatch,
                                       1)
        rec = chunked.checks["jacobi"]
        assert rec == alone.checks["jacobi"]
        assert chunked.series == alone.series
        assert rec["atom_count"] == atoms and rec["passed"]
        assert calls == math.ceil(atoms / chunk)
        assert alone_calls == atoms

    @staticmethod
    def singular_eighth(inputs, monkeypatch, plant):
        """The stage on 33 atoms, atom 8 planted by ``plant``: it must be
        counted once as singular and fail the check, with the 32 others
        still evaluated, in three chunks."""
        plant_in_eighth(monkeypatch, plant)
        with np.errstate(invalid="ignore"):
            report, calls = run_stage(inputs, 33, monkeypatch,
                                      pipeline.JACOBI_CHUNK)
        rec = report.checks["jacobi"]
        assert rec["singular_atoms"] == 1 and not rec["passed"]
        assert rec["flagged_atoms"] == 0 and rec["evaluated_atoms"] == 32
        assert calls == 3

    def test_singular_atom_mid_chunk(self, annulus_transport, monkeypatch):
        """Atom 8 of 33 gets data whose det P changes sign."""
        def conjugate(P0, P0p):
            P0p[0, 0] = -3.0     # P_11 = 1 - 3t crosses zero

        self.singular_eighth(annulus_transport, monkeypatch, conjugate)

    def test_nan_atom_mid_chunk(self, annulus_transport, monkeypatch):
        """Atom 8 of 33 gets NaN initial data: the stage counts it instead
        of dying in the SVD."""
        def nan(P0, P0p):
            P0p[0, 0] = np.nan

        self.singular_eighth(annulus_transport, monkeypatch, nan)

    def test_empty_window_atom_mid_chunk(self, annulus_transport,
                                         monkeypatch):
        """Atom 8 of 33 gets P0 = diag(1, 1, 0, 0), P0' = diag(1e13, 0,
        1, 1) in flat R^4: det P > 0 everywhere, but cond P >= 1e12 on
        the whole trimmed window, so Q is defined nowhere on it.  The
        per-atom Riccati residual raised ValueError on it (a zero-size
        max); the stack counts it as singular instead of passing it
        unchecked."""
        def ill_conditioned(P0, P0p):
            P0[:] = np.diag([1.0, 1.0, 0.0, 0.0])
            P0p[:] = np.diag([1e13, 0.0, 1.0, 1.0])

        self.singular_eighth(annulus_transport, monkeypatch, ill_conditioned)

    # -0.05 n at n = 2, the slack of the gate, and the next float below
    @pytest.mark.parametrize("margin, passed", [
        (-0.05 * 2, True), (math.nextafter(-0.05 * 2, -math.inf), False)])
    def test_lap_margin_at_its_bound(self, annulus_transport, monkeypatch,
                                     margin, passed):
        """The gate on the worst margin n - delta_phi - <H, v>: a run
        whose one atom passes every other sub-check passes exactly at
        -LAP_SLACK_FACTOR * n and fails at the next float below."""
        measure = pipeline._jacobi_chunk

        def planted(rec, K, r):
            atoms, profile = measure(rec, K, r)
            atoms["lap_margin_min"] = np.ma.array(
                np.full(len(rec.lam), margin), mask=rec.singular)
            return atoms, profile

        monkeypatch.setattr(pipeline, "_jacobi_chunk", planted)
        report, _ = run_stage(annulus_transport, 1, monkeypatch,
                              pipeline.JACOBI_CHUNK)
        rec = report.checks["jacobi"]
        assert rec["lap_margin_min"] == margin
        assert rec["evaluated_atoms"] == 1
        assert rec["passed"] is passed

    def test_every_atom_flagged_fails(self, annulus_transport, monkeypatch):
        """With no evaluated atom the stage fails, counts each flag by its
        reason and writes the comparison metrics as null."""
        profile = jacobi.ComparisonProfile

        def vanishing(*args, **kwargs):
            planted = profile(*args, **kwargs)
            planted.out_of_domain = np.ones_like(planted.out_of_domain)
            return planted

        monkeypatch.setattr(jacobi, "ComparisonProfile", vanishing)
        report, _ = run_stage(annulus_transport, 5, monkeypatch,
                              pipeline.JACOBI_CHUNK)
        rec = report.checks["jacobi"]
        assert not rec["passed"] and rec["evaluated_atoms"] == 0
        assert rec["flagged_atoms"] == 5
        assert rec["flagged_denominator_vanishes"] == 5
        assert rec["flagged_normalization_drift"] == 0
        assert rec["flagged_arg_out_of_domain"] == 0
        for key in ("trq1_excess_max", "trq3_excess_max", "bound_margin_min",
                    "normalization_worst", "mono_worst_increase",
                    "mono_failures"):
            assert rec[key] is None, key
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
