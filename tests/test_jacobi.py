"""Jacobi/Riccati propagation: closed-form oracles, profiles, envelopes,
and the per-atom reference that the stacked measurements equal."""

import math
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest

from otsobolev import (cli, geometry, inequalities, jacobi, pipeline,
                       submanifold, transport)
from otsobolev.errors import NonSymmetricHessianError, UnsupportedVariantError
from otsobolev.fields import field_from_expression

from chart_checks import model_space


# the frames below hold N_TANGENT tangent vectors, then the normal ones
N_TANGENT = 2


def node_curvature(M, basis, v):
    """S (d, d) of an atom leaving a node with frame ``basis`` (d, D) at
    velocity ``v``."""
    return geometry.curvature_matrix(M, np.asarray(basis)[None],
                                     np.asarray(v)[None])[0]


def sphere_curvature(K=1.0, speed=0.5):
    M = model_space(geometry.SPHERE, 3, K)
    return node_curvature(M, np.eye(4)[1:], [0.0, speed, 0.0, 0.0])


def hyperbolic_curvature(K=-1.0, speed=0.5):
    M = model_space(geometry.HYPERBOLIC, 3, K)
    return node_curvature(M, np.eye(4)[1:], [0.0, speed, 0.0, 0.0])


def propagate_one(S, P0, P0p, lam=0.0):
    """``jacobi.propagate`` on a one-atom stack."""
    return jacobi.propagate(np.asarray(S)[None], np.asarray(P0)[None],
                            np.asarray(P0p)[None], [lam], N_TANGENT)


def propagate_with_pp(S, P0, P0p):
    """``jacobi.propagate`` on a stack at lam = 0, and the P' that the
    stack does not keep, from ``closed_form_stack`` on the same data."""
    return (jacobi.propagate(S, P0, P0p, np.zeros(len(S)), N_TANGENT),
            jacobi.closed_form_stack(S, P0, P0p)[1])


def recording_propagate(stacks, plant=None):
    """A ``jacobi.propagate`` that appends (stack, P') of each call to
    ``stacks``; ``plant``, if given, changes the data of the first."""
    propagate = jacobi.propagate

    def recording(S, P0, P0p, lam, n):
        if plant is not None and not stacks:
            P0, P0p, lam = plant(P0, P0p, lam, n)
        stacks.append((propagate(S, P0, P0p, lam, n),
                       jacobi.closed_form_stack(S, P0, P0p)[1]))
        return stacks[-1][0]

    return recording


def nonincreasing(profile):
    """No step of ``profile`` rises by more than the pipeline's
    monotonicity tolerance of its first value."""
    return np.diff(profile).max() <= \
        pipeline.MONOTONICITY_TOL * abs(profile[0])


def euclidean_curvature(dim=4, speed=0.5):
    M = model_space(geometry.EUCLIDEAN, dim)
    v = np.zeros(dim)
    v[0] = speed
    return node_curvature(M, np.eye(dim), v)


class TestClosedFormOracles:
    def test_flat_space_linear_solutions(self):
        S = euclidean_curvature()
        P0 = np.eye(4)
        P0p = np.diag([0.3, -0.2, 1.0, 0.7])
        rec = propagate_one(S, P0, P0p)
        for k in (0, 100, 400):
            t = jacobi.TIMES[k]
            assert np.allclose(rec.P[0, ..., k], P0 + t * P0p, atol=1e-12)
        assert jacobi.riccati_residual(rec)[0] < 1e-8

    def test_sphere_cosine_solutions(self):
        s = 0.8
        S = sphere_curvature(K=1.0, speed=s)
        rec = propagate_one(S, np.eye(3), np.zeros((3, 3)))
        t = jacobi.TIMES
        # direction along the velocity is flat; others oscillate at rate s
        oracle = np.zeros((3, 3, len(t)))
        oracle[0, 0] = 1.0
        for i in (1, 2):
            oracle[i, i] = np.cos(s * t)
        assert np.abs(rec.P[0] - oracle).max() < 1e-8

    def test_sphere_sine_solutions(self):
        s = 0.8
        S = sphere_curvature(K=1.0, speed=s)
        rec = propagate_one(S, np.zeros((3, 3)), np.eye(3))
        t = jacobi.TIMES
        oracle = np.zeros((3, 3, len(t)))
        oracle[0, 0] = t
        for i in (1, 2):
            oracle[i, i] = np.sin(s * t) / s
        assert np.abs(rec.P[0] - oracle).max() < 1e-8

    def test_hyperbolic_sinh_solutions(self):
        s = 0.6
        S = hyperbolic_curvature(K=-1.0, speed=s)
        rec = propagate_one(S, np.zeros((3, 3)), np.eye(3))
        t = jacobi.TIMES
        oracle = np.zeros((3, 3, len(t)))
        oracle[0, 0] = t
        for i in (1, 2):
            oracle[i, i] = np.sinh(s * t) / s
        assert np.abs(rec.P[0] - oracle).max() < 1e-8
        assert jacobi.riccati_residual(rec)[0] < 1e-6

    def test_curvature_scaling(self):
        """K = 4 doubles the oscillation rate of the K = 1 solution."""
        s = 0.5
        S = sphere_curvature(K=4.0, speed=s)
        rec = propagate_one(S, np.eye(3), np.zeros((3, 3)))
        t = jacobi.TIMES
        assert np.allclose(rec.P[0, 1, 1], np.cos(2 * s * t), atol=1e-8)


class TestStructuralChecks:
    def make_block_traj(self, p11=0.5, p22=0.5, lam=None):
        """Flat-space one-atom stack with the transport block structure."""
        S = euclidean_curvature()
        P0 = np.diag([1.0, 1.0, 0.0, 0.0])
        P0p = np.diag([p11, p22, 1.0, 1.0])
        if lam is None:
            lam = -(p11 + p22)
        return propagate_one(S, P0, P0p, lam=lam)

    def test_block_determinant_identity(self):
        """det P(1) = (1 + p11)(1 + p22) for flat diagonal data."""
        rec = self.make_block_traj(p11=1.0, p22=1.0)
        assert abs(rec.det_p[0, -1] - 4.0) < 1e-9

    def test_symmetry_residuals_vanish(self):
        S = euclidean_curvature()
        P0, P0p = np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.5, 0.5, 1, 1])
        assert_symmetric(*propagate_with_pp(S[None], P0[None], P0p[None]))

    def test_normalization_limit(self):
        rec = self.make_block_traj()
        (limit,) = jacobi.normalization_limit(rec)
        assert abs(limit - 1.0) < 1e-6

    def test_normalization_drift_detected(self):
        S = euclidean_curvature()
        P0 = np.diag([1.0, 1.0, 0.0, 0.0])
        P0p = np.diag([0.5, 0.5, 2.0, 1.0])   # wrong normal-block scale
        rec = propagate_one(S, P0, P0p)
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
        S = hyperbolic_curvature(K=-1.0, speed=s)
        P0 = np.diag([1.0, 1.0, 0.0])
        P0p = np.diag([0.0, 0.0, 1.0])
        (prof,) = jacobi.monotonicity_profile(propagate_one(S, P0, P0p))
        assert not nonincreasing(prof)
        assert prof[-1] > prof[0]

    def test_conjugate_point_detected(self):
        # det P = cos(2t) sin(2t)/2 turns negative past t = pi/4
        S = sphere_curvature(K=1.0, speed=2.0)
        P0 = np.diag([1.0, 1.0, 0.0])
        P0p = np.diag([0.0, 0.0, 1.0])
        assert propagate_one(S, P0, P0p).singular.tolist() == [True]

    def test_empty_window_is_singular(self):
        """P = diag(1 + 1e13 t, 1, t, t) keeps det P > 0, but cond P stays
        above COND_LIMIT on the whole trimmed window, so Q is defined on
        none of it: the atom is singular, not passed unchecked."""
        S = euclidean_curvature()
        rec = propagate_one(S, np.diag([1.0, 1.0, 0.0, 0.0]),
                            np.diag([1e13, 0.0, 1.0, 1.0]))
        assert (rec.det_p[0, jacobi.TRIM_SAMPLES:] > 0).all()
        assert not rec.q_defined[0, jacobi.TRIM_SAMPLES:].any()
        assert rec.singular.tolist() == [True]

    def test_non_symmetric_hessian_rejected(self):
        M = model_space(geometry.EUCLIDEAN, 4)
        mesh = submanifold.build_submanifold(
            M, submanifold.FlatDisk(radius=1.0), 8)
        hess = np.zeros((mesh.node_count, 2, 2))
        hess[0] = [[1.0, 0.5], [0.2, 1.0]]
        with pytest.raises(NonSymmetricHessianError):
            jacobi.initial_conditions(mesh, np.array([1, 0]), np.zeros((2, 4)),
                                      hess, np.zeros((mesh.node_count, 2)))

    @pytest.mark.parametrize("asym, refused", [(0.8e-8, False), (1.2e-8, True)])
    def test_hessian_symmetry_bound(self, asym, refused):
        """The stack is refused when the Hessian at one atom's node is
        more than 1e-8 from symmetric, and only then."""
        M = model_space(geometry.EUCLIDEAN, 4)
        mesh = submanifold.build_submanifold(
            M, submanifold.FlatDisk(radius=1.0), 8)
        hess = np.tile(np.eye(2), (mesh.node_count, 1, 1))
        hess[5, 0, 1] += asym
        args = (mesh, np.array([0, 3, 5, 7]), np.zeros((4, 4)), hess,
                np.zeros((mesh.node_count, 2)))
        if refused:
            with pytest.raises(NonSymmetricHessianError):
                jacobi.initial_conditions(*args)
        else:
            P0, P0p, lam = jacobi.initial_conditions(*args)
            assert np.abs(P0p[2, :2, :2] + hess[5]).max() == 0.0


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
        S = euclidean_curvature()
        rec = propagate_one(S, np.diag([1.0, 1, 0, 0]),
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
        S = euclidean_curvature()
        P0 = np.diag([1.0, 1.0, 0.0, 0.0])
        P0p = np.diag([0.4, 0.2, 1.0, 1.0])
        lam = -(0.4 + 0.2)
        rec = propagate_one(S, P0, P0p, lam=lam)
        prof = jacobi.ComparisonProfile("nonneg", 2, 2, rec.lam)
        (trq1_excess,), (trq3_excess,) = jacobi.trace_comparison_check(
            rec, prof)
        tol = 1e-6 * rec.m / jacobi.TIMES[jacobi.TRIM_SAMPLES]
        assert trq1_excess <= tol and trq3_excess <= tol
        assert jacobi.riccati_residual(rec)[0] <= 1e-6


def rk4_reference(S, P0, P0p, steps):
    """One atom's classical RK4 on (d, d) matrices over ``steps`` equal
    steps of [0, 1]: the oracle of the closed-form kernel, time-last
    (d, d, steps + 1) like the stack."""
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
    return np.stack(P, axis=-1), np.stack(Pp, axis=-1)


def atom_stack(make_curvature, count, seed=5):
    """``count`` atoms on distinct geodesics, ``make_curvature(speed)``,
    with transport-shaped data: P0 = diag(1, 1, 0), P0' = diag(a, b, 1)
    plus a symmetric tweak."""
    rng = np.random.default_rng(seed)
    S, P0, P0p = [], [], []
    for _ in range(count):
        S.append(make_curvature(float(rng.uniform(0.2, 0.9))))
        tweak = 0.05 * rng.standard_normal((3, 3))
        P0.append(np.diag([1.0, 1.0, 0.0]))
        P0p.append(np.diag([*rng.uniform(-0.5, 0.5, 2), 1.0])
                   + tweak + tweak.T)
    return np.array(S), np.array(P0), np.array(P0p)


def flat_atom(speed):
    return euclidean_curvature(3, speed)


def positive_atom(speed):
    return sphere_curvature(1.0, speed)


def negative_atom(speed):
    return hyperbolic_curvature(-1.0, speed)


STACK_ARRAYS = ("P", "S", "det_p", "q_defined", "trq1", "trq3", "lam",
                "singular")


def atom_arrays(rec, a):
    """Atom ``a``'s slice of each per-atom array of a stack, its LU
    factors included."""
    return {**{name: getattr(rec, name)[a] for name in STACK_ARRAYS},
            "lu": rec.lu.lu[a]}


def assert_same_atoms(rec, a, other, b):
    """Atom ``a`` of ``rec`` is bitwise atom ``b`` of ``other``."""
    mine, theirs = atom_arrays(rec, a), atom_arrays(other, b)
    for name, value in mine.items():
        assert np.asarray(value).tobytes() == \
            np.asarray(theirs[name]).tobytes(), name


def cond_mask(P):
    """The Q mask of a time-last stack from one SVD per sample."""
    with np.errstate(all="ignore"):
        cond = np.linalg.cond(np.moveaxis(P, -1, 1))
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
    @pytest.mark.parametrize("make_curvature",
                             [flat_atom, positive_atom, negative_atom])
    def test_stack_equals_single_atom_bitwise(self, make_curvature):
        S, P0, P0p = atom_stack(make_curvature, 17)
        lam = np.linspace(-0.4, 0.4, 17)
        stacked = jacobi.propagate(S, P0, P0p, lam, N_TANGENT)
        assert (stacked.n, stacked.m) == (2, 1)
        _, stacked_pp = jacobi.closed_form_stack(S, P0, P0p)
        for a in range(17):
            single = propagate_one(S[a], P0[a], P0p[a],
                                   lam=lam[a])
            assert_same_atoms(stacked, a, single, 0)
            _, single_pp = jacobi.closed_form_stack(S[a, None], P0[a, None],
                                                    P0p[a, None])
            assert stacked_pp[a].tobytes() == single_pp[0].tobytes()
            # the closed form against RK4 on the same grid, to 1e-12 of
            # the largest entry: RK4's rounding over STEPS steps is most
            # of the difference (about 3e-14)
            P, Pp = rk4_reference(single.S[0], P0[a], P0p[a], jacobi.STEPS)
            for got, want in ((single.P[0], P), (single_pp[0], Pp)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("make_curvature",
                             [flat_atom, positive_atom, negative_atom])
    def test_closed_form_keeps_the_symmetries(self, make_curvature):
        """Oracle: P'' = -PS with S symmetric conserves P' P^T - P P'^T,
        so on the stack's atoms, with P0' P0^T made symmetric (the
        transport data's zero lower-left block of P0'), P' P^T and Q stay
        symmetric to the bounds of the transport stacks."""
        S, P0, P0p = atom_stack(make_curvature, 17)
        P0p[:, N_TANGENT:, :N_TANGENT] = 0.0
        assert_symmetric(*propagate_with_pp(S, P0, P0p))

    def test_stack_equals_the_two_branch_form_bitwise(self):
        """Oracle: on a stack that mixes K > 0, K = 0 and K < 0 atoms, the
        kernel, which takes one branch of c and s per atom, is bitwise
        the form it replaced, which computed both and chose by
        ``np.where``."""
        parts = [atom_stack(make, 6, seed) for seed, make in
                 enumerate((positive_atom, flat_atom, negative_atom))]
        mix = np.random.default_rng(3).permutation(18)
        S, P0, P0p = (np.concatenate(arrays)[mix] for arrays in zip(*parts))
        A, d, _ = S.shape
        w2 = np.trace(S, axis1=1, axis2=2)[:, None] / (d - 1)
        N = np.divide(S, w2[:, :, None], out=np.zeros_like(S),
                      where=w2[:, :, None] != 0)
        Pi = np.eye(d) - N
        basis = P0 @ Pi, P0p @ Pi, P0 @ N, P0p @ N
        w, t = np.sqrt(np.abs(w2)), np.broadcast_to(jacobi.TIMES,
                                                    (A, jacobi.STEPS + 1))
        c = np.where(w2 > 0, np.cos(w * t), np.cosh(w * t))
        with np.errstate(invalid="ignore"):
            s = np.where(w == 0, t, np.where(w2 > 0, np.sin(w * t),
                                             np.sinh(w * t)) / w)
        P, Pp = jacobi.closed_form_stack(S, P0, P0p)
        for i, j in np.ndindex(d, d):
            pi0, pi1, n0, n1 = (X[:, i, j, None] for X in basis)
            assert P[:, i, j].tobytes() == (
                t * pi1 + pi0 + c * n0 + s * n1).tobytes()
            assert Pp[:, i, j].tobytes() == (
                -w2 * s * n0 + pi1 + c * n1).tobytes()

    def test_stack_shapes(self):
        S, P0, P0p = atom_stack(positive_atom, 3)
        rec = jacobi.propagate(S, P0, P0p, np.zeros(3), N_TANGENT)
        T = jacobi.STEPS + 1
        assert rec.P.shape == rec.lu.lu.shape == (3, 3, 3, T)
        assert rec.det_p.shape == rec.q_defined.shape == (3, T)
        assert rec.trq1.shape == rec.trq3.shape == (3, T)
        assert rec.S.shape == (3, 3, 3)
        assert rec.lam.shape == rec.singular.shape == (3,)

    def test_singular_atom_mid_stack(self):
        """A conjugate point in one atom leaves its neighbours alone."""
        S, P0, P0p = atom_stack(positive_atom, 17)
        S[8] = sphere_curvature(K=1.0, speed=2.0)
        P0[8], P0p[8] = np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])
        rec = jacobi.propagate(S, P0, P0p, np.zeros(17), N_TANGENT)
        assert np.flatnonzero(rec.singular).tolist() == [8]
        assert propagate_one(S[8], P0[8], P0p[8]).singular[0]
        assert_same_atoms(rec, 16, propagate_one(S[16], P0[16], P0p[16]), 0)

    def test_stack_rejects_bad_shapes(self):
        S, P0, P0p = atom_stack(positive_atom, 2)
        with pytest.raises(ValueError):
            jacobi.propagate(S, P0[:, :2, :2], P0p[:, :2, :2],
                             np.zeros(2), N_TANGENT)

    def test_curvature_off_the_model_form_raises(self):
        """A symmetric S that is not w^2 (I - Pi) has no closed form:
        the kernel refuses it instead of propagating it."""
        rng = np.random.default_rng(7)
        _, P0, P0p = atom_stack(positive_atom, 2)
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
        with np.errstate(invalid="ignore"):
            det_p = np.linalg.det(P)
        P = np.moveaxis(P, 1, -1)      # time-last, as in the stack
        want = cond_mask(P)
        assert [bool(want[k]) for k in planted] == \
            [False, False, True, False, True, False]
        assert want.sum() == want.size - 4
        counts = svd_counting(monkeypatch)
        got = jacobi.well_conditioned(P, det_p)
        assert got.tobytes() == want.tobytes()
        assert sum(counts) == len(planted) - 1   # not the infinite one

    def test_non_finite_samples_are_not_ok_without_svd(self, monkeypatch):
        """NaN and infinite samples are masked out without the SVD, which
        raises on NaN; a singular sample beside them still goes to it."""
        P = np.tile(np.eye(3), (2, 5, 1, 1))
        P[1, 3, 0, 2] = np.nan
        P[0, 2, 1, 1] = np.inf
        P[1, 0] = np.diag([1.0, 1.0, 0.0])
        with np.errstate(invalid="ignore"):
            det_p = np.linalg.det(P)
        P = np.moveaxis(P, 1, -1)      # time-last, as in the stack
        with pytest.raises(np.linalg.LinAlgError):
            cond_mask(P)
        counts = svd_counting(monkeypatch)
        got = jacobi.well_conditioned(P, det_p)
        want = np.ones((2, 5), dtype=bool)
        want[1, 3] = want[0, 2] = want[1, 0] = False
        assert got.tobytes() == want.tobytes()
        assert counts == [1]

    def test_nan_on_the_window_is_singular(self, monkeypatch):
        """An atom whose P turns NaN inside the trimmed window is
        singular, like a det sign change, and its neighbours are the ones
        the stack gives without it."""
        S, P0, P0p = atom_stack(positive_atom, 17)
        zero = np.zeros(17)
        clean = jacobi.propagate(S, P0, P0p, zero, N_TANGENT)
        kernel = jacobi.closed_form_stack

        def nan_in(atom):
            def planted(*args):
                P, Pp = kernel(*args)
                P[atom, 0, 1, 150] = np.nan
                return P, Pp
            return planted

        monkeypatch.setattr(jacobi, "closed_form_stack", nan_in(8))
        with np.errstate(invalid="ignore"):
            rec = jacobi.propagate(S, P0, P0p, zero, N_TANGENT)
        assert np.flatnonzero(rec.singular).tolist() == [8]
        for a in (0, 7, 9, 16):
            assert_same_atoms(rec, a, clean, a)
        monkeypatch.setattr(jacobi, "closed_form_stack", nan_in(0))
        with np.errstate(invalid="ignore"):
            assert propagate_one(S[8], P0[8], P0p[8]).singular[0]



def lapack_samples(P):
    """The (A, T, d, d) samples of a time-last stack, LAPACK's layout."""
    return np.moveaxis(P, -1, 1)


def solve_columns(lu, B):
    """P^{-1} B for an (A, d, r, T) stack B, one column at a time."""
    X = np.array(B, dtype=float)
    for k in range(X.shape[2]):
        lu.solve(X[:, :, k])
    return X


class TestStackLU:
    """The stacked LU against LAPACK (``np.linalg.det``/``solve``): the
    oracle that pins the kernel of det P, Q and the Riccati solve."""

    @staticmethod
    def assert_near_lapack(M, B):
        """The kernel on the (A, T, d, d) samples M and right sides B:
        per sample, |det - det_LAPACK| <= 4 eps cond(P) |det_LAPACK| and
        max |X - X_LAPACK| <= 4 eps cond(P) max |X_LAPACK|.  The worst
        seen over 40 random seeds was 1.8 eps cond(P) for det and 1.7 for
        the solve.  Returns the factors."""
        lu = jacobi.StackLU(np.moveaxis(M, 1, -1))
        X = lapack_samples(solve_columns(lu, np.moveaxis(B, 1, -1)))
        want_det, want_x = np.linalg.det(M), np.linalg.solve(M, B)
        scale = 4.0 * np.finfo(float).eps * np.linalg.cond(M)
        assert (np.abs(lu.det - want_det) <= scale * np.abs(want_det)).all()
        assert (np.abs(X - want_x).max(axis=(2, 3))
                <= scale * np.abs(want_x).max(axis=(2, 3))).all()
        return lu

    @pytest.mark.parametrize("d", range(2, 7))
    def test_det_and_solve_equal_lapack(self, d):
        """Random stacks of (d, d) samples, near the identity and not."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            M = rng.standard_normal((4, 30, d, d))
            if seed % 2:
                M = np.eye(d) + 0.3 * M
            self.assert_near_lapack(M, rng.standard_normal((4, 30, d, d)))

    @pytest.mark.parametrize("d", range(2, 7))
    def test_pivot_swaps(self, d):
        """Samples that force row swaps: a zero leading entry beside
        unswapped samples, within the bounds above; and permutation
        matrices, whose det (+-1) and solve (a reordering) are exact."""
        rng = np.random.default_rng(d)
        M = np.eye(d) + 0.3 * rng.standard_normal((3, 20, d, d))
        M[:, ::2, 0, 0] = 0.0
        lu = self.assert_near_lapack(M, rng.standard_normal((3, 20, d, d)))
        assert lu.swaps and lu.swaps[0][0] == 0
        perms = np.array([np.eye(d)[rng.permutation(d)] for _ in range(12)])
        perms = perms.reshape(3, 4, d, d)
        lu = jacobi.StackLU(np.moveaxis(perms, 1, -1))
        assert lu.det.tobytes() == np.linalg.det(perms).tobytes()
        B = rng.standard_normal((3, 4, d, d))
        X = lapack_samples(solve_columns(lu, np.moveaxis(B, 1, -1)))
        assert X.tobytes() == (perms.swapaxes(2, 3) @ B).tobytes()

    def test_singular_p0_has_det_exactly_zero(self):
        """P(0) = diag(I, 0), and a sign-flipped copy whose pivots
        multiply to -0.0: det is exactly 0.0, as numpy gives it, not NaN
        or -0.0, and the rest of the stack is unaffected."""
        M = np.tile(np.eye(4), (2, 3, 1, 1))
        M[0, 0] = np.diag([1.0, 1.0, 0.0, 0.0])
        M[1, 0] = np.diag([-1.0, 1.0, 0.0, 0.0])
        det = jacobi.StackLU(np.moveaxis(M, 1, -1)).det
        assert det[:, 0].tolist() == np.linalg.det(M[:, 0]).tolist() \
            == [0.0, 0.0]
        assert not np.signbit(det).any()
        assert (det[:, 1:] == 1.0).all()

    def test_nan_sample_leaves_the_others_bitwise(self):
        """A NaN entry in one sample, in the column the pivot is chosen
        from, changes no bit of any other sample's factors, det or
        solve."""
        rng = np.random.default_rng(4)
        P = np.eye(4)[..., None] + 0.3 * rng.standard_normal((3, 4, 4, 20))
        B = rng.standard_normal((3, 4, 4, 20))
        clean = jacobi.StackLU(P)
        P[1, 2, 0, 7] = np.nan
        planted = jacobi.StackLU(P)
        others = np.ones((3, 20), dtype=bool)
        others[1, 7] = False
        assert np.isnan(planted.det[1, 7])
        for got, want in ((planted.det, clean.det),
                          (solve_columns(planted, B), solve_columns(clean, B)),
                          (planted.lu, clean.lu)):
            got, want = np.moveaxis(got, -1, 1), np.moveaxis(want, -1, 1)
            assert got[others].tobytes() == want[others].tobytes()

    @pytest.mark.parametrize("name", ["flat_disk_annulus", "sphere_transport",
                                      "hyperbolic_disk_r1"])
    def test_pipeline_stacks_equal_lapack(self, monkeypatch, name):
        """On the stacks of shrunk K = 0, K > 0 and K < 0 runs: the
        kernel's Q = P^{-1} P' within 2e-15 max |Q| of LAPACK's on each
        sample where it is defined, and the stored traces its diagonal
        summed in order; det P within 1e-14 of numpy's det relative, and
        0.0 where numpy's is; no sample swaps a row.  The worst seen on
        the bundled stacks was 5.5e-16 for Q and 2.6e-15 for det."""
        config = pipeline.ScenarioConfig.load(
            cli.bundled_scenario_path(f"{name}.cfg"),
            [("submanifold", "resolution", "6"), ("domain", "samples", "150"),
             ("jacobi", "atoms", "20")])
        stacks = []
        monkeypatch.setattr(jacobi, "propagate", recording_propagate(stacks))
        pipeline.run_scenario(config)
        assert sum(len(rec.lam) for rec, _ in stacks) == 20
        for rec, Pp in stacks:
            assert rec.lu.swaps == []
            P, ok = lapack_samples(rec.P), rec.q_defined
            Q = solve_columns(rec.lu, Pp)
            want_q = np.linalg.solve(P[ok], lapack_samples(Pp)[ok])
            err = np.abs(lapack_samples(Q)[ok] - want_q).max(axis=(1, 2))
            assert (err <= 2e-15 * np.abs(want_q).max(axis=(1, 2))).all()
            n, d = rec.n, Q.shape[1]
            for got, block in ((rec.trq1, range(n)), (rec.trq3, range(n, d))):
                want = ref_sum(Q[:, i, i] for i in block)
                want[~ok] = np.nan
                assert got.tobytes() == want.tobytes()
            want_det = np.linalg.det(P)
            assert (np.abs(rec.det_p - want_det)
                    <= 1e-14 * np.abs(want_det)).all()
            assert rec.det_p[want_det == 0.0].tobytes() == \
                want_det[want_det == 0.0].tobytes()




# ---------------------------------------------------------------------------
# per-atom reference: the measurement code and the running fold of the
# Jacobi stage as they were before the stage was stacked, one atom at a
# time, kept as the oracle of the stacked functions.  It reads the
# time-last layout; its products are sums over j in order, and its solves
# run the kernel on one-atom stacks (``TestStackLU`` pins that kernel to
# LAPACK)


TRIM = jacobi.TRIM_SAMPLES


class DenominatorVanishes(Exception):
    """1 - t lam / n vanishes on the trimmed window."""


class ArgOutOfDomain(Exception):
    """An envelope argument leaves the domain of arctan/artanh."""


def ref_sum(terms):
    """The sum of the arrays ``terms``, left to right."""
    terms = list(terms)
    total = np.array(terms[0], dtype=float)
    for term in terms[1:]:
        total = total + term
    return total


def ref_product(X, Y):
    """X Y of two time-last (d, d, T) trajectories, sample by sample, the
    sum over j taken in order."""
    return ref_sum(X[:, j, None] * Y[None, j] for j in range(X.shape[1]))


@dataclass
class Trajectory:
    times: np.ndarray          # (T,)
    P: np.ndarray              # (d, d, T)
    Pp: np.ndarray             # (d, d, T)
    n: int
    m: int
    lam: float
    S: np.ndarray              # (d, d)
    det_p: np.ndarray          # (T,)
    q_defined: np.ndarray      # (T,) bool
    Q: np.ndarray = field(init=False)      # (d, d, T), nan where undefined
    trq1: np.ndarray = field(init=False)
    trq3: np.ndarray = field(init=False)

    def __post_init__(self):
        d = self.n + self.m
        # Q = P^{-1} P' from the kernel on a one-atom stack
        self.Q = solve_columns(jacobi.StackLU(self.P[None]), self.Pp[None])[0]
        self.Q[..., ~self.q_defined] = np.nan
        self.trq1 = ref_sum(self.Q[i, i] for i in range(self.n))
        self.trq3 = ref_sum(self.Q[i, i] for i in range(self.n, d))

    @property
    def window(self):
        ok = self.q_defined.copy()
        ok[:TRIM] = False
        return ok

    def symmetry_residual(self):
        A = ref_product(self.Pp, self.P.transpose(1, 0, 2))
        return float(np.abs(A - A.transpose(1, 0, 2)).max())

    def q_symmetry_residual(self):
        Q = self.Q[..., self.q_defined]
        if Q.shape[-1] == 0:
            return 0.0
        return float(np.abs(Q - Q.transpose(1, 0, 2)).max())


def trajectory(rec, Pp, a):
    """Atom ``a`` of a stack, whose P' is ``Pp``, as one trajectory: views
    of the stacked arrays, and lam as a Python float."""
    return Trajectory(jacobi.TIMES, rec.P[a], Pp[a], rec.n, rec.m,
                      float(rec.lam[a]), rec.S[a], rec.det_p[a],
                      rec.q_defined[a])


def assert_symmetric(rec, Pp):
    """The symmetry oracles of ``closed_form_stack`` on each non-singular
    atom of a stack: P' P^T within 1e-12 of symmetric, and Q within 1e-9
    where it is defined."""
    for a in np.flatnonzero(~rec.singular):
        traj = trajectory(rec, Pp, a)
        assert traj.symmetry_residual() < 1e-12, a
        assert traj.q_symmetry_residual() < 1e-9, a


def ref_second_derivative(values, dt):
    """d^2/dt^2 along the last axis of one trajectory, each stencil sum
    taken in order."""
    values = np.asarray(values, dtype=float)
    T = values.shape[-1]
    half = jacobi.STENCIL // 2
    weights = jacobi._second_derivative_weights(dt)
    out = np.empty_like(values)
    for j in range(T):
        lo = min(max(j - half, 0), T - jacobi.STENCIL)
        out[..., j] = ref_sum(w * values[..., lo + k]
                              for k, w in enumerate(weights[lo - j]))
    return out


def ref_riccati_residual(traj):
    """The kernel on a one-atom stack of the window's samples; raises
    ValueError on an empty window (a zero-size max)."""
    Ppp = ref_second_derivative(traj.P, traj.times[1] - traj.times[0])
    ok = traj.window
    x = solve_columns(jacobi.StackLU(traj.P[None, ..., ok]),
                      Ppp[None, ..., ok])
    return float(np.abs(x[0] + traj.S[..., None]).max())


def ref_singular(rec, Pp, a):
    """A det sign change or a non-finite P on the trimmed window, or an
    empty window, on which the reference's Riccati residual raises."""
    if np.any(rec.det_p[a, TRIM:] <= 0) \
            or not np.isfinite(rec.P[a, ..., TRIM:]).all():
        return True
    try:
        ref_riccati_residual(trajectory(rec, Pp, a))
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
    ref_fold(stats, riccati_residual_max=ref_riccati_residual(traj),
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


def ref_stage(stacks, K, r):
    """The Jacobi record and plot series of the per-atom fold over the
    (stack, P') pairs ``stacks`` of one run."""
    stats = {"atom_count": sum(len(rec.lam) for rec, _ in stacks),
             "evaluated_atoms": 0, "singular_atoms": 0, "flagged_atoms": 0,
             **dict.fromkeys(pipeline.FLAG_KEYS, 0),
             **dict.fromkeys((
                 "riccati_residual_max", "lap_margin_min",
                 "mono_worst_increase", "mono_failures", "bound_margin_min",
                 "normalization_worst", "trq1_excess_max",
                 "trq3_excess_max"))}
    series = {}
    for rec, Pp in stacks:
        for a in range(len(rec.lam)):
            if ref_singular(rec, Pp, a):
                stats["singular_atoms"] += 1
            else:
                ref_atom(trajectory(rec, Pp, a), K, r, stats, series)
    passed = (stats["evaluated_atoms"] >= 1
              and stats["riccati_residual_max"] <= 1e-6
              and not stats["mono_failures"]
              and stats["singular_atoms"] == 0
              and (stats["bound_margin_min"] is None
                   or stats["bound_margin_min"] >= 0.0)
              and stats["lap_margin_min"]
              >= -pipeline.LAP_SLACK_FACTOR * stacks[0][0].n)
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
    the domain radius, and (stack, P') of every stack the stage
    propagated."""
    config = pipeline.ScenarioConfig.load(
        cli.bundled_scenario_path(f"{request.param}.cfg"),
        [("submanifold", "resolution", "6"), ("domain", "samples", "150"),
         ("jacobi", "atoms", "20")])
    stacks = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(jacobi, "propagate",
                  recording_propagate(stacks, plant_reasons))
        report = pipeline.run_scenario(config)
    K = PLANTED_RUNS[request.param]
    assert config.build_manifold().curvature == K
    return (report.checks["jacobi"], report.series["jacobi_profile"], K,
            config.domain_params.get("r"), stacks)


def same(x, y):
    return np.asarray(x, dtype=float).tobytes() == \
        np.asarray(y, dtype=float).tobytes()


class TestPerAtomOracle:
    def test_stacked_measurements_equal_the_reference(self, planted_run):
        """Every stacked measurement of every stack of the run, the traces
        included, is bitwise the reference's on each atom that is not
        singular, where P' P^T and Q are also symmetric to the bounds of
        ``assert_symmetric``; each out-of-domain mask is the set of atoms
        on which the reference raises; the "positive" envelopes are
        compared on the K > 0 run, which checks with "nonneg"."""
        _, _, K, r, stacks = planted_run
        profiles = {"nonneg": {}} if K == 0 else \
            {"nonneg": {}, "positive": dict(k1=K, k2=K, eps=0.5)} if K > 0 \
            else {"negative": dict(k1=K, k2=K, r=r)}
        t = jacobi.TIMES[TRIM:]
        for rec, Pp in stacks:
            A = len(rec.lam)
            singular = [ref_singular(rec, Pp, a) for a in range(A)]
            assert rec.singular.tolist() == singular
            assert_symmetric(rec, Pp)
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
                traj = trajectory(rec, Pp, a)
                assert same(rec.trq1[a], traj.trq1)
                assert same(rec.trq3[a], traj.trq3)
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
        rec, series, K, r, stacks = planted_run
        want, want_series = ref_stage(stacks, K, r)
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
    mu = transport.source_measure(mesh, field_from_expression(mesh, "1.0"))
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
    ctx = pipeline.RunContext(config, M, mesh, None, None, None, cpl, report)
    ctx.gradient, ctx.hess_phi = (grad, None), hess
    report.checks["jacobi"] = pipeline.CHECKS["jacobi"].run(ctx)
    return report, len(calls)


def plant_in_eighth(monkeypatch, plant):
    """Let ``plant(P0, P0p)`` change the initial data of atom 8 in place."""
    initial = jacobi.initial_conditions

    def planted(*args):
        P0, P0p, lam = initial(*args)
        plant(P0[8], P0p[8])
        return P0, P0p, lam

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


@pytest.mark.parametrize("name", ["sphere_transport", "hyperbolic_disk_r1",
                                  "flat_disk_annulus"])
def test_a_run_transports_no_frame(monkeypatch, name):
    """The stage reads S from the node frames: a transport run, for K of
    each sign, transports no frame along its geodesics."""
    calls = []
    for traced in ("build_parallel_frame", "transport_along"):
        fn = getattr(geometry, traced)
        monkeypatch.setattr(geometry, traced,
                            lambda *args, fn=fn: calls.append(1) or fn(*args))
    config = pipeline.ScenarioConfig.load(
        cli.bundled_scenario_path(f"{name}.cfg"),
        [("submanifold", "resolution", "6"), ("domain", "samples", "150"),
         ("jacobi", "atoms", "20")])
    rec = pipeline.run_scenario(config).checks["jacobi"]
    assert rec["atom_count"] == 20 and rec["passed"]
    assert calls == []


# the Jacobi functions whose work is per sample
HOT_PATH = ("propagate", "riccati_residual")


@pytest.mark.parametrize("name", ["sphere_transport", "hyperbolic_disk_r1",
                                  "flat_disk_annulus"])
def test_the_hot_path_calls_no_lapack_or_einsum(monkeypatch, name):
    """The per-sample work is the stacked kernel: on a shrunk transport
    run, no ``np.linalg.solve``, ``np.linalg.det`` or ``np.einsum`` call
    is made from within the hot-path functions.  The stencil weights,
    one cached 5 x 5 solve per step size, are computed first."""
    jacobi._second_derivative_weights(jacobi.TIMES[1] - jacobi.TIMES[0])
    hot = {getattr(jacobi, fn).__code__: fn for fn in HOT_PATH}
    calls = []
    for module, attr in ((np.linalg, "solve"), (np.linalg, "det"),
                         (np, "einsum")):
        def traced(*args, fn=getattr(module, attr), attr=attr, **kwargs):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code in hot:
                    calls.append((hot[frame.f_code], attr))
                frame = frame.f_back
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, traced)
    config = pipeline.ScenarioConfig.load(
        cli.bundled_scenario_path(f"{name}.cfg"),
        [("submanifold", "resolution", "6"), ("domain", "samples", "150"),
         ("jacobi", "atoms", "20")])
    rec = pipeline.run_scenario(config).checks["jacobi"]
    assert rec["atom_count"] == 20 and rec["passed"]
    assert calls == []


def ref_initial_conditions(mesh, node, v_normal, hess_phi, grad_phi):
    """Block initial data (P(0), P'(0)) of one transport atom: the
    per-atom formula that the stacked ``jacobi.initial_conditions``
    replaced, kept as its oracle."""
    n, m = mesh.n, mesh.m
    d = n + m
    P0 = np.zeros((d, d))
    P0[:n, :n] = np.eye(n)
    P0p = np.zeros((d, d))
    sff = mesh.sff[node]                     # (m, n, n)
    P0p[:n, :n] = -hess_phi - np.einsum("aij,a->ij", sff, v_normal)
    P0p[:n, n:] = -np.einsum("aij,j->ia", sff.transpose(0, 2, 1), grad_phi)
    P0p[n:, n:] = np.eye(m)
    return P0, P0p


# (manifold variant, ambient dimension, chart, whether II and H are nonzero)
INITIAL_DATA_MESHES = {
    "graph_in_R5": (geometry.EUCLIDEAN, 5, submanifold.GraphOverDisk(
        radius=1.0, height="u1*u2 + u1**2/5"), True),
    "graph_in_R4": (geometry.EUCLIDEAN, 4, submanifold.GraphOverDisk(
        radius=1.0, height="(u1**2 + u2**2) * 3 / 10"), True),
    "sphere_ball": (geometry.SPHERE, 4,
                    submanifold.GeodesicBallInSubsphere(radius=1.0), False),
    "hyperbolic_disk": (geometry.HYPERBOLIC, 4,
                        submanifold.GeodesicDiskInHyperbolicSubspace(0.5),
                        False),
}


@pytest.mark.parametrize("mesh_name", list(INITIAL_DATA_MESHES))
def test_initial_conditions_equal_the_per_atom_formula(mesh_name):
    """The stacked P(0), P'(0) and lam of random atoms equal the
    per-atom formula, with lam = Delta phi + <H, v> and v = the
    normal-frame components of the velocity: on graphs over a disk,
    whose second fundamental form and mean curvature do not vanish, and
    on the totally geodesic disks of the curved model spaces."""
    variant, dim, chart, bent = INITIAL_DATA_MESHES[mesh_name]
    M = model_space(variant, dim)
    mesh = submanifold.build_submanifold(M, chart, 8)
    N = mesh.node_count
    rng = np.random.default_rng(11)
    nodes = rng.integers(0, N, 40)
    u = rng.standard_normal((40, M.embedding_dim))
    hess = rng.standard_normal((N, 2, 2))
    hess += hess.transpose(0, 2, 1)
    grad = rng.standard_normal((N, 2))
    P0, P0p, lam = jacobi.initial_conditions(mesh, nodes, u, hess, grad)
    nf = geometry.lower_index(M, mesh.normal_frames)
    hn = mesh.mean_curvature_normal_components()
    assert (np.abs(mesh.sff[nodes]).max() > 0.1) == bent
    assert (np.abs(hn[nodes]).max() > 0.1) == bent
    for a, i in enumerate(nodes.tolist()):
        v_normal = nf[i] @ u[a]
        want = ref_initial_conditions(mesh, i, v_normal, hess[i], grad[i])
        assert same(P0[a], want[0]) and same(P0p[a], want[1]), a
        assert same(lam[a], float(np.trace(hess[i])) + float(hn[i] @ v_normal))
