"""Discrete optimal transport: solvers, duality certification, fibers."""

import itertools
import math

import numpy as np
import pytest

from otsobolev import geometry, submanifold, transport
from otsobolev.errors import (
    CutLocusError,
    SizeCapError,
)
from otsobolev.fields import constant_field


def small_instance(seed=5, ns=12, nt=20):
    rng = np.random.default_rng(seed)
    M = geometry.euclidean(3)
    xs = rng.standard_normal((ns, 3))
    zs = rng.standard_normal((nt, 3)) + np.array([2.0, 0.0, 0.0])
    mu = transport.DiscreteMeasure(xs, np.full(ns, 1.0 / ns))
    nu = transport.DiscreteMeasure(zs, np.full(nt, 1.0 / nt))
    C = transport.cost_matrix(M, mu, nu)
    return M, mu, nu, C


class TestMeasures:
    def test_weights_must_be_normalized(self):
        with pytest.raises(ValueError):
            transport.DiscreteMeasure(np.zeros((2, 3)), np.array([0.3, 0.3]))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            transport.DiscreteMeasure(np.zeros((2, 3)),
                                      np.array([1.5, -0.5]))

    def test_zero_weights_dropped(self):
        m = transport.DiscreteMeasure(np.zeros((3, 2)),
                                      np.array([0.5, 0.0, 0.5]))
        assert m.size == 2

    def test_source_measure_power_weighting(self):
        M = geometry.euclidean(4)
        mesh = submanifold.build_submanifold(
            M, submanifold.FlatDisk(radius=1.0), 8)
        f = constant_field(mesh, 3.0)
        mu = transport.source_measure(mesh, f)
        # constant f: weights proportional to the quadrature weights
        assert np.allclose(mu.weights, mesh.weights / mesh.weights.sum())


class TestExactSolver:
    def test_matches_brute_force_on_permutations(self):
        """Equal-weight square instances have permutation-matrix optima."""
        rng = np.random.default_rng(9)
        for trial in range(5):
            C = rng.random((4, 4))
            mu = transport.DiscreteMeasure(np.zeros((4, 2)), np.full(4, 0.25))
            nu = transport.DiscreteMeasure(np.ones((4, 2)), np.full(4, 0.25))
            cpl = transport.solve_exact(mu, nu, C)
            best = min(sum(C[i, p[i]] for i in range(4)) / 4.0
                       for p in itertools.permutations(range(4)))
            assert np.isclose(cpl.cost, best, atol=1e-12)

    def test_duality_gap_vanishes(self):
        _, mu, nu, C = small_instance()
        cpl = transport.solve_exact(mu, nu, C)
        assert abs(cpl.duality_gap) < 1e-10
        rres, cres = cpl.marginal_residual()
        assert rres < 1e-12 and cres < 1e-12

    def test_certification_passes_and_sets_potentials(self):
        _, mu, nu, C = small_instance()
        cpl = transport.solve_exact(mu, nu, C)
        rep = transport.certify_support(cpl)
        assert rep.passed and rep.atom_count >= max(mu.size, nu.size) - 1
        assert cpl.phi_cc is not None and cpl.psi_cc is not None

    def test_suboptimal_plan_fails_certification(self):
        _, mu, nu, C = small_instance(ns=6, nt=6)
        cpl = transport.solve_exact(mu, nu, C)
        # a plan with atoms off the optimal support breaks the condition
        bad_cols = np.roll(cpl.cols, 1)
        worse = transport.DiscreteCoupling(
            mu, nu, cpl.rows, bad_cols, cpl.mass, C, cpl.cost,
            cpl.phi, cpl.psi, solver="exact")
        assert not transport.certify_support(worse).passed

    def test_target_permutation_invariance(self):
        _, mu, nu, C = small_instance()
        perm = np.random.default_rng(1).permutation(nu.size)
        nu2 = transport.DiscreteMeasure(nu.points[perm], nu.weights)
        C2 = C[:, perm]
        c1 = transport.solve_exact(mu, nu, C)
        c2 = transport.solve_exact(mu, nu2, C2)
        assert np.isclose(c1.cost, c2.cost, atol=1e-12)

    def test_cost_scaling_linear(self):
        _, mu, nu, C = small_instance()
        c1 = transport.solve_exact(mu, nu, C)
        c2 = transport.solve_exact(mu, nu, 3.0 * C)
        assert np.isclose(c2.cost, 3.0 * c1.cost, atol=1e-10)

    def test_size_cap(self):
        _, mu, nu, C = small_instance()
        with pytest.raises(SizeCapError):
            transport.solve_exact(mu, nu, C, size_cap=(4, 4))


class TestEntropicSolver:
    def test_close_to_exact(self):
        _, mu, nu, C = small_instance(ns=30, nt=40)
        exact = transport.solve_exact(mu, nu, C)
        ent = transport.solve_entropic(mu, nu, C,
                                       eps_reg=5e-3 * float(C.mean()))
        assert ent.converged
        assert ent.cost >= exact.cost - 1e-9   # entropic plan is feasible
        assert (ent.cost - exact.cost) / exact.cost < 5e-2
        rres, cres = ent.marginal_residual()
        assert max(rres, cres) < 1e-6

    def test_entropic_violation_scales_with_reg(self):
        """Support violation is O(reg * log N): recorded, not tight."""
        _, mu, nu, C = small_instance(ns=20, nt=25)
        reg = 5e-3 * float(C.mean())
        ent = transport.solve_entropic(mu, nu, C, eps_reg=reg)
        scale = reg * math.log(mu.size * nu.size)
        rep = transport.certify_support(ent, tol=50.0 * scale)
        assert rep.passed
        assert rep.worst_violation > 0.0


class TestCTransform:
    def test_triple_transform_idempotent(self):
        rng = np.random.default_rng(3)
        C = rng.random((8, 11))
        phi = rng.standard_normal(8)
        psi1 = transport.c_transform(phi, C, "from_source")
        phi1 = transport.c_transform(psi1, C, "from_target")
        psi2 = transport.c_transform(phi1, C, "from_source")
        assert np.allclose(psi1, psi2, atol=1e-14)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(4)
        C = rng.random((6, 9))
        phi = rng.standard_normal(6)
        a = 0.37
        assert np.allclose(
            transport.c_transform(phi + a, C, "from_source"),
            transport.c_transform(phi, C, "from_source") - a, atol=1e-14)


def test_cut_locus_refused_in_cost():
    M = geometry.sphere(2, 1.0)
    x = np.array([[1.0, 0.0, 0.0]])
    mu = transport.DiscreteMeasure(x, np.array([1.0]))
    nu = transport.DiscreteMeasure(-x, np.array([1.0]))
    with pytest.raises(CutLocusError):
        transport.cost_matrix(M, mu, nu)


@pytest.fixture(scope="module")
def annulus_run():
    M = geometry.euclidean(4)
    mesh = submanifold.build_submanifold(
        M, submanifold.FlatDisk(radius=1.0), 8)
    rng = np.random.default_rng(17)
    # symmetric shell of targets around the disk
    npts = 600
    dirs = rng.standard_normal((npts, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = (3.0**4 + rng.random(npts) * (5.0**4 - 3.0**4)) ** 0.25
    zs = radii[:, None] * dirs
    f = constant_field(mesh, 1.0)
    mu = transport.source_measure(mesh, f)
    nu = transport.target_measure(zs)
    C = transport.cost_matrix(M, mu, nu)
    cpl = transport.solve_exact(mu, nu, C)
    assert transport.certify_support(cpl).passed
    dmax = float(np.sqrt(2.0 * C.max()))
    grad, flags = transport.potential_gradient_on_sigma(
        mesh, cpl.phi_cc, max_target_distance=dmax)
    return M, mesh, cpl, grad, flags


class TestFiberChecks:
    def test_tangency_small_and_adversarial_large(self, annulus_run):
        M, mesh, cpl, grad, _ = annulus_run
        fib = transport.tangency_residuals(M, mesh, cpl, grad)
        good = fib["median"]
        # corrupting the gradient must blow the residual up by 10x
        bad = grad + np.array([5.0, -5.0])
        fib_bad = transport.tangency_residuals(M, mesh, cpl, bad)
        assert fib_bad["median"] > 10.0 * good

    def test_fiber_mass_marginals(self, annulus_run):
        M, mesh, cpl, grad, _ = annulus_run
        rep = transport.fiber_mass_residual(cpl, domain_volume=100.0)
        assert rep.marginal_residual.max() < 1e-12
        assert np.isclose(rep.fiber_volume_proxy.sum(), 100.0, atol=1e-9)

    def test_gradient_cap_flags(self, annulus_run):
        M, mesh, cpl, _, _ = annulus_run
        grad, flags = transport.potential_gradient_on_sigma(
            mesh, cpl.phi_cc, max_target_distance=1e-3)
        assert flags.all()
        assert np.linalg.norm(grad, axis=1).max() <= 1e-3 + 1e-12

    def test_semiconcavity_passes(self, annulus_run):
        M, mesh, cpl, _, _ = annulus_run
        rep = transport.semiconcavity_check(
            M, mesh, submanifold.lsq_hessian(mesh, cpl.phi_cc), cpl,
            slack=0.5)
        assert rep.passed

    def test_write_coupling_format(self, annulus_run, tmp_path):
        _, _, cpl, _, _ = annulus_run
        path = tmp_path / "coupling.txt"
        transport.write_coupling(cpl, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "otsobolev-coupling 1"
        assert lines[1] == "solver exact"
        n_atoms = int([l for l in lines if l.startswith("atoms ")][0].split()[1])
        ii, jj, mm = cpl.atoms()
        assert n_atoms == len(ii)
        # atom masses re-read exactly (repr round-trip)
        k = lines.index(f"atoms {n_atoms}") + 1
        masses = [float(l.split()[2]) for l in lines[k:k + n_atoms]]
        assert np.array_equal(np.array(masses), mm)
