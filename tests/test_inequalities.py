"""Inequality variants: hand-computed constants, domains, scans, guards."""

import math

import numpy as np
import pytest

from otsobolev import geometry, inequalities, submanifold
from otsobolev.errors import HypothesisViolationError, UnsupportedVariantError
from otsobolev.fields import constant_field, field_from_expression


def flat_disk_mesh(radius=1.0, resolution=10, codim=2):
    M = geometry.euclidean(2 + codim)
    mesh = submanifold.build_submanifold(
        M, submanifold.FlatDisk(radius=radius, codim=codim), resolution)
    return M, mesh


class TestNonnegLimit:
    def test_flat_disk_is_sharp(self):
        """Constant density on a flat disk achieves equality: both sides
        reduce to the boundary length 2*pi*rho."""
        rho = 0.8
        M, mesh = flat_disk_mesh(radius=rho)
        rep = inequalities.evaluate_inequality(
            M, mesh, constant_field(mesh, 1.0), inequalities.NONNEG_LIMIT, {})
        assert abs(rep.lhs - 2 * math.pi * rho) < 1e-9
        assert abs(rep.rhs - 2 * math.pi * rho) < 1e-9
        assert abs(rep.ratio - 1.0) < 1e-9

    def test_constant_matches_hand_value(self):
        """n = m = 2: the dimensional constant collapses to 2*sqrt(pi)."""
        M, mesh = flat_disk_mesh()
        rep = inequalities.evaluate_inequality(
            M, mesh, constant_field(mesh, 1.0), inequalities.NONNEG_LIMIT, {})
        assert rep.constants["theta"] == 1.0
        assert np.isclose(rep.constants["lhs_constant"],
                          2.0 * math.sqrt(math.pi), atol=1e-12)

    def test_field_scaling_leaves_ratio_invariant(self):
        M, mesh = flat_disk_mesh()
        r1 = inequalities.evaluate_inequality(
            M, mesh, constant_field(mesh, 1.0), inequalities.NONNEG_LIMIT, {})
        r2 = inequalities.evaluate_inequality(
            M, mesh, constant_field(mesh, 3.7), inequalities.NONNEG_LIMIT, {})
        assert np.isclose(r1.ratio, r2.ratio, atol=1e-12)

    def test_nonconstant_field_strictly_inside(self):
        M, mesh = flat_disk_mesh(resolution=14)
        f = field_from_expression(mesh, "1 + u1**2 + 2*u2**2")
        rep = inequalities.evaluate_inequality(
            M, mesh, f, inequalities.NONNEG_LIMIT, {})
        assert rep.ratio < 1.0

    def test_codimension_one_must_be_lifted(self):
        M, mesh = flat_disk_mesh(codim=1)
        with pytest.raises(HypothesisViolationError):
            inequalities.evaluate_inequality(
                M, mesh, constant_field(mesh, 1.0),
                inequalities.NONNEG_LIMIT, {})

    def test_lifted_hypersurface_is_sharp_again(self):
        """Crossing with a line preserves flatness, so the lifted disk
        still achieves equality."""
        rho = 0.6
        M, mesh = flat_disk_mesh(radius=rho, codim=1)
        lifted_M, lifted = inequalities.hypersurface_lift(M, mesh)
        assert lifted.m == 2
        rep = inequalities.evaluate_inequality(
            lifted_M, lifted, constant_field(lifted, 1.0),
            inequalities.NONNEG_LIMIT, {})
        assert abs(rep.ratio - 1.0) < 1e-9


class TestAnnulusDomain:
    def test_point_like_mesh_volume_identity(self):
        """For a vanishingly small disk the admissible set is the exact
        annulus: volume |B^4| (r^4 - (sigma r)^4)."""
        M, mesh = flat_disk_mesh(radius=0.01, resolution=8)
        sigma, r = 0.5, 2.0
        dom = inequalities.build_target_domain(
            M, mesh, inequalities.ANNULUS, dict(sigma=sigma, r=r), 4000, 7)
        exact = geometry.ball_volume(4) * (r**4 - (sigma * r) ** 4)
        assert abs(dom.volume - exact) < 3.0 * dom.volume_stderr + 0.02 * exact
        d = np.linalg.norm(dom.points, axis=1)
        assert d.min() >= sigma * r - 0.011 and d.max() <= r + 0.011

    def test_distance_constraints_hold_against_every_node(self):
        M, mesh = flat_disk_mesh(radius=1.0, resolution=8)
        sigma, r = 0.6, 6.0
        dom = inequalities.build_target_domain(
            M, mesh, inequalities.ANNULUS, dict(sigma=sigma, r=r), 500, 3)
        dmin = submanifold.distance_to_mesh(mesh, dom.points)
        dmax = geometry.pairwise_distances(M, dom.points,
                                           mesh.points).max(axis=1)
        assert dmin.min() >= sigma * r - 1e-9
        assert dmax.max() <= r + 1e-9

    def test_deterministic_per_seed(self):
        M, mesh = flat_disk_mesh(resolution=8)
        a = inequalities.build_target_domain(
            M, mesh, inequalities.ANNULUS, dict(sigma=0.6, r=6.0), 300, 11)
        b = inequalities.build_target_domain(
            M, mesh, inequalities.ANNULUS, dict(sigma=0.6, r=6.0), 300, 11)
        c = inequalities.build_target_domain(
            M, mesh, inequalities.ANNULUS, dict(sigma=0.6, r=6.0), 300, 12)
        assert np.array_equal(a.points, b.points)
        assert a.volume == b.volume
        assert not np.array_equal(a.points, c.points)

    def test_sigma_out_of_range(self):
        M, mesh = flat_disk_mesh(resolution=8)
        with pytest.raises(ValueError):
            inequalities.build_target_domain(
                M, mesh, inequalities.ANNULUS, dict(sigma=1.2, r=2.0), 100, 0)

    def test_non_euclidean_ambient_rejected(self):
        M = geometry.sphere(4)
        mesh = submanifold.build_submanifold(
            M, submanifold.GeodesicBallInSubsphere(0.8), 8)
        with pytest.raises(UnsupportedVariantError):
            inequalities.build_target_domain(
                M, mesh, inequalities.ANNULUS, dict(sigma=0.5, r=1.0), 100, 0)


class TestNonnegFinite:
    def test_constants_match_hand_formula(self):
        M, mesh = flat_disk_mesh(resolution=8)
        sigma, r = 0.6, 6.0
        dom = inequalities.build_target_domain(
            M, mesh, inequalities.ANNULUS, dict(sigma=sigma, r=r), 800, 5)
        rep = inequalities.evaluate_inequality(
            M, mesh, constant_field(mesh, 1.0), inequalities.NONNEG_FINITE,
            dict(sigma=sigma, r=r), domain=dom)
        V = dom.volume
        want = 2.0 * math.sqrt(2.0 * V / (2.0 * math.pi * (1 - sigma**2)))
        assert np.isclose(rep.constants["lhs_constant"], want, atol=1e-12)
        assert np.isclose(rep.constants["fiber_bound"],
                          0.5 * 2 * math.pi * r**2 * (1 - sigma**2),
                          atol=1e-12)
        assert rep.passed

    def test_requires_annulus_domain(self):
        M, mesh = flat_disk_mesh(resolution=8)
        with pytest.raises(ValueError):
            inequalities.evaluate_inequality(
                M, mesh, constant_field(mesh, 1.0),
                inequalities.NONNEG_FINITE, dict(sigma=0.6, r=6.0))


@pytest.fixture(scope="module")
def hemisphere():
    M = geometry.sphere(4)
    mesh = submanifold.build_submanifold(
        M, submanifold.GeodesicBallInSubsphere(math.pi / 2), 12)
    return M, mesh


@pytest.fixture(scope="module")
def hyperbolic_setup():
    M = geometry.hyperbolic(4)
    mesh = submanifold.build_submanifold(
        M, submanifold.GeodesicDiskInHyperbolicSubspace(0.5), 10)
    return M, mesh


class TestPositiveVariants:
    def test_closed_positive_constants(self, hemisphere):
        M, mesh = hemisphere
        rep = inequalities.evaluate_inequality(
            M, mesh, constant_field(mesh, 1.0),
            inequalities.CLOSED_POSITIVE, {})
        assert np.isclose(rep.constants["diam"], math.pi, atol=1e-12)
        assert np.isclose(rep.constants["volume"], 8 * math.pi**2 / 3,
                          atol=1e-9)
        assert rep.passed

    def test_tube_at_zero_equals_closed(self, hemisphere):
        M, mesh = hemisphere
        f = constant_field(mesh, 1.0)
        closed = inequalities.evaluate_inequality(
            M, mesh, f, inequalities.CLOSED_POSITIVE, {})
        tube = inequalities.evaluate_inequality(
            M, mesh, f, inequalities.POSITIVE_TUBE, dict(eps=0.0))
        assert tube.lhs == pytest.approx(closed.lhs, abs=1e-12)
        assert tube.rhs == pytest.approx(closed.rhs, abs=1e-12)

    def test_small_tube_close_to_closed(self, hemisphere):
        M, mesh = hemisphere
        f = constant_field(mesh, 1.0)
        closed = inequalities.evaluate_inequality(
            M, mesh, f, inequalities.CLOSED_POSITIVE, {})
        dom = inequalities.build_target_domain(
            M, mesh, inequalities.COMPLEMENT_OF_TUBE, dict(eps=0.05), 1200, 2)
        tube = inequalities.evaluate_inequality(
            M, mesh, f, inequalities.POSITIVE_TUBE, dict(eps=0.05),
            domain=dom)
        assert tube.passed
        assert abs(tube.rhs - closed.rhs) / closed.rhs < 0.05

    def test_tube_needs_domain_when_eps_positive(self, hemisphere):
        M, mesh = hemisphere
        with pytest.raises(ValueError):
            inequalities.evaluate_inequality(
                M, mesh, constant_field(mesh, 1.0),
                inequalities.POSITIVE_TUBE, dict(eps=0.1))

    def test_positive_needs_positive_bounds(self, hemisphere):
        M, mesh = hemisphere
        with pytest.raises(HypothesisViolationError):
            inequalities.evaluate_inequality(
                M, mesh, constant_field(mesh, 1.0),
                inequalities.POSITIVE_TUBE, dict(eps=0.0, k1=-1.0))

    def test_wrong_ambient_rejected(self):
        M, mesh = flat_disk_mesh(resolution=8)
        with pytest.raises(HypothesisViolationError):
            inequalities.evaluate_inequality(
                M, mesh, constant_field(mesh, 1.0),
                inequalities.CLOSED_POSITIVE, {})


class TestNegativeLocal:
    def test_ball_volume_closed_form(self, hyperbolic_setup):
        """vol(B_h) in H^4 = 2 pi^2 * (cosh^3 h / 3 - cosh h + 2/3)."""
        M, mesh = hyperbolic_setup
        r = 2.0
        dom = inequalities.build_target_domain(
            M, mesh, inequalities.GEODESIC_BALL, dict(r=r), 500, 4)
        h = r / 2.0
        c = math.cosh(h)
        exact = 2 * math.pi**2 * (c**3 / 3.0 - c + 2.0 / 3.0)
        assert np.isclose(dom.volume, exact, rtol=1e-6)
        assert dom.volume_provenance == "analytic"
        center = np.asarray(dom.meta["center"])
        d = geometry.distance(M, dom.points,
                              np.broadcast_to(center, dom.points.shape))
        assert d.max() <= h + 1e-9

    def test_constants_and_pass(self, hyperbolic_setup):
        M, mesh = hyperbolic_setup
        r = 2.0
        dom = inequalities.build_target_domain(
            M, mesh, inequalities.GEODESIC_BALL, dict(r=r), 800, 4)
        rep = inequalities.evaluate_inequality(
            M, mesh, constant_field(mesh, 1.0), inequalities.NEGATIVE_LOCAL,
            dict(r=r), domain=dom)
        assert np.isclose(rep.constants["cosh_factor"], math.cosh(r),
                          atol=1e-12)
        assert np.isclose(rep.constants["sinh_factor"],
                          math.sinh(r) / 2.0, atol=1e-12)
        assert rep.passed

    def test_containment_hypothesis_enforced(self):
        M = geometry.hyperbolic(4)
        big = submanifold.build_submanifold(
            M, submanifold.GeodesicDiskInHyperbolicSubspace(1.2), 10)
        dom = inequalities.build_target_domain(
            M, big, inequalities.GEODESIC_BALL, dict(r=2.0), 200, 4)
        with pytest.raises(HypothesisViolationError):
            inequalities.evaluate_inequality(
                M, big, constant_field(big, 1.0), inequalities.NEGATIVE_LOCAL,
                dict(r=2.0), domain=dom)

    def test_needs_negative_bounds(self, hyperbolic_setup):
        M, mesh = hyperbolic_setup
        with pytest.raises(HypothesisViolationError):
            inequalities.evaluate_inequality(
                M, mesh, constant_field(mesh, 1.0),
                inequalities.NEGATIVE_LOCAL, dict(r=2.0, k1=0.5))


class TestWholeManifoldAndTubeDomains:
    def test_whole_sphere_volume_analytic(self):
        M = geometry.sphere(3)
        mesh = submanifold.build_submanifold(
            M, submanifold.EquatorialSubsphereBand(), 10)
        dom = inequalities.build_target_domain(
            M, mesh, inequalities.WHOLE_MANIFOLD, {}, 400, 9)
        assert np.isclose(dom.volume, geometry.manifold_volume(M), atol=1e-12)
        far = geometry.pairwise_distances(M, dom.points,
                                          mesh.points).max(axis=1)
        assert far.max() < math.pi * M.radius - 5 * geometry.CUT_TOLERANCE

    def test_tube_complement_at_zero_eps(self):
        M = geometry.sphere(3)
        mesh = submanifold.build_submanifold(
            M, submanifold.EquatorialSubsphereBand(), 10)
        dom = inequalities.build_target_domain(
            M, mesh, inequalities.COMPLEMENT_OF_TUBE, dict(eps=0.0), 200, 9)
        assert dom.volume_provenance == "analytic"
        assert np.isclose(dom.volume, geometry.manifold_volume(M), atol=1e-12)

    def test_tube_complement_excludes_tube(self):
        M = geometry.sphere(3)
        mesh = submanifold.build_submanifold(
            M, submanifold.EquatorialSubsphereBand(), 10)
        eps = 0.3
        dom = inequalities.build_target_domain(
            M, mesh, inequalities.COMPLEMENT_OF_TUBE, dict(eps=eps), 300, 9)
        dmin = submanifold.distance_to_mesh(mesh, dom.points)
        assert dmin.min() > eps
        assert dom.volume + dom.meta["tube_volume"] == pytest.approx(
            geometry.manifold_volume(M), rel=1e-9)


class TestSharpnessScans:
    def test_flat_family_is_uniformly_sharp(self):
        rows = inequalities.sharpness_scan("flat_disk_radius",
                                           [0.5, 1.0, 2.0], resolution=10)
        for row in rows:
            assert abs(row["ratio"] - 1.0) < 1e-9

    def test_sphere_family_stays_below_one(self):
        rows = inequalities.sharpness_scan("sphere_ball_radius",
                                           [0.6, 1.0, math.pi / 2],
                                           resolution=10)
        for row in rows:
            assert row["ratio"] <= 1.0 + inequalities.REPORT_TOL

    def test_hyperbolic_family_stays_below_one(self):
        rows = inequalities.sharpness_scan("hyperbolic_r", [1.5, 2.0, 3.0],
                                           resolution=10, n_samples=400)
        for row in rows:
            assert row["ratio"] <= 1.0 + inequalities.REPORT_TOL
        # larger balls are increasingly slack
        ratios = [row["ratio"] for row in rows]
        assert ratios == sorted(ratios, reverse=True)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            inequalities.sharpness_scan("nope", [1.0])


class TestIntegrationByParts:
    def test_quadratic_potential_saturates(self):
        """phi = -|u|^2/2 has Lap phi = -2; with f = 1 and r = rho the
        two sides agree exactly, so the margin equals the slack."""
        rho = 1.0
        M, mesh = flat_disk_mesh(radius=rho, resolution=12)
        f = constant_field(mesh, 1.0)
        phi = -0.5 * np.sum(mesh.stencil_coords**2, axis=1)
        margin, lhs, rhs = inequalities.integration_by_parts_check(
            mesh, f, submanifold.lsq_hessian(mesh, phi), r_bound=rho,
            slack=0.05)
        assert np.isclose(lhs, 2 * math.pi * rho**2, atol=1e-9)
        assert np.isclose(rhs, 2 * math.pi * rho, atol=1e-9)
        assert np.isclose(margin, 0.05 * rhs, atol=1e-9)
        assert margin >= 0.0
