"""Inequality variants: hand-computed constants, domains, guards."""

import math

import numpy as np
import pytest
from scipy.stats import norm, qmc

from otsobolev import cli, geometry, inequalities, pipeline, submanifold
from otsobolev.errors import (
    EmptyDomainError,
    HypothesisViolationError,
    UnsupportedVariantError,
)
from otsobolev.fields import field_from_expression

from chart_checks import model_space


def flat_disk_mesh(radius=1.0, resolution=10, codim=2):
    M = model_space(geometry.EUCLIDEAN, 2 + codim)
    mesh = submanifold.build_submanifold(
        M, submanifold.FlatDisk(radius=radius), resolution)
    return M, mesh


def evaluate(M, mesh, f, variant, params, domain=None):
    """``inequalities.evaluate_inequality`` on the integrals of ``f``."""
    return inequalities.evaluate_inequality(
        M, mesh, inequalities.inequality_terms(M, mesh, f), variant, params,
        domain=domain)


class TestNonnegLimit:
    def test_flat_disk_is_sharp(self):
        """Constant density on a flat disk achieves equality: both sides
        reduce to the boundary length 2*pi*rho."""
        rho = 0.8
        M, mesh = flat_disk_mesh(radius=rho)
        rep = evaluate(
            M, mesh, field_from_expression(mesh, "1.0"),
            inequalities.NONNEG_LIMIT, {})
        assert abs(rep["lhs"] - 2 * math.pi * rho) < 1e-9
        assert abs(rep["rhs"] - 2 * math.pi * rho) < 1e-9
        assert abs(rep["ratio"] - 1.0) < 1e-9

    def test_constant_matches_hand_value(self):
        """n = m = 2: the dimensional constant collapses to 2*sqrt(pi)."""
        M, mesh = flat_disk_mesh()
        rep = evaluate(
            M, mesh, field_from_expression(mesh, "1.0"),
            inequalities.NONNEG_LIMIT, {})
        assert rep["constants"]["theta"] == 1.0
        assert np.isclose(rep["constants"]["lhs_constant"],
                          2.0 * math.sqrt(math.pi), atol=1e-12)

    def test_field_scaling_leaves_ratio_invariant(self):
        M, mesh = flat_disk_mesh()
        r1 = evaluate(
            M, mesh, field_from_expression(mesh, "1.0"),
            inequalities.NONNEG_LIMIT, {})
        r2 = evaluate(
            M, mesh, field_from_expression(mesh, "3.7"),
            inequalities.NONNEG_LIMIT, {})
        assert np.isclose(r1["ratio"], r2["ratio"], atol=1e-12)

    def test_nonconstant_field_strictly_inside(self):
        M, mesh = flat_disk_mesh(resolution=14)
        f = field_from_expression(mesh, "1 + u1**2 + 2*u2**2")
        rep = evaluate(
            M, mesh, f, inequalities.NONNEG_LIMIT, {})
        assert rep["ratio"] < 1.0

    def test_codimension_one_must_be_lifted(self):
        M, mesh = flat_disk_mesh(codim=1)
        with pytest.raises(HypothesisViolationError):
            evaluate(
                M, mesh, field_from_expression(mesh, "1.0"),
                inequalities.NONNEG_LIMIT, {})


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
        dmin, _ = submanifold.distance_to_mesh(mesh, dom.points)
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
        M = model_space(geometry.SPHERE, 4)
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
        rep = evaluate(
            M, mesh, field_from_expression(mesh, "1.0"),
            inequalities.NONNEG_FINITE, dict(sigma=sigma, r=r), domain=dom)
        V = dom.volume
        want = 2.0 * math.sqrt(2.0 * V / (2.0 * math.pi * (1 - sigma**2)))
        assert np.isclose(rep["constants"]["lhs_constant"], want, atol=1e-12)
        assert np.isclose(rep["constants"]["fiber_bound"],
                          0.5 * 2 * math.pi * r**2 * (1 - sigma**2),
                          atol=1e-12)
        assert rep["ratio"] <= 1.0 + inequalities.REPORT_TOL

    def test_requires_annulus_domain(self):
        M, mesh = flat_disk_mesh(resolution=8)
        with pytest.raises(ValueError):
            evaluate(
                M, mesh, field_from_expression(mesh, "1.0"),
                inequalities.NONNEG_FINITE, dict(sigma=0.6, r=6.0))


@pytest.fixture(scope="module")
def hemisphere():
    M = model_space(geometry.SPHERE, 4)
    mesh = submanifold.build_submanifold(
        M, submanifold.GeodesicBallInSubsphere(math.pi / 2), 12)
    return M, mesh


@pytest.fixture(scope="module")
def hyperbolic_setup():
    M = model_space(geometry.HYPERBOLIC, 4)
    mesh = submanifold.build_submanifold(
        M, submanifold.GeodesicDiskInHyperbolicSubspace(0.5), 10)
    return M, mesh


class TestPositiveVariants:
    def test_closed_positive_constants(self, hemisphere):
        M, mesh = hemisphere
        rep = evaluate(
            M, mesh, field_from_expression(mesh, "1.0"),
            inequalities.CLOSED_POSITIVE, {})
        assert np.isclose(rep["constants"]["diam"], math.pi, atol=1e-12)
        assert np.isclose(rep["constants"]["volume"], 8 * math.pi**2 / 3,
                          atol=1e-9)
        assert rep["ratio"] <= 1.0 + inequalities.REPORT_TOL

    def test_tube_at_zero_equals_closed(self, hemisphere):
        M, mesh = hemisphere
        f = field_from_expression(mesh, "1.0")
        closed = evaluate(
            M, mesh, f, inequalities.CLOSED_POSITIVE, {})
        tube = evaluate(
            M, mesh, f, inequalities.POSITIVE_TUBE, dict(eps=0.0))
        assert tube["lhs"] == pytest.approx(closed["lhs"], abs=1e-12)
        assert tube["rhs"] == pytest.approx(closed["rhs"], abs=1e-12)

    def test_small_tube_close_to_closed(self, hemisphere):
        M, mesh = hemisphere
        f = field_from_expression(mesh, "1.0")
        closed = evaluate(
            M, mesh, f, inequalities.CLOSED_POSITIVE, {})
        dom = inequalities.build_target_domain(
            M, mesh, inequalities.COMPLEMENT_OF_TUBE, dict(eps=0.05), 1200, 2)
        tube = evaluate(
            M, mesh, f, inequalities.POSITIVE_TUBE, dict(eps=0.05),
            domain=dom)
        assert tube["ratio"] <= 1.0 + inequalities.REPORT_TOL
        assert abs(tube["rhs"] - closed["rhs"]) / closed["rhs"] < 0.05

    def test_tube_needs_domain_when_eps_positive(self, hemisphere):
        M, mesh = hemisphere
        with pytest.raises(ValueError):
            evaluate(
                M, mesh, field_from_expression(mesh, "1.0"),
                inequalities.POSITIVE_TUBE, dict(eps=0.1))

    def test_wrong_ambient_rejected(self):
        M, mesh = flat_disk_mesh(resolution=8)
        with pytest.raises(HypothesisViolationError):
            evaluate(
                M, mesh, field_from_expression(mesh, "1.0"),
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
        center = np.zeros(M.embedding_dim)
        center[0] = M.radius
        d = geometry.distance(M, dom.points,
                              np.broadcast_to(center, dom.points.shape))
        assert d.max() <= h + 1e-9

    def test_constants_and_pass(self, hyperbolic_setup):
        M, mesh = hyperbolic_setup
        r = 2.0
        dom = inequalities.build_target_domain(
            M, mesh, inequalities.GEODESIC_BALL, dict(r=r), 800, 4)
        rep = evaluate(
            M, mesh, field_from_expression(mesh, "1.0"),
            inequalities.NEGATIVE_LOCAL, dict(r=r), domain=dom)
        assert np.isclose(rep["constants"]["cosh_factor"], math.cosh(r),
                          atol=1e-12)
        assert np.isclose(rep["constants"]["sinh_factor"],
                          math.sinh(r) / 2.0, atol=1e-12)
        assert rep["ratio"] <= 1.0 + inequalities.REPORT_TOL


class TestCrossVariantOracle:
    """On a flat 2-disk in 4-space (n = m = 2) nonneg_finite at sigma -> 0
    and negative_local at K -> 0- are one inequality: divided by
    n r^(m/n), both sides of nonneg_finite equal those of negative_local
    on a domain of the same volume.  The gap is O(|K|) + O(sigma^2), so
    at K = -1e-6 and sigma = 1e-6 a relative tolerance of 1e-5 pins the
    non-flat constants (cosh, sinh, the (-k2)^(m/2) / sinh^m volume
    factor) that no bundled ratio near 1 does."""

    @staticmethod
    def domain(variant, dim, volume):
        return inequalities.TargetDomain(
            variant, np.zeros((1, dim)), volume, 0.0, "analytic")

    @pytest.mark.parametrize("expression", [None, "1 + u1**2 + u2"])
    def test_nonneg_finite_is_negative_local_in_the_flat_limit(
            self, expression):
        r, volume, resolution = 2.0, 10.0, 10

        def field(mesh):
            return field_from_expression(mesh, expression or "1.0")

        H = model_space(geometry.HYPERBOLIC, 4, -1e-6)
        hmesh = submanifold.build_submanifold(
            H, submanifold.GeodesicDiskInHyperbolicSubspace(0.5), resolution)
        neg = evaluate(
            H, hmesh, field(hmesh), inequalities.NEGATIVE_LOCAL, dict(r=r),
            domain=self.domain(inequalities.GEODESIC_BALL, H.embedding_dim,
                               volume))
        E, emesh = flat_disk_mesh(radius=0.5, resolution=resolution)
        fin = evaluate(
            E, emesh, field(emesh), inequalities.NONNEG_FINITE,
            dict(sigma=1e-6, r=r),
            domain=self.domain(inequalities.ANNULUS, 4, volume))
        scale = 2 * r ** (2 / 2)
        assert fin["lhs"] / scale == pytest.approx(neg["lhs"], rel=1e-5)
        assert fin["rhs"] / scale == pytest.approx(neg["rhs"], rel=1e-5)


class TestWholeManifoldAndTubeDomains:
    def test_whole_sphere_volume_analytic(self):
        M = model_space(geometry.SPHERE, 3)
        mesh = submanifold.build_submanifold(
            M, submanifold.EquatorialSubsphereBand(), 10)
        dom = inequalities.build_target_domain(
            M, mesh, inequalities.WHOLE_MANIFOLD, {}, 400, 9)
        assert np.isclose(dom.volume, geometry.manifold_volume(M), atol=1e-12)
        far = geometry.pairwise_distances(M, dom.points,
                                          mesh.points).max(axis=1)
        assert far.max() < math.pi * M.radius - 5 * geometry.CUT_TOLERANCE

    def test_tube_complement_at_zero_eps(self):
        M = model_space(geometry.SPHERE, 3)
        mesh = submanifold.build_submanifold(
            M, submanifold.EquatorialSubsphereBand(), 10)
        dom = inequalities.build_target_domain(
            M, mesh, inequalities.COMPLEMENT_OF_TUBE, dict(eps=0.0), 200, 9)
        assert dom.volume_provenance == "analytic"
        assert np.isclose(dom.volume, geometry.manifold_volume(M), atol=1e-12)

    def test_tube_complement_excludes_tube(self):
        M = model_space(geometry.SPHERE, 3)
        mesh = submanifold.build_submanifold(
            M, submanifold.EquatorialSubsphereBand(), 10)
        eps = 0.3
        dom = inequalities.build_target_domain(
            M, mesh, inequalities.COMPLEMENT_OF_TUBE, dict(eps=eps), 300, 9)
        dmin, _ = submanifold.distance_to_mesh(mesh, dom.points)
        assert dmin.min() > eps
        # the tube volume from the seed the builder spawns for it
        s_vol = np.random.SeedSequence(9).spawn(2)[1]
        tube, _ = submanifold.tubular_volume(
            M, mesh, eps, seed=int(s_vol.generate_state(1)[0]))
        assert geometry.manifold_volume(M) - dom.volume == pytest.approx(
            tube, rel=1e-9)

    @pytest.mark.parametrize("variant, params", [
        (inequalities.COMPLEMENT_OF_TUBE, dict(eps=0.3)),
        (inequalities.GEODESIC_BALL, dict(r=2.0))])
    def test_volume_alone_without_samples(self, hyperbolic_setup, variant,
                                          params):
        """With no samples the domain has no points and bit for bit the
        volume it has with them: the points and the volume are drawn from
        separate seeds."""
        if variant == inequalities.GEODESIC_BALL:
            M, mesh = hyperbolic_setup
        else:
            M = model_space(geometry.SPHERE, 3)
            mesh = submanifold.build_submanifold(
                M, submanifold.EquatorialSubsphereBand(), 10)
        full, bare = (inequalities.build_target_domain(
            M, mesh, variant, params, n, 9) for n in (300, 0))
        assert bare.points.shape == (0, M.embedding_dim)
        assert len(full.points) == 300
        assert (bare.volume, bare.volume_stderr) == (full.volume,
                                                     full.volume_stderr)

    def test_tube_covering_the_sphere_is_empty(self):
        """A tube whose Monte Carlo volume is the sphere's leaves an empty
        complement, with no samples too."""
        M = model_space(geometry.SPHERE, 3)
        mesh = submanifold.build_submanifold(
            M, submanifold.EquatorialSubsphereBand(), 10)
        for n_samples in (0, 300):
            with pytest.raises(EmptyDomainError, match="covers the sphere"):
                inequalities.build_target_domain(
                    M, mesh, inequalities.COMPLEMENT_OF_TUBE,
                    dict(eps=math.pi / 2), n_samples, 9)


class TestIntegrationByParts:
    def test_quadratic_potential_saturates(self):
        """phi = -|u|^2/2 has Lap phi = -2; with f = 1 and r = rho the
        two sides agree exactly."""
        rho = 1.0
        M, mesh = flat_disk_mesh(radius=rho, resolution=12)
        f = field_from_expression(mesh, "1.0")
        phi = -0.5 * np.sum(mesh.stencil_coords**2, axis=1)
        lhs, rhs = inequalities.integration_by_parts_check(
            mesh, f, submanifold.lsq_hessian(mesh, phi), r_bound=rho,
            terms=inequalities.inequality_terms(M, mesh, f))
        assert np.isclose(lhs, 2 * math.pi * rho**2, atol=1e-9)
        assert np.isclose(rhs, 2 * math.pi * rho, atol=1e-9)


class TestScrambledHalton:
    """The in-house lattice against its oracle, ``scipy.stats``: the
    target domains draw their candidates from it, so a changed bit here
    changes every Monte-Carlo domain and its report."""

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1, 20240602])
    def test_bitwise_equal_to_scipy(self, dim, seed):
        ours_seq = np.random.SeedSequence(seed)
        scipy_seq = np.random.SeedSequence(seed)
        ours = inequalities.ScrambledHalton(dim, ours_seq)
        theirs = qmc.Halton(d=dim, scramble=True,
                            rng=np.random.default_rng(scipy_seq))
        # both spawn one Generator of their own from the caller's
        assert ours_seq.n_children_spawned \
            == scipy_seq.n_children_spawned == 1
        for n in (257, 1000):
            got, want = ours.random(n), theirs.random(n)
            assert got.shape == want.shape == (n, dim)
            assert got.strides == want.strides
            assert got.tobytes() == want.tobytes()

    def test_ndtri_is_norm_ppf(self):
        u = np.random.default_rng(3).random((500, 4))
        u[0] = [0.0, 1.0, 1e-12, 1.0 - 1e-12]
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        assert u[0, 0] == 1e-12 and u[0, 1] == 1.0 - 1e-12
        assert inequalities.ndtri(u).tobytes() == norm.ppf(u).tobytes()


@pytest.mark.parametrize("name", ["flat_graph", "flat_disk_sharp"])
def test_a_run_integrates_its_field_once(monkeypatch, name):
    """The integrals of the field are computed once per run: for an
    expression field (flat_graph) by the mesh stage, whose overflow
    check needs them, and the inequality check reuses them; for a
    constant field (flat_disk_sharp) by the inequality check."""
    calls = []
    terms = inequalities.inequality_terms
    monkeypatch.setattr(inequalities, "inequality_terms",
                        lambda *args: calls.append(1) or terms(*args))
    report = pipeline.run_scenario(pipeline.ScenarioConfig.load(
        cli.bundled_scenario_path(f"{name}.cfg")))
    assert report.ok and report.inequality["terms"]
    assert len(calls) == 1


def test_a_transport_run_integrates_the_gradient_once(monkeypatch):
    """The integration-by-parts check reads int_boundary f and int |grad
    f| from the run's field terms: a shrunk flat_disk_annulus run, which
    runs that check, computes the two integrals once."""
    calls = []
    integrals = inequalities._boundary_and_gradient_integrals
    monkeypatch.setattr(inequalities, "_boundary_and_gradient_integrals",
                        lambda *args: calls.append(1) or integrals(*args))
    config = pipeline.ScenarioConfig.load(
        cli.bundled_scenario_path("flat_disk_annulus.cfg"),
        [("submanifold", "resolution", "6"), ("domain", "samples", "150"),
         ("jacobi", "atoms", "20")])
    report = pipeline.run_scenario(config)
    assert report.checks["ibp"]["passed"]
    assert len(calls) == 1
