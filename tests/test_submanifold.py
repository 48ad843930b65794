"""Submanifold meshes: quadrature, frames, curvature data, export/import."""

import math

import numpy as np
import pytest
from scipy import integrate as scint

from otsobolev import geometry, inequalities, submanifold
from otsobolev.errors import (
    DegenerateStencilError,
    LengthMismatchError,
    ResolutionTooCoarseError,
    UnsupportedChartError,
    UnsupportedVariantError,
)
from otsobolev.fields import constant_field, field_from_expression


def flat_disk_mesh(res=12, radius=1.0, codim=2):
    M = geometry.euclidean(2 + codim)
    return submanifold.build_submanifold(
        M, submanifold.FlatDisk(radius=radius, codim=codim), res)


class TestFlatDisk:
    def test_area_and_boundary_length(self):
        mesh = flat_disk_mesh(res=20, radius=1.5)
        assert np.isclose(mesh.weights.sum(), math.pi * 1.5**2, rtol=1e-10)
        assert np.isclose(mesh.boundary_weights.sum(), 2 * math.pi * 1.5,
                          rtol=1e-10)

    def test_frames_orthonormal_and_flat(self):
        mesh = flat_disk_mesh()
        assert mesh.frame_gram_residual() < 1e-12
        assert np.abs(mesh.sff).max() == 0.0
        assert np.abs(mesh.mean_curvature).max() == 0.0

    def test_integrate_length_mismatch(self):
        mesh = flat_disk_mesh()
        with pytest.raises(LengthMismatchError):
            submanifold.integrate(mesh, np.ones(3))

    def test_quadrature_convergence_order(self):
        """Error of a smooth integral shrinks at order >= 1.8 under halving."""
        exact = float(scint.dblquad(
            lambda t, r: r * math.exp(-r**2) * (1 + 0.3 * math.cos(t)),
            0, 1, 0, 2 * math.pi)[0])
        errs = []
        for res in (8, 16, 32):
            mesh = flat_disk_mesh(res=res)
            x, y = mesh.points[:, 0], mesh.points[:, 1]
            vals = np.exp(-(x**2 + y**2)) * (1 + 0.3 * np.cos(
                np.arctan2(y, x)))
            errs.append(abs(submanifold.integrate(mesh, vals) - exact))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 >= 1.8 and order2 >= 1.8


class TestGraphOverDisk:
    def test_area_against_quadrature(self):
        c = 0.3
        M = geometry.euclidean(4)
        mesh = submanifold.build_submanifold(
            M, submanifold.GraphOverDisk(radius=1.0,
                                         height="(u1**2 + u2**2)*3/10"), 24)
        exact = float(scint.quad(
            lambda r: 2 * math.pi * r * math.sqrt(1 + (2 * c * r) ** 2),
            0, 1)[0])
        assert np.isclose(mesh.weights.sum(), exact, rtol=1e-3)

    def test_mean_curvature_at_center(self):
        """For z = c|u|^2 the mean curvature at the origin is 2c + 2c."""
        c = 0.3
        M = geometry.euclidean(4)
        mesh = submanifold.build_submanifold(
            M, submanifold.GraphOverDisk(radius=1.0,
                                         height="(u1**2 + u2**2)*3/10"), 30)
        k = int(np.argmin(mesh.params[:, 0]))
        hnorm = float(np.linalg.norm(mesh.mean_curvature[k]))
        assert np.isclose(hnorm, 4 * c, rtol=2e-2)
        assert mesh.frame_gram_residual() < 1e-10

    def test_sff_traces_to_mean_curvature(self):
        M = geometry.euclidean(4)
        mesh = submanifold.build_submanifold(
            M, submanifold.GraphOverDisk(radius=1.0, height="u1*u2"), 16)
        hn = mesh.mean_curvature_normal_components()
        tr = np.einsum("naii->na", mesh.sff)
        assert np.allclose(hn, tr, atol=1e-10)


class TestCurvedCharts:
    def test_sphere_ball_area_and_geodesy(self):
        M = geometry.sphere(3, 1.0)
        rad = 1.2
        mesh = submanifold.build_submanifold(
            M, submanifold.GeodesicBallInSubsphere(radius=rad), 24)
        exact = 2 * math.pi * (1 - math.cos(rad))  # spherical cap area
        assert np.isclose(mesh.weights.sum(), exact, rtol=5e-4)
        # totally geodesic: vanishing second fundamental form
        assert np.abs(mesh.sff).max() < 1e-12
        assert np.abs(mesh.mean_curvature).max() < 1e-12
        assert mesh.frame_gram_residual() < 1e-10
        for p in mesh.points[:5]:
            geometry.check_point(M, p)

    def test_hyperbolic_disk_area(self):
        M = geometry.hyperbolic(3, -1.0)
        rad = 0.8
        mesh = submanifold.build_submanifold(
            M, submanifold.GeodesicDiskInHyperbolicSubspace(radius=rad), 24)
        exact = 2 * math.pi * (math.cosh(rad) - 1)
        assert np.isclose(mesh.weights.sum(), exact, rtol=1e-4)
        assert np.abs(mesh.sff).max() < 1e-12
        assert mesh.frame_gram_residual() < 1e-10

    def test_equatorial_subsphere_closed(self):
        M = geometry.sphere(3, 1.0)
        mesh = submanifold.build_submanifold(
            M, submanifold.EquatorialSubsphereBand(), 12)
        assert np.isclose(mesh.weights.sum(), 4 * math.pi, rtol=1e-3)
        assert len(mesh.boundary_points) == 0
        assert np.abs(mesh.mean_curvature).max() < 1e-12


def test_hypersurface_lift_lands_in_euclidean_space():
    """A disk of R^3 lifts into R^4 with its boundary stencil coordinates
    kept; a hypersurface of a sphere has no lift."""
    M = geometry.euclidean(3)
    mesh = flat_disk_mesh(res=8, radius=0.5, codim=1)
    lifted_M, lifted = inequalities.hypersurface_lift(M, mesh)
    assert lifted_M == geometry.euclidean(4)
    assert (lifted.m, lifted.points.shape[1]) == (2, 4)
    assert lifted.frame_gram_residual() < 1e-12
    coords = submanifold.boundary_stencil_coords(mesh)
    assert len(coords) == 32
    assert submanifold.boundary_stencil_coords(lifted).tobytes() \
        == coords.tobytes()
    S = geometry.sphere(3, 4.0)
    ball = submanifold.build_submanifold(
        S, submanifold.GeodesicBallInSubsphere(radius=0.5), 8)
    with pytest.raises(UnsupportedVariantError):
        inequalities.hypersurface_lift(S, ball)


def test_resolution_too_coarse():
    M = geometry.euclidean(4)
    with pytest.raises(ResolutionTooCoarseError):
        submanifold.build_submanifold(M, submanifold.FlatDisk(radius=1.0), 1)


def test_chart_manifold_mismatch():
    with pytest.raises(UnsupportedChartError):
        submanifold.build_submanifold(geometry.sphere(3, 1.0),
                                      submanifold.FlatDisk(radius=1.0), 8)
    with pytest.raises(UnsupportedChartError):
        submanifold.build_submanifold(
            geometry.euclidean(4),
            submanifold.GeodesicBallInSubsphere(radius=1.0), 8)


@pytest.mark.parametrize("manifold, chart", [
    (geometry.euclidean(4), submanifold.FlatDisk(radius=0.0)),
    (geometry.hyperbolic(3, -1.0),
     submanifold.GeodesicDiskInHyperbolicSubspace(radius=-0.5)),
])
def test_nonpositive_radius_rejected(manifold, chart):
    with pytest.raises(UnsupportedChartError):
        submanifold.build_submanifold(manifold, chart, 8)


class TestDerivatives:
    def test_gradient_of_expression_field(self):
        mesh = flat_disk_mesh(res=16)
        f = field_from_expression(mesh, "1 + u1*u2/4")
        g = submanifold.intrinsic_gradient(mesh, f)
        x, y = mesh.stencil_coords[:, 0], mesh.stencil_coords[:, 1]
        # tangent frame is the coordinate frame for the flat disk
        assert np.allclose(g[:, 0], y / 4, atol=1e-12)
        assert np.allclose(g[:, 1], x / 4, atol=1e-12)

    def test_lsq_gradient_converges(self):
        errs = []
        for res in (8, 16, 32):
            mesh = flat_disk_mesh(res=res)
            x, y = mesh.stencil_coords[:, 0], mesh.stencil_coords[:, 1]
            vals = np.sin(x) * np.cos(y)
            g = submanifold._lsq_gradient(mesh, vals)
            gx = np.cos(x) * np.cos(y)
            gy = -np.sin(x) * np.sin(y)
            errs.append(float(np.abs(g - np.stack([gx, gy], 1)).max()))
        assert errs[2] < errs[0]
        assert errs[2] < 0.03

    def test_lsq_hessian_exact_on_quadratics(self):
        mesh = flat_disk_mesh(res=12)
        x, y = mesh.stencil_coords[:, 0], mesh.stencil_coords[:, 1]
        vals = 1.5 * x**2 - 0.7 * x * y + 0.2 * y**2 + 3 * x - 1
        H = submanifold.lsq_hessian(mesh, vals)
        expect = np.array([[3.0, -0.7], [-0.7, 0.4]])
        assert np.allclose(H, expect[None], atol=1e-8)

    def test_degenerate_stencil_raises(self):
        mesh = flat_disk_mesh(res=12)
        with pytest.raises(DegenerateStencilError):
            submanifold.lsq_hessian(mesh, mesh.weights, stencil_radius=0.1)


class TestDistanceAndTube:
    def test_distance_to_flat_disk(self):
        mesh = flat_disk_mesh(res=16)
        pts = np.array([
            [0.0, 0.0, 0.5, 0.0],   # straight above the center
            [0.3, 0.4, 0.0, 1.2],   # above an interior point
            [2.0, 0.0, 0.0, 0.0],   # beyond the rim, in-plane
        ])
        d, far = submanifold.distance_to_mesh(mesh, pts)
        assert np.array_equal(far, geometry.pairwise_distances(
            mesh.manifold, pts, mesh.points).max(axis=1))
        assert np.isclose(d[0], 0.5, atol=2e-3)
        assert np.isclose(d[1], 1.2, atol=2e-3)
        assert np.isclose(d[2], 1.0, atol=2e-3)

    def test_tubular_volume_matches_fermi_quadrature(self):
        """Tube around the equatorial S^2 in S^3: vol = 4 pi I cos^2 t dt."""
        M = geometry.sphere(3, 1.0)
        mesh = submanifold.build_submanifold(
            M, submanifold.EquatorialSubsphereBand(), 12)
        eps = 0.3
        exact = 4 * math.pi * float(
            scint.quad(lambda t: math.cos(t) ** 2, -eps, eps)[0])
        res = submanifold.tubular_volume(M, mesh, eps, seed=123)
        assert abs(res.tube_volume - exact) < 3 * res.standard_error + 0.05
        assert np.isclose(res.tube_volume + res.complement_volume,
                          2 * math.pi**2, rtol=1e-12)


class TestMeshRoundTrip:
    @pytest.mark.parametrize("make", [
        lambda: flat_disk_mesh(res=8),
        lambda: submanifold.build_submanifold(
            geometry.sphere(3, 1.0),
            submanifold.GeodesicBallInSubsphere(radius=1.0), 8),
        lambda: submanifold.build_submanifold(
            geometry.hyperbolic(3, -1.0),
            submanifold.GeodesicDiskInHyperbolicSubspace(radius=0.7), 8),
        lambda: submanifold.build_submanifold(
            geometry.euclidean(4),
            submanifold.GraphOverDisk(radius=1.0, height="u1*u2 + u1**2/5"), 8),
        lambda: submanifold.build_submanifold(
            geometry.sphere(3, 1.0), submanifold.EquatorialSubsphereBand(), 8),
    ])
    def test_write_read_round_trip(self, make, tmp_path):
        mesh = make()
        path = tmp_path / "mesh.npz"
        submanifold.write_mesh(mesh, path)
        back = submanifold.read_mesh(path)
        assert back.chart_id == mesh.chart_id
        assert back.n == mesh.n and back.m == mesh.m
        for attr in ("points", "weights", "params", "stencil_coords",
                     "tangent_frames", "normal_frames", "stencil_to_frame",
                     "sff", "mean_curvature", "boundary_points",
                     "boundary_weights"):
            assert np.array_equal(getattr(back, attr), getattr(mesh, attr)), attr
        # the rebuilt chart map supports refined distance queries
        q = mesh.points[:3] if mesh.manifold.variant != geometry.EUCLIDEAN \
            else np.array([[0.0, 0.0, 0.4, 0.0]])
        d0, _ = submanifold.distance_to_mesh(mesh, q)
        d1, _ = submanifold.distance_to_mesh(back, q)
        assert np.allclose(d0, d1, atol=1e-12)


@pytest.mark.parametrize("resolution", [4, 11])
@pytest.mark.parametrize("manifold, chart", [
    (geometry.euclidean(4), submanifold.FlatDisk(radius=1.0)),
    (geometry.euclidean(4),
     submanifold.GraphOverDisk(radius=1.0, height="u1*u2 + u1**2/5")),
    (geometry.sphere(4, 1.0), submanifold.GeodesicBallInSubsphere(radius=1.2)),
    (geometry.hyperbolic(3, -1.0),
     submanifold.GeodesicDiskInHyperbolicSubspace(radius=0.7)),
    (geometry.sphere(3, 1.0), submanifold.EquatorialSubsphereBand()),
], ids=lambda v: getattr(v, "name", None) or v.variant)
def test_nodes_are_the_chart_embedding(manifold, chart, resolution):
    """Interior and boundary nodes are the chart's embedding of their
    parameters, bit for bit."""
    mesh = submanifold.build_submanifold(manifold, chart, resolution)
    assert mesh.points.tobytes() == mesh.embed(mesh.params).tobytes()
    bpts = mesh.embed(mesh.boundary_params)
    assert bpts.shape == mesh.boundary_points.shape
    assert mesh.boundary_points.tobytes() == bpts.tobytes()
