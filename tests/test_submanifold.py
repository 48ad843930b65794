"""Submanifold meshes: quadrature, frames, curvature data, tube volumes."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate as scint

from otsobolev import geometry, submanifold
from otsobolev.errors import (
    DegenerateStencilError,
    LengthMismatchError,
    ResolutionTooCoarseError,
    UnsupportedChartError,
)
from otsobolev.fields import field_from_expression

from chart_checks import check_point, mesh_frame_gram_residual, model_space

TESTS = Path(__file__).resolve().parent
# the thread-count variables of the BLAS builds numpy may load
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def flat_disk_mesh(res=12, radius=1.0, codim=2):
    M = model_space(geometry.EUCLIDEAN, 2 + codim)
    return submanifold.build_submanifold(
        M, submanifold.FlatDisk(radius=radius), res)


class TestFlatDisk:
    def test_area_and_boundary_length(self):
        mesh = flat_disk_mesh(res=20, radius=1.5)
        assert np.isclose(mesh.weights.sum(), math.pi * 1.5**2, rtol=1e-10)
        assert np.isclose(mesh.boundary_weights.sum(), 2 * math.pi * 1.5,
                          rtol=1e-10)

    def test_frames_orthonormal_and_flat(self):
        mesh = flat_disk_mesh()
        assert mesh_frame_gram_residual(mesh) < 1e-12
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
        M = model_space(geometry.EUCLIDEAN, 4)
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
        M = model_space(geometry.EUCLIDEAN, 4)
        mesh = submanifold.build_submanifold(
            M, submanifold.GraphOverDisk(radius=1.0,
                                         height="(u1**2 + u2**2)*3/10"), 30)
        k = int(np.argmin(mesh.params[:, 0]))
        hnorm = float(np.linalg.norm(mesh.mean_curvature[k]))
        assert np.isclose(hnorm, 4 * c, rtol=2e-2)
        assert mesh_frame_gram_residual(mesh) < 1e-10

    def test_sff_traces_to_mean_curvature(self):
        M = model_space(geometry.EUCLIDEAN, 4)
        mesh = submanifold.build_submanifold(
            M, submanifold.GraphOverDisk(radius=1.0, height="u1*u2"), 16)
        hn = mesh.mean_curvature_normal_components()
        tr = np.einsum("naii->na", mesh.sff)
        assert np.allclose(hn, tr, atol=1e-10)


class TestCurvedCharts:
    def test_sphere_ball_area_and_geodesy(self):
        M = model_space(geometry.SPHERE, 3, 1.0)
        rad = 1.2
        mesh = submanifold.build_submanifold(
            M, submanifold.GeodesicBallInSubsphere(radius=rad), 24)
        exact = 2 * math.pi * (1 - math.cos(rad))  # spherical cap area
        assert np.isclose(mesh.weights.sum(), exact, rtol=5e-4)
        # totally geodesic: vanishing second fundamental form
        assert np.abs(mesh.sff).max() < 1e-12
        assert np.abs(mesh.mean_curvature).max() < 1e-12
        assert mesh_frame_gram_residual(mesh) < 1e-10
        for p in mesh.points[:5]:
            check_point(M, p)

    def test_hyperbolic_disk_area(self):
        M = model_space(geometry.HYPERBOLIC, 3, -1.0)
        rad = 0.8
        mesh = submanifold.build_submanifold(
            M, submanifold.GeodesicDiskInHyperbolicSubspace(radius=rad), 24)
        exact = 2 * math.pi * (math.cosh(rad) - 1)
        assert np.isclose(mesh.weights.sum(), exact, rtol=1e-4)
        assert np.abs(mesh.sff).max() < 1e-12
        assert mesh_frame_gram_residual(mesh) < 1e-10

    def test_equatorial_subsphere_closed(self):
        M = model_space(geometry.SPHERE, 3, 1.0)
        mesh = submanifold.build_submanifold(
            M, submanifold.EquatorialSubsphereBand(), 12)
        assert np.isclose(mesh.weights.sum(), 4 * math.pi, rtol=1e-3)
        assert len(mesh.boundary_params) == 0
        assert np.abs(mesh.mean_curvature).max() < 1e-12


def test_resolution_too_coarse():
    M = model_space(geometry.EUCLIDEAN, 4)
    with pytest.raises(ResolutionTooCoarseError):
        submanifold.build_submanifold(M, submanifold.FlatDisk(radius=1.0), 1)


def test_chart_manifold_mismatch():
    with pytest.raises(UnsupportedChartError):
        submanifold.build_submanifold(model_space(geometry.SPHERE, 3, 1.0),
                                      submanifold.FlatDisk(radius=1.0), 8)
    with pytest.raises(UnsupportedChartError):
        submanifold.build_submanifold(
            model_space(geometry.EUCLIDEAN, 4),
            submanifold.GeodesicBallInSubsphere(radius=1.0), 8)


@pytest.mark.parametrize("manifold, chart", [
    (model_space(geometry.EUCLIDEAN, 4), submanifold.FlatDisk(radius=0.0)),
    (model_space(geometry.HYPERBOLIC, 3, -1.0),
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
            g = submanifold.lsq_gradient(mesh, vals)
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

    @pytest.mark.parametrize("stencil_radius", [0.1, 0.5, 1.0, 1.5])
    def test_degenerate_stencil_raises(self, stencil_radius):
        """The first node whose stencil is too small is named, as by the
        per-node loop; the pole nodes have the widest stencils."""
        mesh = flat_disk_mesh(res=12)
        with pytest.raises(DegenerateStencilError) as loop:
            loop_hessian(mesh, mesh.weights, stencil_radius)
        with pytest.raises(DegenerateStencilError) as kernel:
            submanifold.lsq_hessian(mesh, mesh.weights, stencil_radius)
        assert str(kernel.value) == str(loop.value)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_fits_match_the_per_node_loops(self, threads):
        """The batched kernel gives the per-node loops' bits: the
        gradient at 2 h and the Hessians at 3 h and 4 h, on flat, graph,
        sphere and hyperbolic meshes, with 1 and 2 BLAS threads (set
        before numpy loads, so in a fresh process)."""
        env = {**os.environ,
               **dict.fromkeys(BLAS_THREADS, str(threads)),
               "PYTHONPATH": os.pathsep.join(filter(None, [
                   str(TESTS.parent / "src"), str(TESTS),
                   os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-c", "import test_submanifold as t; "
             "print(t.fits_unlike_the_loops())"],
            capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"



def loop_gradient(mesh, values):
    """Oracle of ``lsq_gradient``: one linear least-squares fit per node
    over its chart neighbors within 2 h, ridge 1e-12."""
    tree = mesh.tree()
    N = mesh.node_count
    out = np.zeros((N, mesh.n))
    rad = 2.0 * mesh.h
    groups = tree.query_ball_point(mesh.stencil_coords, rad)
    for i in range(N):
        idx = groups[i]
        if len(idx) < mesh.n + 1:
            raise DegenerateStencilError(f"node {i}: only {len(idx)} neighbors")
        dw = mesh.stencil_coords[idx] - mesh.stencil_coords[i]
        A = np.column_stack([np.ones(len(idx)), dw])
        b = values[idx]
        ata = A.T @ A + 1e-12 * np.eye(A.shape[1])
        sol = np.linalg.solve(ata, A.T @ b)
        out[i] = sol[1:]
    return out


def loop_hessian(mesh, values, stencil_radius=3.0):
    """Oracle of ``lsq_hessian``: one quadratic least-squares fit per
    node over its chart neighbors within ``stencil_radius * h``."""
    tree = mesh.tree()
    N = mesh.node_count
    hess = np.zeros((N, mesh.n, mesh.n))
    rad = stencil_radius * mesh.h
    groups = tree.query_ball_point(mesh.stencil_coords, rad)
    for i in range(N):
        idx = groups[i]
        if len(idx) < 6:
            raise DegenerateStencilError(f"node {i}: only {len(idx)} neighbors")
        dw = mesh.stencil_coords[idx] - mesh.stencil_coords[i]
        A = np.column_stack([
            np.ones(len(idx)), dw[:, 0], dw[:, 1],
            0.5 * dw[:, 0] ** 2, dw[:, 0] * dw[:, 1], 0.5 * dw[:, 1] ** 2,
        ])
        ata = A.T @ A + 1e-12 * np.eye(6)
        sol = np.linalg.solve(ata, A.T @ values[idx])
        hw = np.array([[sol[3], sol[4]], [sol[4], sol[5]]])
        a = mesh.stencil_to_frame[i]
        hf = a @ hw @ a.T
        hess[i] = 0.5 * (hf + hf.T)
    return hess


def fits_unlike_the_loops() -> list:
    """(mesh, fit) of each fit whose bytes differ from its oracle loop,
    on random values over the four chart families."""
    meshes = {
        "flat": (model_space(geometry.EUCLIDEAN, 4),
                 submanifold.FlatDisk(radius=1.0), 11),
        "graph": (model_space(geometry.EUCLIDEAN, 4),
                  submanifold.GraphOverDisk(radius=1.0,
                                            height="1 + u1 * u2 / 4"), 10),
        "sphere": (model_space(geometry.SPHERE, 4),
                   submanifold.GeodesicBallInSubsphere(radius=1.2), 11),
        "hyperbolic": (model_space(geometry.HYPERBOLIC, 4),
                       submanifold.GeodesicDiskInHyperbolicSubspace(
                           radius=0.8), 11),
    }
    rng = np.random.default_rng(20240602)
    unlike = []
    for name, (M, chart, res) in meshes.items():
        mesh = submanifold.build_submanifold(M, chart, res)
        values = rng.standard_normal(mesh.node_count)
        fits = {"gradient 2h": (submanifold.lsq_gradient(mesh, values),
                                loop_gradient(mesh, values))}
        for radius in (3.0, 4.0):
            fits[f"hessian {radius:g}h"] = (
                submanifold.lsq_hessian(mesh, values, radius),
                loop_hessian(mesh, values, radius))
        unlike += [(name, fit) for fit, (kernel, loop) in fits.items()
                   if kernel.tobytes() != loop.tobytes()]
    return unlike


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
        M = model_space(geometry.SPHERE, 3, 1.0)
        mesh = submanifold.build_submanifold(
            M, submanifold.EquatorialSubsphereBand(), 12)
        eps = 0.3
        exact = 4 * math.pi * float(
            scint.quad(lambda t: math.cos(t) ** 2, -eps, eps)[0])
        tube, se = submanifold.tubular_volume(M, mesh, eps, seed=123)
        assert abs(tube - exact) < 3 * se + 0.05
        # the complement of the tube is the rest of vol(S^3) = 2 pi^2
        assert np.isclose(geometry.manifold_volume(M), 2 * math.pi**2,
                          rtol=1e-12)


TUBE_MESHES = {
    "s4_hemisphere_24": (model_space(geometry.SPHERE, 4, 1.0),
                         submanifold.GeodesicBallInSubsphere(
                             radius=math.pi / 2), 24),
    "s3_equator_12": (model_space(geometry.SPHERE, 3, 1.0),
                      submanifold.EquatorialSubsphereBand(), 12),
    "s4_ball_07": (model_space(geometry.SPHERE, 4, 1.0),
                   submanifold.GeodesicBallInSubsphere(radius=0.7), 12),
}


@pytest.fixture(scope="module")
def tube_meshes():
    return {name: submanifold.build_submanifold(M, chart, res)
            for name, (M, chart, res) in TUBE_MESHES.items()}


def reference_distance_to_mesh(mesh, pts):
    """``distance_to_mesh`` in one pass: one distance matrix over every
    query point, the oracle of its blocking."""
    M = mesh.manifold
    D = geometry.pairwise_distances(M, np.asarray(pts, float), mesh.points)
    nearest = np.argmin(D, axis=1)
    base = D[np.arange(len(pts)), nearest]
    farthest = D.max(axis=1)
    cpts = submanifold._refine_candidates(mesh, mesh.params[nearest])
    dists = geometry.distance(M, np.asarray(pts, float)[:, None, :], cpts)
    return np.minimum(base, dists.min(axis=1)), farthest


def dense_tubular_volume(M, mesh, eps, seed, n_samples):
    """The tube estimate from ``reference_distance_to_mesh`` over every
    sample, in contiguous 4096-row chunks."""
    rng = np.random.default_rng(seed)
    pts, vol = submanifold.ambient_samples(M, n_samples, rng)
    inside = np.zeros(n_samples, dtype=bool)
    for k in range(0, n_samples, 4096):
        dist, _ = reference_distance_to_mesh(mesh, pts[k:k + 4096])
        inside[k:k + 4096] = dist <= eps
    p = inside.mean()
    return vol * p, vol * math.sqrt(p * (1 - p) / n_samples)


class TestTubeBand:
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.2, 0.5, 1.5, 3.0])
    @pytest.mark.parametrize("name", list(TUBE_MESHES))
    def test_equals_dense_loop_bitwise(self, tube_meshes, name, eps):
        """The band test changes no sample's verdict: the estimate is the
        dense loop's, bit for bit.  At eps = 3.0 every sample is in the
        band (eps + reach >= pi R)."""
        M, mesh = TUBE_MESHES[name][0], tube_meshes[name]
        tube, tube_se = submanifold.tubular_volume(M, mesh, eps, seed=11,
                                                   n_samples=10000)
        vol, se = dense_tubular_volume(M, mesh, eps, 11, 10000)
        assert tube.hex() == vol.hex()
        assert tube_se.hex() == se.hex()

    def test_dense_rows_through_the_traced_name(self, tube_meshes,
                                                monkeypatch):
        """On the s4_hemisphere_24 mesh (2304 nodes) at eps 0.05, fewer
        than 1000 of the 20000 samples reach ``distance_to_mesh``, which
        is looked up as the module attribute, where a tracer wraps it;
        ``pairwise_distances`` takes them at most ``DENSE_BLOCK //
        nodes`` rows a call, each row once."""
        rows, dense_rows = [], []
        dense = submanifold.distance_to_mesh
        monkeypatch.setattr(submanifold, "distance_to_mesh",
                            lambda mesh, pts: rows.append(len(pts))
                            or dense(mesh, pts))
        pairwise = geometry.pairwise_distances
        monkeypatch.setattr(geometry, "pairwise_distances",
                            lambda M, X, Y: dense_rows.append(len(X))
                            or pairwise(M, X, Y))
        mesh = tube_meshes["s4_hemisphere_24"]
        submanifold.tubular_volume(mesh.manifold, mesh, 0.05, seed=11)
        assert 0 < sum(rows) < 1000
        assert sum(dense_rows) == sum(rows)
        assert max(dense_rows) <= submanifold.DENSE_BLOCK // mesh.node_count

    def test_memory_does_not_grow_with_the_band(self, tube_meshes):
        """At eps 1.0 nearly every sample of the 2304-node
        s4_hemisphere_24 mesh (the sphere_tube_02 mesh) is in the band:
        one distance matrix over them held 145 MB, the blocks stay
        under 16 MB, and the estimate is the one-pass reference's."""
        mesh = tube_meshes["s4_hemisphere_24"]
        tracemalloc.start()
        try:
            tube, tube_se = submanifold.tubular_volume(mesh.manifold, mesh,
                                                       1.0, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        vol, se = dense_tubular_volume(mesh.manifold, mesh, 1.0, 11, 20000)
        assert tube.hex() == vol.hex()
        assert tube_se.hex() == se.hex()


def query_points(M, n, rng):
    """``n`` points of the model space ``M`` near the origin or pole."""
    if M.variant == geometry.SPHERE:
        return submanifold.ambient_samples(M, n, rng)[0]
    if M.variant == geometry.EUCLIDEAN:
        return rng.standard_normal((n, M.embedding_dim))
    vecs = np.zeros((n, M.embedding_dim))
    vecs[:, 1:] = rng.standard_normal((n, M.embedding_dim - 1))
    pole = np.zeros(M.embedding_dim)
    pole[0] = M.radius
    return geometry.exp_map(M, np.broadcast_to(pole, vecs.shape), vecs)


BLOCK_MESHES = {
    "sphere": (model_space(geometry.SPHERE, 4, 1.0),
               submanifold.GeodesicBallInSubsphere(radius=1.2), 8),
    "hyperbolic": (model_space(geometry.HYPERBOLIC, 4, -1.0),
                   submanifold.GeodesicDiskInHyperbolicSubspace(radius=0.8),
                   8),
    "euclidean": (model_space(geometry.EUCLIDEAN, 4),
                  submanifold.GraphOverDisk(radius=1.0,
                                            height="u1*u2 + u1**2/5"), 8),
}


BLOCK_POINTS = 50


class TestDistanceBlocks:
    # rows per block of each blocking, and its DENSE_BLOCK for a mesh of
    # ``nodes`` nodes: one row (fewer entries than nodes still take one),
    # seven rows with a 1-row last block, and every point in one block
    BLOCKS = {"one_row": (1, lambda nodes: 1),
              "ragged": (7, lambda nodes: 8 * nodes - 1),
              "one_block": (BLOCK_POINTS, lambda nodes: BLOCK_POINTS * nodes)}

    @staticmethod
    def case(name):
        M, chart, res = BLOCK_MESHES[name]
        mesh = submanifold.build_submanifold(M, chart, res)
        return mesh, query_points(M, BLOCK_POINTS, np.random.default_rng(5))

    @pytest.mark.parametrize("blocking", list(BLOCKS))
    @pytest.mark.parametrize("name", list(BLOCK_MESHES))
    def test_blocks_equal_the_one_pass_reference(self, name, blocking,
                                                 monkeypatch):
        """(nearest, farthest) byte for byte the reference's in each
        blocking.  The BLAS product rounds an entry by its place in the
        product, so both sides take their distance matrix from
        ``geometry.distance`` over broadcast pairs, whose every entry is
        the same in any block."""
        mesh, pts = self.case(name)
        step, budget = self.BLOCKS[blocking]
        monkeypatch.setattr(submanifold, "DENSE_BLOCK",
                            budget(mesh.node_count))
        rows = []
        monkeypatch.setattr(
            geometry, "pairwise_distances",
            lambda M, X, Y: rows.append(len(X))
            or geometry.distance(M, X[:, None, :], Y[None, :, :]))
        near, far = submanifold.distance_to_mesh(mesh, pts)
        last = BLOCK_POINTS % step
        assert rows == [step] * (BLOCK_POINTS // step) + [last] * (last > 0)
        ref_near, ref_far = reference_distance_to_mesh(mesh, pts)
        assert near.tobytes() == ref_near.tobytes()
        assert far.tobytes() == ref_far.tobytes()

    @pytest.mark.parametrize("name", list(BLOCK_MESHES))
    def test_blocks_agree_with_the_blas_reference(self, name, monkeypatch):
        """Through the BLAS product, 1-row blocks (a matrix-vector
        product) stay within 1e-14 of the one-pass reference: ten times
        the worst measured, 8.9e-16 on the sphere, rounded up."""
        mesh, pts = self.case(name)
        monkeypatch.setattr(submanifold, "DENSE_BLOCK", mesh.node_count)
        near, far = submanifold.distance_to_mesh(mesh, pts)
        ref_near, ref_far = reference_distance_to_mesh(mesh, pts)
        assert np.abs(near - ref_near).max() <= 1e-14
        assert np.abs(far - ref_far).max() <= 1e-14


@pytest.mark.parametrize("resolution", [4, 11])
@pytest.mark.parametrize("manifold, chart", [
    (model_space(geometry.EUCLIDEAN, 4), submanifold.FlatDisk(radius=1.0)),
    (model_space(geometry.EUCLIDEAN, 4),
     submanifold.GraphOverDisk(radius=1.0, height="u1*u2 + u1**2/5")),
    (model_space(geometry.SPHERE, 4, 1.0),
     submanifold.GeodesicBallInSubsphere(radius=1.2)),
    (model_space(geometry.HYPERBOLIC, 3, -1.0),
     submanifold.GeodesicDiskInHyperbolicSubspace(radius=0.7)),
    (model_space(geometry.SPHERE, 3, 1.0),
     submanifold.EquatorialSubsphereBand()),
], ids=lambda v: getattr(v, "name", None) or v.variant)
def test_nodes_are_the_chart_embedding(manifold, chart, resolution):
    """Interior nodes are the chart's embedding of their parameters, bit
    for bit; boundary parameters embed into the ambient space."""
    mesh = submanifold.build_submanifold(manifold, chart, resolution)
    assert mesh.points.tobytes() == mesh.embed(mesh.params).tobytes()
    bpts = mesh.embed(mesh.boundary_params)
    assert bpts.shape == (len(mesh.boundary_params), manifold.embedding_dim)
    assert len(mesh.boundary_params) == len(mesh.boundary_weights)
