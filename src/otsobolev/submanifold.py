"""Quadrature meshes of compact submanifolds of the model spaces.

Built-in charts only: flat disks and graphs over disks in Euclidean
space, geodesic balls in totally geodesic subspheres / hyperbolic
subspaces, and the closed equatorial subsphere used for tube
calibration.  Each chart (a ``Chart`` subclass, registered by name in
``CHARTS``) gives its polar parameter domain, one embedding, and
analytic frames, second fundamental form and mean curvature;
``build_submanifold`` assembles every mesh from these, with
midpoint-rule quadrature on the polar grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, ClassVar, NamedTuple, Optional

import numpy as np
from scipy.spatial import cKDTree

from . import geometry
from .errors import (
    DegenerateStencilError,
    LengthMismatchError,
    ResolutionTooCoarseError,
    UnboundedDomainError,
    UnsupportedChartError,
)
from .fields import ScalarField, height_from_expression
from .geometry import ModelManifold

MIN_INTERIOR_NODES = 16
# points per chart parameter of the micro-grid that refines
# ``distance_to_mesh`` around the nearest node
REFINE_GRID = 5
# float64 entries (2 MB) of one dense distance block of
# ``distance_to_mesh``, the size of one Jacobi chunk's P array
DENSE_BLOCK = 2**18


# ---------------------------------------------------------------------------
# charts


class Chart:
    """A 2-dim chart over the polar parameter domain (alpha, phi) in
    [0, alpha_max] x [0, 2 pi), with a boundary circle at alpha_max
    unless the chart is ``closed``.

    Subclasses are frozen dataclasses whose fields are the chart's
    parameters; ``CHARTS`` maps each chart ``name`` to its class.  A
    chart validates itself against the ambient manifold (``check``),
    gives its domain (``alpha_max``, ``rings_per_resolution``, and
    ``alpha_clamp`` for distance refinement), embeds parameters
    (``embed``), and gives the analytic area density, frames, second
    fundamental form and mean curvature at the nodes
    (``node_geometry``) and the length density of its boundary circle
    (``boundary_length``).  Stencil coordinates are
    ``stencil_scale * alpha * (cos phi, sin phi)``.
    """

    name: ClassVar[str]
    rings_per_resolution: ClassVar[int] = 1
    closed: ClassVar[bool] = False


class _NodeGeometry(NamedTuple):
    area: np.ndarray              # (N,) area density per unit d(alpha) d(phi)
    tangent: np.ndarray           # (N, n, d)
    normal: np.ndarray            # (N, m, d)
    stencil_to_frame: np.ndarray  # (N, n, n)
    sff: np.ndarray               # (N, m, n, n)
    mean_curvature: np.ndarray    # (N, d)


def _polar_stencil(scale: float, params: np.ndarray) -> np.ndarray:
    return np.stack([scale * params[..., 0] * np.cos(params[..., 1]),
                     scale * params[..., 0] * np.sin(params[..., 1])], axis=-1)


def _axis_normals(N: int, m: int, d: int) -> np.ndarray:
    """Normal frames along the last m coordinate axes."""
    normal = np.zeros((N, m, d))
    for a in range(m):
        normal[:, a, d - m + a] = 1.0
    return normal


class _DiskChart(Chart):
    """Polar coordinates (r, theta) on the disk of ``radius`` in the
    x1-x2 plane of Euclidean R^d, of codimension d - 2."""

    def check(self, manifold: ModelManifold) -> None:
        if manifold.variant != geometry.EUCLIDEAN:
            raise UnsupportedChartError(
                f"{type(self).__name__} requires a Euclidean ambient space")

    def alpha_max(self, manifold: ModelManifold) -> float:
        return self.radius

    def alpha_clamp(self) -> float:
        return self.radius

    def stencil_scale(self, manifold: ModelManifold) -> float:
        return 1.0

    def embed(self, manifold: ModelManifold, params) -> np.ndarray:
        u = _polar_stencil(1.0, np.asarray(params, dtype=float))
        out = np.zeros(u.shape[:-1] + (manifold.embedding_dim,))
        out[..., :2] = u
        return out


@dataclass(frozen=True)
class FlatDisk(_DiskChart):
    """Flat 2-disk in the x1-x2 plane of Euclidean R^d."""

    radius: float
    name: ClassVar[str] = "flat_disk"

    def node_geometry(self, manifold, params) -> _NodeGeometry:
        N, m, d = len(params), manifold.ambient_dim - 2, manifold.embedding_dim
        tangent = np.zeros((N, 2, d))
        tangent[:, 0, 0] = 1.0
        tangent[:, 1, 1] = 1.0
        return _NodeGeometry(
            params[:, 0], tangent, _axis_normals(N, m, d),
            np.broadcast_to(np.eye(2), (N, 2, 2)).copy(),
            np.zeros((N, m, 2, 2)), np.zeros((N, d)))

    def boundary_length(self, manifold, bparams) -> np.ndarray:
        return bparams[:, 0]


@dataclass(frozen=True)
class GraphOverDisk(_DiskChart):
    """Graph {(u, h(u), 0, ...)} over a 2-disk in Euclidean R^d."""

    radius: float
    height: str  # expression of u1, u2 in the safe field grammar
    name: ClassVar[str] = "graph_over_disk"

    @cached_property
    def _height(self):
        """(value, gradient, Hessian) functions of the height."""
        return height_from_expression(self.height)

    def embed(self, manifold: ModelManifold, params) -> np.ndarray:
        out = super().embed(manifold, params)
        out[..., 2] = self._height[0](out[..., :2])
        return out

    def node_geometry(self, manifold, params) -> _NodeGeometry:
        _, hgrad, hhess = self._height
        N, m, d = len(params), manifold.ambient_dim - 2, manifold.embedding_dim
        u = _polar_stencil(1.0, params)
        g = hgrad(u)                      # (N, 2)
        gnorm2 = np.sum(g * g, axis=1)

        # chart basis dX/du_i as columns, orthonormalized by QR per node
        J = np.zeros((N, d, 2))
        J[:, 0, 0] = 1.0
        J[:, 1, 1] = 1.0
        J[:, 2] = g
        q, rr = np.linalg.qr(J)           # (N, d, 2), (N, 2, 2)
        sign = np.sign(np.diagonal(rr, axis1=1, axis2=2))
        sign[sign == 0] = 1.0
        tangent = np.ascontiguousarray((q * sign[:, None, :]).transpose(0, 2, 1))
        s2f = np.ascontiguousarray(
            np.linalg.inv(sign[:, :, None] * rr).transpose(0, 2, 1))

        normal = _axis_normals(N, m, d)
        nu1 = np.zeros((N, d))
        nu1[:, 0] = -g[:, 0]
        nu1[:, 1] = -g[:, 1]
        nu1[:, 2] = 1.0
        nu1 /= np.sqrt(1.0 + gnorm2)[:, None]
        normal[:, 0] = nu1

        Huu = hhess(u)                    # (N, 2, 2) chart Hessian of the height
        # II in the orthonormal tangent frame; only the graph normal sees it
        II_frame = np.einsum("nai,nij,nbj->nab", s2f, Huu, s2f)
        cosg = 1.0 / np.sqrt(1.0 + gnorm2)
        sff = np.zeros((N, m, 2, 2))
        sff[:, 0] = II_frame * cosg[:, None, None]
        H = (np.trace(sff[:, 0], axis1=1, axis2=2))[:, None] * nu1
        return _NodeGeometry(np.sqrt(1.0 + gnorm2) * params[:, 0],
                             tangent, normal, s2f, sff, H)

    def boundary_length(self, manifold, bparams) -> np.ndarray:
        """|dX/dtheta| along the boundary circle."""
        ub = _polar_stencil(1.0, bparams)
        tb = np.stack([-ub[:, 1], ub[:, 0]], axis=1)
        dh = np.sum(self._height[1](ub) * tb, axis=1)
        return np.sqrt(np.sum(tb * tb, axis=1) + dh * dh)


# per curved variant: the embedding axis of a space-form chart's pole,
# and the embedding axes of the circles around it
_POLAR_AXES = {geometry.SPHERE: (2, (0, 1)), geometry.HYPERBOLIC: (0, (1, 2))}


class _SpaceFormChart(Chart):
    """Geodesic polar coordinates (alpha, phi) around the pole of a
    totally geodesic 2-dim subspace of a sphere or hyperbolic space: the
    subspace is totally geodesic, so II and H vanish.  Stencil
    coordinates are geodesic normal coordinates around the pole."""

    def alpha_max(self, manifold: ModelManifold) -> float:
        return self.radius / manifold.radius

    def alpha_clamp(self) -> float:
        """Refinement candidates stay within half a cell of the grid, so a
        geodesic ball needs no upper clamp."""
        return math.inf

    def stencil_scale(self, manifold: ModelManifold) -> float:
        return manifold.radius

    def embed(self, manifold: ModelManifold, params) -> np.ndarray:
        sf, R = manifold.space, manifold.radius
        pole, plane = _POLAR_AXES[manifold.variant]
        p = np.asarray(params, dtype=float)
        out = np.zeros(p.shape[:-1] + (manifold.embedding_dim,))
        out[..., plane[0]] = R * sf.sin(p[..., 0]) * np.cos(p[..., 1])
        out[..., plane[1]] = R * sf.sin(p[..., 0]) * np.sin(p[..., 1])
        out[..., pole] = R * sf.cos(p[..., 0])
        return out

    def node_geometry(self, manifold, params) -> _NodeGeometry:
        sf = manifold.space
        pole, plane = _POLAR_AXES[manifold.variant]
        N, m, d = len(params), manifold.ambient_dim - 2, manifold.embedding_dim
        al, ph = params[:, 0], params[:, 1]
        tangent = np.zeros((N, 2, d))
        tangent[:, 0, plane[0]] = sf.cos(al) * np.cos(ph)
        tangent[:, 0, plane[1]] = sf.cos(al) * np.sin(ph)
        # d/d(alpha) of cos / cosh is -K/|K| times sin / sinh
        tangent[:, 0, pole] = -sf.sign * sf.sin(al)
        tangent[:, 1, plane[0]] = -np.sin(ph)
        tangent[:, 1, plane[1]] = np.cos(ph)
        s2f = np.zeros((N, 2, 2))
        s2f[:, 0] = np.stack([np.cos(ph), np.sin(ph)], axis=1)
        s2f[:, 1] = (al / sf.sin(al))[:, None] * np.stack(
            [-np.sin(ph), np.cos(ph)], axis=1)
        return _NodeGeometry(
            manifold.radius**2 * sf.sin(al), tangent, _axis_normals(N, m, d),
            s2f, np.zeros((N, m, 2, 2)), np.zeros((N, d)))

    def boundary_length(self, manifold, bparams) -> np.ndarray:
        # libm, not numpy: their sinh differ in the last bit at some radii,
        # and the boundary weights enter the reports
        return np.full(len(bparams), manifold.radius
                       * manifold.space.scalar_sin(self.alpha_max(manifold)))


@dataclass(frozen=True)
class GeodesicBallInSubsphere(_SpaceFormChart):
    """Geodesic ball in a totally geodesic S^2 inside the ambient sphere."""

    radius: float  # geodesic radius
    name: ClassVar[str] = "sphere_geodesic_ball"

    def check(self, manifold: ModelManifold) -> None:
        if manifold.variant != geometry.SPHERE:
            raise UnsupportedChartError("GeodesicBallInSubsphere requires a sphere")
        if manifold.ambient_dim < 3:
            raise UnsupportedChartError("ambient sphere dimension must be >= 3")
        if not 0 < self.radius < geometry.manifold_diameter(manifold):
            raise UnsupportedChartError("ball radius must lie in (0, pi R)")


@dataclass(frozen=True)
class GeodesicDiskInHyperbolicSubspace(_SpaceFormChart):
    """Geodesic disk in a totally geodesic H^2 inside the ambient hyperbolic space."""

    radius: float
    name: ClassVar[str] = "hyperbolic_geodesic_disk"

    def check(self, manifold: ModelManifold) -> None:
        if manifold.variant != geometry.HYPERBOLIC:
            raise UnsupportedChartError(
                "GeodesicDiskInHyperbolicSubspace requires a hyperbolic ambient space")
        if manifold.ambient_dim < 3:
            raise UnsupportedChartError("ambient dimension must be >= 3")


@dataclass(frozen=True)
class EquatorialSubsphereBand(_SpaceFormChart):
    """Full equatorial subsphere of codimension 1 (tube-volume calibration)."""

    name: ClassVar[str] = "equatorial_subsphere"
    rings_per_resolution: ClassVar[int] = 2  # colatitude runs over (0, pi)
    closed: ClassVar[bool] = True

    def check(self, manifold: ModelManifold) -> None:
        if manifold.variant != geometry.SPHERE or manifold.ambient_dim != 3:
            raise UnsupportedChartError(
                "EquatorialSubsphereBand requires the ambient 3-sphere")

    def alpha_max(self, manifold: ModelManifold) -> float:
        return math.pi

    def alpha_clamp(self) -> float:
        return math.pi


CHARTS = {chart.name: chart for chart in (
    FlatDisk, GraphOverDisk, GeodesicBallInSubsphere,
    GeodesicDiskInHyperbolicSubspace, EquatorialSubsphereBand)}


# ---------------------------------------------------------------------------
# mesh


@dataclass
class SubmanifoldMesh:
    manifold: ModelManifold
    n: int
    m: int
    chart: Chart
    params: np.ndarray          # (N, 2) chart parameters
    stencil_coords: np.ndarray  # (N, 2) coordinates for LSQ stencils
    points: np.ndarray          # (N, d)
    weights: np.ndarray         # (N,)
    tangent_frames: np.ndarray  # (N, n, d)
    normal_frames: np.ndarray   # (N, m, d)
    stencil_to_frame: np.ndarray  # (N, n, n)
    sff: np.ndarray             # (N, m, n, n)
    mean_curvature: np.ndarray  # (N, d) ambient vectors
    boundary_weights: np.ndarray
    boundary_params: np.ndarray
    h: float
    embed: Callable[[np.ndarray], np.ndarray]  # chart parameters -> points
    param_cell: tuple  # grid spacing per chart parameter
    _tree: Optional[cKDTree] = field(default=None, repr=False)

    @property
    def node_count(self) -> int:
        return len(self.points)

    def tree(self) -> cKDTree:
        if self._tree is None:
            self._tree = cKDTree(self.stencil_coords)
        return self._tree

    def mean_curvature_normal_components(self) -> np.ndarray:
        """(N, m) components of H against the normal frame."""
        return np.einsum("nad,nd->na", geometry.lower_index(
            self.manifold, self.normal_frames), self.mean_curvature)


def build_submanifold(manifold: ModelManifold, chart_spec: Chart,
                      resolution: int) -> SubmanifoldMesh:
    """Construct a quadrature mesh for one of the built-in charts.

    ``resolution`` is the number of radial (or colatitude) subdivisions;
    the grid is midpoint-rule, with ``4 * resolution`` angular cells.
    """
    if not isinstance(chart_spec, Chart):
        raise UnsupportedChartError(f"unknown chart spec {chart_spec!r}")
    chart_spec.check(manifold)
    alpha_max = chart_spec.alpha_max(manifold)
    if not alpha_max > 0:
        raise UnsupportedChartError("chart radius must be positive")
    rings = chart_spec.rings_per_resolution * resolution
    sectors = 4 * resolution
    nodes = rings * sectors if resolution > 0 else 0
    if nodes < MIN_INTERIOR_NODES:
        raise ResolutionTooCoarseError(
            f"{nodes} interior nodes < {MIN_INTERIOR_NODES}")
    ha = alpha_max / rings
    hp = 2 * math.pi / sectors
    phi = (np.arange(sectors) + 0.5) * hp
    A, P = np.meshgrid((np.arange(rings) + 0.5) * ha, phi, indexing="ij")
    params = np.stack([A.ravel(), P.ravel()], axis=1)
    bparams = np.zeros((0, 2)) if chart_spec.closed else np.stack(
        [np.full(sectors, alpha_max), phi], axis=1)
    embed = partial(chart_spec.embed, manifold)
    scale = chart_spec.stencil_scale(manifold)
    geo = chart_spec.node_geometry(manifold, params)
    return SubmanifoldMesh(
        manifold, 2, manifold.ambient_dim - 2, chart_spec,
        params, _polar_stencil(scale, params), embed(params),
        geo.area * ha * hp, geo.tangent, geo.normal, geo.stencil_to_frame,
        geo.sff, geo.mean_curvature,
        chart_spec.boundary_length(manifold, bparams) * hp,
        bparams, h=scale * ha, embed=embed, param_cell=(ha, hp))


def boundary_stencil_coords(mesh: SubmanifoldMesh) -> np.ndarray:
    """Stencil coordinates of the boundary quadrature nodes."""
    p = mesh.boundary_params
    if len(p) == 0:
        return np.zeros((0, mesh.n))
    return _polar_stencil(mesh.chart.stencil_scale(mesh.manifold), p)


# ---------------------------------------------------------------------------
# integration and derivatives


def integrate(mesh: SubmanifoldMesh, values: np.ndarray,
              region: str = "interior") -> float:
    """Weighted sum of a per-node field over the interior or the boundary."""
    values = np.asarray(values, dtype=float)
    if region == "interior":
        w = mesh.weights
    elif region == "boundary":
        w = mesh.boundary_weights
    else:
        raise ValueError(f"unknown region {region!r}")
    if values.shape != w.shape:
        raise LengthMismatchError(
            f"field length {values.shape} != region length {w.shape}")
    return float(np.dot(values, w))


def intrinsic_gradient(mesh: SubmanifoldMesh, f: ScalarField) -> np.ndarray:
    """Per-node tangent-frame components of the surface gradient of f."""
    g = f.grad_chart(mesh.stencil_coords)
    return np.einsum("nab,nb->na", mesh.stencil_to_frame, g)


def _lsq_fit(mesh: SubmanifoldMesh, values: np.ndarray, radius: float,
             quadratic: bool) -> np.ndarray:
    """Per-node least-squares fit of ``values`` over the chart neighbors
    within ``radius``, ridge 1e-12: the coefficients of 1, dw1, dw2 and,
    if ``quadratic``, dw1^2 / 2, dw1 dw2, dw2^2 / 2, dw the stencil
    offset.  Nodes of equal stencil size share one stacked solve; the
    first node with fewer neighbors than coefficients raises."""
    coords = mesh.stencil_coords
    groups = mesh.tree().query_ball_point(coords, radius)
    sizes = np.array([len(idx) for idx in groups])
    coefs = 6 if quadratic else mesh.n + 1
    short = np.flatnonzero(sizes < coefs)
    if len(short):
        raise DegenerateStencilError(
            f"node {short[0]}: only {sizes[short[0]]} neighbors")
    out = np.empty((len(coords), coefs))
    for k in np.unique(sizes):
        nodes = np.flatnonzero(sizes == k)
        idx = np.array([groups[i] for i in nodes])  # (nodes, k)
        dw = coords[idx] - coords[nodes, None]
        cols = [np.ones(idx.shape), dw[..., 0], dw[..., 1]]
        if quadratic:
            cols += [0.5 * dw[..., 0] ** 2, dw[..., 0] * dw[..., 1],
                     0.5 * dw[..., 1] ** 2]
        A = np.stack(cols, axis=-1)
        At = A.transpose(0, 2, 1)
        ata = At @ A + 1e-12 * np.eye(coefs)
        out[nodes] = np.linalg.solve(ata, At @ values[idx][..., None])[..., 0]
    return out


def lsq_gradient(mesh: SubmanifoldMesh, values: np.ndarray) -> np.ndarray:
    """Linear least-squares fit of d(values)/d(stencil coords) over the
    chart neighbors within 2 h."""
    return _lsq_fit(mesh, values, 2.0 * mesh.h, quadratic=False)[:, 1:]


def lsq_hessian(mesh: SubmanifoldMesh, values: np.ndarray,
                stencil_radius: float = 3.0) -> np.ndarray:
    """Quadratic least-squares Hessian in frame coordinates, symmetrized.

    Desk-scale surrogate for the Alexandrov Hessian: local quadratic fit
    over chart neighbors within ``stencil_radius * h``.
    """
    sol = _lsq_fit(mesh, values, stencil_radius * mesh.h, quadratic=True)
    a = mesh.stencil_to_frame
    hf = a @ sol[:, [[3, 4], [4, 5]]] @ a.transpose(0, 2, 1)
    return 0.5 * (hf + hf.transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# tubular neighborhood volume (Monte Carlo)


def _refine_candidates(mesh: SubmanifoldMesh, params: np.ndarray) -> np.ndarray:
    """(P, K, d) embedded points of the REFINE_GRID x REFINE_GRID
    micro-grid in the chart cell around each of the (P, 2) ``params``,
    the radial-type parameter clamped into its valid range."""
    ca, cb = mesh.param_cell
    da = np.linspace(-0.5 * ca, 0.5 * ca, REFINE_GRID)
    db = np.linspace(-0.5 * cb, 0.5 * cb, REFINE_GRID)
    DA, DB = np.meshgrid(da, db, indexing="ij")
    offsets = np.stack([DA.ravel(), DB.ravel()], axis=1)  # (K, 2)
    cand = params[:, None, :] + offsets[None, :, :]
    cand[..., 0] = np.clip(cand[..., 0], 0.0, mesh.chart.alpha_clamp())
    return mesh.embed(cand)


def distance_to_mesh(mesh: SubmanifoldMesh,
                     pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nearest, farthest): per query point, the min geodesic distance
    to the submanifold and the max to a node, from one distance matrix
    per block of at most ``DENSE_BLOCK // nodes`` query points, so a
    call takes about ``DENSE_BLOCK`` entries at a time whatever the
    number of points.

    The nearest-node distance is refined by a REFINE_GRID x REFINE_GRID
    micro-grid in the chart cell around the nearest node.  A row takes
    the same operations in any block, but the BLAS product inside
    ``geometry.pairwise_distances`` rounds an entry by its place in the
    product, so another blocking may move a distance by a rounding
    unit.
    """
    M = mesh.manifold
    pts = np.asarray(pts, float)
    nearest, farthest = np.empty(len(pts)), np.empty(len(pts))
    step = max(DENSE_BLOCK // mesh.node_count, 1)
    for k in range(0, len(pts), step):
        block = pts[k:k + step]
        D = geometry.pairwise_distances(M, block, mesh.points)
        node = np.argmin(D, axis=1)
        base = D[np.arange(len(block)), node]
        farthest[k:k + step] = D.max(axis=1)
        cpts = _refine_candidates(mesh, mesh.params[node])
        dists = geometry.distance(M, block[:, None, :], cpts)
        nearest[k:k + step] = np.minimum(base, dists.min(axis=1))
    return nearest, farthest


def ambient_samples(M: ModelManifold, n: int, rng: np.random.Generator):
    """Uniform samples of the ambient sphere and its volume."""
    if M.variant != geometry.SPHERE:
        raise UnboundedDomainError(
            f"uniform ambient sampling unsupported for variant {M.variant}")
    g = rng.standard_normal((n, M.embedding_dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return M.radius * g, geometry.manifold_volume(M)


def tubular_volume(manifold: ModelManifold, mesh: SubmanifoldMesh, eps: float,
                   seed: int, n_samples: int = 20000) -> tuple[float, float]:
    """Monte Carlo estimate of vol(N_eps) and its standard error,
    reproducible for a fixed seed.

    A sample is inside when ``distance_to_mesh`` puts it within ``eps``.
    Only the band of samples that may be inside goes to that dense
    pass.  Every candidate of ``distance_to_mesh`` lies within ``reach``
    (the largest distance from a node to its own refinement candidates)
    of a node, so by the triangle inequality a sample farther than
    ``eps + reach`` from every node is farther than ``eps`` from every
    candidate too, and the dense pass would call it outside.  A KD-tree
    on the embedded nodes finds these samples by the chord of that
    distance.  The other samples take the dense pass unchanged, so the
    estimate is the one the dense pass over all samples gives.  The band
    grows with ``eps``, up to every sample, but ``distance_to_mesh``
    takes it in blocks of ``DENSE_BLOCK`` entries, so the memory does
    not.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    rng = np.random.default_rng(seed)
    pts, vol_ambient = ambient_samples(manifold, n_samples, rng)
    R = manifold.radius
    reach = float(geometry.distance(
        manifold, mesh.points[:, None, :],
        _refine_candidates(mesh, mesh.params)).max())
    theta = min(eps + reach, geometry.manifold_diameter(manifold))
    # widened because reach and the dense pass are arccos distances and
    # the tree compares float chords: 1e-6 relative plus 1e-9 absolute
    # is far above the rounding of either at distances of eps or more
    bound = 2 * R * math.sin(theta / (2 * R)) * (1 + 1e-6) + 1e-9
    gap, _ = cKDTree(mesh.points).query(pts, k=1, distance_upper_bound=bound)
    band = np.flatnonzero(np.isfinite(gap))
    inside = np.zeros(n_samples, dtype=bool)
    dist, _ = distance_to_mesh(mesh, pts[band])
    inside[band] = dist <= eps
    p = inside.mean()
    est = vol_ambient * p
    se = vol_ambient * math.sqrt(max(p * (1 - p), 0.0) / n_samples)
    return est, se
