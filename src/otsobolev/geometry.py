"""Closed-form Riemannian kernels for the model ambient spaces.

Three variants are supported: Euclidean space, round spheres (embedded
in R^{d+1}) and hyperbolic space (hyperboloid model in Minkowski
R^{1,d}).  All maps
(exp/log/distance/parallel transport/curvature) are exact closed forms;
there is no numerical geodesic shooting anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CutLocusError, NonOrthonormalPlaneError, UnsupportedVariantError

EUCLIDEAN = "euclidean"
SPHERE = "sphere"
HYPERBOLIC = "hyperbolic"
VARIANTS = (EUCLIDEAN, SPHERE, HYPERBOLIC)

#: sphere log map refuses pairs closer than this to the antipode
CUT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ModelManifold:
    """A constant-curvature model space.

    ``ambient_dim`` is the manifold dimension n+m.  ``curvature`` is the
    sectional curvature K (0 Euclidean, K>0 sphere of radius 1/sqrt(K),
    K<0 hyperbolic of radius 1/sqrt(-K)).
    """

    variant: str
    ambient_dim: int
    curvature: float

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown manifold variant {self.variant!r}")
        if self.variant == SPHERE and not self.curvature > 0:
            raise ValueError("sphere variant requires K > 0")
        if self.variant == HYPERBOLIC and not self.curvature < 0:
            raise ValueError("hyperbolic variant requires K < 0")
        if self.variant == EUCLIDEAN and self.curvature != 0:
            raise ValueError("euclidean variant requires K = 0")

    @property
    def embedding_dim(self) -> int:
        if self.variant == EUCLIDEAN:
            return self.ambient_dim
        return self.ambient_dim + 1

    @property
    def radius(self) -> float:
        if self.variant == SPHERE:
            return 1.0 / math.sqrt(self.curvature)
        if self.variant == HYPERBOLIC:
            return 1.0 / math.sqrt(-self.curvature)
        raise UnsupportedVariantError(f"no radius for variant {self.variant}")


def euclidean(dim: int) -> ModelManifold:
    return ModelManifold(EUCLIDEAN, dim, 0.0)


def sphere(dim: int, curvature: float = 1.0) -> ModelManifold:
    return ModelManifold(SPHERE, dim, curvature)


def hyperbolic(dim: int, curvature: float = -1.0) -> ModelManifold:
    return ModelManifold(HYPERBOLIC, dim, curvature)


# ---------------------------------------------------------------------------
# metric


def metric_inner(M: ModelManifold, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Riemannian inner product of embedded vectors (broadcasts on leading axes)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if M.variant == HYPERBOLIC:
        return -u[..., 0] * v[..., 0] + np.sum(u[..., 1:] * v[..., 1:], axis=-1)
    return np.sum(u * v, axis=-1)


def norm(M: ModelManifold, u: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(metric_inner(M, u, u), 0.0))


def check_point(M: ModelManifold, x: np.ndarray, tol: float = 1e-12) -> None:
    """Assert embedding-chart normalization of a point."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != M.embedding_dim:
        raise ValueError("wrong embedding dimension")
    if M.variant == SPHERE:
        r = abs(np.linalg.norm(x) - M.radius)
        if r > tol * max(1.0, M.radius):
            raise ValueError(f"sphere point off chart by {r:.2e}")
    elif M.variant == HYPERBOLIC:
        r = abs(metric_inner(M, x, x) + M.radius**2)
        if r > 1e-10 * max(1.0, M.radius**2) or x[..., 0] <= 0:
            raise ValueError("hyperboloid normalization violated")


# ---------------------------------------------------------------------------
# exp / log / distance


def exp_map(M: ModelManifold, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Point at parameter 1 along the geodesic from x with initial velocity v."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if M.variant == EUCLIDEAN:
        return x + v
    if M.variant == SPHERE:
        R = M.radius
        s = np.linalg.norm(v, axis=-1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(s > 0, v / np.where(s > 0, s, 1.0), 0.0)
        th = s / R
        return np.cos(th) * x + R * np.sin(th) * unit
    R = M.radius
    s = norm(M, v)[..., None]
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(s > 0, v / np.where(s > 0, s, 1.0), 0.0)
    th = s / R
    return np.cosh(th) * x + R * np.sinh(th) * unit


def log_map(M: ModelManifold, x: np.ndarray, y: np.ndarray,
            cut_tol: float = CUT_TOLERANCE) -> np.ndarray:
    """Initial velocity of the minimal geodesic from x to y (|log| = d(x, y))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if M.variant == EUCLIDEAN:
        return y - x
    if M.variant == SPHERE:
        R = M.radius
        c = np.clip(np.sum(x * y, axis=-1) / R**2, -1.0, 1.0)
        th = np.arccos(c)
        if np.any(th >= math.pi - cut_tol):
            raise CutLocusError("pair within cut tolerance of the antipode")
        u = y / R - c[..., None] * (x / R)
        sin_th = np.sin(th)
        # theta/sin(theta), continuously extended at 0
        fac = np.where(sin_th > 1e-12, th / np.where(sin_th > 0, sin_th, 1.0), 1.0)
        return R * fac[..., None] * u
    R = M.radius
    c = np.maximum(-metric_inner(M, x, y) / R**2, 1.0)
    th = np.arccosh(c)
    u = y / R - c[..., None] * (x / R)
    sinh_th = np.sinh(th)
    fac = np.where(sinh_th > 1e-12, th / np.where(sinh_th > 0, sinh_th, 1.0), 1.0)
    return R * fac[..., None] * u


def distance(M: ModelManifold, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Geodesic distance (broadcasts on leading axes)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if M.variant == EUCLIDEAN:
        return np.linalg.norm(y - x, axis=-1)
    if M.variant == SPHERE:
        R = M.radius
        c = np.clip(np.sum(x * y, axis=-1) / R**2, -1.0, 1.0)
        return R * np.arccos(c)
    R = M.radius
    c = np.maximum(-metric_inner(M, x, y) / R**2, 1.0)
    return R * np.arccosh(c)


def pairwise_distances(M: ModelManifold, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Dense (N, P) geodesic distance matrix."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if M.variant == EUCLIDEAN:
        from scipy.spatial.distance import cdist

        return cdist(X, Y)
    if M.variant == SPHERE:
        R = M.radius
        c = np.clip((X @ Y.T) / R**2, -1.0, 1.0)
        return R * np.arccos(c)
    R = M.radius
    g = -np.outer(X[:, 0], Y[:, 0]) + X[:, 1:] @ Y[:, 1:].T
    return R * np.arccosh(np.maximum(-g / R**2, 1.0))


# ---------------------------------------------------------------------------
# parallel transport and frames


def transport_along(M: ModelManifold, x: np.ndarray, v: np.ndarray,
                    w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Parallel transport of tangent vector w along gamma(t) = exp_x(t v).

    ``t`` has shape (T,); ``w`` has shape (..., d); returns (T, ..., d).
    """
    t = np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=float)
    T = t.shape[0]
    if M.variant == EUCLIDEAN:
        return np.broadcast_to(w, (T,) + w.shape).copy()
    if M.variant == SPHERE:
        R = M.radius
        s = float(np.linalg.norm(v))
        if s == 0.0:
            return np.broadcast_to(w, (T,) + w.shape).copy()
        xu = x / R
        u = v / s
        a = np.sum(w * u, axis=-1)  # component along the geodesic plane
        perp = w - a[..., None] * u
        th = (s * t / R)[:, None]
        u_t = -np.sin(th) * xu + np.cos(th) * u  # transported u
        shape = (T,) + (1,) * (w.ndim - 1) + (M.embedding_dim,)
        u_t = u_t.reshape(shape)
        return a[None, ..., None] * u_t + perp[None, ...]
    R = M.radius
    s = float(norm(M, v))
    if s == 0.0:
        return np.broadcast_to(w, (T,) + w.shape).copy()
    xu = x / R
    u = v / s
    a = metric_inner(M, w, np.broadcast_to(u, w.shape))
    perp = w - a[..., None] * u
    th = (s * t / R)[:, None]
    u_t = np.sinh(th) * xu + np.cosh(th) * u
    shape = (T,) + (1,) * (w.ndim - 1) + (M.embedding_dim,)
    u_t = u_t.reshape(shape)
    return a[None, ..., None] * u_t + perp[None, ...]


@dataclass
class ParallelFrame:
    """Orthonormal frame parallel-transported along one geodesic.

    ``vectors[k, i]`` is the i-th frame vector at sample time ``times[k]``.
    The first ``n_tangent`` vectors come from the tangent basis, the rest
    from the normal basis.  ``velocity_components`` are the (constant)
    components of the geodesic velocity in the frame.
    """

    manifold: ModelManifold
    velocity: np.ndarray
    speed: float
    times: np.ndarray
    velocities: np.ndarray
    vectors: np.ndarray
    n_tangent: int
    velocity_components: np.ndarray = field(init=False)

    def __post_init__(self):
        g = metric_inner(self.manifold,
                         self.vectors[0],
                         np.broadcast_to(self.velocity, self.vectors[0].shape))
        self.velocity_components = np.asarray(g, dtype=float)

    def gram_residual(self) -> float:
        """Worst deviation of the frame Gram matrix from the identity."""
        M = self.manifold
        worst = 0.0
        for k in range(len(self.times)):
            V = self.vectors[k]
            G = metric_inner(M, V[:, None, :], V[None, :, :])
            worst = max(worst, float(np.abs(G - np.eye(V.shape[0])).max()))
        return worst


def build_parallel_frame(M: ModelManifold, x: np.ndarray, v: np.ndarray,
                         tangent_basis: np.ndarray, normal_basis: np.ndarray,
                         samples: int) -> ParallelFrame:
    """Transport an orthonormal basis along exp_x(t v), t in [0, 1]."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    tangent_basis = np.atleast_2d(np.asarray(tangent_basis, dtype=float))
    normal_basis = np.atleast_2d(np.asarray(normal_basis, dtype=float))
    if normal_basis.size == 0:
        basis = tangent_basis
    elif tangent_basis.size == 0:
        basis = normal_basis
    else:
        basis = np.vstack([tangent_basis, normal_basis])
    G = metric_inner(M, basis[:, None, :], basis[None, :, :])
    if np.abs(G - np.eye(len(basis))).max() > 1e-8:
        raise NonOrthonormalPlaneError("basis not orthonormal at the base point")
    t = np.linspace(0.0, 1.0, samples)
    vel = transport_along(M, x, v, np.asarray(v, dtype=float), t)
    vecs = transport_along(M, x, v, basis, t)
    speed = float(norm(M, np.asarray(v, dtype=float)))
    return ParallelFrame(M, np.asarray(v, float), speed, t, vel, vecs,
                         n_tangent=len(tangent_basis))


# ---------------------------------------------------------------------------
# curvature


def curvature_form(M: ModelManifold, a: np.ndarray, b: np.ndarray,
                   c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """R(a, b, c, d) for the model space (constant curvature K)."""
    K = M.curvature
    if K == 0.0:
        return np.zeros(np.broadcast(a[..., 0], b[..., 0]).shape)
    return K * (metric_inner(M, a, c) * metric_inner(M, b, d)
                - metric_inner(M, a, d) * metric_inner(M, b, c))


def curvature_matrix(M: ModelManifold, frame: ParallelFrame,
                     t: float) -> np.ndarray:
    """S_ij(t) = R(gamma'(t), E_i(t), gamma'(t), E_j(t)) in frame coordinates.

    Constant in t for model spaces (parallel frames in locally symmetric
    spaces), so the sample nearest to t is exact.
    """
    if t < frame.times[0] - 1e-12 or t > frame.times[-1] + 1e-12:
        raise ValueError("t outside the frame's sample range")
    k = int(np.argmin(np.abs(frame.times - t)))
    V = frame.vectors[k]
    gv = frame.velocities[k]
    K = M.curvature
    if K == 0.0:
        return np.zeros((V.shape[0], V.shape[0]))
    gvv = metric_inner(M, gv, gv)
    gvE = metric_inner(M, V, np.broadcast_to(gv, V.shape))
    gEE = metric_inner(M, V[:, None, :], V[None, :, :])
    S = K * (gvv * gEE - np.outer(gvE, gvE))
    return 0.5 * (S + S.T)


def intermediate_ricci(M: ModelManifold, x: np.ndarray, plane: np.ndarray,
                       w: np.ndarray) -> float:
    """Ric_p(P, w) = sum_i <R(w, e_i) w, e_i> over an orthonormal plane basis."""
    plane = np.atleast_2d(np.asarray(plane, dtype=float))
    G = metric_inner(M, plane[:, None, :], plane[None, :, :])
    if np.abs(G - np.eye(len(plane))).max() > 1e-8:
        raise NonOrthonormalPlaneError("plane basis not orthonormal")
    w = np.asarray(w, dtype=float)
    total = 0.0
    for e in plane:
        total += float(curvature_form(M, w, e, w, e))
    return total


# ---------------------------------------------------------------------------
# reference constants


def ball_volume(k: int) -> float:
    """Volume of the unit ball in R^k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.pi ** (k / 2) / math.gamma(k / 2 + 1)


def sphere_area(k: int, radius: float = 1.0) -> float:
    """Surface area of the round k-sphere of the given radius."""
    return (k + 1) * ball_volume(k + 1) * radius**k


def manifold_volume(M: ModelManifold) -> float:
    """Total Riemannian volume (compact variants only)."""
    if M.variant == SPHERE:
        return sphere_area(M.ambient_dim, M.radius)
    raise UnsupportedVariantError("volume is infinite for noncompact variants")


def manifold_diameter(M: ModelManifold) -> float:
    if M.variant == SPHERE:
        return math.pi * M.radius
    raise UnsupportedVariantError("diameter only defined for compact variants")


def asymptotic_volume_ratio(M: ModelManifold) -> float:
    """Asymptotic volume ratio theta; analytic (= 1) for Euclidean space."""
    if M.variant == EUCLIDEAN:
        return 1.0
    raise UnsupportedVariantError(
        "asymptotic volume ratio only supported for Euclidean space"
    )
