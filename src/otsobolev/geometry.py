"""Closed-form Riemannian kernels for the model ambient spaces.

Three variants are supported: Euclidean space, round spheres (embedded
in R^{d+1}) and hyperbolic space (hyperboloid model in Minkowski
R^{1,d}).  All maps
(exp/log/distance/parallel transport/curvature) are exact closed forms;
there is no numerical geodesic shooting anywhere in this module.  The
two curved variants differ only in the sign of K, which ``SPACE_FORMS``
records with the functions it selects, so each map has one Euclidean
branch and one curved branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import CutLocusError, NonOrthonormalPlaneError, UnsupportedVariantError

EUCLIDEAN = "euclidean"
SPHERE = "sphere"
HYPERBOLIC = "hyperbolic"

#: sphere log map refuses pairs closer than this to the antipode
CUT_TOLERANCE = 1e-6


class SpaceForm(NamedTuple):
    """What a model space's closed forms take from the sign of K: the
    sphere's circular functions against the hyperboloid's hyperbolic
    ones.  The Euclidean record has the sign only."""

    sign: float                         # sign of K, the default curvature
    sin: Optional[Callable] = None      # sin / sinh of the geodesic angle
    cos: Optional[Callable] = None      # cos / cosh
    arccos: Optional[Callable] = None   # arccos / arccosh of the metric
    clip: tuple = ()                    # range of the arccos argument
    scalar_sin: Optional[Callable] = None  # libm sin / sinh


SPACE_FORMS = {
    EUCLIDEAN: SpaceForm(0.0),
    SPHERE: SpaceForm(1.0, np.sin, np.cos, np.arccos, (-1.0, 1.0), math.sin),
    HYPERBOLIC: SpaceForm(-1.0, np.sinh, np.cosh, np.arccosh, (1.0, np.inf),
                          math.sinh),
}
VARIANTS = tuple(SPACE_FORMS)


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
        sign = self.space.sign
        if not np.sign(self.curvature) == sign:  # a NaN K fails too
            relation = "<=>"[int(sign) + 1]
            raise ValueError(f"{self.variant} requires K {relation} 0, got "
                             f"{self.curvature}")

    @property
    def space(self) -> SpaceForm:
        return SPACE_FORMS[self.variant]

    @property
    def embedding_dim(self) -> int:
        if self.variant == EUCLIDEAN:
            return self.ambient_dim
        return self.ambient_dim + 1

    @property
    def radius(self) -> float:
        if self.variant == EUCLIDEAN:
            raise UnsupportedVariantError(f"no radius for variant {self.variant}")
        return 1.0 / math.sqrt(self.space.sign * self.curvature)


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


def lower_index(M: ModelManifold, vectors: np.ndarray) -> np.ndarray:
    """The covectors g(v, .) of embedded vectors, so that
    ``lower_index(M, v) @ w`` is ``metric_inner(M, v, w)``: the Minkowski
    lowering negates the time axis; the other variants return ``vectors``."""
    if M.variant != HYPERBOLIC:
        return vectors
    g = vectors.copy()
    g[..., 0] = -g[..., 0]
    return g


# ---------------------------------------------------------------------------
# exp / log / distance


def exp_map(M: ModelManifold, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Point at parameter 1 along the geodesic from x with initial velocity v."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if M.variant == EUCLIDEAN:
        return x + v
    sf, R = M.space, M.radius
    s = norm(M, v)[..., None]
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(s > 0, v / np.where(s > 0, s, 1.0), 0.0)
    th = s / R
    return sf.cos(th) * x + R * sf.sin(th) * unit


def log_map(M: ModelManifold, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Initial velocity of the minimal geodesic from x to y (|log| = d(x, y));
    refuses sphere pairs within CUT_TOLERANCE of the antipode."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if M.variant == EUCLIDEAN:
        return y - x
    sf, R = M.space, M.radius
    # cos / cosh of the angle; the sign of K rides on the R^2 divisor
    c = np.clip(metric_inner(M, x, y) / (sf.sign * R**2), *sf.clip)
    th = sf.arccos(c)
    if M.variant == SPHERE and np.any(th >= math.pi - CUT_TOLERANCE):
        raise CutLocusError("pair within cut tolerance of the antipode")
    u = y / R - c[..., None] * (x / R)
    sin_th = sf.sin(th)
    # theta/sin(theta), continuously extended at 0
    fac = np.where(sin_th > 1e-12, th / np.where(sin_th > 0, sin_th, 1.0), 1.0)
    return R * fac[..., None] * u


def distance(M: ModelManifold, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Geodesic distance (broadcasts on leading axes)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if M.variant == EUCLIDEAN:
        return np.linalg.norm(y - x, axis=-1)
    sf, R = M.space, M.radius
    return R * sf.arccos(np.clip(metric_inner(M, x, y) / (sf.sign * R**2),
                                 *sf.clip))


def pairwise_distances(M: ModelManifold, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Dense (N, P) geodesic distance matrix."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if M.variant == EUCLIDEAN:
        from scipy.spatial.distance import cdist

        return cdist(X, Y)
    sf, R = M.space, M.radius
    if M.variant == SPHERE:
        g = X @ Y.T
    else:
        g = -np.outer(X[:, 0], Y[:, 0]) + X[:, 1:] @ Y[:, 1:].T
    # in place, so the dense matrix takes one (N, P) buffer before arccos
    g /= sf.sign * R**2
    return R * sf.arccos(np.clip(g, *sf.clip, out=g))


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
    sf, R = M.space, M.radius
    # the sphere's speed is a BLAS dot, as in the tests' per-variant formula
    s = float(np.linalg.norm(v) if M.variant == SPHERE else norm(M, v))
    if s == 0.0:
        return np.broadcast_to(w, (T,) + w.shape).copy()
    xu = x / R
    u = v / s
    a = metric_inner(M, w, np.broadcast_to(u, w.shape))  # along the geodesic
    perp = w - a[..., None] * u
    th = (s * t / R)[:, None]
    u_t = -sf.sign * sf.sin(th) * xu + sf.cos(th) * u  # transported u
    shape = (T,) + (1,) * (w.ndim - 1) + (M.embedding_dim,)
    u_t = u_t.reshape(shape)
    return a[None, ..., None] * u_t + perp[None, ...]


def build_parallel_frame(M: ModelManifold, x: np.ndarray, v: np.ndarray,
                         basis: np.ndarray, samples: int):
    """Transport the tangent vectors ``basis`` (d, D) along exp_x(t v) at
    ``samples`` equal steps of t in [0, 1]: (velocities (T, D), vectors
    (T, d, D)), ``vectors[k, i]`` the i-th vector at the k-th time.  The
    reference the tests hold ``curvature_matrix`` to, along the geodesic."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    t = np.linspace(0.0, 1.0, samples)
    return (transport_along(M, x, v, np.asarray(v, dtype=float), t),
            transport_along(M, x, v, np.asarray(basis, dtype=float), t))


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


def curvature_matrix(M: ModelManifold, E: np.ndarray,
                     u: np.ndarray) -> np.ndarray:
    """S_ij = R(u, E_i, u, E_j) = K (<u, u> <E_i, E_j> - <u, E_i> <u, E_j>)
    of a stack of velocities ``u`` (A, D) in frames ``E`` (A, d, D) at
    their base points: (A, d, d).

    On a model space S is constant along the geodesic exp(t u) in the
    frame parallel-transported along it, so it is the S of every t.
    Raises NonOrthonormalPlaneError where a frame's Gram matrix is more
    than 1e-8 from the identity.
    """
    G = metric_inner(M, E[:, :, None, :], E[:, None, :, :])
    if np.abs(G - np.eye(E.shape[1])).max() > 1e-8:
        raise NonOrthonormalPlaneError("frame not orthonormal at the base point")
    K = M.curvature
    if K == 0.0:
        return np.zeros_like(G)
    uu = metric_inner(M, u, u)[:, None, None]
    uE = metric_inner(M, E, u[:, None, :])
    return K * (uu * G - uE[:, :, None] * uE[:, None, :])


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
