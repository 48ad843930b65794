"""Model-space geometry: exp/log, transport, curvature, reference constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otsobolev import geometry
from otsobolev.errors import (
    CutLocusError,
    NonOrthonormalPlaneError,
    UnsupportedVariantError,
)

from chart_checks import (check_point, model_space,
                          parallel_frame_gram_residual)

RNG = np.random.default_rng(7)


def random_point(M, rng):
    if M.variant == geometry.EUCLIDEAN:
        return rng.standard_normal(M.embedding_dim)
    if M.variant == geometry.SPHERE:
        g = rng.standard_normal(M.embedding_dim)
        return M.radius * g / np.linalg.norm(g)
    if M.variant == geometry.HYPERBOLIC:
        y = 0.8 * rng.standard_normal(M.ambient_dim)
        R = M.radius
        x0 = math.sqrt(R**2 + float(y @ y))
        return np.concatenate([[x0], y])


def random_tangent(M, x, rng, scale=1.0):
    v = scale * rng.standard_normal(M.embedding_dim)
    if M.variant == geometry.SPHERE:
        v -= (v @ x) / (x @ x) * x
    elif M.variant == geometry.HYPERBOLIC:
        R = M.radius
        v += geometry.metric_inner(M, x, v) / R**2 * x
    return v


MODELS = [
    model_space(geometry.EUCLIDEAN, 4),
    model_space(geometry.SPHERE, 3, 1.0),
    model_space(geometry.SPHERE, 3, 4.0),
    model_space(geometry.HYPERBOLIC, 3, -1.0),
    model_space(geometry.HYPERBOLIC, 4, -0.25),
]


@pytest.mark.parametrize("M", MODELS, ids=lambda M: f"{M.variant}{M.ambient_dim}")
class TestExpLog:
    def test_log_inverts_exp(self, M):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = random_point(M, rng)
            v = random_tangent(M, x, rng, scale=0.4)
            y = geometry.exp_map(M, x, v)
            back = geometry.log_map(M, x, y)
            assert np.allclose(back, v, atol=1e-9)

    def test_distance_matches_log_norm(self, M):
        rng = np.random.default_rng(12)
        x = random_point(M, rng)
        y = random_point(M, rng)
        d = geometry.distance(M, x, y)
        u = geometry.log_map(M, x, y)
        assert np.isclose(float(geometry.norm(M, u)), float(d), atol=1e-10)

    def test_exp_stays_on_chart(self, M):
        rng = np.random.default_rng(13)
        x = random_point(M, rng)
        v = random_tangent(M, x, rng, scale=0.7)
        y = geometry.exp_map(M, x, v)
        check_point(M, y, tol=1e-8)

    def test_triangle_inequality(self, M):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x, y, z = (random_point(M, rng) for _ in range(3))
            dxz = geometry.distance(M, x, z)
            dxy = geometry.distance(M, x, y)
            dyz = geometry.distance(M, y, z)
            assert dxz <= dxy + dyz + 1e-10

    def test_pairwise_matches_distance(self, M):
        rng = np.random.default_rng(15)
        X = np.array([random_point(M, rng) for _ in range(5)])
        Y = np.array([random_point(M, rng) for _ in range(4)])
        D = geometry.pairwise_distances(M, X, Y)
        for i in range(5):
            for j in range(4):
                assert np.isclose(D[i, j],
                                  geometry.distance(M, X[i], Y[j]), atol=1e-10)


def test_sphere_log_raises_near_antipode():
    M = model_space(geometry.SPHERE, 3, 1.0)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    y = -x
    with pytest.raises(CutLocusError):
        geometry.log_map(M, x, y)


def test_sphere_geodesic_is_great_circle():
    M = model_space(geometry.SPHERE, 2, 1.0)
    x = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, math.pi / 2, 0.0])
    y = geometry.exp_map(M, x, v)
    assert np.allclose(y, [0.0, 1.0, 0.0], atol=1e-12)


def test_hyperbolic_distance_additive_along_geodesic():
    M = model_space(geometry.HYPERBOLIC, 2, -1.0)
    x = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    a = geometry.exp_map(M, x, 0.7 * v)
    b = geometry.exp_map(M, x, 1.9 * v)
    assert np.isclose(geometry.distance(M, a, b), 1.2, atol=1e-10)


def orthonormal_frame(M, x, rng):
    """An orthonormal basis (ambient_dim, D) of the tangent space at x,
    by Gram-Schmidt on random tangent vectors."""
    basis = []
    while len(basis) < M.ambient_dim:
        w = random_tangent(M, x, rng)
        for b in basis:
            w = w - geometry.metric_inner(M, w, b) * b
        nw = float(geometry.norm(M, w))
        if nw > 1e-6:
            basis.append(w / nw)
    return np.array(basis)


@pytest.mark.parametrize("M", MODELS, ids=lambda M: f"{M.variant}{M.ambient_dim}")
def test_parallel_frame_gram_and_isometry(M):
    rng = np.random.default_rng(21)
    x = random_point(M, rng)
    v = random_tangent(M, x, rng, scale=0.5)
    velocities, vectors = geometry.build_parallel_frame(
        M, x, v, orthonormal_frame(M, x, rng), samples=9)
    assert parallel_frame_gram_residual(M, vectors) < 1e-10
    # velocity components in the frame are constant along the geodesic
    components = geometry.metric_inner(M, vectors, velocities[:, None])
    assert np.allclose(components, components[0], atol=1e-9)


def test_non_orthonormal_frame_rejected():
    """A frame of the stack whose Gram matrix is more than 1e-8 from the
    identity is refused."""
    M = model_space(geometry.EUCLIDEAN, 3)
    E = np.tile(np.eye(3), (3, 1, 1))
    u = np.ones((3, 3))
    E[1, 1, 1] = 1.0 + 4e-9           # |G - I| = 8e-9
    geometry.curvature_matrix(M, E, u)
    E[1, 1, 1] = 1.0 + 6e-9           # |G - I| = 1.2e-8
    with pytest.raises(NonOrthonormalPlaneError):
        geometry.curvature_matrix(M, E, u)
    E[1, 1] = [1.0, 1.0, 0.0]
    with pytest.raises(NonOrthonormalPlaneError):
        geometry.curvature_matrix(M, E, u)


@pytest.mark.parametrize("M,expected", [
    (model_space(geometry.EUCLIDEAN, 4), 0.0),
    (model_space(geometry.SPHERE, 3, 2.0), 2.0),
    (model_space(geometry.HYPERBOLIC, 3, -0.5), -0.5),
])
def test_sectional_curvature_from_form(M, expected):
    rng = np.random.default_rng(31)
    x = random_point(M, rng)
    a = random_tangent(M, x, rng)
    a /= float(geometry.norm(M, a))
    b = random_tangent(M, x, rng)
    b -= geometry.metric_inner(M, a, b) * a
    b /= float(geometry.norm(M, b))
    sec = float(geometry.curvature_form(M, a, b, a, b))
    assert np.isclose(sec, expected, atol=1e-9)


@pytest.mark.parametrize("variant", ["spher", "product_with_line", ""])
def test_unknown_variant_rejected_at_construction(variant):
    """Only the three model spaces construct; a misspelt variant fails
    at once instead of deep inside a map."""
    with pytest.raises(ValueError, match="unknown manifold variant"):
        geometry.ModelManifold(variant, 4, 1.0)


def test_curvature_matrix_structure():
    """S = K (s^2 I - w w^T) in the frame of each atom of a stack, with
    s = |u| and w the frame components of u; S >= 0 when K >= 0."""
    M = model_space(geometry.SPHERE, 3, 2.0)
    rng = np.random.default_rng(41)
    x = [random_point(M, rng) for _ in range(5)]
    E = np.array([orthonormal_frame(M, p, rng) for p in x])
    u = np.array([random_tangent(M, p, rng, scale=0.4) for p in x])
    S = geometry.curvature_matrix(M, E, u)
    assert S.shape == (5, 3, 3)
    for a in range(5):
        s2 = float(geometry.norm(M, u[a])) ** 2
        w = geometry.metric_inner(M, E[a], np.broadcast_to(u[a], E[a].shape))
        expected = M.curvature * (s2 * np.eye(3) - np.outer(w, w))
        assert np.allclose(S[a], expected, atol=1e-9)
        ev = np.linalg.eigvalsh(S[a])
        assert ev.min() >= -1e-9  # S >= 0 when K >= 0


# S of the node frame against the parallel frame's, in rounding units of
# the largest product S is formed from, |K| |u|^2 |E_i|^2 in embedding
# coordinates: at most 1.5 max |S| on the sphere, but far more on the
# hyperboloid, whose Minkowski products cancel.  Seen: 5.6 units.
S_ULPS = 8


def curvature_scale(K, E, u):
    """|K| max |u|^2 |E_i|^2 over a stack of frames ``E`` (A, d, D) and
    velocities ``u`` (A, D), in embedding coordinates."""
    return abs(K) * (np.sum(u**2, axis=-1)
                     * np.sum(E**2, axis=-1).max(axis=-1)).max()


@pytest.mark.parametrize("dim", [3, 4, 5])
@pytest.mark.parametrize("variant, K", [(geometry.EUCLIDEAN, 0.0),
                                        (geometry.SPHERE, 2.0),
                                        (geometry.HYPERBOLIC, -0.5)])
def test_curvature_matrix_is_constant_along_the_geodesic(variant, K, dim):
    """S of a stack of atoms, taken in their frames at the base points,
    is the S of each frame parallel-transported along the geodesic at
    t = 0, 0.3 and 1, to S_ULPS rounding units; it has the sign of K,
    and the trace of its tangent block (the first two frame vectors) is
    the intermediate Ricci curvature of that plane."""
    M = model_space(variant, dim, K)
    rng = np.random.default_rng(41)
    x = [random_point(M, rng) for _ in range(6)]
    E = np.array([orthonormal_frame(M, p, rng) for p in x])
    u = np.array([random_tangent(M, p, rng, scale=0.4) for p in x])
    S = geometry.curvature_matrix(M, E, u)
    ulp = S_ULPS * np.finfo(float).eps
    assert (np.linalg.eigvalsh(S) * np.sign(K)
            >= -ulp * curvature_scale(K, E, u)).all()
    for a in range(len(x)):
        velocities, vectors = geometry.build_parallel_frame(
            M, x[a], u[a], E[a], samples=11)
        k = [0, 3, 10]                  # t = 0, 0.3, 1
        along = geometry.curvature_matrix(M, vectors[k], velocities[k])
        bound = ulp * max(curvature_scale(K, E[a:a + 1], u[a:a + 1]),
                          curvature_scale(K, vectors[k], velocities[k]))
        assert np.abs(along - S[a]).max() <= bound
        ricci = geometry.intermediate_ricci(M, x[a], E[a, :2], u[a])
        assert abs(np.trace(S[a, :2, :2]) - ricci) <= bound


def test_intermediate_ricci_model_values():
    # sphere: Ric_p(P, w) = K * p for unit w orthogonal to the p-plane
    M = model_space(geometry.SPHERE, 3, 2.0)
    x = np.array([M.radius, 0.0, 0.0, 0.0])
    plane = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    w = np.array([0.0, 0.0, 0.0, 1.0])
    assert np.isclose(geometry.intermediate_ricci(M, x, plane, w), 4.0,
                      atol=1e-12)
    H = model_space(geometry.HYPERBOLIC, 3, -1.0)
    xh = np.array([1.0, 0.0, 0.0, 0.0])
    ph = np.array([[0.0, 1.0, 0.0, 0.0]])
    wh = np.array([0.0, 0.0, 1.0, 0.0])
    assert np.isclose(geometry.intermediate_ricci(H, xh, ph, wh), -1.0,
                      atol=1e-12)
    with pytest.raises(NonOrthonormalPlaneError):
        geometry.intermediate_ricci(M, x, np.array([[0.0, 2.0, 0.0, 0.0]]), w)


def test_reference_constants():
    assert np.isclose(geometry.ball_volume(2), math.pi)
    assert np.isclose(geometry.ball_volume(3), 4.0 * math.pi / 3.0)
    assert np.isclose(geometry.ball_volume(4), math.pi**2 / 2.0)
    assert np.isclose(geometry.sphere_area(2), 4.0 * math.pi)
    assert np.isclose(geometry.sphere_area(3), 2.0 * math.pi**2)
    S = model_space(geometry.SPHERE, 3, 4.0)  # radius 1/2
    assert np.isclose(geometry.manifold_volume(S), 2.0 * math.pi**2 / 8.0)
    assert np.isclose(geometry.manifold_diameter(S), math.pi / 2.0)
    assert geometry.asymptotic_volume_ratio(
        model_space(geometry.EUCLIDEAN, 4)) == 1.0
    with pytest.raises(UnsupportedVariantError):
        geometry.manifold_volume(model_space(geometry.EUCLIDEAN, 3))
    with pytest.raises(UnsupportedVariantError):
        geometry.asymptotic_volume_ratio(model_space(geometry.SPHERE, 3, 1.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(geometry.VARIANTS))
def test_property_exp_log_roundtrip(seed, variant):
    rng = np.random.default_rng(seed)
    M = model_space(variant, 3)  # K = 0, 1 or -1
    x = random_point(M, rng)
    v = random_tangent(M, x, rng, scale=0.3)
    y = geometry.exp_map(M, x, v)
    assert np.allclose(geometry.log_map(M, x, y), v, atol=1e-8)
    assert np.isclose(geometry.distance(M, x, y),
                      float(geometry.norm(M, v)), atol=1e-8)


# The per-variant branch formulas of the curved maps, written out one
# branch per variant: the oracle the shared curved branch of each map
# must equal bit for bit.

def branch_exp_map(M, x, v):
    R = M.radius
    if M.variant == geometry.SPHERE:
        s = np.linalg.norm(v, axis=-1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(s > 0, v / np.where(s > 0, s, 1.0), 0.0)
        th = s / R
        return np.cos(th) * x + R * np.sin(th) * unit
    s = geometry.norm(M, v)[..., None]
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(s > 0, v / np.where(s > 0, s, 1.0), 0.0)
    th = s / R
    return np.cosh(th) * x + R * np.sinh(th) * unit


def branch_log_map(M, x, y):
    R = M.radius
    if M.variant == geometry.SPHERE:
        c = np.clip(np.sum(x * y, axis=-1) / R**2, -1.0, 1.0)
        th = np.arccos(c)
        if np.any(th >= math.pi - geometry.CUT_TOLERANCE):
            raise CutLocusError("pair within cut tolerance of the antipode")
        u = y / R - c[..., None] * (x / R)
        sin_th = np.sin(th)
        fac = np.where(sin_th > 1e-12,
                       th / np.where(sin_th > 0, sin_th, 1.0), 1.0)
        return R * fac[..., None] * u
    c = np.maximum(-geometry.metric_inner(M, x, y) / R**2, 1.0)
    th = np.arccosh(c)
    u = y / R - c[..., None] * (x / R)
    sinh_th = np.sinh(th)
    fac = np.where(sinh_th > 1e-12,
                   th / np.where(sinh_th > 0, sinh_th, 1.0), 1.0)
    return R * fac[..., None] * u


def branch_distance(M, x, y):
    R = M.radius
    if M.variant == geometry.SPHERE:
        return R * np.arccos(np.clip(np.sum(x * y, axis=-1) / R**2,
                                     -1.0, 1.0))
    return R * np.arccosh(np.maximum(-geometry.metric_inner(M, x, y) / R**2,
                                     1.0))


def branch_pairwise_distances(M, X, Y):
    R = M.radius
    if M.variant == geometry.SPHERE:
        return R * np.arccos(np.clip((X @ Y.T) / R**2, -1.0, 1.0))
    g = -np.outer(X[:, 0], Y[:, 0]) + X[:, 1:] @ Y[:, 1:].T
    return R * np.arccosh(np.maximum(-g / R**2, 1.0))


def branch_transport_along(M, x, v, w, t):
    T = t.shape[0]
    R = M.radius
    shape = (T,) + (1,) * (w.ndim - 1) + (M.embedding_dim,)
    if M.variant == geometry.SPHERE:
        s = float(np.linalg.norm(v))
        if s == 0.0:
            return np.broadcast_to(w, (T,) + w.shape).copy()
        u = v / s
        a = np.sum(w * u, axis=-1)
        perp = w - a[..., None] * u
        th = (s * t / R)[:, None]
        u_t = (-np.sin(th) * (x / R) + np.cos(th) * u).reshape(shape)
        return a[None, ..., None] * u_t + perp[None, ...]
    s = float(geometry.norm(M, v))
    if s == 0.0:
        return np.broadcast_to(w, (T,) + w.shape).copy()
    u = v / s
    a = geometry.metric_inner(M, w, np.broadcast_to(u, w.shape))
    perp = w - a[..., None] * u
    th = (s * t / R)[:, None]
    u_t = (np.sinh(th) * (x / R) + np.cosh(th) * u).reshape(shape)
    return a[None, ..., None] * u_t + perp[None, ...]


CURVED = [model_space(variant, d, sign * K)
          for variant, sign in ((geometry.SPHERE, 1.0),
                                (geometry.HYPERBOLIC, -1.0))
          for K in (0.25, 1.0, 4.0) for d in (3, 4, 5)]


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("M", CURVED, ids=lambda M:
                         f"{M.variant}{M.ambient_dim}_K{M.curvature}")
def test_curved_maps_equal_branch_formulas_bitwise(M):
    """exp, log, distance, pairwise distances and parallel transport on
    random points, at speeds up to past the sphere's half circumference,
    equal the per-variant formulas bit for bit."""
    rng = np.random.default_rng(2209)
    X = np.array([random_point(M, rng) for _ in range(60)])
    Y = np.array([random_point(M, rng) for _ in range(60)])
    V = np.array([random_tangent(M, x, rng, scale=rng.uniform(0.01, 2.0)
                                 * M.radius) for x in X])
    V[0] = 0.0
    assert same_bits(geometry.exp_map(M, X, V), branch_exp_map(M, X, V))
    assert same_bits(geometry.log_map(M, X, Y), branch_log_map(M, X, Y))
    assert same_bits(geometry.distance(M, X, Y), branch_distance(M, X, Y))
    assert same_bits(geometry.pairwise_distances(M, X, Y[:25]),
                     branch_pairwise_distances(M, X, Y[:25]))
    t = np.linspace(0.0, 1.0, 7)
    for x, v, w in zip(X, V, np.roll(V, 1, axis=0)):
        basis = np.stack([v, w, w - v])
        for vectors in (v, basis):
            assert same_bits(geometry.transport_along(M, x, v, vectors, t),
                             branch_transport_along(M, x, v, vectors, t))
