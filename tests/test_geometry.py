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
    geometry.euclidean(4),
    geometry.sphere(3, 1.0),
    geometry.sphere(3, 4.0),
    geometry.hyperbolic(3, -1.0),
    geometry.hyperbolic(4, -0.25),
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
        geometry.check_point(M, y, tol=1e-8)

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
    M = geometry.sphere(3, 1.0)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    y = -x
    with pytest.raises(CutLocusError):
        geometry.log_map(M, x, y)


def test_sphere_geodesic_is_great_circle():
    M = geometry.sphere(2, 1.0)
    x = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, math.pi / 2, 0.0])
    y = geometry.exp_map(M, x, v)
    assert np.allclose(y, [0.0, 1.0, 0.0], atol=1e-12)


def test_hyperbolic_distance_additive_along_geodesic():
    M = geometry.hyperbolic(2, -1.0)
    x = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    a = geometry.exp_map(M, x, 0.7 * v)
    b = geometry.exp_map(M, x, 1.9 * v)
    assert np.isclose(geometry.distance(M, a, b), 1.2, atol=1e-10)


@pytest.mark.parametrize("M", MODELS, ids=lambda M: f"{M.variant}{M.ambient_dim}")
def test_parallel_frame_gram_and_isometry(M):
    rng = np.random.default_rng(21)
    x = random_point(M, rng)
    v = random_tangent(M, x, rng, scale=0.5)
    # orthonormalize a random frame in the tangent space
    d = M.embedding_dim
    cand = [random_tangent(M, x, rng) for _ in range(d)]
    basis = []
    for w in cand:
        for b in basis:
            w = w - geometry.metric_inner(M, w, b) * b
        nw = float(geometry.norm(M, w))
        if nw > 1e-6:
            basis.append(w / nw)
    basis = np.array(basis[: M.ambient_dim])
    frame = geometry.build_parallel_frame(M, x, v, basis[:2], basis[2:],
                                          samples=9)
    assert frame.gram_residual() < 1e-10
    # velocity components in the frame are constant along the geodesic
    for k in range(len(frame.times)):
        g = geometry.metric_inner(M, frame.vectors[k],
                                  np.broadcast_to(frame.velocities[k],
                                                  frame.vectors[k].shape))
        assert np.allclose(g, frame.velocity_components, atol=1e-9)


def test_non_orthonormal_frame_rejected():
    M = geometry.euclidean(3)
    x = np.zeros(3)
    v = np.array([1.0, 0.0, 0.0])
    bad = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    with pytest.raises(NonOrthonormalPlaneError):
        geometry.build_parallel_frame(M, x, v, bad, np.zeros((0, 3)), samples=3)


@pytest.mark.parametrize("M,expected", [
    (geometry.euclidean(4), 0.0),
    (geometry.sphere(3, 2.0), 2.0),
    (geometry.hyperbolic(3, -0.5), -0.5),
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
    """S = K (s^2 I - w w^T) in a parallel frame, constant in t."""
    M = geometry.sphere(3, 2.0)
    rng = np.random.default_rng(41)
    x = random_point(M, rng)
    v = random_tangent(M, x, rng, scale=0.4)
    d = M.embedding_dim
    cand = [random_tangent(M, x, rng) for _ in range(d)]
    basis = []
    for w in cand:
        for b in basis:
            w = w - geometry.metric_inner(M, w, b) * b
        nw = float(geometry.norm(M, w))
        if nw > 1e-6:
            basis.append(w / nw)
    basis = np.array(basis[:3])
    frame = geometry.build_parallel_frame(M, x, v, basis[:1], basis[1:],
                                          samples=11)
    s2 = frame.speed**2
    w = frame.velocity_components
    expected = M.curvature * (s2 * np.eye(3) - np.outer(w, w))
    for t in (0.0, 0.3, 1.0):
        S = geometry.curvature_matrix(M, frame, t)
        assert np.allclose(S, expected, atol=1e-9)
        ev = np.linalg.eigvalsh(S)
        assert ev.min() >= -1e-9  # S >= 0 when K >= 0


def test_intermediate_ricci_model_values():
    # sphere: Ric_p(P, w) = K * p for unit w orthogonal to the p-plane
    M = geometry.sphere(3, 2.0)
    x = np.array([M.radius, 0.0, 0.0, 0.0])
    plane = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    w = np.array([0.0, 0.0, 0.0, 1.0])
    assert np.isclose(geometry.intermediate_ricci(M, x, plane, w), 4.0,
                      atol=1e-12)
    H = geometry.hyperbolic(3, -1.0)
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
    S = geometry.sphere(3, 4.0)  # radius 1/2
    assert np.isclose(geometry.manifold_volume(S), 2.0 * math.pi**2 / 8.0)
    assert np.isclose(geometry.manifold_diameter(S), math.pi / 2.0)
    assert geometry.asymptotic_volume_ratio(geometry.euclidean(4)) == 1.0
    with pytest.raises(UnsupportedVariantError):
        geometry.manifold_volume(geometry.euclidean(3))
    with pytest.raises(UnsupportedVariantError):
        geometry.asymptotic_volume_ratio(geometry.sphere(3, 1.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["euclidean", "sphere",
                                                   "hyperbolic"]))
def test_property_exp_log_roundtrip(seed, variant):
    rng = np.random.default_rng(seed)
    M = {"euclidean": geometry.euclidean(3),
         "sphere": geometry.sphere(3, 1.0),
         "hyperbolic": geometry.hyperbolic(3, -1.0)}[variant]
    x = random_point(M, rng)
    v = random_tangent(M, x, rng, scale=0.3)
    y = geometry.exp_map(M, x, v)
    assert np.allclose(geometry.log_map(M, x, y), v, atol=1e-8)
    assert np.isclose(geometry.distance(M, x, y),
                      float(geometry.norm(M, v)), atol=1e-8)
