"""Scalar fields and the restricted expression grammar."""

import numpy as np
import pytest

from otsobolev import geometry, submanifold
from otsobolev.errors import ConfigError
from otsobolev.fields import (
    ScalarField,
    constant_field,
    field_from_expression,
    height_from_expression,
    parse_expression,
)

from chart_checks import model_space


@pytest.fixture(scope="module")
def mesh():
    M = model_space(geometry.EUCLIDEAN, 4)
    return submanifold.build_submanifold(M, submanifold.FlatDisk(radius=1.0), 10)


class TestGrammar:
    @pytest.mark.parametrize("text", [
        "1", "u1", "u1 + u2", "2*u1*u2", "u1**3", "exp(u1)",
        "1 + exp(u1*u2) + u2**2", "(u1 + u2)**2 * 3",
    ])
    def test_accepts_safe_expressions(self, text):
        parse_expression(text)

    @pytest.mark.parametrize("text", [
        "u3", "sin(u1)", "u1**-1", "u1**0.5", "u1/u2",
        "__import__('os')", "log(u1)", "u1 ** u2",
    ])
    def test_rejects_unsafe_expressions(self, text):
        with pytest.raises(ConfigError):
            parse_expression(text)


class TestScalarField:
    def test_positive_values_enforced(self):
        with pytest.raises(ValueError):
            ScalarField(np.array([1.0, -0.5]), np.zeros_like, np.zeros_like)

    def test_constant_field(self, mesh):
        f = constant_field(mesh, 2.5)
        assert np.all(f.values == 2.5)
        u = mesh.stencil_coords[:7]
        assert np.all(f.grad_chart(u) == 0.0)
        assert np.all(f.value_chart(u) == 2.5)

    def test_expression_field_values_and_gradient(self, mesh):
        f = field_from_expression(mesh, "1 + u1*u2/4")
        x, y = mesh.stencil_coords[:, 0], mesh.stencil_coords[:, 1]
        assert np.allclose(f.values, 1 + x * y / 4)
        g = f.grad_chart(mesh.stencil_coords)
        assert np.allclose(g[:, 0], y / 4)
        assert np.allclose(g[:, 1], x / 4)

    def test_expression_field_must_be_positive(self, mesh):
        # u1 vanishes and goes negative on the disk
        with pytest.raises(ValueError):
            field_from_expression(mesh, "u1")

    def test_gradient_matches_finite_differences(self, mesh):
        f = field_from_expression(mesh, "exp(u1) * (1 + u2**2)")
        u = np.array([[0.3, -0.2], [0.0, 0.5]])
        eps = 1e-6
        g = f.grad_chart(u)
        for k in range(2):
            up = u.copy()
            up[:, k] += eps
            um = u.copy()
            um[:, k] -= eps
            fd = (f.value_chart(up) - f.value_chart(um)) / (2 * eps)
            assert np.allclose(g[:, k], fd, atol=1e-8)


def test_height_bundle_consistency():
    value, grad, hess = height_from_expression("u1**2 * u2 + 3*u2")
    u = np.array([[0.4, -0.7], [1.1, 0.2]])
    x, y = u[:, 0], u[:, 1]
    assert np.allclose(value(u), x**2 * y + 3 * y)
    g = grad(u)
    assert np.allclose(g[:, 0], 2 * x * y)
    assert np.allclose(g[:, 1], x**2 + 3)
    H = hess(u)
    assert np.allclose(H[:, 0, 0], 2 * y)
    assert np.allclose(H[:, 0, 1], 2 * x)
    assert np.allclose(H[:, 1, 0], 2 * x)
    assert np.allclose(H[:, 1, 1], 0.0)
