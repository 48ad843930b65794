"""Scalar fields and the restricted expression grammar."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from otsobolev import fields, geometry, submanifold
from otsobolev.errors import ConfigError
from otsobolev.fields import (
    ScalarField,
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
        # accepted since the grammar is read from the syntax tree
        "1e3", "-u1 + +u2 - 2.5", "u1 / (2 * exp(1))", "u1**0",
        "u1+" * (fields.MAX_DEPTH - 1) + "u1",
    ])
    def test_accepts_safe_expressions(self, text):
        parse_expression(text)

    @pytest.mark.parametrize("text", [
        "u3", "sin(u1)", "u1**-1", "u1**0.5", "u1/u2",
        "__import__('os')", "log(u1)", "u1 ** u2",
        # accepted while sympy simplified the text before checking it
        "u1**2/u1", "u1*u1/u1", "1/(u1-u1+1)", "u1**(1+1)", "u1**2**2",
        # literals outside the finite floats, and other literal types
        "1e400", "1" + "0" * 400, "u1**" + "1" + "0" * 400, "True",
        "u1**True", "1j", "'u1'", "exp", "exp(u1, u2)", "exp(x=u1)",
        "u1 % 2", "u1 // 2", "(u1, u2)", "u1 if u1 else u2", "", "u1 +",
        # deeper than the walks may go, and deeper than ast.parse goes
        "u1+" * fields.MAX_DEPTH + "u1", "u1+" * 5000 + "u1",
    ])
    def test_rejects_unsafe_expressions(self, text):
        with pytest.raises(ConfigError):
            parse_expression(text)


def expressions(depth: int):
    """Texts of the grammar nested at most ``depth`` deep."""
    leaf = st.sampled_from(["u1", "u2", "0", "1", "2", "3", "0.5", "1e-1"])
    if depth == 0:
        return leaf
    sub = expressions(depth - 1)
    return st.one_of(
        leaf,
        st.builds("({} {} {})".format, sub, st.sampled_from("+-*"), sub),
        st.builds("({}) / {}".format, sub,
                  st.sampled_from(["2", "(1 + 3)", "exp(1)", "0.5**2"])),
        st.builds("({})**{}".format, sub, st.integers(0, 3)),
        st.builds("{}({})".format, st.sampled_from(["exp", "-", "+"]), sub))


def sympy_oracle(text: str, u: np.ndarray):
    """Value, gradient and Hessian of ``text`` by sympy's diff and
    lambdify."""
    import sympy as sp

    syms = sp.symbols("u1 u2")
    expr = sp.sympify(text, locals=dict(zip(("u1", "u2"), syms)))

    def at(e):
        out = sp.lambdify(syms, e, "numpy")(u[..., 0], u[..., 1])
        return np.broadcast_to(np.asarray(out, dtype=float), u.shape[:-1])

    return (at(expr), np.stack([at(sp.diff(expr, a)) for a in syms], -1),
            np.stack([np.stack([at(sp.diff(expr, a, b)) for b in syms], -1)
                      for a in syms], -2))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(expressions(4))
def test_derivatives_match_sympy(text):
    """The walk's value, gradient and Hessian agree with sympy's to 1e-12
    of their largest entry, at the origin (where x**k for k <= 2 must not
    give NaN) and at points of the unit square."""
    u = np.array([[0.0, 0.0], [0.3, -0.7], [-1.0, 0.5], [0.9, 1.0]])
    ours = fields.derivatives(parse_expression(text), u)
    oracle = sympy_oracle(text, u)
    assume(all(np.isfinite(a).all() for a in oracle))
    for got, want in zip(ours, oracle):
        assert got.shape == want.shape
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * scale, (text, got, want)


class TestScalarField:
    def test_positive_values_enforced(self):
        with pytest.raises(ValueError):
            ScalarField(np.array([1.0, -0.5]), np.zeros_like, np.zeros_like)

    def test_constant_field(self, mesh):
        """A constant is the expression of one literal."""
        f = field_from_expression(mesh, "2.5")
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
