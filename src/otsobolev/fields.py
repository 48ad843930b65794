"""Positive scalar fields on submanifold meshes.

Every field is an expression of the stencil coordinates
(``field_from_expression``); a constant field is a numeric literal, such
as the config default ``1.0``.  An expression (a field, or a graph
chart's height) is parsed by ``ast``, never evaluated, in a grammar
closed under differentiation: finite numeric literals (not ``bool`` or
``complex``); the names ``u1`` and ``u2``; unary ``+`` and ``-``; binary
``+``, ``-`` and ``*``; ``/`` whose divisor contains neither name; ``**``
with a non-negative integer literal exponent; ``exp(x)`` with one
argument; nesting at most ``MAX_DEPTH`` deep.  Any other node is a
``ConfigError``.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError

NAMES = ("u1", "u2")
MAX_DEPTH = 200  # so that no walk exhausts Python's stack


def parse_expression(text: str) -> ast.expr:
    """The syntax tree of ``text``; a ConfigError if it leaves the grammar."""
    try:
        tree = ast.parse(text, mode="eval").body
    except (SyntaxError, RecursionError) as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc}") from exc

    def check(node, depth):
        op, ok, children = getattr(node, "op", None), False, []
        if isinstance(node, ast.Constant):  # an int may exceed the floats
            ok = type(node.value) in (int, float) \
                and abs(node.value) <= sys.float_info.max
        elif isinstance(node, ast.Name):
            ok = node.id in NAMES
        elif isinstance(node, ast.Call):
            ok = getattr(node.func, "id", None) == "exp" \
                and len(node.args) == 1 and not node.keywords
            children = node.args
        elif isinstance(node, ast.UnaryOp):
            ok, children = isinstance(op, (ast.UAdd, ast.USub)), [node.operand]
        elif isinstance(node, ast.BinOp):
            k, children = node.right, [node.left, node.right]
            ok = isinstance(op, (ast.Add, ast.Sub, ast.Mult)) \
                or isinstance(op, ast.Div) and not any(
                    getattr(n, "id", None) in NAMES for n in ast.walk(k)) \
                or isinstance(op, ast.Pow) and isinstance(k, ast.Constant) \
                and type(k.value) is int and k.value >= 0
        if not ok or depth == MAX_DEPTH:
            raise ConfigError(f"{ast.unparse(node)!r} in expression {text!r} "
                              "is not in the grammar")
        for child in children:
            check(child, depth + 1)

    check(tree, 0)
    return tree


def derivatives(tree: ast.expr, u):
    """Value, gradient and Hessian of a parsed expression at ``u`` (..., 2),
    as views (of ``u`` itself for a bare name): copy the ones you keep."""
    u = np.asarray(u, dtype=float)
    shape = u.shape[:-1]
    g0, H0 = (np.broadcast_to(0.0, (2, *shape)),
              np.broadcast_to(0.0, (2, 2, *shape)))

    # each partial leads its array, so a value scales it by broadcasting;
    # no step writes in place, so the constants share the read-only zero
    # views g0 and H0
    def walk(node):
        if isinstance(node, ast.Constant):
            return np.full(shape, float(node.value)), g0, H0
        if isinstance(node, ast.Name):
            g = g0.copy()
            g[NAMES.index(node.id)] = 1.0
            return u[..., NAMES.index(node.id)], g, H0
        if isinstance(node, ast.UnaryOp):
            v, g, H = walk(node.operand)
            return (-v, -g, -H) if isinstance(node.op, ast.USub) else (v, g, H)
        if isinstance(node, ast.Call):  # exp
            v, g, H = walk(node.args[0])
            e = np.exp(v)
            return e, e * g, e * (H + g[:, None] * g)
        if isinstance(node.op, ast.Pow):  # in closed form, not k products
            k = float(node.right.value)
            if k < 2:  # x**0 and x**1, with no negative power of x at 0
                return walk(node.left) if k else (np.ones(shape), g0, H0)
            v, g, H = walk(node.left)
            d1, d2 = k * v ** (k - 1), k * (k - 1) * v ** (k - 2)
            return v ** k, d1 * g, d1 * H + d2 * (g[:, None] * g)
        (va, ga, Ha), (vb, gb, Hb) = walk(node.left), walk(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            op = np.add if isinstance(node.op, ast.Add) else np.subtract
            return op(va, vb), op(ga, gb), op(Ha, Hb)
        if isinstance(node.op, ast.Div):  # the divisor is a constant
            return va / vb, ga / vb, Ha / vb
        return (va * vb, ga * vb + va * gb,
                Ha * vb + va * Hb + ga[:, None] * gb + gb[:, None] * ga)

    v, g, H = walk(tree)
    return v, np.moveaxis(g, 0, -1), np.moveaxis(H, (0, 1), (-2, -1))


@dataclass
class ScalarField:
    """Per-node values of a positive function, with its analytic gradient.

    ``grad_chart`` maps stencil coordinates (..., n) to the chart-coordinate
    gradient (..., n).  ``value_chart`` evaluates the field at arbitrary
    stencil coordinates (used for boundary quadrature).
    """

    values: np.ndarray
    grad_chart: Callable[[np.ndarray], np.ndarray]
    value_chart: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values) & (self.values > 0)):
            raise ValueError("scalar fields must be finite and strictly "
                             "positive")


def field_from_expression(mesh, text: str) -> ScalarField:
    """The field of a grammar expression of the stencil coordinates."""
    value, grad, _ = height_from_expression(text)
    return ScalarField(value(mesh.stencil_coords), grad_chart=grad,
                       value_chart=value)


def height_from_expression(text: str):
    """(value, gradient, Hessian) functions of an expression of the
    stencil coordinates, such as a graph chart's height.  Each copies
    only the derivative it returns."""
    tree = parse_expression(text)
    return tuple(lambda u, i=i: derivatives(tree, u)[i].copy()
                 for i in range(3))
