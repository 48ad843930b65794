"""Positive scalar fields on submanifold meshes.

Field expressions come from a deliberately tiny grammar (+, *, integer
powers, exp) in the chart stencil coordinates u1, u2, so analytic
gradients always exist (the grammar is closed under differentiation).
``sympy`` is imported by the functions that parse an expression, so a
run without an expression chart or field never loads it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError


def parse_expression(text: str, n_vars: int = 2):
    """Parse a field expression; reject anything outside the safe grammar."""
    import sympy as sp

    symbols = sp.symbols(f"u1:{n_vars + 1}")
    # lexical whitelist before sympify ever evaluates anything
    if not re.fullmatch(r"[0-9+*/()\s.-]*(\b[A-Za-z_][A-Za-z_0-9]*\b"
                        r"[0-9+*/()\s.-]*)*", text):
        raise ConfigError(f"illegal characters in field expression {text!r}")
    allowed_names = {f"u{i+1}" for i in range(n_vars)} | {"exp"}
    for name in re.findall(r"[A-Za-z_][A-Za-z_0-9]*", text):
        if name not in allowed_names:
            raise ConfigError(f"unknown name {name!r} in field expression")
    try:
        expr = sp.sympify(text, locals={f"u{i+1}": symbols[i] for i in range(n_vars)})
    except (sp.SympifyError, SyntaxError, TypeError) as exc:
        raise ConfigError(f"cannot parse field expression {text!r}: {exc}") from exc
    _validate(expr, set(symbols))
    return expr, symbols


def _validate(expr, symbols) -> None:
    import sympy as sp

    if expr.is_Number:
        return
    if expr.is_Symbol:
        if expr not in symbols:
            raise ConfigError(f"unknown symbol {expr} in field expression")
        return
    if expr.is_Add or expr.is_Mul:
        for a in expr.args:
            _validate(a, symbols)
        return
    if expr.is_Pow:
        base, exponent = expr.args
        if not (exponent.is_Integer and exponent >= 0):
            raise ConfigError("only nonnegative integer powers allowed")
        _validate(base, symbols)
        return
    if isinstance(expr, sp.exp):
        _validate(expr.args[0], symbols)
        return
    raise ConfigError(f"disallowed construct {type(expr).__name__} in field expression")


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


def constant_field(mesh, value: float) -> ScalarField:
    n = len(mesh.points)
    return ScalarField(
        np.full(n, float(value)),
        grad_chart=lambda u: np.zeros_like(np.asarray(u, float)),
        value_chart=lambda u: np.full(np.asarray(u, float).shape[:-1],
                                      float(value)))


def field_from_expression(mesh, text: str) -> ScalarField:
    """Evaluate a grammar-restricted expression of the stencil coordinates."""
    import sympy as sp

    expr, symbols = parse_expression(text, mesh.n)
    f = sp.lambdify(symbols, expr, "numpy")
    grads = [sp.lambdify(symbols, sp.diff(expr, s), "numpy") for s in symbols]

    def _eval(fn, u):
        out = fn(*[u[..., i] for i in range(mesh.n)])
        return np.broadcast_to(np.asarray(out, dtype=float), u.shape[:-1]).copy()

    values = _eval(f, mesh.stencil_coords)

    def grad_chart(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.stack([_eval(g, u) for g in grads], axis=-1)

    def value_chart(u: np.ndarray) -> np.ndarray:
        return _eval(f, np.asarray(u, dtype=float))

    return ScalarField(values, grad_chart=grad_chart, value_chart=value_chart)


def height_from_expression(text: str):
    """Height-function bundle (value, gradient, hessian) for graph charts."""
    import sympy as sp

    expr, symbols = parse_expression(text, 2)
    u1, u2 = symbols
    f = sp.lambdify(symbols, expr, "numpy")
    g = [sp.lambdify(symbols, sp.diff(expr, s), "numpy") for s in symbols]
    h = [[sp.lambdify(symbols, sp.diff(expr, a, b), "numpy") for b in symbols]
         for a in symbols]

    def value(u):
        u = np.asarray(u, dtype=float)
        return np.broadcast_to(np.asarray(f(u[..., 0], u[..., 1]), float),
                               u.shape[:-1]).copy()

    def grad(u):
        u = np.asarray(u, dtype=float)
        cols = [np.broadcast_to(np.asarray(gi(u[..., 0], u[..., 1]), float),
                                u.shape[:-1]) for gi in g]
        return np.stack(cols, axis=-1)

    def hess(u):
        u = np.asarray(u, dtype=float)
        rows = [[np.broadcast_to(np.asarray(h[a][b](u[..., 0], u[..., 1]), float),
                                 u.shape[:-1]) for b in range(2)] for a in range(2)]
        return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)

    return value, grad, hess
