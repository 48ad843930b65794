"""Closed-form matrix Jacobi fields P'' = -PS along transport geodesics.

``propagate`` stacks a chunk of atoms into one ``JacobiStack`` (P, P',
Q = P^{-1} P' and the singular atoms).  Each measurement that
``pipeline._jacobi`` compares with its bounds maps that stack to one
value per atom: the symmetry and Riccati residuals, the determinant
profile, the small-t normalization, the endpoint Jacobian bound and the
trace comparison with the envelopes of ``ComparisonProfile``, which
take one lam per atom.  ``plot_series`` gives one atom's curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import geometry
from .errors import NonSymmetricHessianError, UnsupportedVariantError
from .geometry import ModelManifold
from .submanifold import SubmanifoldMesh

STEPS = 1000               # the checks sample P at t = k / STEPS, k = 0..STEPS
TIMES = np.linspace(0.0, 1.0, STEPS + 1)
TRIM_SAMPLES = 10          # trimmed window starts at t0 = 10 / STEPS = 0.01
COND_LIMIT = 1e12          # Q is only formed where cond(P) stays below this
# S S = w^2 S to this share of max |S|^2; bundled runs: 5.1e-16 at worst
S_FORM_TOL = 1e-12


# ---------------------------------------------------------------------------
# the stacked trajectories of a chunk


@dataclass
class JacobiStack:
    """P'' = -PS of A atoms sampled on ``TIMES`` (T samples)."""

    P: np.ndarray              # (A, T, d, d)
    Pp: np.ndarray             # (A, T, d, d)
    Q: np.ndarray              # (A, T, d, d), nan where not q_defined
    det_p: np.ndarray          # (A, T)
    q_defined: np.ndarray      # (A, T) bool: cond(P) < COND_LIMIT
    S: np.ndarray              # (A, d, d), constant in the parallel frame
    lam: np.ndarray            # (A,) Delta phi + <H, v>, scalar of the bounds
    n: int
    m: int
    # (A,) bool: det P changes sign or P is not finite on the trimmed
    # window (a conjugate-point degeneracy), or Q is defined nowhere on it
    singular: np.ndarray

    @cached_property
    def traces(self) -> tuple[np.ndarray, np.ndarray]:
        """(trQ1, trQ3), each (A, T): the traces of Q's tangent and
        normal blocks."""
        n = self.n
        return (np.einsum("atii->at", self.Q[..., :n, :n]),
                np.einsum("atii->at", self.Q[..., n:, n:]))


# ---------------------------------------------------------------------------
# initial conditions and propagation


def initial_conditions(mesh: SubmanifoldMesh, node: int, v_normal: np.ndarray,
                       hess_phi: np.ndarray, grad_phi: np.ndarray):
    """Block initial data (P(0), P'(0)) for one transport atom.

    ``v_normal`` holds normal-frame components of the atom's normal
    velocity, ``hess_phi``/``grad_phi`` the frame-coordinate Hessian and
    gradient of the potential at the node.
    """
    n, m = mesh.n, mesh.m
    hess_phi = np.asarray(hess_phi, dtype=float)
    sym = np.abs(hess_phi - hess_phi.T).max()
    if sym > 1e-8:
        raise NonSymmetricHessianError(f"Hessian asymmetry {sym:.2e}")
    v_normal = np.asarray(v_normal, dtype=float)
    grad_phi = np.asarray(grad_phi, dtype=float)
    d = n + m
    P0 = np.zeros((d, d))
    P0[:n, :n] = np.eye(n)
    P0p = np.zeros((d, d))
    sff = mesh.sff[node]                     # (m, n, n)
    P0p[:n, :n] = -hess_phi - np.einsum("aij,a->ij", sff, v_normal)
    P0p[:n, n:] = -np.einsum("aij,j->ia", sff.transpose(0, 2, 1), grad_phi)
    P0p[n:, n:] = np.eye(m)
    return P0, P0p


def closed_form_stack(S: np.ndarray, P0: np.ndarray, P0p: np.ndarray):
    """P and P', (A, STEPS + 1, d, d), of P'' = -PS on ``TIMES`` for a
    stack of atoms with (A, d, d) curvature matrices and initial data.

    On a model space S = w^2 N, with N = I - Pi, Pi the projection onto
    the velocity and w^2 = K L^2 = tr S / (d - 1).  So
    P = P0 Pi + t P0' Pi + c P0 N + s P0' N with c, s = cos wt, sin(wt)/w
    (cosh, sinh for K < 0; 1, t for K = 0), and P' = P0' Pi - w^2 s P0 N
    + c P0' N.  Raises UnsupportedVariantError where
    max |S S - w^2 S| > S_FORM_TOL max |S|^2.  An atom's trajectory is
    bitwise the same in any stack.
    """
    if P0.shape != S.shape or P0p.shape != S.shape:
        raise ValueError("initial data must match the frame dimension")
    A, d, _ = S.shape
    w2 = np.trace(S, axis1=1, axis2=2)[:, None, None] / (d - 1)
    if np.any(np.abs(S @ S - w2 * S).max(axis=(1, 2))
              > S_FORM_TOL * np.abs(S).max(axis=(1, 2)) ** 2):
        raise UnsupportedVariantError("curvature matrix is not w^2 (I - Pi)")
    # N = S / w^2; at K = 0 S vanishes, and N = 0 gives P = P0 + t P0'
    N = np.divide(S, w2, out=np.zeros_like(S), where=w2 != 0)
    Pi = np.eye(d) - N
    basis = np.stack([P0 @ Pi, P0p @ Pi, P0 @ N, P0p @ N], axis=1)
    w2 = w2[:, :, 0]
    w, t = np.sqrt(np.abs(w2)), np.broadcast_to(TIMES, (A, STEPS + 1))
    c = np.where(w2 > 0, np.cos(w * t), np.cosh(w * t))
    with np.errstate(invalid="ignore"):
        s = np.where(w == 0, t, np.where(w2 > 0, np.sin(w * t),
                                         np.sinh(w * t)) / w)
    one, zero = np.ones_like(t), np.zeros_like(t)
    coef = np.stack([np.stack([one, t, c, s], -1),              # P
                     np.stack([zero, one, -w2 * s, c], -1)])    # P'
    P, Pp = coef @ basis.reshape(A, 4, d * d)[None]
    return P.reshape(A, -1, d, d), Pp.reshape(A, -1, d, d)


def well_conditioned(P: np.ndarray, det_p: np.ndarray) -> np.ndarray:
    """``cond(P) < COND_LIMIT`` and finite, sample by sample, for a
    stack of (d, d) matrices ``P`` with determinants ``det_p``.

    cond_2(P) <= ||P||_F^d / |det P|, so where that bound is below
    COND_LIMIT / 2 the answer is yes without an SVD; the factor 2 covers
    the rounding of both sides.  A non-finite sample is not-ok, and is
    kept from the SVD, which raises on NaN.  Only the other samples (a
    singular P(0), samples near a conjugate point) go to
    ``np.linalg.cond``, and the mask is the one it gives there.
    """
    d = P.shape[-1]
    with np.errstate(all="ignore"):
        bound = np.einsum("...ij,...ij->...", P, P) ** (0.5 * d) \
            / np.abs(det_p)
        # a non-finite sample has a non-finite bound, so it is not ok here
        ok = bound < 0.5 * COND_LIMIT
        rest = ~ok & np.isfinite(P).all(axis=(-2, -1))
        if rest.any():
            cond = np.linalg.cond(P[rest])
            ok[rest] = np.isfinite(cond) & (cond < COND_LIMIT)
    return ok


def propagate(manifold: ModelManifold, frames: list, P0: np.ndarray,
              P0p: np.ndarray, lam) -> JacobiStack:
    """P'' = -PS in closed form on ``TIMES`` for a stack of atoms.

    ``P0``/``P0p`` are (A, d, d), with one parallel frame and one value
    of ``lam`` = Delta phi + <H, v> per atom; S is evaluated once per
    frame, where it is constant for the model spaces.
    """
    S = np.stack([geometry.curvature_matrix(manifold, f, 0.0)
                  for f in frames])
    P, Pp = closed_form_stack(S, P0, P0p)
    # det P and Q = P^{-1} P', matrix by matrix over the whole stack
    det_p = np.linalg.det(P)
    Q = np.full(P.shape, np.nan)
    ok = well_conditioned(P, det_p)
    if ok.any():
        Q[ok] = np.linalg.solve(P[ok], Pp[ok])
    singular = np.any(det_p[:, TRIM_SAMPLES:] <= 0, axis=1) \
        | ~np.isfinite(P[:, TRIM_SAMPLES:]).all(axis=(1, 2, 3)) \
        | ~ok[:, TRIM_SAMPLES:].any(axis=1)
    n = frames[0].n_tangent
    return JacobiStack(P, Pp, Q, det_p, ok, S, np.asarray(lam, dtype=float),
                       n, S.shape[1] - n, singular)


# ---------------------------------------------------------------------------
# residuals (the derivative from independent finite differences of P)


def symmetry_residual(rec: JacobiStack) -> np.ndarray:
    """(A,) worst deviation of P'(t) P(t)^T from symmetry."""
    B = np.einsum("atij,atkj->atik", rec.Pp, rec.P)
    dev = B - B.swapaxes(-1, -2)
    return np.abs(dev, out=dev).max(axis=(1, 2, 3))


def q_symmetry_residual(rec: JacobiStack) -> np.ndarray:
    """(A,) worst deviation of Q from symmetry where it is defined; 0 on
    an atom where it is defined nowhere."""
    dev = rec.Q - rec.Q.swapaxes(-1, -2)
    dev = np.abs(dev, out=dev).max(axis=(2, 3))
    return np.where(rec.q_defined, dev, 0.0).max(axis=1)


# points of the finite-difference stencil of ``second_derivative``
STENCIL = 5


@lru_cache(maxsize=8)
def _second_derivative_weights(dt: float) -> dict:
    """The d^2/dt^2 weights of each STENCIL-point stencil at step ``dt``,
    keyed by the stencil's offset from the sample it serves: on a
    uniform grid only that shift varies.  The weights w at offsets x
    solve sum_k w_k x_k^j = 2 [j == 2] for j < STENCIL."""
    rhs = np.zeros(STENCIL)
    rhs[2] = 2.0
    weights = {}
    for shift in range(-(STENCIL - 1), 1):
        x = (np.arange(STENCIL) + shift) * dt
        weights[shift] = np.linalg.solve(np.vander(x, increasing=True).T, rhs)
    return weights


def second_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """4th-order-accurate d^2/dt^2 of data sampled uniformly along axis 1
    of an (A, T, ...) stack.

    Centered stencils inside, one-sided near the ends.  An end sample is
    one matrix-vector product per atom, which rounds alike in any stack.
    """
    values = np.asarray(values, dtype=float)
    A, T = values.shape[:2]
    half = STENCIL // 2
    out = np.zeros_like(values)
    weights = _second_derivative_weights(dt)
    interior = weights[-half]
    mid = out[:, half:T - half]
    for k in range(STENCIL):
        mid += interior[k] * values[:, k:T - STENCIL + 1 + k]
    for j in list(range(half)) + list(range(T - half, T)):
        lo = min(max(j - half, 0), T - STENCIL)
        stencil = values[:, lo:lo + STENCIL].reshape(A, STENCIL, -1)
        out[:, j] = (weights[lo - j] @ stencil).reshape(out[:, j].shape)
    return out


def riccati_residual(rec: JacobiStack) -> np.ndarray:
    """(A,) max over the trimmed window of ||Q' + S + Q^2|| (max-abs
    entry), Q' = P^{-1} P'' - Q^2 with P'' from finite differences of the
    P; -inf on a singular atom."""
    window = slice(TRIM_SAMPLES, None)
    ok = rec.q_defined[:, window] & ~rec.singular[:, None]
    # I x = 0 where Q is undefined or the atom singular: the stacked
    # solve, matrix by matrix, rounds each sample alike in any stack
    P = rec.P[:, window].copy()
    Ppp = second_derivative(rec.P, TIMES[1] - TIMES[0])[:, window]
    P[~ok], Ppp[~ok] = np.eye(P.shape[-1]), 0.0
    res = np.linalg.solve(P, Ppp)
    del P, Ppp          # the chunk's peak memory stays propagate's
    q2 = np.einsum("atij,atjk->atik", rec.Q[:, window], rec.Q[:, window])
    # Q' + S + Q^2 in this order: cancelling Q^2 moves the last bits
    res -= q2
    res += rec.S[:, None]
    res += q2
    worst = np.abs(res, out=res).max(axis=(2, 3))
    return np.where(ok, worst, -np.inf).max(axis=1)


# ---------------------------------------------------------------------------
# determinant profile and bounds


def monotonicity_profile(rec: JacobiStack) -> np.ndarray:
    """(A, T - TRIM_SAMPLES): t^{-m} (1 - t lam / n)^{-n} det P(t) at the
    times ``TIMES[TRIM_SAMPLES:]``; under S >= 0 it is nonincreasing.  It
    means nothing on an atom whose denominator vanishes on (0, 1], the
    ``out_of_domain`` atoms of the "nonneg" ``ComparisonProfile``."""
    t = TIMES[TRIM_SAMPLES:]
    with np.errstate(all="ignore"):     # only where it means nothing
        denom = 1.0 - t * rec.lam[:, None] / rec.n
        return t**(-rec.m) * denom**(-rec.n) * rec.det_p[:, TRIM_SAMPLES:]


def normalization_limit(rec: JacobiStack) -> np.ndarray:
    """(A,) small-t limit of t^{-m} det P(t), 1 for the transport initial
    data: a quadratic-in-t extrapolation through the samples at t0, 2 t0,
    4 t0, t0 = ``TIMES[TRIM_SAMPLES]``, which removes the first- and
    second-order terms of the small-t expansion."""
    idx = np.array([1, 2, 4]) * TRIM_SAMPLES
    z1, z2, z4 = (TIMES[idx] ** (-rec.m) * rec.det_p[:, idx]).T
    return (8.0 * z1 - 6.0 * z2 + z4) / 3.0


def jacobian_bound_check(rec: JacobiStack):
    """(bound, det_p1), each (A,): the two sides of the endpoint bound
    det P(1) <= (1 - lam/n)^n, the bound a float power by ``_each``."""
    n = rec.n
    return _each(lambda lam: (1.0 - lam / n) ** n, rec.lam), rec.det_p[:, -1]


# ---------------------------------------------------------------------------
# comparison envelopes


def _each(fn, x) -> np.ndarray:
    """``fn`` of each entry of ``x`` as a Python float: numpy's vector
    arctan, arctanh, cosh and power differ from ``math``'s in the last bit."""
    return np.array([fn(v) for v in x.tolist()])


@dataclass
class ComparisonProfile:
    """Closed-form trace and determinant envelopes for one curvature
    case, one per atom: ``lam`` (A,) holds each atom's delta_phi +
    <H, v>, and each envelope maps t in (0, 1] to (A, len(t)) values.

    ``case`` is one of "nonneg", "positive" (k1, k2, eps > 0), or
    "negative" (k1, k2 < 0, r > 0).  ``out_of_domain`` (A,) marks the
    atoms whose envelopes, meaningless there, leave their domain on
    (0, 1]: 1 - t lam / n vanishes (nonneg), G1 or G2 leaves
    (-pi/2, pi/2) (positive), or the artanh argument leaves (-1, 1).
    """

    case: str
    n: int
    m: int
    lam: np.ndarray
    k1: float = 0.0
    k2: float = 0.0
    eps: float = 0.0
    r: float = 0.0

    def __post_init__(self):
        n, m = self.n, self.m
        self.lam = np.asarray(self.lam, dtype=float)
        if self.case == "nonneg":
            # 1 - t lam / n falls with t only if lam > 0: t = 1 decides
            self.out_of_domain = 1.0 - self.lam / n <= 0
        elif self.case == "positive":
            if self.k1 <= 0 or self.k2 <= 0 or self.eps <= 0:
                raise ValueError("positive case needs k1, k2, eps > 0")
            self.a1 = self.eps * math.sqrt(self.k1 * (n - 1) / n)
            self.a2 = self.eps * math.sqrt(self.k2 * (m - 1) / m) if m > 1 else 0.0
            self.A = _each(math.atan, -self.lam / (
                self.eps * math.sqrt(self.k1 * n * (n - 1))))
            self.cos_A = _each(math.cos, self.A)
            self.out_of_domain = (self.A - self.a1 <= -math.pi / 2) \
                | (self.a2 >= math.pi)
        elif self.case == "negative":
            if self.k1 >= 0 or self.k2 >= 0 or self.r <= 0:
                raise ValueError("negative case needs k1, k2 < 0 and r > 0")
            self.b1 = self.r * math.sqrt(-self.k1)
            self.b2 = self.r * math.sqrt(-self.k2)
            arg = -self.lam / (self.r * n * math.sqrt(-self.k1))
            self.out_of_domain = np.abs(arg) >= 1.0
            self.A = _each(math.atanh, np.where(self.out_of_domain, np.nan,
                                                arg))
            self.cosh_A = _each(math.cosh, self.A)
        else:
            raise ValueError(f"unknown case {self.case!r}")

    # -- trace envelopes ----------------------------------------------------

    def trq1_bound(self, t):
        n, lam = self.n, self.lam[:, None]
        if self.case == "nonneg":
            with np.errstate(divide="ignore"):   # only out of the domain
                return -lam / (1.0 - t * lam / n)
        if self.case == "positive":
            return n * self.a1 * np.tan(-t * self.a1 + self.A[:, None])
        return n * self.b1 * np.tanh(t * self.b1 + self.A[:, None])

    def trq3_bound(self, t):
        m = self.m
        if self.case == "negative":
            bound = m * self.b2 / np.tanh(self.b2 * t)
        elif self.case == "positive" and self.a2 > 0.0:
            bound = m * self.a2 / np.tan(self.a2 * t)
        else:           # nonneg, and positive with one normal direction
            bound = m / t
        return np.broadcast_to(bound, (len(self.lam), len(t)))

    # -- determinant envelopes ----------------------------------------------

    def det_envelope(self, t):
        """Envelope for det P(t), normalized so t^{-m} envelope -> 1."""
        n, m, lam = self.n, self.m, self.lam[:, None]
        if self.case == "nonneg":
            return t**m * (1.0 - t * lam / n) ** n
        if self.case == "positive":
            g1 = -t * self.a1 + self.A[:, None]
            radial = np.sinc(self.a2 * t / math.pi) ** m   # 1 at a2 = 0
            return (np.cos(g1) / self.cos_A[:, None]) ** n * t**m * radial
        g1 = t * self.b1 + self.A[:, None]
        radial = (np.sinh(self.b2 * t) / (self.b2 * t)) ** m
        return (np.cosh(g1) / self.cosh_A[:, None]) ** n * t**m * radial


def trace_comparison_check(rec: JacobiStack, profile: ComparisonProfile):
    """Pointwise trQ1/trQ3 envelope comparison on the trimmed window:
    returns the worst excess of trQ1 over its envelope and of trQ3 over
    its envelope, each (A,) and -inf on an atom with an empty window,
    which the Jacobi check records without gating."""
    t = TIMES[TRIM_SAMPLES:]
    ok = rec.q_defined[:, TRIM_SAMPLES:]
    trq1, trq3 = (tr[:, TRIM_SAMPLES:] for tr in rec.traces)
    return (np.where(ok, trq1 - profile.trq1_bound(t), -np.inf).max(axis=1),
            np.where(ok, trq3 - profile.trq3_bound(t), -np.inf).max(axis=1))


def plot_series(rec: JacobiStack, profile: ComparisonProfile, a: int):
    """The plot series of atom ``a`` on the trimmed window: det P, trQ1
    and trQ3, each beside its envelope."""
    t = TIMES[TRIM_SAMPLES:]
    trq1, trq3 = (tr[a, TRIM_SAMPLES:] for tr in rec.traces)
    return {"t": t.tolist(),
            "det_p": rec.det_p[a, TRIM_SAMPLES:].tolist(),
            "det_envelope": profile.det_envelope(t)[a].tolist(),
            "trq1": trq1.tolist(),
            "trq1_bound": profile.trq1_bound(t)[a].tolist(),
            "trq3": trq3.tolist(),
            "trq3_bound": profile.trq3_bound(t)[a].tolist()}
