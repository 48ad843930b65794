"""Closed-form matrix Jacobi fields P'' = -PS along transport geodesics.

Forms Q = P^{-1} P' and measures what the Jacobi check of
``pipeline._jacobi`` compares with its bounds: the Riccati residual,
the block-trace comparisons, the determinant profile, the small-t
normalization, the endpoint Jacobian bound, and the
positive/negative-curvature comparison envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import geometry
from .errors import (
    ArgOutOfDomainError,
    DenominatorVanishesError,
    NonSymmetricHessianError,
    UnsupportedVariantError,
)
from .geometry import ModelManifold
from .submanifold import SubmanifoldMesh

STEPS = 1000               # the checks sample P at t = k / STEPS, k = 0..STEPS
TIMES = np.linspace(0.0, 1.0, STEPS + 1)
TRIM_SAMPLES = 10          # trimmed window starts at t0 = 10 / STEPS = 0.01
COND_LIMIT = 1e12          # Q is only formed where cond(P) stays below this
# S S = w^2 S to this share of max |S|^2; bundled runs: 5.1e-16 at worst
S_FORM_TOL = 1e-12


# ---------------------------------------------------------------------------
# trajectory container


@dataclass
class JacobiTrajectory:
    times: np.ndarray          # (T,)
    P: np.ndarray              # (T, d, d)
    Pp: np.ndarray             # (T, d, d)
    n: int
    m: int
    lam: float                 # Delta phi + <H, v>, the scalar of every bound
    S: np.ndarray              # constant curvature matrix in the parallel frame
    det_p: np.ndarray          # (T,)
    Q: np.ndarray              # (T, d, d), nan where undefined
    q_defined: np.ndarray      # (T,) bool
    trq1: np.ndarray = field(init=False)
    trq3: np.ndarray = field(init=False)

    def __post_init__(self):
        self.trq1 = np.einsum("tii->t", self.Q[:, :self.n, :self.n])
        self.trq3 = np.einsum("tii->t", self.Q[:, self.n:, self.n:])

    @property
    def window(self) -> np.ndarray:
        """(T,) bool: the Q-defined samples from ``TRIM_SAMPLES`` on."""
        ok = self.q_defined.copy()
        ok[:TRIM_SAMPLES] = False
        return ok

    def symmetry_residual(self) -> float:
        """Worst deviation of P'(t) P(t)^T from symmetry."""
        A = np.einsum("tij,tkj->tik", self.Pp, self.P)
        return float(np.abs(A - A.transpose(0, 2, 1)).max())

    def q_symmetry_residual(self) -> float:
        Q = self.Q[self.q_defined]
        if len(Q) == 0:
            return 0.0
        return float(np.abs(Q - Q.transpose(0, 2, 1)).max())


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
    max |S S - w^2 S| > S_FORM_TOL max |S|^2.  An atom's trajectory is a
    contiguous view, bitwise the same in any stack.
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
              P0p: np.ndarray, lam) -> list:
    """P'' = -PS in closed form on ``TIMES`` for a stack of atoms.

    ``P0``/``P0p`` are (A, d, d), with one parallel frame and one value
    of ``lam`` = Delta phi + <H, v> per atom; S is evaluated once per
    frame, where it is constant for the model spaces.  Returns one
    trajectory per atom, or None for an atom whose det P changes sign or
    whose P is not finite on the trimmed window (a conjugate-point
    degeneracy).  The trajectories are views of the stacked arrays.
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
        | ~np.isfinite(P[:, TRIM_SAMPLES:]).all(axis=(1, 2, 3))
    out = []
    for a, frame in enumerate(frames):
        if singular[a]:
            out.append(None)
            continue
        n = frame.n_tangent
        out.append(JacobiTrajectory(
            TIMES, P[a], Pp[a], n, S.shape[1] - n, lam[a], S[a], det_p[a],
            Q[a], ok[a]))
    return out


# ---------------------------------------------------------------------------
# derivative machinery (independent finite differences of the stored P)


def _fd_weights(offsets: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights for the given derivative order."""
    k = len(offsets)
    A = np.vander(offsets, k, increasing=True).T
    b = np.zeros(k)
    b[order] = math.factorial(order)
    return np.linalg.solve(A, b)


# points of the finite-difference stencil of ``second_derivative``
STENCIL = 5


@lru_cache(maxsize=8)
def _second_derivative_weights(dt: float) -> dict:
    """The d^2/dt^2 weights of each STENCIL-point stencil at step ``dt``,
    keyed by the stencil's offset from the sample it serves: on a
    uniform grid only that shift varies."""
    return {shift: _fd_weights((np.arange(STENCIL) + shift) * dt, 2)
            for shift in range(-(STENCIL - 1), 1)}


def second_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """4th-order-accurate d^2/dt^2 of uniformly sampled data.

    Centered stencils inside, one-sided near the ends.
    """
    values = np.asarray(values, dtype=float)
    T = values.shape[0]
    half = STENCIL // 2
    out = np.empty_like(values)
    weights = _second_derivative_weights(dt)
    interior = weights[-half]
    mid = np.zeros_like(values[half:T - half])
    for k in range(STENCIL):
        mid += interior[k] * values[k:T - STENCIL + 1 + k]
    out[half:T - half] = mid
    for j in list(range(half)) + list(range(T - half, T)):
        lo = min(max(j - half, 0), T - STENCIL)
        w = weights[lo - j]
        out[j] = np.tensordot(w, values[lo:lo + STENCIL], axes=(0, 0))
    return out


def riccati_residual(traj: JacobiTrajectory) -> float:
    """max over the trimmed window of ||Q' + S + Q^2|| (max-abs entry),
    Q' = P^{-1} P'' - Q^2 with P'' from finite differences of the P."""
    Ppp = second_derivative(traj.P, traj.times[1] - traj.times[0])
    ok = traj.window
    q2 = np.einsum("tij,tjk->tik", traj.Q[ok], traj.Q[ok])
    # Q' + S + Q^2 in this order: cancelling Q^2 moves the last bits
    res = np.linalg.solve(traj.P[ok], Ppp[ok]) - q2 + traj.S[None] + q2
    return float(np.abs(res).max())


# ---------------------------------------------------------------------------
# determinant profile and bounds


def monotonicity_profile(traj: JacobiTrajectory) -> np.ndarray:
    """t^{-m} (1 - t lam / n)^{-n} det P(t) on the trimmed window, the
    times ``traj.times[TRIM_SAMPLES:]``; under S >= 0 it is
    nonincreasing."""
    n, m = traj.n, traj.m
    lam = traj.lam
    t = traj.times[TRIM_SAMPLES:]
    denom = 1.0 - t * lam / n
    if np.any(denom <= 0):
        raise DenominatorVanishesError(
            f"1 - t(dphi + <H,v>)/n vanishes on (0,1); lam = {lam:.4g}")
    return t**(-m) * denom**(-n) * traj.det_p[TRIM_SAMPLES:]


def normalization_limit(traj: JacobiTrajectory):
    """(first-sample value, extrapolated limit) of t^{-m} det P(t).

    The limit is a quadratic-in-t extrapolation through the samples at
    t0, 2 t0, 4 t0, t0 = ``traj.times[TRIM_SAMPLES]``, which removes the
    first- and second-order terms of the small-t expansion; it is 1 for
    the transport initial data.
    """
    idx = np.array([1, 2, 4]) * TRIM_SAMPLES
    z1, z2, z4 = traj.times[idx] ** (-traj.m) * traj.det_p[idx]
    limit = (8.0 * z1 - 6.0 * z2 + z4) / 3.0
    return float(z1), float(limit)


def jacobian_bound_check(traj: JacobiTrajectory):
    """The two sides of the endpoint bound det P(1) <= (1 - lam/n)^n:
    returns (bound, det_p1)."""
    bound = (1.0 - traj.lam / traj.n) ** traj.n
    return float(bound), float(traj.det_p[-1])


# ---------------------------------------------------------------------------
# comparison envelopes


@dataclass
class ComparisonProfile:
    """Closed-form trace and determinant envelopes for one curvature case.

    ``case`` is one of "nonneg", "positive" (k1, k2, eps > 0), or
    "negative" (k1, k2 < 0, r > 0).  ``lam`` is delta_phi + <H, v>.
    """

    case: str
    n: int
    m: int
    lam: float
    k1: float = 0.0
    k2: float = 0.0
    eps: float = 0.0
    r: float = 0.0

    def __post_init__(self):
        n, m, lam = self.n, self.m, self.lam
        if self.case == "positive":
            if self.k1 <= 0 or self.k2 <= 0 or self.eps <= 0:
                raise ValueError("positive case needs k1, k2, eps > 0")
            self.a1 = self.eps * math.sqrt(self.k1 * (n - 1) / n)
            self.a2 = self.eps * math.sqrt(self.k2 * (m - 1) / m) if m > 1 else 0.0
            self.A = math.atan(-lam / (self.eps * math.sqrt(self.k1 * n * (n - 1))))
            if self.a2 >= math.pi:
                raise ArgOutOfDomainError("G2 exits (-pi/2, pi/2) on (0,1)")
            if self.A - self.a1 <= -math.pi / 2:
                raise ArgOutOfDomainError("G1 exits (-pi/2, pi/2) on (0,1)")
        elif self.case == "negative":
            if self.k1 >= 0 or self.k2 >= 0 or self.r <= 0:
                raise ValueError("negative case needs k1, k2 < 0 and r > 0")
            self.b1 = self.r * math.sqrt(-self.k1)
            self.b2 = self.r * math.sqrt(-self.k2)
            arg = -lam / (self.r * n * math.sqrt(-self.k1))
            if abs(arg) >= 1.0:
                raise ArgOutOfDomainError(
                    f"tanh^-1 argument {arg:.4g} outside (-1, 1)")
            self.A = math.atanh(arg)
        elif self.case != "nonneg":
            raise ValueError(f"unknown case {self.case!r}")

    # -- trace envelopes ----------------------------------------------------

    def trq1_bound(self, t):
        t = np.asarray(t, dtype=float)
        n, lam = self.n, self.lam
        if self.case == "nonneg":
            denom = 1.0 - t * lam / n
            if np.any(denom <= 0):
                raise DenominatorVanishesError("nonneg trQ1 envelope blows up")
            return -lam / denom
        if self.case == "positive":
            g1 = -t * self.a1 + self.A
            if np.any(np.abs(g1) >= math.pi / 2):
                raise ArgOutOfDomainError("G1 exits (-pi/2, pi/2)")
            return n * self.a1 * np.tan(g1)
        g1 = t * self.b1 + self.A
        return n * self.b1 * np.tanh(g1)

    def trq3_bound(self, t):
        t = np.asarray(t, dtype=float)
        m = self.m
        if np.any(t <= 0):
            raise DenominatorVanishesError("trQ3 envelope undefined at t = 0")
        if self.case == "nonneg":
            return m / t
        if self.case == "positive":
            if self.a2 == 0.0:
                return m / t
            return m * self.a2 / np.tan(self.a2 * t)
        return m * self.b2 / np.tanh(self.b2 * t)

    # -- determinant envelopes ----------------------------------------------

    def det_envelope(self, t):
        """Envelope for det P(t), normalized so t^{-m} envelope -> 1."""
        t = np.asarray(t, dtype=float)
        n, m, lam = self.n, self.m, self.lam
        if self.case == "nonneg":
            return t**m * (1.0 - t * lam / n) ** n
        if self.case == "positive":
            g1 = -t * self.a1 + self.A
            radial = np.sinc(self.a2 * t / math.pi) ** m if self.a2 > 0 \
                else np.ones_like(t)
            return (np.cos(g1) / math.cos(self.A)) ** n * t**m * radial
        g1 = t * self.b1 + self.A
        radial = np.ones_like(t) if self.b2 == 0 else \
            (np.sinh(self.b2 * t) / (self.b2 * t)) ** m
        return (np.cosh(g1) / math.cosh(self.A)) ** n * t**m * radial


def trace_comparison_check(traj: JacobiTrajectory,
                           profile: ComparisonProfile) -> tuple[float, float]:
    """Pointwise trQ1/trQ3 envelope comparison on the trimmed window:
    returns the worst excess of trQ1 over its envelope and of trQ3 over
    its envelope, which the Jacobi check records without gating."""
    ok = traj.window
    t = traj.times[ok]
    e1 = traj.trq1[ok] - profile.trq1_bound(t)
    e3 = traj.trq3[ok] - profile.trq3_bound(t)
    return float(e1.max()), float(e3.max())
