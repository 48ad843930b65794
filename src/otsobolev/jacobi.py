"""Matrix Jacobi propagation P'' = -PS along transport geodesics.

Forms Q = P^{-1} P', checks the Riccati block-trace comparisons, the
determinant-profile monotonicity, the endpoint Jacobian bound, and the
positive/negative-curvature comparison envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from . import geometry
from .errors import (
    ArgOutOfDomainError,
    DenominatorVanishesError,
    NonSymmetricHessianError,
    NormalizationDriftError,
    SingularPError,
)
from .geometry import ModelManifold, ParallelFrame
from .submanifold import SubmanifoldMesh

TRIM_SAMPLES = 10          # trimmed window starts at t0 = TRIM_SAMPLES / steps
COND_LIMIT = 1e12          # Q is only formed where cond(P) stays below this
BOUND_SLACK_FACTOR = 1e-3
NORMALIZATION_TOL = 1e-4
LAP_SLACK_FACTOR = 0.05


# ---------------------------------------------------------------------------
# trajectory container


@dataclass
class JacobiTrajectory:
    times: np.ndarray          # (T,)
    P: np.ndarray              # (T, d, d)
    Pp: np.ndarray             # (T, d, d)
    n: int
    m: int
    delta_phi: float           # surface Laplacian of the potential at the node
    h_dot_v: float             # <H, v> at the node
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
    def steps(self) -> int:
        return len(self.times) - 1

    @property
    def trim_index(self) -> int:
        return TRIM_SAMPLES

    @property
    def t0(self) -> float:
        return self.times[self.trim_index]

    @property
    def window(self) -> np.ndarray:
        """(T,) bool: the Q-defined samples from ``trim_index`` on."""
        ok = self.q_defined.copy()
        ok[:self.trim_index] = False
        return ok

    @property
    def lam(self) -> float:
        """Delta phi + <H, v>, the scalar entering every bound."""
        return self.delta_phi + self.h_dot_v

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


def rk4_stack(S: np.ndarray, P0: np.ndarray, P0p: np.ndarray,
              steps: int = 1000):
    """Classical 4th-order one-step integration of P'' = -PS on [0, 1]
    for a stack of atoms.

    ``S``, ``P0`` and ``P0p`` are (A, d, d): per atom, the constant
    curvature matrix and the initial data.  Returns P and P' as
    (A, steps + 1, d, d), so each atom's trajectory is a contiguous
    view.  Every operation acts on each atom's (d, d) matrices alone,
    so an atom's trajectory is bitwise the same in any stack.
    """
    if steps < 100:
        raise ValueError("steps must be >= 100")
    if P0.shape != S.shape or P0p.shape != S.shape:
        raise ValueError("initial data must match the frame dimension")
    A, d, _ = S.shape
    dt = 1.0 / steps
    P = np.empty((A, steps + 1, d, d))
    Pp = np.empty((A, steps + 1, d, d))
    P[:, 0], Pp[:, 0] = P0, P0p

    def rhs(p, pp):
        return pp, -p @ S

    p, pp = P0.copy(), P0p.copy()
    for k in range(steps):
        k1p, k1v = rhs(p, pp)
        k2p, k2v = rhs(p + 0.5 * dt * k1p, pp + 0.5 * dt * k1v)
        k3p, k3v = rhs(p + 0.5 * dt * k2p, pp + 0.5 * dt * k2v)
        k4p, k4v = rhs(p + dt * k3p, pp + dt * k3v)
        p = p + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        pp = pp + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        P[:, k + 1], Pp[:, k + 1] = p, pp
    return P, Pp


def propagate_atoms(manifold: ModelManifold, frames: list,
                    P0: np.ndarray, P0p: np.ndarray, delta_phi, h_dot_v,
                    steps: int = 1000, n: Optional[int] = None) -> list:
    """``propagate`` for a stack of atoms, integrated together.

    ``P0``/``P0p`` are (A, d, d), with one frame and one value of
    ``delta_phi`` and ``h_dot_v`` per atom.  Returns one trajectory per
    atom, or None for an atom whose det P changes sign on the trimmed
    window (where ``propagate`` raises SingularPError).  The
    trajectories are views of the stacked arrays.
    """
    S = np.stack([geometry.curvature_matrix(manifold, f, 0.0)
                  for f in frames])
    P, Pp = rk4_stack(S, P0, P0p, steps)
    # det P and Q = P^{-1} P', matrix by matrix over the whole stack
    det_p = np.linalg.det(P)
    Q = np.full(P.shape, np.nan)
    with np.errstate(all="ignore"):
        cond = np.linalg.cond(P)
    ok = np.isfinite(cond) & (cond < COND_LIMIT)
    if ok.any():
        Q[ok] = np.linalg.solve(P[ok], Pp[ok])
    times = np.linspace(0.0, 1.0, steps + 1)
    out = []
    for a, frame in enumerate(frames):
        if np.any(det_p[a, TRIM_SAMPLES:] <= 0):
            out.append(None)
            continue
        na = frame.n_tangent if n is None else n
        out.append(JacobiTrajectory(
            times, P[a], Pp[a], na, S.shape[1] - na, delta_phi[a],
            h_dot_v[a], S[a], det_p[a], Q[a], ok[a]))
    return out


def propagate(manifold: ModelManifold, frame: ParallelFrame,
              P0: np.ndarray, P0p: np.ndarray, steps: int = 1000,
              delta_phi: float = 0.0, h_dot_v: float = 0.0,
              n: Optional[int] = None) -> JacobiTrajectory:
    """Classical 4th-order one-step integration of P'' = -PS on [0, 1].

    S is evaluated once in the parallel frame, where it is constant for
    the model spaces.  The one-atom case of ``propagate_atoms``.
    """
    (traj,) = propagate_atoms(manifold, [frame], np.asarray(P0)[None],
                              np.asarray(P0p)[None], [delta_phi], [h_dot_v],
                              steps, n)
    if traj is None:
        raise SingularPError("det P changes sign before t = 1 "
                             "(conjugate-point degeneracy)")
    return traj


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


def monotonicity_profile(traj: JacobiTrajectory, n: Optional[int] = None,
                         m: Optional[int] = None,
                         mono_tol_factor: float = 1e-6):
    """t^{-m} (1 - t lam / n)^{-n} det P(t) on the trimmed window.

    Returns (times, profile, is_nonincreasing, worst_increase).  The
    worst increase is relative to the profile scale at t0.
    """
    n = traj.n if n is None else n
    m = traj.m if m is None else m
    lam = traj.lam
    i0 = traj.trim_index
    t = traj.times[i0:]
    denom = 1.0 - t * lam / n
    if np.any(denom <= 0):
        raise DenominatorVanishesError(
            f"1 - t(dphi + <H,v>)/n vanishes on (0,1); lam = {lam:.4g}")
    profile = t**(-m) * denom**(-n) * traj.det_p[i0:]
    scale = abs(profile[0])
    tol = mono_tol_factor * scale
    diffs = np.diff(profile)
    worst = float(diffs.max()) if len(diffs) else 0.0
    return t, profile, bool(worst <= tol), worst / scale


def normalization_limit(traj: JacobiTrajectory):
    """(first-sample value, extrapolated limit) of t^{-m} det P(t).

    The limit is a quadratic-in-t extrapolation through the samples at
    t0, 2 t0, 4 t0, which removes the first- and second-order terms of
    the small-t expansion.
    """
    i0 = traj.trim_index
    idx = np.array([i0, 2 * i0, 4 * i0])
    z1, z2, z4 = traj.times[idx] ** (-traj.m) * traj.det_p[idx]
    limit = (8.0 * z1 - 6.0 * z2 + z4) / 3.0
    return float(z1), float(limit)


def jacobian_bound_check(traj: JacobiTrajectory, limit: float,
                         n: Optional[int] = None,
                         bound_slack_factor: float = BOUND_SLACK_FACTOR):
    """Endpoint bound det P(1) <= (1 - lam/n)^n, with the t -> 0
    normalization pinned first; ``limit`` is the second value of
    ``normalization_limit(traj)``.  Returns (margin, bound, det_p1)."""
    n = traj.n if n is None else n
    if abs(limit - 1.0) > NORMALIZATION_TOL:
        raise NormalizationDriftError(
            f"t^-m det P limit {limit:.8f} deviates from 1 by "
            f"{abs(limit - 1.0):.2e}")
    bound = (1.0 - traj.lam / n) ** n
    det1 = float(traj.det_p[-1])
    margin = bound + bound_slack_factor * abs(bound) - det1
    return float(margin), float(bound), det1


def lap_lower_bound_check(traj: JacobiTrajectory) -> float:
    """Margin of n - delta_phi - <H, v> >= 0 (report-only; the slack
    covering Hessian-fit bias is LAP_SLACK_FACTOR * n)."""
    return float(traj.n - traj.lam)


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

    def endpoint_bound(self) -> float:
        """det P(1) bound: the cos*sinc / cosh*sinh endpoint expressions."""
        n, m, lam = self.n, self.m, self.lam
        if self.case == "nonneg":
            return (1.0 - lam / n) ** n
        if self.case == "positive":
            return (math.cos(self.a1) - np.sinc(self.a1 / math.pi) * lam / n) ** n \
                * np.sinc(self.a2 / math.pi) ** m
        sinhc = math.sinh(self.b2) / self.b2 if self.b2 > 0 else 1.0
        return (math.cosh(self.b1)
                - math.sinh(self.b1) / (self.r * n * math.sqrt(-self.k1)) * lam
                ) ** n * sinhc**m


def comparison_profiles(case: str, delta_phi: float, h_dot_v: float,
                        n: int, m: int, *, k1: float = 0.0, k2: float = 0.0,
                        eps: float = 0.0, r: float = 0.0) -> ComparisonProfile:
    """Build the closed-form envelope bundle for one curvature case."""
    return ComparisonProfile(case, n, m, delta_phi + h_dot_v,
                             k1=k1, k2=k2, eps=eps, r=r)


@dataclass
class TraceComparisonReport:
    worst_trq1_excess: float
    worst_trq3_excess: float
    tol: float

    @property
    def passed(self) -> bool:
        return (self.worst_trq1_excess <= self.tol
                and self.worst_trq3_excess <= self.tol)


def trace_comparison_check(traj: JacobiTrajectory, profile: ComparisonProfile,
                           tol: Optional[float] = None
                           ) -> TraceComparisonReport:
    """Pointwise trQ1/trQ3 envelope check on the trimmed window
    (report-only)."""
    ok = traj.window
    t = traj.times[ok]
    if tol is None:
        tol = 1e-6 * traj.m / traj.t0
    e1 = traj.trq1[ok] - profile.trq1_bound(t)
    e3 = traj.trq3[ok] - profile.trq3_bound(t)
    return TraceComparisonReport(float(e1.max()), float(e3.max()), float(tol))
