"""Closed-form matrix Jacobi fields P'' = -PS along transport geodesics.

The inputs are arrays over a stack of atoms, built from the mesh's node
frames: ``initial_conditions`` gives P(0), P'(0) and lam, and
``geometry.curvature_matrix`` gives S in the node frame, which on a
model space is S at every t (``geometry.build_parallel_frame`` is the
tests' reference for that).  ``propagate`` stacks a chunk of atoms into
one ``JacobiStack`` (P, P', Q = P^{-1} P' and the singular atoms).

The trajectories are stored time-last, as (A, d, d, T) arrays, so each
matrix entry is one contiguous (A, T) series.  All small-matrix work is
done on these series, one vector operation over the whole stack per
step: ``StackLU`` factors every sample of P once (Gaussian elimination
with partial pivoting), which gives det P, Q and the P^{-1} P'' of the
Riccati residual; the products Q^2 and P' P^T are sums over j taken in
order.  No LAPACK routine or einsum runs per sample, and every sample's
arithmetic reads only that sample, so an atom's values are bitwise the
same in any stack.

Each measurement that ``pipeline._jacobi`` compares with its bounds
maps that stack to one value per atom: the symmetry and Riccati
residuals, the determinant profile, the small-t normalization, the
endpoint Jacobian bound and the trace comparison with the envelopes of
``ComparisonProfile``, which take one lam per atom.  ``plot_series``
gives one atom's curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import geometry
from .errors import NonSymmetricHessianError, UnsupportedVariantError
from .submanifold import SubmanifoldMesh

STEPS = 1000               # the checks sample P at t = k / STEPS, k = 0..STEPS
TIMES = np.linspace(0.0, 1.0, STEPS + 1)
TRIM_SAMPLES = 10          # trimmed window starts at t0 = 10 / STEPS = 0.01
COND_LIMIT = 1e12          # Q is only formed where cond(P) stays below this
# S S = w^2 S to this share of max |S|^2; bundled runs: 5.1e-16 at worst
S_FORM_TOL = 1e-12


# ---------------------------------------------------------------------------
# sample-by-sample small-matrix kernels on time-last (A, d, d, T) stacks


def _sum_in_order(terms) -> np.ndarray:
    """The sum of equal-shape arrays, left to right, in a new array."""
    terms = iter(terms)
    total = np.array(next(terms), dtype=float)
    for term in terms:
        total += term
    return total


def _entry(X: np.ndarray, Y: np.ndarray, i: int, k: int) -> np.ndarray:
    """Entry (i, k) of X Y, (A, T), for two (A, d, d, T) stacks: the sum
    over j taken in order, in the first product."""
    total = X[:, i, 0] * Y[:, 0, k]
    term = np.empty_like(total)
    for j in range(1, X.shape[2]):
        total += np.multiply(X[:, i, j], Y[:, j, k], out=term)
    return total


def _swap_rows(x: np.ndarray, k: int, rows: np.ndarray):
    """Swap, in place, entry k of each sample of an (A, d, T) stack of
    vectors with its entry ``rows`` (A, T), which is k where nothing
    moves."""
    for i in np.unique(rows[rows != k]).tolist():
        at = rows == i
        x_k = x[:, k].copy()
        np.copyto(x[:, k], x[:, i], where=at)
        np.copyto(x[:, i], x_k, where=at)


class StackLU:
    """PA = LU of every sample of an (A, d, d, T) stack, by Gaussian
    elimination with partial pivoting, for any d.

    Step k takes as pivot the first maximal |entry| of column k on and
    below the diagonal (as LAPACK's idamax picks it), swaps that row
    with row k and eliminates below it, one vector operation over the
    (A, T) entry series each.  An exactly zero pivot is the largest
    |entry| of its column, so the column is zero: its multipliers stay
    0 instead of 0/0, as in LAPACK's dgetf2.  ``lu`` holds U on and
    above the diagonal and the multipliers of L below it; ``swaps``
    holds (k, rows) for each step at which some sample swapped row k
    with ``rows`` (A, T); ``sign`` (A, T) is the sign of the
    permutation.
    """

    def __init__(self, P: np.ndarray):
        self.lu = lu = np.array(P, dtype=float)
        A, d, _, T = lu.shape
        self.swaps = []
        self.sign = np.ones((A, T))
        with np.errstate(invalid="ignore"):     # on non-finite samples
            for k in range(d):
                # the first row whose |entry| beats all above it
                rows, largest = np.full((A, T), k), np.abs(lu[:, k, k])
                for i in range(k + 1, d):
                    entry = np.abs(lu[:, i, k])
                    rows[entry > largest] = i
                    np.maximum(largest, entry, out=largest)
                if (rows != k).any():
                    for j in range(d):
                        _swap_rows(lu[:, :, j], k, rows)
                    self.sign[rows != k] *= -1.0
                    self.swaps.append((k, rows))
                pivot = lu[:, k, k]
                nonzero = pivot != 0.0
                for i in range(k + 1, d):
                    multiplier = lu[:, i, k]
                    np.divide(multiplier, pivot, out=multiplier,
                              where=nonzero)
                    for j in range(k + 1, d):
                        lu[:, i, j] -= multiplier * lu[:, k, j]

    @property
    def det(self) -> np.ndarray:
        """(A, T) det P: the sign of the permutation times the product of
        the pivots; exactly 0.0 (not -0.0) on a zero pivot."""
        det = self.sign.copy()
        for k in range(self.lu.shape[1]):
            det *= self.lu[:, k, k]
        det += 0.0
        return det

    def solve(self, x: np.ndarray) -> np.ndarray:
        """Overwrite an (A, d, T) stack of vectors x with P^{-1} x, sample
        by sample: the swaps, then forward and back substitution, each
        sum over j taken in order.  A sample with a zero pivot gets inf
        or NaN.  Returns x."""
        lu, d = self.lu, self.lu.shape[1]
        term = np.empty(x[:, 0].shape)
        for k, rows in self.swaps:
            _swap_rows(x, k, rows)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(1, d):
                for j in range(i):
                    x[:, i] -= np.multiply(lu[:, i, j], x[:, j], out=term)
            for i in reversed(range(d)):
                for j in range(i + 1, d):
                    x[:, i] -= np.multiply(lu[:, i, j], x[:, j], out=term)
                x[:, i] /= lu[:, i, i]
        return x


# ---------------------------------------------------------------------------
# the stacked trajectories of a chunk


@dataclass
class JacobiStack:
    """P'' = -PS of A atoms sampled on ``TIMES`` (T samples), time-last:
    ``P[a, i, j]`` is the (T,) series of one entry of atom a."""

    P: np.ndarray              # (A, d, d, T)
    Pp: np.ndarray             # (A, d, d, T)
    Q: np.ndarray              # (A, d, d, T), nan where not q_defined
    lu: StackLU                # of P, every sample
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
        normal blocks, the diagonal summed in order."""
        n, d = self.n, self.Q.shape[1]
        return (_sum_in_order(self.Q[:, i, i] for i in range(n)),
                _sum_in_order(self.Q[:, i, i] for i in range(n, d)))


# ---------------------------------------------------------------------------
# initial conditions and propagation


def initial_conditions(mesh: SubmanifoldMesh, nodes: np.ndarray,
                       u: np.ndarray, hess_phi: np.ndarray,
                       grad_phi: np.ndarray):
    """Block initial data (P(0), P'(0), lam) of a stack of transport
    atoms: (A, d, d), (A, d, d) and (A,).

    Atom a leaves mesh node ``nodes[a]`` with velocity ``u[a]`` (A, D);
    ``hess_phi``/``grad_phi`` hold the frame-coordinate Hessian (N, n, n)
    and gradient (N, n) of the potential at every node.  With v the
    normal-frame components of u, P'(0) has the tangent block
    -Hess phi - <II, v>, the off-diagonal block -II^T grad phi and the
    normal block I, and lam = Delta phi + <H, v>.  Raises
    NonSymmetricHessianError where a Hessian is more than 1e-8 from
    symmetric.
    """
    n, m = mesh.n, mesh.m
    hess = hess_phi[nodes]
    sym = np.abs(hess - hess.swapaxes(1, 2)).max()
    if sym > 1e-8:
        raise NonSymmetricHessianError(f"Hessian asymmetry {sym:.2e}")
    nf = geometry.lower_index(mesh.manifold, mesh.normal_frames[nodes])
    v_normal = np.einsum("akD,aD->ak", nf, u)
    sff = mesh.sff[nodes]                    # (A, m, n, n)
    P0 = np.zeros((len(nodes), n + m, n + m))
    P0[:, :n, :n] = np.eye(n)
    P0p = np.zeros_like(P0)
    P0p[:, :n, :n] = -hess - np.einsum("akij,ak->aij", sff, v_normal)
    P0p[:, :n, n:] = -np.einsum("akji,aj->aik", sff, grad_phi[nodes])
    P0p[:, n:, n:] = np.eye(m)
    lam = np.trace(hess, axis1=1, axis2=2) + np.einsum(
        "ak,ak->a", mesh.mean_curvature_normal_components()[nodes], v_normal)
    return P0, P0p, lam


def closed_form_stack(S: np.ndarray, P0: np.ndarray, P0p: np.ndarray):
    """P and P', (A, d, d, STEPS + 1), of P'' = -PS on ``TIMES`` for a
    stack of atoms with (A, d, d) curvature matrices and initial data.

    On a model space S = w^2 N, with N = I - Pi, Pi the projection onto
    the velocity and w^2 = K L^2 = tr S / (d - 1).  So
    P = P0 Pi + t P0' Pi + c P0 N + s P0' N with c, s = cos wt, sin(wt)/w
    (cosh, sinh for K < 0; 1, t for K = 0), and P' = P0' Pi - w^2 s P0 N
    + c P0' N, each an elementwise multiply-add of the four products
    with their series.  Raises UnsupportedVariantError where
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
    basis = P0 @ Pi, P0p @ Pi, P0 @ N, P0p @ N
    w2 = w2[:, :, 0]
    w, t = np.sqrt(np.abs(w2)), np.broadcast_to(TIMES, (A, STEPS + 1))
    # c, s = 1, t where w = 0; each other atom takes one branch: cos, sin
    # where w^2 > 0, cosh, sinh on the rest (a NaN w^2 among them)
    c, s = np.ones((A, STEPS + 1)), np.array(t)
    positive = w2[:, 0] > 0
    for atoms, cos, sin in ((positive, np.cos, np.sin),
                            (~positive & (w[:, 0] != 0), np.cosh, np.sinh)):
        wt = w[atoms] * TIMES
        c[atoms], s[atoms] = cos(wt), sin(wt) / w[atoms]
    ws = -w2 * s
    P, Pp = np.empty((2, A, d, d, STEPS + 1))
    term = np.empty((A, STEPS + 1))
    for i, j in np.ndindex(d, d):
        pi0, pi1, n0, n1 = (X[:, i, j, None] for X in basis)
        p = np.multiply(t, pi1, out=P[:, i, j])
        p += pi0
        p += np.multiply(c, n0, out=term)
        p += np.multiply(s, n1, out=term)
        p = np.multiply(ws, n0, out=Pp[:, i, j])
        p += pi1
        p += np.multiply(c, n1, out=term)
    return P, Pp


def well_conditioned(P: np.ndarray, det_p: np.ndarray) -> np.ndarray:
    """``cond(P) < COND_LIMIT`` and finite, sample by sample, for an
    (A, d, d, T) stack ``P`` with determinants ``det_p`` (A, T).

    cond_2(P) <= ||P||_F^d / |det P|, so where that bound is below
    COND_LIMIT / 2 the answer is yes without an SVD; the factor 2 covers
    the rounding of both sides.  A non-finite sample is not-ok, and is
    kept from the SVD, which raises on NaN.  Only the other samples (a
    singular P(0), samples near a conjugate point) go to
    ``np.linalg.cond``, and the mask is the one it gives there.
    """
    d = P.shape[1]
    with np.errstate(all="ignore"):
        frobenius2 = _sum_in_order(P[:, i, j] ** 2 for i in range(d)
                                   for j in range(d))
        bound = frobenius2 ** (0.5 * d) / np.abs(det_p)
        # a non-finite sample has a non-finite bound, so it is not ok here
        ok = bound < 0.5 * COND_LIMIT
        rest = np.nonzero(~ok)
        samples = P.transpose(0, 3, 1, 2)[rest]
        finite = np.isfinite(samples).all(axis=(1, 2))
        if finite.any():
            cond = np.linalg.cond(samples[finite])
            ok[tuple(i[finite] for i in rest)] = \
                np.isfinite(cond) & (cond < COND_LIMIT)
    return ok


def propagate(S: np.ndarray, P0: np.ndarray, P0p: np.ndarray, lam,
              n: int) -> JacobiStack:
    """P'' = -PS in closed form on ``TIMES`` for a stack of atoms.

    ``S``, ``P0`` and ``P0p`` are (A, d, d): each atom's curvature matrix
    (``geometry.curvature_matrix``) and initial data, with one value of
    ``lam`` = Delta phi + <H, v> per atom; the first ``n`` of the d frame
    vectors are tangent.
    """
    P, Pp = closed_form_stack(S, P0, P0p)
    # one LU per sample gives det P and Q = P^{-1} P', column by column
    lu = StackLU(P)
    det_p = lu.det
    ok = well_conditioned(P, det_p)
    Q = Pp.copy()
    for k in range(Q.shape[2]):
        lu.solve(Q[:, :, k])
    np.copyto(Q, np.nan, where=~ok[:, None, None])
    singular = np.any(det_p[:, TRIM_SAMPLES:] <= 0, axis=1) \
        | ~np.isfinite(P[..., TRIM_SAMPLES:]).all(axis=(1, 2, 3)) \
        | ~ok[:, TRIM_SAMPLES:].any(axis=1)
    return JacobiStack(P, Pp, Q, lu, det_p, ok, S,
                       np.asarray(lam, dtype=float), n, S.shape[1] - n,
                       singular)


# ---------------------------------------------------------------------------
# residuals (the derivative from independent finite differences of P)


def symmetry_residual(rec: JacobiStack) -> np.ndarray:
    """(A,) worst deviation of P'(t) P(t)^T from symmetry, over the pairs
    i < k: a diagonal entry is computed alike on both sides, so its
    deviation is 0."""
    d, Pt = rec.P.shape[1], rec.P.swapaxes(1, 2)
    worst = np.zeros(rec.det_p.shape)
    for i in range(d):
        for k in range(i + 1, d):
            dev = _entry(rec.Pp, Pt, i, k)
            dev -= _entry(rec.Pp, Pt, k, i)
            np.maximum(worst, np.abs(dev, out=dev), out=worst)
    return worst.max(axis=1)


def q_symmetry_residual(rec: JacobiStack) -> np.ndarray:
    """(A,) worst deviation of Q from symmetry where it is defined, over
    the pairs i < k; 0 on an atom where it is defined nowhere."""
    d, Q = rec.Q.shape[1], rec.Q
    worst = np.zeros(rec.det_p.shape)
    for i in range(d):
        for k in range(i + 1, d):
            np.maximum(worst, np.abs(Q[:, i, k] - Q[:, k, i]), out=worst)
    return np.where(rec.q_defined, worst, 0.0).max(axis=1)


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
    """4th-order-accurate d^2/dt^2 of data sampled uniformly along the
    last axis of a (..., T) stack.

    Centered stencils inside, one-sided near the ends; each sample's sum
    over its stencil is taken in order, so it rounds alike in any stack.
    """
    values = np.asarray(values, dtype=float)
    T = values.shape[-1]
    half = STENCIL // 2
    out = np.empty_like(values)
    weights = _second_derivative_weights(dt)
    interior = weights[-half]
    mid = out[..., half:T - half]
    np.multiply(values[..., :T - STENCIL + 1], interior[0], out=mid)
    term = np.empty_like(mid)
    for k in range(1, STENCIL):
        mid += np.multiply(values[..., k:T - STENCIL + 1 + k], interior[k],
                           out=term)
    for j in list(range(half)) + list(range(T - half, T)):
        lo = min(max(j - half, 0), T - STENCIL)
        out[..., j] = _sum_in_order(w * values[..., lo + k]
                                    for k, w in enumerate(weights[lo - j]))
    return out


def riccati_residual(rec: JacobiStack) -> np.ndarray:
    """(A,) max over the trimmed window of ||Q' + S + Q^2|| (max-abs
    entry), Q' = P^{-1} P'' - Q^2 with P'' from finite differences of the
    P; -inf on a singular atom.  It runs column by column, so no
    (A, d, d, T) temporary is formed."""
    window = slice(TRIM_SAMPLES, None)
    ok = rec.q_defined[:, window] & ~rec.singular[:, None]
    d, Q = rec.P.shape[1], rec.Q[..., window]
    worst = np.zeros(ok.shape)
    with np.errstate(invalid="ignore"):
        for k in range(d):
            # column k of P^{-1} P'' from the LU that formed Q; the
            # samples off ``ok`` (inf or NaN on a zero pivot) are dropped
            x = rec.lu.solve(second_derivative(rec.P[:, :, k],
                                               TIMES[1] - TIMES[0]))
            for i in range(d):
                q2 = _entry(Q, Q, i, k)
                # Q' + S + Q^2 in this order: cancelling Q^2 moves the
                # last bits
                res = x[:, i, window] - q2
                res += rec.S[:, i, k, None]
                res += q2
                np.maximum(worst, np.abs(res, out=res), out=worst)
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
