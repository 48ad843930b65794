"""Discrete quadratic-cost optimal transport from the submanifold measure
to an ambient domain measure, with dual potentials, c-transform machinery
and the structural checks on the transport geometry (tangency of plan
atoms, fiber mass balance, semiconcavity of the potential).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.special import logsumexp as _scipy_logsumexp

from . import geometry, submanifold
from .errors import (
    CutLocusError,
    NoConvergenceError,
    SizeCapError,
)
from .fields import ScalarField
from .geometry import ModelManifold
from .submanifold import SubmanifoldMesh

EXACT_SIZE_CAP = (500, 2000)


@dataclass
class DiscreteMeasure:
    """Finitely supported probability measure on the ambient space."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        total = self.weights.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, expected 1")
        keep = self.weights > 0
        if not keep.all():
            self.points = self.points[keep]
            self.weights = self.weights[keep]

    @property
    def size(self) -> int:
        return len(self.weights)


def source_measure(mesh: SubmanifoldMesh, f: ScalarField) -> DiscreteMeasure:
    """mu = f^{n/(n-1)} vol_Sigma, normalized."""
    p = mesh.n / (mesh.n - 1)
    w = mesh.weights * f.values**p
    return DiscreteMeasure(mesh.points, w / w.sum())


def target_measure(points: np.ndarray) -> DiscreteMeasure:
    """Uniform weights on ambient domain samples."""
    n = len(points)
    return DiscreteMeasure(points, np.full(n, 1.0 / n))


@dataclass
class DiscreteCoupling:
    source: DiscreteMeasure
    target: DiscreteMeasure
    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    cost_matrix: np.ndarray
    cost: float
    phi: np.ndarray
    psi: np.ndarray
    solver: str
    reg: Optional[float] = None
    duality_gap: float = 0.0
    converged: bool = True
    # c-concave potentials, filled in by certify_support
    phi_cc: Optional[np.ndarray] = None
    psi_cc: Optional[np.ndarray] = None

    @property
    def atom_floor(self) -> float:
        return 1e-12 * float(self.source.weights.min())

    def atoms(self):
        """(rows, cols, mass) above the numerical-zero floor."""
        keep = self.mass > self.atom_floor
        return self.rows[keep], self.cols[keep], self.mass[keep]

    def marginal_residual(self) -> tuple[float, float]:
        ns, nt = self.source.size, self.target.size
        row = np.bincount(self.rows, weights=self.mass, minlength=ns)
        col = np.bincount(self.cols, weights=self.mass, minlength=nt)
        return (float(np.abs(row - self.source.weights).max()),
                float(np.abs(col - self.target.weights).max()))

    def row_masses(self) -> np.ndarray:
        return np.bincount(self.rows, weights=self.mass,
                           minlength=self.source.size)


def cost_matrix(manifold: ModelManifold, source: DiscreteMeasure,
                target: DiscreteMeasure,
                cut_margin: float = geometry.CUT_TOLERANCE) -> np.ndarray:
    """c_ij = d(x_i, zeta_j)^2 / 2; refuses pairs at the cut locus."""
    D = geometry.pairwise_distances(manifold, source.points, target.points)
    if manifold.variant == geometry.SPHERE:
        bound = math.pi * manifold.radius - cut_margin
        if np.any(D >= bound):
            raise CutLocusError("source-target pair within cut tolerance "
                                "of the antipode; resample the domain")
    return 0.5 * D**2


def solve_exact(mu: DiscreteMeasure, nu: DiscreteMeasure, C: np.ndarray,
                size_cap: tuple[int, int] = EXACT_SIZE_CAP) -> DiscreteCoupling:
    """Optimal basic solution of the transportation LP, with dual potentials."""
    ns, nt = mu.size, nu.size
    if ns > size_cap[0] or nt > size_cap[1]:
        raise SizeCapError(f"instance {ns}x{nt} exceeds cap {size_cap}; "
                           "use solve_entropic")
    rows = sparse.kron(sparse.eye(ns), np.ones((1, nt)))
    cols = sparse.kron(np.ones((1, ns)), sparse.eye(nt))
    A = sparse.vstack([rows, cols]).tocsc()
    b = np.concatenate([mu.weights, nu.weights])
    # HiGHS's default dual tolerance, 1e-7, fails certify_support's 1e-8
    res = linprog(C.ravel(), A_eq=A, b_eq=b, bounds=(0, None), method="highs",
                  options={"dual_feasibility_tolerance": 1e-9})
    if res.status != 0:
        raise NoConvergenceError(f"LP solver failed: {res.message}")
    plan = res.x.reshape(ns, nt)
    phi = res.eqlin.marginals[:ns]
    psi = res.eqlin.marginals[ns:]
    cost = float(res.fun)
    gap = cost - float(phi @ mu.weights + psi @ nu.weights)
    ii, jj = np.nonzero(plan > 0)
    return DiscreteCoupling(mu, nu, ii, jj, plan[ii, jj], C, cost,
                            phi, psi, solver="exact", duality_gap=gap)


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """``scipy.special.logsumexp(a, axis=axis)`` for a real 2-D array,
    bit for bit, in fewer passes; ``a`` is used as scratch space and
    holds no meaningful values afterwards.

    The operations are scipy's, in scipy's order: the maxima are split
    off the sum and counted, the rest is shifted by the maximum,
    exponentiated and summed, and the result is
    ``log1p(s / m) + log(m) + max``.  An input whose maxima are not all
    finite goes to scipy untouched.
    """
    amax = np.max(a, axis=axis, keepdims=True)
    if not np.isfinite(amax).all():
        return _scipy_logsumexp(a, axis=axis)
    at_max = a == amax
    if np.count_nonzero(at_max) == amax.size:  # no ties: one max per line
        m = np.ones_like(amax)
    else:
        m = np.count_nonzero(at_max, axis=axis, keepdims=True).astype(float)
    np.subtract(a, amax, out=a)
    np.exp(a, out=a)
    np.copyto(a, 0.0, where=at_max)
    s = np.sum(a, axis=axis, keepdims=True)
    np.divide(s, m, out=s, where=s != 0)
    return (np.log1p(s) + np.log(m) + amax).squeeze(axis)


def solve_entropic(mu: DiscreteMeasure, nu: DiscreteMeasure, C: np.ndarray,
                   eps_reg: float, max_iter: int = 20000,
                   stop_tol: float = 1e-9) -> DiscreteCoupling:
    """Log-domain scaling iteration with a halving schedule down to eps_reg.

    Each iteration makes four ``logsumexp`` calls on (ns, nt) arguments
    built in place in two reused buffers: ``work`` for the argument of
    each call, ``log_plan`` for the log plan of the current potentials.
    """
    if eps_reg <= 0:
        raise ValueError("eps_reg must be positive")
    if max_iter < 1:  # the plan comes from the last iteration's buffer
        raise ValueError("max_iter must be at least 1")
    ns, nt = mu.size, nu.size
    log_mu = np.log(mu.weights)[:, None]
    log_nu = np.log(nu.weights)[None, :]
    f = np.zeros(ns)
    g = np.zeros(nt)
    scale = float(C.mean())
    eps_schedule = []
    e = max(eps_reg, 0.1 * scale if scale > 0 else eps_reg)
    while e > eps_reg * 1.5:
        eps_schedule.append(e)
        e /= 2.0
    eps_schedule.append(eps_reg)
    work = np.empty((ns, nt))
    log_plan = np.empty((ns, nt))
    it = 0
    converged = False
    for eps in eps_schedule:
        last = eps == eps_reg
        while it < max_iter:
            it += 1
            # (g - C) / eps + log nu, then (f - C) / eps + log mu
            np.subtract(g, C, out=work)
            work /= eps
            work += log_nu
            f = -eps * logsumexp(work, axis=1)
            np.subtract(f[:, None], C, out=work)
            work /= eps
            work += log_mu
            g = -eps * logsumexp(work, axis=0)
            # (f + g - C) / eps + log mu + log nu
            np.add(f[:, None], g, out=log_plan)
            log_plan -= C
            log_plan /= eps
            log_plan += log_mu
            log_plan += log_nu
            np.copyto(work, log_plan)
            row = np.exp(logsumexp(work, axis=1))
            np.copyto(work, log_plan)
            col = np.exp(logsumexp(work, axis=0))
            resid = max(np.abs(row - mu.weights).max(),
                        np.abs(col - nu.weights).max())
            if resid < (stop_tol if last else 1e-4):
                if last:
                    converged = True
                break
    plan = np.exp(log_plan, out=log_plan)
    plan /= plan.sum()
    cost = float((plan * C).sum())
    gap = cost - float(f @ mu.weights + g @ nu.weights)
    ii, jj = np.nonzero(plan > 1e-12 * mu.weights.min())
    return DiscreteCoupling(mu, nu, ii, jj, plan[ii, jj], C, cost,
                            f, g, solver="entropic", reg=eps_reg,
                            duality_gap=gap, converged=converged)


def c_transform(values: np.ndarray, C: np.ndarray, direction: str) -> np.ndarray:
    """Infimal c-transform onto the other marginal's support.

    ``direction="from_source"`` maps phi (on rows) to psi (on columns);
    ``"from_target"`` maps psi back to phi.
    """
    values = np.asarray(values, dtype=float)
    if direction == "from_source":
        return np.min(C - values[:, None], axis=0)
    if direction == "from_target":
        return np.min(C - values[None, :], axis=1)
    raise ValueError(f"unknown direction {direction!r}")


@dataclass
class CertificationReport:
    worst_violation: float
    atom_count: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst_violation <= self.tol


def certify_support(coupling: DiscreteCoupling,
                    tol: float = 1e-8) -> CertificationReport:
    """Enforce c-concavity of the dual and verify the plan support.

    phi is replaced by its double c-transform; every atom above the floor
    must then satisfy phi_i + psi_j = c_ij up to ``tol``; the report's
    ``passed`` says whether they do.  Nothing raises.
    """
    C = coupling.cost_matrix
    psi = c_transform(coupling.phi, C, "from_source")
    phi = c_transform(psi, C, "from_target")
    coupling.phi_cc = phi
    coupling.psi_cc = psi
    ii, jj, _ = coupling.atoms()
    viol = C[ii, jj] - phi[ii] - psi[jj]
    worst = float(np.abs(viol).max()) if len(viol) else 0.0
    return CertificationReport(worst, len(viol), tol)


def potential_gradient_on_sigma(mesh: SubmanifoldMesh,
                                phi_values: np.ndarray,
                                max_target_distance):
    """Surface gradient of the Kantorovich potential, capped by the
    maximal transport distance (scalar or per-node array); returns
    (gradients, exceeded_flags)."""
    g = submanifold._lsq_gradient(mesh, np.asarray(phi_values, float))
    grad = np.einsum("nab,nb->na", mesh.stencil_to_frame, g)
    norms = np.linalg.norm(grad, axis=1)
    cap = np.broadcast_to(np.asarray(max_target_distance, float), norms.shape)
    flags = norms > cap
    if flags.any():
        grad[flags] *= (cap[flags] / norms[flags])[:, None]
    return grad, flags


def tangency_residuals(mesh: SubmanifoldMesh, nodes: np.ndarray,
                       logs: np.ndarray, grad_phi: np.ndarray) -> dict:
    """Check that plan atoms leave Sigma with velocity -grad phi + normal.

    For every atom (x_i, zeta_j), given as its node ``i`` in ``nodes``
    and its velocity u = log_{x_i} zeta_j in ``logs``, the tangential
    residual is |u^T + grad phi(x_i)| and should vanish in the continuum.
    Returns its median, p90 and max over the atoms, and the atom count.
    """
    tf = mesh._metric_frames(mesh.tangent_frames)[nodes]
    ut = np.einsum("kad,kd->ka", tf, logs)
    tau = np.linalg.norm(ut + grad_phi[nodes], axis=1)
    return {"median": float(np.median(tau)),
            "p90": float(np.quantile(tau, 0.9)),
            "max": float(tau.max()),
            "atom_count": int(len(tau))}


@dataclass
class FiberMassReport:
    marginal_residual: np.ndarray   # (N,) |row mass - mu_i|
    fiber_volume_proxy: np.ndarray  # (N,) row mass * vol(Omega)
    envelope_ok: bool


def fiber_mass_residual(coupling: DiscreteCoupling, domain_volume: float,
                        envelope: np.ndarray,
                        envelope_slack: float = 0.05) -> FiberMassReport:
    """Discrete surrogate of the change-of-variable identity.

    The transported mass per node must match mu_i (marginal identity),
    and the fiber-volume proxy row_mass * vol(Omega) must stay below the
    per-node Jacobian-bound ``envelope``.
    """
    row = coupling.row_masses()
    proxy = row * domain_volume
    ok = bool(np.all(proxy <= envelope * (1.0 + envelope_slack)))
    return FiberMassReport(np.abs(row - coupling.source.weights), proxy, ok)


@dataclass
class SemiconcavityReport:
    worst_margin: float

    @property
    def passed(self) -> bool:
        return self.worst_margin >= 0.0


def semiconcavity_check(manifold: ModelManifold, mesh: SubmanifoldMesh,
                        hess: np.ndarray, atoms, atom_distances: np.ndarray,
                        slack: float = 0.1) -> SemiconcavityReport:
    """Hessian-type upper bound on the potential along frame directions;
    ``hess`` is the fitted Hessian of the potential
    (``submanifold.lsq_hessian``), ``atoms`` the plan's atoms
    (``DiscreteCoupling.atoms``) and ``atom_distances`` their lengths.

    The bound is (1/2)[4 b(d sqrt(-k)/2) + 2 d |II(e_i,e_i)|] + slack with
    b(s) = s coth(s) (b = 1 in the k >= 0 limit), d the distance to the
    node's assigned target, and k the curvature lower bound of the model.
    Report-only: negative margins flag the scenario, nothing raises.
    """
    second_diff = np.einsum("naa->na", hess)
    # heaviest atom per node (the first of equals) picks the assigned target
    ii, _, mm = atoms
    order = np.lexsort((-mm, ii))
    nodes, first = np.unique(ii[order], return_index=True)
    d = np.zeros(mesh.node_count)
    d[nodes] = atom_distances[order[first]]
    kneg = min(manifold.curvature, 0.0)

    def b(s):
        return np.where(s > 1e-8, s / np.tanh(np.maximum(s, 1e-300)), 1.0)

    sqk = math.sqrt(-kneg) if kneg < 0 else 0.0
    bval = b(0.5 * d * sqk) if kneg < 0 else np.ones(mesh.node_count)
    # |II(e_i, e_i)| as a normal-vector norm, per tangent direction
    ii_norm = np.linalg.norm(np.einsum("nmii->nim", mesh.sff), axis=2)
    bounds = 0.5 * (4.0 * bval[:, None] + 2.0 * d[:, None] * ii_norm) + slack
    margins = bounds - second_diff
    return SemiconcavityReport(float(margins.min()))


# ---------------------------------------------------------------------------
# export

def write_coupling(coupling: DiscreteCoupling, path) -> None:
    """Structured-text export: atom list (i, j, mass) plus dual potentials."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("otsobolev-coupling 1\n")
        fh.write(f"solver {coupling.solver}\n")
        if coupling.reg is not None:
            fh.write(f"reg {coupling.reg!r}\n")
        fh.write(f"cost {coupling.cost!r}\n")
        fh.write(f"duality_gap {coupling.duality_gap!r}\n")
        ii, jj, mm = coupling.atoms()
        fh.write(f"atoms {len(ii)}\n")
        for i, j, m_ in zip(ii, jj, mm):
            fh.write(f"{int(i)} {int(j)} {float(m_)!r}\n")
        phi = coupling.phi_cc if coupling.phi_cc is not None else coupling.phi
        psi = coupling.psi_cc if coupling.psi_cc is not None else coupling.psi
        fh.write(f"phi {len(phi)}\n")
        fh.write(" ".join(repr(float(x)) for x in phi) + "\n")
        fh.write(f"psi {len(psi)}\n")
        fh.write(" ".join(repr(float(x)) for x in psi) + "\n")
