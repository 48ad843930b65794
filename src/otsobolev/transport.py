"""Discrete quadratic-cost optimal transport from the submanifold measure
to an ambient domain measure, with dual potentials, c-transform machinery
and the structural checks on the transport geometry (tangency of plan
atoms, fiber mass balance, semiconcavity of the potential).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import logsumexp

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
# HiGHS takes a cost at or above its infinite_cost option, 1e20, for an
# infinite one, so the exact solver needs every cost below it
HIGHS_INFINITE_COST = 1e20


@dataclass
class DiscreteMeasure:
    """Finitely supported probability measure on the ambient space."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        # every point keeps its index (a plan's rows name mesh nodes), so
        # a zero weight is refused, not dropped; NaN fails both tests
        bad = np.count_nonzero(~(self.weights > 0))
        if bad:
            raise ValueError(f"weights must be positive: {bad} of "
                             f"{self.size} are not")
        total = self.weights.sum()
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {total}, expected 1")

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def atom_floor(self) -> float:
        """Numerical zero for the entries of a plan from this source."""
        return 1e-12 * float(self.weights.min())


def source_measure(mesh: SubmanifoldMesh, f: ScalarField) -> DiscreteMeasure:
    """mu = f^{n/(n-1)} vol_Sigma, normalized, on every node: a
    ValueError when a node's weight is not positive."""
    p = mesh.n / (mesh.n - 1)
    w = mesh.weights * f.values**p
    try:
        return DiscreteMeasure(mesh.points, w / w.sum())
    except ValueError as exc:
        raise ValueError(f"the source measure f^(n/(n-1)) vol_Sigma: {exc}") \
            from exc


def target_measure(points: np.ndarray) -> DiscreteMeasure:
    """Uniform weights on ambient domain samples."""
    n = len(points)
    return DiscreteMeasure(points, np.full(n, 1.0 / n))


class Marginals(NamedTuple):
    row_masses: np.ndarray      # plan mass on each source node
    source_residual: float      # max |row mass - mu_i|
    target_residual: float      # max |column mass - nu_j|


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
    solver: str
    reg: Optional[float] = None
    duality_gap: float = 0.0
    converged: bool = True

    def atoms(self):
        """(rows, cols, mass) above the source's numerical-zero floor."""
        keep = self.mass > self.source.atom_floor
        return self.rows[keep], self.cols[keep], self.mass[keep]

    def marginals(self) -> Marginals:
        """The plan's row masses and both marginal residuals."""
        row = np.bincount(self.rows, weights=self.mass,
                          minlength=self.source.size)
        col = np.bincount(self.cols, weights=self.mass,
                          minlength=self.target.size)
        return Marginals(row, float(np.abs(row - self.source.weights).max()),
                         float(np.abs(col - self.target.weights).max()))


def cost_matrix(manifold: ModelManifold, source: DiscreteMeasure,
                target: DiscreteMeasure) -> np.ndarray:
    """c_ij = d(x_i, zeta_j)^2 / 2; refuses pairs within
    ``geometry.CUT_TOLERANCE`` of the cut locus."""
    D = geometry.pairwise_distances(manifold, source.points, target.points)
    if manifold.variant == geometry.SPHERE:
        bound = geometry.manifold_diameter(manifold) - geometry.CUT_TOLERANCE
        if np.any(D >= bound):
            raise CutLocusError("source-target pair within cut tolerance "
                                "of the antipode; resample the domain")
    return 0.5 * D**2


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported at the first call: the
    entropic and transport-free runs never load ``scipy.optimize``."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def solve_exact(mu: DiscreteMeasure, nu: DiscreteMeasure, C: np.ndarray,
                size_cap: tuple[int, int] = EXACT_SIZE_CAP) -> DiscreteCoupling:
    """Optimal basic solution of the transportation LP, with dual potentials."""
    from scipy import sparse

    ns, nt = mu.size, nu.size
    if ns > size_cap[0] or nt > size_cap[1]:
        raise SizeCapError(f"instance {ns}x{nt} exceeds cap {size_cap}; "
                           "use solve_entropic")
    rows = sparse.kron(sparse.eye(ns), np.ones((1, nt)))
    cols = sparse.kron(np.ones((1, ns)), sparse.eye(nt))
    A = sparse.vstack([rows, cols]).tocsc()
    b = np.concatenate([mu.weights, nu.weights])
    # HiGHS's default dual tolerance, 1e-7, fails the certification's
    # 1e-8 (pipeline._certification)
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
                            phi, solver="exact", duality_gap=gap)


# Range of the Sinkhorn scalings, [1/SCALING_RANGE, SCALING_RANGE];
# solve_entropic derives it
SCALING_RANGE = 2.0**510


def solve_entropic(mu: DiscreteMeasure, nu: DiscreteMeasure, C: np.ndarray,
                   eps_reg: float, max_iter: int = 20000,
                   stop_tol: float = 1e-9) -> DiscreteCoupling:
    """Stabilized scaling (Sinkhorn) iteration with a halving schedule
    down to eps_reg (Schmitzer 2019; Peyre & Cuturi 2019, ch. 4).

    The potentials are kept as f + eps log u and g + eps log v:
    log-domain parts (f, g) and scalings (u, v).  Each stage opens with
    one log-domain f-update, f = -eps L with L the row log-sums of
    (g - C) / eps + log nu (one ``logsumexp`` call), sets u = v = 1 and
    builds the kernel K = exp((f + g - C) / eps) in the one reused
    (ns, nt) buffer, ``work``.  An iteration is then two mat-vecs: the
    g-update v = 1 / (K^T (mu u)) and the f-update u = 1 / (K (nu v)) of
    the next iteration, computed before the stop test.  The marginal
    residual is read off the same mat-vecs: the row marginal of the
    current potentials is mu_i u_i (K (nu v))_i and the column marginal
    nu_j v_j (K^T (mu u))_j.  The stop test, row and column residual
    below ``stop_tol`` on the last stage and 1e-4 before, and the
    ``max_iter`` cap are those of the log-domain iteration, and so are
    the iterates up to rounding.

    Absorption.  A mat-vec whose entries are not all finite and in
    [1/tau, tau], tau = ``SCALING_RANGE``, leaves its scaling unused:
    that half-step is redone in the log domain (one ``logsumexp``
    call), u and v are absorbed into (f, g) and reset to 1, and the
    kernel is rebuilt.  That is what happens to the column of a target
    far from every source: its kernel entries underflow and v_j
    overflows, while its log-domain g_j is finite.  Each stage ends by
    absorbing its scalings.

    tau bounds the error the kernel's underflow costs.  An entry of K
    below the normal range, 2^-1022, is stored as a subnormal or as 0,
    with absolute error at most 2^-1074.  Over the sum
    (K^T (mu u))_j = sum_i K_ij mu_i u_i, with u_i <= tau and the mu_i
    summing to 1, those entries add at most 2^-1074 tau, relative to a
    sum of at least 1/tau: 2^-1074 tau^2.  tau = 2^510 keeps that below
    2^-54, half a rounding unit, and K (nu v) alike; entries in the
    normal range keep their relative precision at any scaling.

    The log plan is built once, from the final potentials.
    """
    if eps_reg <= 0:
        raise ValueError("eps_reg must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    ns, nt = mu.size, nu.size
    log_mu = np.log(mu.weights)
    log_nu = np.log(nu.weights)
    g = np.zeros(nt)
    scale = float(C.mean())
    eps_schedule = []
    e = max(eps_reg, 0.1 * scale if scale > 0 else eps_reg)
    while e > eps_reg * 1.5:
        eps_schedule.append(e)
        e /= 2.0
    eps_schedule.append(eps_reg)
    work = np.empty((ns, nt))

    def row_log_sums(g, eps):
        # (g - C) / eps + log nu, summed over columns
        np.subtract(g, C, out=work)
        np.divide(work, eps, out=work)
        np.add(work, log_nu, out=work)
        return logsumexp(work, axis=1)

    def build_kernel(f, g, eps):
        # K = exp((f + g - C) / eps)
        np.add(f[:, None], g, out=work)
        np.subtract(work, C, out=work)
        np.divide(work, eps, out=work)
        np.exp(work, out=work)

    def in_range(s):
        return s.min() >= 1.0 / SCALING_RANGE and s.max() <= SCALING_RANGE

    K = work  # the kernel, while no log-domain half-step overwrites it
    it = 0
    converged = False
    for eps in eps_schedule:
        last = eps == eps_reg
        f = -eps * row_log_sums(g, eps)
        u, v = np.ones(ns), np.ones(nt)
        build_kernel(f, g, eps)
        while True:
            it += 1
            col_sums = K.T @ (mu.weights * u)
            if in_range(col_sums):
                v = 1.0 / col_sums
                col = nu.weights * v * col_sums
            else:  # g-update in the log domain, absorb, rebuild
                f = f + eps * np.log(u)
                # (f - C) / eps + log mu, summed over rows
                np.subtract(f[:, None], C, out=work)
                work /= eps
                work += log_mu[:, None]
                L_col = logsumexp(work, axis=0)
                g = -eps * L_col
                col = np.exp(log_nu + g / eps + L_col)
                u, v = np.ones(ns), np.ones(nt)
                build_kernel(f, g, eps)
            row_sums = K @ (nu.weights * v)
            absorbed = not in_range(row_sums)
            if absorbed:  # f-update in the log domain; absorb
                f = f + eps * np.log(u)
                g = g + eps * np.log(v)
                u, v = np.ones(ns), np.ones(nt)
                L = row_log_sums(g, eps)
                row = np.exp(log_mu + f / eps + L)
            else:
                row = mu.weights * u * row_sums
            resid = max(np.abs(row - mu.weights).max(),
                        np.abs(col - nu.weights).max())
            if resid < (stop_tol if last else 1e-4):
                converged = last
                break
            if it == max_iter:
                break
            if absorbed:
                f = -eps * L
                build_kernel(f, g, eps)
            else:
                u = 1.0 / row_sums
        f = f + eps * np.log(u)
        g = g + eps * np.log(v)
        if it == max_iter:
            break
    # (f + g - C) / eps + log mu + log nu, at the last iteration's eps
    log_plan = np.add(f[:, None], g, out=work)
    log_plan -= C
    log_plan /= eps
    log_plan += log_mu[:, None]
    log_plan += log_nu
    plan = np.exp(log_plan, out=log_plan)
    plan /= plan.sum()
    cost = float((plan * C).sum())
    gap = cost - float(f @ mu.weights + g @ nu.weights)
    ii, jj = np.nonzero(plan > mu.atom_floor)
    return DiscreteCoupling(mu, nu, ii, jj, plan[ii, jj], C, cost,
                            f, solver="entropic", reg=eps_reg,
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


class Certificate(NamedTuple):
    worst_violation: float  # max |phi_i + psi_j - c_ij| over the atoms
    atom_count: int
    phi_cc: np.ndarray      # the c-concave potential on the source


def certify_support(coupling: DiscreteCoupling) -> Certificate:
    """Enforce c-concavity of the dual and measure the plan support.

    phi^cc is the double c-transform of the solver's phi; every atom
    above the floor should satisfy phi^cc_i + psi_j = c_ij.  Returns the
    worst violation of that identity over the atoms, the atom count and
    phi^cc; the coupling is left as it is.
    """
    C = coupling.cost_matrix
    psi = c_transform(coupling.phi, C, "from_source")
    phi = c_transform(psi, C, "from_target")
    ii, jj, _ = coupling.atoms()
    viol = C[ii, jj] - phi[ii] - psi[jj]
    worst = float(np.abs(viol).max()) if len(viol) else 0.0
    return Certificate(worst, len(viol), phi)


def potential_gradient_on_sigma(mesh: SubmanifoldMesh,
                                phi_values: np.ndarray,
                                max_target_distance):
    """Surface gradient of the Kantorovich potential, capped by the
    maximal transport distance (scalar or per-node array); returns
    (gradients, exceeded_flags)."""
    g = submanifold.lsq_gradient(mesh, np.asarray(phi_values, float))
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
    tf = geometry.lower_index(mesh.manifold, mesh.tangent_frames)[nodes]
    ut = np.einsum("kad,kd->ka", tf, logs)
    tau = np.linalg.norm(ut + grad_phi[nodes], axis=1)
    return {"median": float(np.median(tau)),
            "p90": float(np.quantile(tau, 0.9)),
            "max": float(tau.max()),
            "atom_count": int(len(tau))}


def heaviest_atoms(atoms, k: int) -> np.ndarray:
    """Indices of the ``k`` heaviest of the plan's ``atoms`` (all of them
    if there are fewer), heaviest first, ties by node, then target, then
    index: ``np.lexsort((jj, ii, -mm))[:k]``, in time linear in the atom
    count.  Only the atoms at least as heavy as the k-th heaviest, ties
    at that threshold included, are sorted."""
    ii, jj, mm = atoms
    kth = len(mm) - min(k, len(mm))     # the k-th heaviest, in ascending order
    threshold = np.partition(mm, kth)[kth]
    heavy = np.flatnonzero(mm >= threshold)
    return heavy[np.lexsort((jj[heavy], ii[heavy], -mm[heavy]))[:k]]


def assigned_distances(atoms, atom_distances: np.ndarray,
                       node_count: int) -> np.ndarray:
    """(node_count,) the length (from ``atom_distances``) of each node's
    heaviest atom, the first of equals, in time linear in the atom count;
    0 on a node with no atom."""
    ii, _, mm = atoms
    heaviest = np.full(node_count, -np.inf)
    np.maximum.at(heaviest, ii, mm)
    first = np.full(node_count, len(mm))
    at_max = np.flatnonzero(mm == heaviest[ii])
    np.minimum.at(first, ii[at_max], at_max)
    nodes = np.flatnonzero(first < len(mm))
    d = np.zeros(node_count)
    d[nodes] = atom_distances[first[nodes]]
    return d


def semiconcavity_check(manifold: ModelManifold, mesh: SubmanifoldMesh,
                        hess: np.ndarray, atoms,
                        atom_distances: np.ndarray) -> float:
    """Hessian-type upper bound on the potential along frame directions;
    ``hess`` is the fitted Hessian of the potential
    (``submanifold.lsq_hessian``), ``atoms`` the plan's atoms
    (``DiscreteCoupling.atoms``) and ``atom_distances`` their lengths.

    The bound is (1/2)[4 b(d sqrt(-k)/2) + 2 d |II(e_i,e_i)|] + 0.5 with
    b(s) = s coth(s) (b = 1 in the k >= 0 limit), d the distance to the
    node's assigned target, and k the curvature lower bound of the model.
    Returns the worst margin, bound minus second difference, over the
    nodes and frame directions; nothing raises.
    """
    second_diff = np.einsum("naa->na", hess)
    # heaviest atom per node (the first of equals) picks the assigned target
    d = assigned_distances(atoms, atom_distances, mesh.node_count)
    kneg = min(manifold.curvature, 0.0)

    def b(s):
        return np.where(s > 1e-8, s / np.tanh(np.maximum(s, 1e-300)), 1.0)

    sqk = math.sqrt(-kneg) if kneg < 0 else 0.0
    bval = b(0.5 * d * sqk) if kneg < 0 else np.ones(mesh.node_count)
    # |II(e_i, e_i)| as a normal-vector norm, per tangent direction
    ii_norm = np.linalg.norm(np.einsum("nmii->nim", mesh.sff), axis=2)
    bounds = 0.5 * (4.0 * bval[:, None] + 2.0 * d[:, None] * ii_norm) + 0.5
    margins = bounds - second_diff
    return float(margins.min())
