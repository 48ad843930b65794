"""Sobolev-type inequalities for submanifolds, with exact constants.

Builds the target domains each inequality variant requires and
evaluates both sides by submanifold quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.special import ndtri

from . import geometry, submanifold
from .errors import (
    EmptyDomainError,
    HypothesisViolationError,
    UnsupportedVariantError,
)
from .fields import ScalarField
from .geometry import ModelManifold
from .submanifold import SubmanifoldMesh

# an inequality holds when LHS / RHS <= 1 + REPORT_TOL
REPORT_TOL = 0.02

ANNULUS = "annulus_around_sigma"
WHOLE_MANIFOLD = "whole_manifold"
COMPLEMENT_OF_TUBE = "complement_of_tube"
GEODESIC_BALL = "geodesic_ball"

NONNEG_LIMIT = "nonneg_limit"
NONNEG_FINITE = "nonneg_finite"
CLOSED_POSITIVE = "closed_positive"
POSITIVE_TUBE = "positive_tube"
NEGATIVE_LOCAL = "negative_local"

# For each inequality variant: the manifold variants it holds on, and
# the target-domain variant whose [domain] keys it reads (None: none).
INEQUALITY_SCOPE = {
    NONNEG_LIMIT: ((geometry.EUCLIDEAN,), None),
    NONNEG_FINITE: ((geometry.EUCLIDEAN,), ANNULUS),
    CLOSED_POSITIVE: ((geometry.SPHERE,), None),
    POSITIVE_TUBE: ((geometry.SPHERE,), COMPLEMENT_OF_TUBE),
    NEGATIVE_LOCAL: ((geometry.HYPERBOLIC,), GEODESIC_BALL),
}

# For each target-domain variant: the manifold variants it is built for,
# and the [domain] keys it reads.
DOMAIN_SCOPE = {
    ANNULUS: ((geometry.EUCLIDEAN,), ("sigma", "r")),
    WHOLE_MANIFOLD: ((geometry.SPHERE,), ()),
    COMPLEMENT_OF_TUBE: ((geometry.SPHERE,), ("eps",)),
    GEODESIC_BALL: ((geometry.HYPERBOLIC,), ("r",)),
}
# the variants whose volume is the acceptance rate of their own samples
SAMPLED_VOLUME = (ANNULUS,)


def _sinc(x: float) -> float:
    return float(np.sinc(x / math.pi))


# ---------------------------------------------------------------------------
# target domains


@dataclass
class TargetDomain:
    variant: str
    points: np.ndarray          # uniformly weighted samples
    volume: float
    volume_stderr: float
    volume_provenance: str      # "analytic" | "monte_carlo"


def _resample_away_from_cut(M, mesh, pts, rng):
    """Replace sphere samples whose farthest mesh node is near-antipodal."""
    if M.variant != geometry.SPHERE:
        return pts
    bound = geometry.manifold_diameter(M) - 10 * geometry.CUT_TOLERANCE
    for _ in range(100):
        far = geometry.pairwise_distances(M, pts, mesh.points).max(axis=1)
        bad = far >= bound
        if not bad.any():
            return pts
        fresh, _ = submanifold.ambient_samples(M, int(bad.sum()), rng)
        pts[bad] = fresh
    raise EmptyDomainError("could not sample away from the cut locus")


class ScrambledHalton:
    """Owen-scrambled Halton points in [0, 1)^d, bit for bit those of
    ``scipy.stats.qmc.Halton(d, scramble=True, rng=default_rng(seed_seq))``.

    The bases are the first ``d`` primes.  Each base has one digit
    permutation per digit that still moves a double, ``ceil(54 / log2 b)
    - 1`` shuffles of ``arange(b)`` drawn from a Generator spawned once
    from ``seed_seq``, as scipy spawns its own.  Point ``q`` sums
    ``perm[j, digit_j(q)] * b**-(j + 1)`` over the digits in scipy's
    order, with ``b**-(j + 1)`` built by the same repeated division, so
    every partial sum rounds as scipy's does."""

    def __init__(self, dim: int, seed_seq: np.random.SeedSequence):
        rng = np.random.default_rng(seed_seq.spawn(1)[0])
        self.tables = []
        base = 2
        while len(self.tables) < dim:
            if all(base % b for b, _ in self.tables):
                count = math.ceil(54 / math.log2(base)) - 1
                perms = np.repeat(np.arange(base)[None], count, axis=0)
                for perm in perms:
                    rng.shuffle(perm)
                b2r = np.empty(count)
                b2r[0] = 1.0 / base
                for j in range(1, count):
                    b2r[j] = b2r[j - 1] / base
                self.tables.append((base, perms * b2r[:, None]))
            base += 1
        self.drawn = 0

    def random(self, n: int) -> np.ndarray:
        """The next ``n`` points, (n, d)."""
        index = np.arange(self.drawn, self.drawn + n)
        out = np.zeros((len(self.tables), n))
        for seq, (base, table) in zip(out, self.tables):
            q = index
            for row in table:
                q, digit = np.divmod(q, base)
                seq += row[digit]
        self.drawn += n
        # the transpose of a (d, n) array: scipy's memory layout, so the
        # reductions over these points sum in scipy's order too
        return out.T


def _lattice_directions(u: np.ndarray) -> np.ndarray:
    """Map unit-cube lattice points to unit directions (Gaussian transform)."""
    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _rejection_samples(mesh: SubmanifoldMesh, candidates, keep,
                       n_samples: int, rounds: int):
    """(kept points, candidates drawn): batches ``candidates()`` filtered
    by ``keep(nearest, farthest)`` of ``submanifold.distance_to_mesh``,
    until ``n_samples`` are kept or ``rounds`` batches are drawn."""
    accepted = []
    tried = 0
    for _ in range(rounds):
        cand = candidates()
        tried += len(cand)
        near, far = submanifold.distance_to_mesh(mesh, cand)
        accepted.extend(cand[keep(near, far)].tolist())
        if len(accepted) >= n_samples:
            break
    return accepted, tried


def build_target_domain(manifold: ModelManifold, mesh: SubmanifoldMesh,
                        variant: str, params: dict, n_samples: int,
                        seed: int) -> TargetDomain:
    """Seeded-rejection samples satisfying the variant's distance
    constraints, with analytic or Monte Carlo volume; with no samples, a
    tube complement or a geodesic ball is its volume alone."""
    if variant not in DOMAIN_SCOPE:
        raise ValueError(f"unknown target-domain variant {variant!r}")
    built_for = DOMAIN_SCOPE[variant][0]
    if manifold.variant not in built_for:
        raise UnsupportedVariantError(
            f"{variant} domains are built for {', '.join(built_for)}, "
            f"not for {manifold.variant}")
    ss = np.random.SeedSequence(seed)
    s_pts, s_vol = ss.spawn(2)
    rng = np.random.default_rng(s_pts)
    if variant == WHOLE_MANIFOLD:
        pts, vol = submanifold.ambient_samples(manifold, n_samples, rng)
        pts = _resample_away_from_cut(manifold, mesh, pts, rng)
        return TargetDomain(variant, pts, vol, 0.0, "analytic")
    if variant == COMPLEMENT_OF_TUBE:
        eps = float(params["eps"])
        if eps == 0.0:  # the whole manifold, by this variant's name
            return replace(build_target_domain(
                manifold, mesh, WHOLE_MANIFOLD, {}, n_samples, seed),
                variant=variant)
        tube, tube_se = submanifold.tubular_volume(
            manifold, mesh, eps, seed=int(s_vol.generate_state(1)[0]))
        vol = geometry.manifold_volume(manifold) - tube
        if not vol > 0.0:
            raise EmptyDomainError(f"the {eps}-tube covers the sphere")
        if n_samples == 0:
            return TargetDomain(variant, np.empty((0, manifold.embedding_dim)),
                                vol, tube_se, "monte_carlo")
        engine = ScrambledHalton(manifold.embedding_dim, s_pts)
        cut_bound = geometry.manifold_diameter(manifold) \
            - 10 * geometry.CUT_TOLERANCE
        accepted, _ = _rejection_samples(
            mesh, lambda: manifold.radius * _lattice_directions(
                engine.random(n_samples)),
            lambda near, far: (near > eps) & (far < cut_bound),
            n_samples, rounds=200)
        if len(accepted) < n_samples:
            raise EmptyDomainError(
                f"complement of the {eps}-tube admits too few samples")
        return TargetDomain(variant, np.array(accepted[:n_samples]), vol,
                            tube_se, "monte_carlo")
    if variant == ANNULUS:
        sigma, r = float(params["sigma"]), float(params["r"])
        if not 0.0 < sigma < 1.0:
            raise ValueError(f"sigma = {sigma} outside (0, 1)")
        center = np.average(mesh.points, axis=0, weights=mesh.weights)
        extent = float(np.linalg.norm(mesh.points - center, axis=1).max())
        d_amb = manifold.embedding_dim
        # shell coordinates around the barycenter: every admissible point
        # lies at distance [sigma*r - extent, r + extent] from the center
        slo = max(sigma * r - extent, 0.0)
        shi = r + extent
        shell_vol = geometry.ball_volume(d_amb) * (shi**d_amb - slo**d_amb)
        engine = ScrambledHalton(d_amb + 1, s_pts)

        def shell_candidates():
            u = engine.random(n_samples)
            dirs = _lattice_directions(u[:, :d_amb])
            radii = (slo**d_amb + u[:, d_amb]
                     * (shi**d_amb - slo**d_amb)) ** (1.0 / d_amb)
            return center + radii[:, None] * dirs

        accepted, tried = _rejection_samples(
            mesh, shell_candidates,
            lambda near, far: (near >= sigma * r) & (far <= r),
            n_samples, rounds=500)
        if len(accepted) < max(n_samples // 2, 1):
            raise EmptyDomainError(
                f"annulus sigma={sigma}, r={r} admits too few samples")
        pts = np.array(accepted[:n_samples])
        rate = len(accepted) / tried
        vol = shell_vol * rate
        se = shell_vol * math.sqrt(max(rate * (1 - rate), 0.0) / tried)
        return TargetDomain(variant, pts, vol, se, "monte_carlo")
    if variant == GEODESIC_BALL:
        from scipy import integrate as scint

        half = float(params["r"]) / 2.0
        R = manifold.radius
        d_amb = manifold.ambient_dim
        center = np.zeros(manifold.embedding_dim)
        center[0] = R
        # radial inverse-CDF sampling of the (R sinh(s / R))^{d-1} density
        sgrid = np.linspace(0.0, half, 2049)
        dens = (R * np.sinh(sgrid / R)) ** (d_amb - 1)
        cdf = scint.cumulative_trapezoid(dens, sgrid, initial=0.0)
        cdf /= cdf[-1]
        u = ScrambledHalton(d_amb + 1, s_pts).random(n_samples)
        radii = np.interp(u[:, d_amb], cdf, sgrid)
        dirs = _lattice_directions(u[:, :d_amb])
        vecs = np.zeros((n_samples, manifold.embedding_dim))
        vecs[:, 1:] = radii[:, None] * dirs
        pts = geometry.exp_map(manifold, np.broadcast_to(center, vecs.shape),
                               vecs)
        vol = geometry.sphere_area(d_amb - 1) * scint.quad(
            lambda s: (R * math.sinh(s / R)) ** (d_amb - 1), 0.0, half)[0]
        return TargetDomain(variant, pts, vol, 0.0, "analytic")


# ---------------------------------------------------------------------------
# term assembly


def _mean_curvature_norms(manifold: ModelManifold,
                          mesh: SubmanifoldMesh) -> np.ndarray:
    h2 = geometry.metric_inner(manifold, mesh.mean_curvature,
                               mesh.mean_curvature)
    return np.sqrt(np.maximum(h2, 0.0))


def _boundary_and_gradient_integrals(mesh: SubmanifoldMesh, f: ScalarField):
    """(int_boundary f, int |grad f|) over the mesh."""
    grad = submanifold.intrinsic_gradient(mesh, f)
    gnorm = np.linalg.norm(grad, axis=1)
    if len(mesh.boundary_params):
        fb = f.value_chart(submanifold.boundary_stencil_coords(mesh))
        int_bdy = submanifold.integrate(mesh, fb, "boundary")
    else:
        int_bdy = 0.0
    return int_bdy, submanifold.integrate(mesh, gnorm)


def inequality_terms(manifold: ModelManifold, mesh: SubmanifoldMesh,
                     f: ScalarField) -> dict:
    """All submanifold integrals entering the inequalities."""
    n = mesh.n
    p = n / (n - 1)
    int_bdy, int_grad = _boundary_and_gradient_integrals(mesh, f)
    hnorm = _mean_curvature_norms(manifold, mesh)
    return {
        "int_f": submanifold.integrate(mesh, f.values),
        "int_f_power": submanifold.integrate(mesh, f.values**p),
        "int_grad_f": int_grad,
        "int_boundary_f": int_bdy,
        "int_f_H": submanifold.integrate(mesh, f.values * hnorm),
    }


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise HypothesisViolationError(msg)


def _domain_volume(variant: str, domain: Optional[TargetDomain]):
    """(volume, stderr, provenance) of the target domain ``variant``
    integrates over."""
    want = INEQUALITY_SCOPE[variant][1]
    if domain is None or domain.variant != want:
        raise ValueError(f"{variant} needs a {want} target domain")
    return domain.volume, domain.volume_stderr, domain.volume_provenance


def annulus_fiber_envelope(manifold: ModelManifold, mesh: SubmanifoldMesh,
                           phi_values: np.ndarray, sigma: float,
                           r: float) -> np.ndarray:
    """Per-node bound on the fiber volume over the annulus domain: the
    node weight times (1 - Lap phi / n + |H| r / n)^n times the
    ``fiber_bound`` constant of ``nonneg_finite``."""
    # wider stencil: the discrete potential is piecewise smooth, so the
    # envelope Laplacian must average over several kink cells
    lap = np.einsum("naa->n", submanifold.lsq_hessian(
        mesh, phi_values, stencil_radius=4.0))
    hnorm = _mean_curvature_norms(manifold, mesh)
    n = mesh.n
    return mesh.weights * (1.0 - lap / n + hnorm * r / n) ** n \
        * 0.5 * mesh.m * geometry.ball_volume(mesh.m) \
        * r**mesh.m * (1.0 - sigma**2)


def evaluate_inequality(manifold: ModelManifold, mesh: SubmanifoldMesh,
                        terms: dict, variant: str, params: dict,
                        domain: Optional[TargetDomain] = None) -> dict:
    """Assemble LHS and RHS of one inequality variant with exact constants
    from the field's integrals ``terms`` (``inequality_terms``).

    The curvature bounds k1 (tangential) and k2 (normal) of the positive
    and negative variants are the manifold's curvature K: on a model
    space both are sharp.  Returns the report record: the variant, both
    sides and their ratio, the terms and constants, and the volume of
    the target domain with its standard error and provenance.
    """
    if variant not in INEQUALITY_SCOPE:
        raise ValueError(f"unknown inequality variant {variant!r}")
    holds_on = INEQUALITY_SCOPE[variant][0]
    _require(manifold.variant in holds_on,
             f"{variant} holds on {', '.join(holds_on)}, "
             f"not on {manifold.variant}")
    n, m = mesh.n, mesh.m
    fp = terms["int_f_power"] ** ((n - 1) / n)
    K = manifold.curvature
    _require(m >= 2 or variant == NEGATIVE_LOCAL,
             "codimension m >= 2 required; build a hypersurface of R^3 "
             "in R^4")
    vol = None
    vol_se = 0.0
    vol_src = "analytic"

    if variant == NONNEG_LIMIT:
        theta = geometry.asymptotic_volume_ratio(manifold)
        const = n * theta ** (1.0 / n) * (
            (n + m) * geometry.ball_volume(n + m)
            / (m * geometry.ball_volume(m))) ** (1.0 / n)
        lhs = const * fp
        rhs = terms["int_grad_f"] + terms["int_boundary_f"] + terms["int_f_H"]
        constants = {"theta": theta, "lhs_constant": const,
                     "ball_volume_nm": geometry.ball_volume(n + m),
                     "ball_volume_m": geometry.ball_volume(m)}
    elif variant == NONNEG_FINITE:
        sigma, r = float(params["sigma"]), float(params["r"])
        _require(0.0 < sigma < 1.0, f"sigma = {sigma} outside (0, 1)")
        vol, vol_se, vol_src = _domain_volume(variant, domain)
        const = n * (2.0 * vol / (m * geometry.ball_volume(m)
                                  * (1.0 - sigma**2))) ** (1.0 / n)
        lhs = const * fp
        rhs = r ** (m / n) * (n * terms["int_f"]
                              + r * terms["int_boundary_f"]
                              + r * terms["int_grad_f"]
                              + r * terms["int_f_H"])
        constants = {"sigma": sigma, "r": r, "lhs_constant": const,
                     "fiber_bound": 0.5 * m * geometry.ball_volume(m)
                     * r**m * (1.0 - sigma**2)}
    elif variant in (CLOSED_POSITIVE, POSITIVE_TUBE):
        diam = geometry.manifold_diameter(manifold)
        if variant == CLOSED_POSITIVE:
            vol = geometry.manifold_volume(manifold)
            lhs = (vol / (geometry.ball_volume(m) * diam**m)) ** (1.0 / n) * fp
            rhs = terms["int_f"] + diam / n * (
                terms["int_boundary_f"] + terms["int_grad_f"]
                + terms["int_f_H"])
            constants = {"diam": diam, "volume": vol}
        else:
            eps = float(params["eps"])
            k1 = k2 = float(K)
            if eps == 0.0:
                vol = geometry.manifold_volume(manifold)
            else:
                vol, vol_se, vol_src = _domain_volume(variant, domain)
            a1 = eps * math.sqrt(k1 * (n - 1) / n)
            a2 = eps * math.sqrt(k2 * (m - 1) / m)
            lhs = (vol / (geometry.ball_volume(m) * diam**m
                          * _sinc(a2) ** m)) ** (1.0 / n) * fp
            rhs = math.cos(a1) * terms["int_f"] + diam * _sinc(a1) / n * (
                terms["int_boundary_f"] + terms["int_grad_f"]
                + terms["int_f_H"])
            constants = {"diam": diam, "eps": eps, "k1": k1, "k2": k2,
                         "cos_factor": math.cos(a1), "sinc_a1": _sinc(a1),
                         "sinc_a2": _sinc(a2)}
    else:
        r = float(params["r"])
        k1 = k2 = float(K)
        vol, vol_se, vol_src = _domain_volume(variant, domain)
        s1 = math.sqrt(-k1)
        s2 = math.sqrt(-k2)
        lhs = (vol / (geometry.ball_volume(m)
                      * (math.sinh(r * s2) / s2) ** m)) ** (1.0 / n) * fp
        rhs = math.cosh(r * s1) * terms["int_f"] \
            + math.sinh(r * s1) / (n * s1) * (
                terms["int_boundary_f"] + terms["int_grad_f"]
                + terms["int_f_H"])
        constants = {"r": r, "k1": k1, "k2": k2,
                     "cosh_factor": math.cosh(r * s1),
                     "sinh_factor": math.sinh(r * s1) / (n * s1)}
    lhs, rhs = float(lhs), float(rhs)
    return {"variant": variant, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs,
            "terms": terms, "constants": constants, "volume": vol,
            "volume_stderr": vol_se, "volume_provenance": vol_src}


# ---------------------------------------------------------------------------
# the integration-by-parts check


def integration_by_parts_check(mesh: SubmanifoldMesh, f: ScalarField,
                               hess: np.ndarray, r_bound: float,
                               terms: dict):
    """Both sides of -int f Lap phi <= r (int_boundary f + int |grad f|),
    r = ``r_bound``; ``hess`` is the fitted Hessian of phi
    (``submanifold.lsq_hessian``), and the two integrals of the right
    side are read from the field's ``terms`` (``inequality_terms``).
    Returns (lhs, rhs)."""
    lap = np.einsum("naa->n", hess)
    lhs = -submanifold.integrate(mesh, f.values * lap)
    return float(lhs), float(r_bound * (terms["int_boundary_f"]
                                        + terms["int_grad_f"]))
