"""Scenario orchestration: mesh -> domain -> transport -> the checks of
the registry ``CHECKS`` -> report.

Configs are line-oriented INI files; every random draw derives from the
scenario seed, so a fixed (config, seed) pair yields identical reports.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional, get_type_hints

import numpy as np

from . import geometry, inequalities, jacobi, submanifold, transport
from .errors import (
    ConfigError,
    ResolutionTooCoarseError,
    SizeCapError,
    UnsupportedChartError,
)
from .fields import ScalarField, constant_field, field_from_expression
from .geometry import ModelManifold

_REQUIRED = object()  # no fallback: a config must set the key


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    manifold_variant: str
    curvature: float
    ambient_dim: int
    chart: str
    chart_params: dict
    resolution: int
    field_kind: str
    field_spec: str
    domain_variant: Optional[str]
    domain_params: dict
    domain_samples: int
    solver: str
    eps_reg: Optional[float]
    checks: dict
    inequality_variant: Optional[str]
    jacobi_atoms: int
    raw: dict  # config echo for the report
    read_keys: frozenset  # every (section, key) the parser read

    @classmethod
    def load(cls, path, overrides=()) -> "ScenarioConfig":
        """Parse and validate the config file at ``path``.

        ``overrides`` are (section, key, value) strings set on the file
        before it is read, as if written there (``--seed``, sweep grid
        points).  Raises ConfigError naming the key for a missing or
        malformed value, for a value a run would die on and for a key
        the config does not read.
        """
        cp = configparser.ConfigParser()
        try:
            if not cp.read(path):
                raise ConfigError(f"cannot read config file {path}")
            for section, key, value in overrides:
                if not cp.has_section(section):
                    cp.add_section(section)
                cp.set(section, key, value)
            return cls._from_parser(cp)
        except (configparser.Error, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def _from_parser(cls, cp) -> "ScenarioConfig":
        read = set()

        def get(section, key, kind=str, fallback=_REQUIRED, used=True):
            """section.key converted to ``kind`` (str, int, float or
            bool), ``fallback`` when it is absent; records the read.  A
            float must be finite.  ``used=False`` (the run ignores the
            key) gives ``fallback`` without reading it."""
            if not used:
                return fallback
            read.add((section, key))
            if not cp.has_option(section, key):
                if fallback is _REQUIRED:
                    raise ConfigError(
                        f"missing required field {section}.{key}")
                return fallback
            convert = {str: cp.get, int: cp.getint, float: cp.getfloat,
                       bool: cp.getboolean}[kind]
            try:
                value = convert(section, key)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from exc
            if kind is float and not math.isfinite(value):
                raise ConfigError(f"{section}.{key}: value {value} is not "
                                  "finite")
            return value

        name = get("scenario", "name")
        seed = get("scenario", "seed", int)
        variant = get("manifold", "variant")
        if variant not in geometry.VARIANTS:
            raise ConfigError(f"manifold.variant: unknown variant {variant!r}")
        curvature = get("manifold", "curvature", float,
                        geometry.SPACE_FORMS[variant].sign)
        ambient_dim = get("manifold", "ambient_dim", int)

        chart = get("submanifold", "chart")
        if chart not in submanifold.CHARTS:
            raise ConfigError(f"submanifold.chart: unknown chart {chart!r}")
        # the chart's fields, all required
        chart_type = submanifold.CHARTS[chart]
        types = get_type_hints(chart_type)
        chart_params = {f.name: get("submanifold", f.name, types[f.name])
                        for f in dataclasses.fields(chart_type)}
        resolution = get("submanifold", "resolution", int)

        field_kind = get("field", "kind", fallback="constant")
        if field_kind == "constant":
            field_spec = get("field", "value", fallback="1.0")
        elif field_kind == "expression":
            field_spec = get("field", "expression")
        else:
            raise ConfigError(f"field.kind: unknown kind {field_kind!r}")

        checks = {key: get("checks", key, bool, False)
                  for key in CHECK_NAMES if key != "inequality"}
        inequality_variant = get("checks", "inequality", fallback="none")
        if inequality_variant in ("none", ""):
            inequality_variant = None
        elif inequality_variant not in inequalities.INEQUALITY_SCOPE:
            raise ConfigError(
                f"checks.inequality: unknown variant {inequality_variant!r}")
        checks["inequality"] = inequality_variant is not None
        transported = _transport_enabled(checks)

        # [domain] is read when a check reads the domain (a transport check
        # or the inequality), and samples when targets are drawn
        domain_variant, domain_params, domain_samples = None, {}, 0
        scope = inequalities.INEQUALITY_SCOPE.get(inequality_variant)
        if cp.has_section("domain") and (transported or scope and scope[1]):
            domain_variant = get("domain", "variant")
            if domain_variant not in inequalities.DOMAIN_SCOPE:
                raise ConfigError(
                    f"domain.variant: unknown variant {domain_variant!r}")
            if transported or domain_variant in inequalities.SAMPLED_VOLUME:
                domain_samples = get("domain", "samples", int, 1000)
            domain_params = {key: get("domain", key, float) for key in
                             inequalities.DOMAIN_SCOPE[domain_variant][1]}

        solver = get("solver", "method", fallback="exact", used=transported)
        if solver not in ("exact", "entropic"):
            raise ConfigError(f"solver.method: unknown method {solver!r}")
        eps_reg = get("solver", "eps_reg", float, None,
                      used=solver == "entropic")
        jacobi_atoms = get("jacobi", "atoms", int, 200, used=checks["jacobi"])

        raw = {s: dict(cp.items(s)) for s in cp.sections()}
        config = cls(name, seed, variant, curvature, ambient_dim, chart,
                     chart_params, resolution, field_kind, field_spec,
                     domain_variant, domain_params, domain_samples,
                     solver, eps_reg, checks, inequality_variant,
                     jacobi_atoms, raw, frozenset(read))
        config.validate()
        unread = [f"{s}.{k}" for s in cp.sections() for k in cp[s]
                  if (s, k) not in read]
        if unread:
            raise ConfigError(f"{', '.join(unread)}: not read by this "
                              "config (unknown, or unused by its variants)")
        return config

    def validate(self) -> None:
        """Raise ConfigError for values a run would die on (counts and
        sizes below their least value, curvature sign, a hypersurface
        outside Euclidean space, [domain] section and ranges, a
        non-positive solver.eps_reg, a sphere curvature whose volume
        overflows, a geodesic-ball radius whose scale-free constants
        overflow), for an inequality whose manifold or [domain] variant
        it does not hold on or read (``inequalities.INEQUALITY_SCOPE``),
        for a [domain] variant not built for the manifold
        (``inequalities.DOMAIN_SCOPE``) or around a hypersurface, for
        fiber_mass without the annulus domain its envelope needs, and for
        a negative_local submanifold of radius above r / 2.
        Runs in ``load``, after the overrides are set."""
        least = {"scenario.seed": (self.seed, 0),
                 "manifold.ambient_dim": (self.ambient_dim, 3),
                 "jacobi.atoms": (self.jacobi_atoms, 1)}
        if ("domain", "samples") in self.read_keys:
            least["domain.samples"] = (self.domain_samples, 1)
        for name, (value, bound) in least.items():
            if value < bound:
                raise ConfigError(f"{name}: {value} is below {bound}")
        variant = self.manifold_variant
        try:
            M = self.build_manifold()
        except ValueError as exc:  # the sign of K does not fit the variant
            raise ConfigError(f"manifold.curvature: {exc}") from exc
        # every chart is 2-dimensional: ambient dimension 3 is a
        # hypersurface, which the run builds in R^4 (``build_manifold``)
        hypersurface = self.ambient_dim == 3
        if hypersurface and variant != geometry.EUCLIDEAN:
            raise ConfigError("manifold.ambient_dim: a hypersurface "
                              "(ambient_dim = 3) lifts only from euclidean, "
                              f"not from {variant}")
        if self.inequality_variant is not None:
            holds_on, reads = inequalities.INEQUALITY_SCOPE[
                self.inequality_variant]
            if variant not in holds_on:
                raise ConfigError(
                    f"checks.inequality: {self.inequality_variant} holds on "
                    f"{', '.join(holds_on)}, not on {variant}")
            if reads is not None and self.domain_variant != reads:
                raise ConfigError(
                    f"checks.inequality: {self.inequality_variant} reads "
                    f"[domain] variant {reads}, not {self.domain_variant}")
        if self.needs_transport() and self.domain_variant is None:
            raise ConfigError("domain: transport checks need a [domain] "
                              "section")
        if self.domain_variant is not None:
            built_for = inequalities.DOMAIN_SCOPE[self.domain_variant][0]
            if variant not in built_for:
                raise ConfigError(
                    f"domain.variant: {self.domain_variant} is built for "
                    f"{', '.join(built_for)}, not for {variant}")
            if hypersurface:
                raise ConfigError(
                    f"domain.variant: no {self.domain_variant} domain is "
                    "built around a lifted hypersurface")
        if self.checks["fiber_mass"] and \
                self.domain_variant != inequalities.ANNULUS:
            raise ConfigError(
                f"checks.fiber_mass: the fiber-volume envelope exists only "
                f"on {inequalities.ANNULUS} domains, not on "
                f"{self.domain_variant}")
        sigma = self.domain_params.get("sigma", 0.5)
        if not 0 < sigma < 1:
            raise ConfigError(f"domain.sigma: value {sigma} outside (0, 1)")
        if not self.domain_params.get("r", 1.0) > 0:
            raise ConfigError(f"domain.r: value {self.domain_params['r']} "
                              "is not positive")
        # (a chart without a radius does not fit hyperbolic space, which
        # build_submanifold reports)
        radius = self.chart_params.get("radius")
        if self.inequality_variant == inequalities.NEGATIVE_LOCAL \
                and radius is not None:
            r = self.domain_params["r"]
            if radius > r / 2:
                raise ConfigError(
                    f"domain.r, submanifold.radius: "
                    f"{inequalities.NEGATIVE_LOCAL} needs the submanifold "
                    f"inside the r/2 ball, but its radius {radius} exceeds "
                    f"r / 2 = {r / 2}")
        if not self.domain_params.get("eps", 0.0) >= 0:
            raise ConfigError(f"domain.eps: value {self.domain_params['eps']}"
                              " is negative")
        if self.eps_reg is not None and not self.eps_reg > 0:
            raise ConfigError(f"solver.eps_reg: value {self.eps_reg} is not "
                              "positive")
        # model-space constants the run takes in floats: the sphere's
        # volume; for a geodesic ball of radius r in R^d,
        # (R sinh(r / R))^(d-1): when it is finite, so is every power
        # (R sinh(s / R))^k, s <= r and k <= d - 1, that its volume and
        # its inequality constants take
        try:
            if variant == geometry.SPHERE:
                key, constant = "manifold.curvature", "the sphere's volume"
                geometry.manifold_volume(M)
            if self.domain_variant == inequalities.GEODESIC_BALL:
                key, constant = "domain.r", "(R sinh(r / R))^(d-1)"
                R, r = M.radius, self.domain_params["r"]
                if not math.isfinite(
                        (R * math.sinh(r / R)) ** (self.ambient_dim - 1)):
                    raise OverflowError
        except OverflowError as exc:
            raise ConfigError(f"{key}: {constant} overflows at curvature "
                              f"{self.curvature}") from exc

    def needs_transport(self) -> bool:
        return _transport_enabled(self.checks)

    def build_manifold(self) -> ModelManifold:
        """The model space the run builds the mesh in.  A hypersurface of
        R^3 is built in R^4 = R^3 x R, where it has codimension 2."""
        dim = self.ambient_dim
        if dim == 3 and self.manifold_variant == geometry.EUCLIDEAN:
            dim = 4
        return ModelManifold(self.manifold_variant, dim, self.curvature)


def _transport_enabled(checks: dict) -> bool:
    return any(checks.get(name) for name, check in CHECKS.items()
               if check.transport)


@dataclass
class RunReport:
    name: str
    seed: int
    config: dict
    checks: dict = field(default_factory=dict)
    inequality: Optional[dict] = None
    series: dict = field(default_factory=dict)
    theorem_failures: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    stage_seconds: dict = field(default_factory=dict)  # console only

    def records(self):
        """Report records for the json-lines stream (no wall-clock data,
        so reruns with the same seed are byte-identical)."""
        yield {"record": "config", "name": self.name, "seed": self.seed,
               "config": self.config}
        for name in sorted(self.checks):
            yield {"record": "check", "name": name, **self.checks[name]}
        if self.inequality is not None:
            yield {"record": "inequality", **self.inequality}
        yield {"record": "verdict",
               "theorem_failures": self.theorem_failures,
               "warnings": self.warnings}

    @property
    def ok(self) -> bool:
        return not self.theorem_failures


@dataclass
class RunContext:
    """What the checks of one run read.  The integrals of f, the support
    certificate (with phi^cc), the plan's marginals, the atom table
    (plan atoms, log_x zeta and its length), the gradient and Hessian of
    phi^cc and the tangency statistics are computed at most once, when a
    check first reads them.  ``coupling`` is None when no check needs
    transport."""

    config: ScenarioConfig
    M: ModelManifold
    mesh: submanifold.SubmanifoldMesh
    f: ScalarField
    domain: Optional[inequalities.TargetDomain]
    coupling: Optional[transport.DiscreteCoupling]
    report: RunReport

    @cached_property
    def terms(self) -> dict:
        """The integrals of f that the inequalities take."""
        return inequalities.inequality_terms(self.M, self.mesh, self.f)

    @cached_property
    def certificate(self) -> transport.Certificate:
        return transport.certify_support(self.coupling)

    @cached_property
    def marginals(self) -> transport.Marginals:
        return self.coupling.marginals()

    @cached_property
    def atoms(self):
        return self.coupling.atoms()

    @cached_property
    def atom_logs(self) -> np.ndarray:
        """(atoms, d): the velocity log_x zeta of each atom (x, zeta)."""
        ii, jj, _ = self.atoms
        return geometry.log_map(self.M, self.mesh.points[ii],
                                self.coupling.target.points[jj])

    @cached_property
    def atom_distances(self) -> np.ndarray:
        return geometry.norm(self.M, self.atom_logs)

    @cached_property
    def gradient(self):
        """(grad phi^cc on Sigma, cap flags); each node's gradient is
        capped by the distance to its farthest atom."""
        ii, _, _ = self.atoms
        dist = self.atom_distances
        per_node_max = np.zeros(self.mesh.node_count)
        np.maximum.at(per_node_max, ii, dist)
        per_node_max[per_node_max == 0] = dist.max()
        return transport.potential_gradient_on_sigma(
            self.mesh, self.certificate.phi_cc, per_node_max)

    @cached_property
    def hess_phi(self) -> np.ndarray:
        return submanifold.lsq_hessian(self.mesh, self.certificate.phi_cc)

    @cached_property
    def tangency(self) -> dict:
        return transport.tangency_residuals(self.mesh, self.atoms[0],
                                            self.atom_logs, self.gradient[0])


def _certification(ctx):
    """Support certification of the plan, and its marginals."""
    coupling = ctx.coupling
    if ctx.config.solver == "exact":
        cert_tol = 1e-8
    else:
        # entropic support violations scale like reg * log(mass / floor)
        cert_tol = 50.0 * coupling.reg * math.log(
            max(coupling.source.size * coupling.target.size, 2))
    cert = ctx.certificate
    return {
        "passed": bool(cert.worst_violation <= cert_tol
                       and coupling.converged),
        "worst_violation": cert.worst_violation,
        "atom_count": cert.atom_count,
        "marginal_residual_source": ctx.marginals.source_residual,
        "marginal_residual_target": ctx.marginals.target_residual,
        "cost": coupling.cost,
        "duality_gap": coupling.duality_gap,
        "solver": coupling.solver,
    }


def _tangency(ctx):
    """Report-only: the residuals vanish only in the continuum limit."""
    return {"passed": None, **ctx.tangency,
            "capped_nodes": int(ctx.gradient[1].sum())}


def _fiber_mass(ctx):
    """Marginals and the fiber-volume envelope, a discrete surrogate of
    the change-of-variable inequality: the proxy row mass * vol(Omega) of
    every node stays below its Jacobian-bound envelope, with 5 % slack.
    ``validate`` admits the check only on the annulus domain, the one
    with an envelope."""
    envelope = inequalities.annulus_fiber_envelope(
        ctx.M, ctx.mesh, ctx.certificate.phi_cc,
        ctx.config.domain_params["sigma"], ctx.config.domain_params["r"])
    proxy = ctx.marginals.row_masses * ctx.domain.volume
    envelope_ok = bool(np.all(proxy <= envelope * 1.05))
    worst = ctx.marginals.source_residual
    return {"passed": worst <= 1e-6 and envelope_ok,
            "marginal_residual_max": worst, "envelope_ok": envelope_ok}


def _semiconcavity(ctx):
    margin = transport.semiconcavity_check(ctx.M, ctx.mesh, ctx.hess_phi,
                                           ctx.atoms, ctx.atom_distances)
    return {"passed": margin >= 0.0, "worst_margin": margin}


# Atoms the Jacobi stage propagates together.  A chunk's record holds
# two time-last (atoms, d, d, STEPS + 1) arrays, P and its LU factors,
# 2 MB each at d = 4, so about 4 MB; P' adds a third while ``propagate``
# runs, and the Riccati residual runs column by column and adds no array
# of that size.
JACOBI_CHUNK = 16


# The bounds of the Jacobi check.  The worst margin n - delta_phi - <H, v>
# of its atoms is gated at -LAP_SLACK_FACTOR * n: the slack covers the
# Hessian-fit bias.  The determinant profile of a K >= 0 atom may rise by
# MONOTONICITY_TOL of its value at t0 per step.  The endpoint bound
# det P(1) <= (1 - lam/n)^n has slack BOUND_SLACK_FACTOR * |bound|.  An
# atom whose t^-m det P(t) limit is more than NORMALIZATION_TOL from 1 is
# flagged for normalization drift, not evaluated.
LAP_SLACK_FACTOR = 0.05
MONOTONICITY_TOL = 1e-6
BOUND_SLACK_FACTOR = 1e-3
NORMALIZATION_TOL = 1e-4


# the record keys that count the flagged atoms by reason
FLAG_KEYS = ("flagged_normalization_drift", "flagged_denominator_vanishes",
             "flagged_arg_out_of_domain")


def _jacobi(ctx):
    """Jacobi propagation and comparison checks on the heaviest atoms.
    Their curvature matrices and initial data come from the node frames
    in one stacked pass, with no frame transported (a parallel frame is
    the tests' reference for S along the geodesic).  They are propagated
    JACOBI_CHUNK at a time, and the plot series of the first evaluated
    atom goes to the report.
    Each count and metric of ``_jacobi_chunk`` is reduced over all
    chunks: a metric is null when its sub-check covered no atom, and the
    check fails when no atom was evaluated."""
    M, mesh = ctx.M, ctx.mesh
    order = transport.heaviest_atoms(ctx.atoms, ctx.config.jacobi_atoms)
    ii, logs = ctx.atoms[0][order], ctx.atom_logs[order]
    S = geometry.curvature_matrix(M, np.concatenate(
        [mesh.tangent_frames[ii], mesh.normal_frames[ii]], axis=1), logs)
    P0, P0p, lam = jacobi.initial_conditions(mesh, ii, logs, ctx.hess_phi,
                                             ctx.gradient[0])
    K = M.curvature
    # the K < 0 envelope takes the radius r of the geodesic_ball domain,
    # the only domain a hyperbolic run transports to
    r = ctx.config.domain_params["r"] if K < 0.0 else None
    chunks = []
    for start in range(0, len(ii), JACOBI_CHUNK):
        chunk = slice(start, start + JACOBI_CHUNK)
        rec = jacobi.propagate(S[chunk], P0[chunk], P0p[chunk], lam[chunk],
                               mesh.n)
        atoms, profile = _jacobi_chunk(rec, K, r)
        evaluated = np.flatnonzero(atoms["evaluated_atoms"])
        if "jacobi_profile" not in ctx.report.series and len(evaluated):
            ctx.report.series["jacobi_profile"] = jacobi.plot_series(
                rec, profile, evaluated[0])
        chunks.append(atoms)
        # free this chunk's stacked trajectories before the next is built
        del rec, profile
    stats = {"atom_count": int(len(ii))}
    for key in chunks[0]:
        values = np.ma.concatenate([atoms[key] for atoms in chunks])
        stats[key] = (values.min() if key.endswith("_min") else
                      values.max() if values.dtype == float else
                      values.sum()).item() if values.count() else None
    stats["flagged_atoms"] = sum(stats[key] for key in FLAG_KEYS)
    # mono_failures and bound_margin_min are null on the K < 0 path
    passed = (stats["evaluated_atoms"] >= 1
              and stats["riccati_residual_max"] <= 1e-6
              and not stats["mono_failures"]
              and stats["singular_atoms"] == 0
              and (stats["bound_margin_min"] is None
                   or stats["bound_margin_min"] >= 0.0)
              and stats["lap_margin_min"] >= -LAP_SLACK_FACTOR * mesh.n)
    return {"passed": bool(passed), **stats}


def _jacobi_chunk(rec, K, r):
    """The Jacobi record of one chunk atom by atom, and its comparison
    profile.  A count is the (A,) mask of the atoms it counts, a metric
    an (A,) masked array unmasked on the atoms its sub-check covers.
    The Riccati residual and the margin n - delta_phi - <H, v> cover every
    non-singular atom.  An envelope out of its domain flags an atom (on
    the K >= 0 path, 1 - t lam / n vanishes), and so, after the
    determinant profile ran on it, does normalization drift (K >= 0).
    The other sub-checks cover the atoms neither flags, the evaluated
    ones."""
    ok = ~rec.singular
    none = np.zeros_like(ok)

    def on(mask, values):
        return np.ma.array(values, mask=~mask)

    if K >= 0.0:
        profile = jacobi.ComparisonProfile("nonneg", rec.n, rec.m, rec.lam)
        reason = "flagged_denominator_vanishes"
    else:
        profile = jacobi.ComparisonProfile("negative", rec.n, rec.m, rec.lam,
                                           k1=K, k2=K, r=r)
        reason = "flagged_arg_out_of_domain"
    out = ok & profile.out_of_domain
    mono = evaluated = ok & ~out
    atoms = {"singular_atoms": rec.singular, **dict.fromkeys(FLAG_KEYS, none),
             reason: out,
             "riccati_residual_max": on(ok, jacobi.riccati_residual(rec)),
             "lap_margin_min": on(ok, rec.n - rec.lam),
             # the K >= 0 sub-checks cover no atom on the K < 0 path
             **dict.fromkeys(("mono_worst_increase", "mono_failures",
                              "bound_margin_min", "normalization_worst"),
                             on(none, none))}
    if K >= 0.0:
        # the profile divides by zero only on atoms it does not cover
        with np.errstate(divide="ignore", invalid="ignore"):
            det_profile = jacobi.monotonicity_profile(rec)
            scale = np.abs(det_profile[:, 0])
            worst = np.diff(det_profile, axis=1).max(axis=1)
            increase = worst / scale
        drift = np.abs(jacobi.normalization_limit(rec) - 1.0)
        drifted = mono & (drift > NORMALIZATION_TOL)
        evaluated = mono & ~drifted
        bound, det1 = jacobi.jacobian_bound_check(rec)
        atoms.update({
            "flagged_normalization_drift": drifted,
            # a profile that never increases has worst increase 0
            "mono_worst_increase": on(mono, np.where(increase > 0.0,
                                                     increase, 0.0)),
            "mono_failures": on(mono, ~(worst <= MONOTONICITY_TOL * scale)),
            "bound_margin_min": on(evaluated, bound + BOUND_SLACK_FACTOR
                                   * np.abs(bound) - det1),
            "normalization_worst": on(evaluated, drift)})
    trq1, trq3 = jacobi.trace_comparison_check(rec, profile)
    atoms.update(evaluated_atoms=evaluated,
                 trq1_excess_max=on(evaluated, trq1),
                 trq3_excess_max=on(evaluated, trq3))
    return atoms, profile


def _ibp(ctx):
    """-int f Lap phi <= r (int_boundary f + int |grad f|), r the longest
    atom, with 5 % slack covering the discrete Hessian-trace surrogate."""
    r_bound = float(ctx.atom_distances.max())
    lhs, rhs = inequalities.integration_by_parts_check(
        ctx.mesh, ctx.f, ctx.hess_phi, r_bound, ctx.terms)
    margin = rhs * 1.05 - lhs
    return {"passed": margin >= 0.0, "margin": margin, "lhs": lhs,
            "rhs": rhs, "r_bound": r_bound}


def _inequality(ctx):
    """Both sides of the configured inequality; the full record goes to
    ``report.inequality``.  It holds when LHS / RHS <= 1 + REPORT_TOL."""
    rec = inequalities.evaluate_inequality(
        ctx.M, ctx.mesh, ctx.terms, ctx.config.inequality_variant,
        dict(ctx.config.domain_params), domain=ctx.domain)
    tol = inequalities.REPORT_TOL
    rec.update(passed=rec["ratio"] <= 1.0 + tol, report_tol=tol)
    ctx.report.inequality = rec
    return {"passed": rec["passed"], "ratio": rec["ratio"]}


class Check(NamedTuple):
    """A registry entry.  ``run(ctx)`` returns the check's record, whose
    ``passed`` key is the verdict: True, False, or None for a report-only
    check, which cannot fail.  A failed check is a theorem failure
    if ``fatal``, else a warning (a failure under ``--strict``).  A
    ``transport`` check reads the coupling.  A ``configured`` check runs
    when its [checks] key is set; the others run whenever a coupling is
    built."""

    run: Callable[[RunContext], dict]
    transport: bool
    fatal: bool = False
    configured: bool = True


# Every check, in the order it runs and its warnings are listed.
CHECKS = {
    "certification": Check(_certification, transport=True, fatal=True,
                           configured=False),
    "tangency": Check(_tangency, transport=True),
    "fiber_mass": Check(_fiber_mass, transport=True),
    "semiconcavity": Check(_semiconcavity, transport=True),
    "jacobi": Check(_jacobi, transport=True),
    "ibp": Check(_ibp, transport=True),
    "inequality": Check(_inequality, transport=False, fatal=True),
}
# the [checks] keys
CHECK_NAMES = tuple(name for name, check in CHECKS.items()
                    if check.configured)


def run_scenario(config: ScenarioConfig, strict: bool = False) -> RunReport:
    """Execute the full pipeline for one scenario configuration: build
    the mesh, the target domain and the coupling, then run the enabled
    checks of ``CHECKS`` in order."""
    report = RunReport(config.name, config.seed, config.raw)
    clock = time.perf_counter

    t = clock()
    M = config.build_manifold()
    chart = submanifold.CHARTS[config.chart](**config.chart_params)
    try:
        # a chart the floats cannot hold (a radius, or a graph's height)
        # is reported below, as a config error, not by numpy warnings on
        # the way
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mesh = submanifold.build_submanifold(M, chart, config.resolution)
    except (UnsupportedChartError, ResolutionTooCoarseError) as exc:
        raise ConfigError(f"submanifold: {exc}") from exc
    except ConfigError as exc:  # a graph's height outside the grammar
        raise ConfigError(f"submanifold.height: {exc}") from exc
    except OverflowError as exc:  # the libm sinh of a geodesic disk's rim
        raise ConfigError("submanifold.radius: the boundary length of the "
                          f"mesh overflows ({exc})") from exc
    weights = np.concatenate([mesh.weights, mesh.boundary_weights])
    if not (np.all(np.isfinite(weights) & (weights > 0))
            and np.isfinite(mesh.points).all()):
        keys = ", ".join(f"submanifold.{key}"
                         for key in config.chart_params) or "submanifold"
        raise ConfigError(f"{keys}: the nodes of the mesh are not all "
                          "finite, or its quadrature weights not all finite "
                          "and positive")
    try:
        if config.field_kind == "constant":
            f = constant_field(mesh, float(config.field_spec))
        else:
            # values the floats cannot hold fail ScalarField's check, and
            # integrands they cannot hold (f^{n/(n-1)}, |grad f|) the one
            # below, with no numpy warning on the way
            with np.errstate(all="ignore"):
                f = field_from_expression(mesh, config.field_spec)
                terms = inequalities.inequality_terms(M, mesh, f)
            if not np.isfinite(list(terms.values())).all():
                raise ValueError(f"its integrals overflow: {terms}")
    # not a number, not finite and positive, or outside the grammar
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"field: {exc}") from exc
    report.stage_seconds["mesh"] = clock() - t

    domain = None
    if config.domain_variant is not None:
        t = clock()
        try:
            domain = inequalities.build_target_domain(
                M, mesh, config.domain_variant, config.domain_params,
                config.domain_samples, config.seed)
        except OverflowError as exc:  # (r + extent)^d of the annulus shell
            raise ConfigError("domain.r: the volume of the annulus shell "
                              f"overflows ({exc})") from exc
        report.stage_seconds["domain"] = clock() - t

    coupling = None
    if config.needs_transport():
        t = clock()
        mu = transport.source_measure(mesh, f)
        nu = transport.target_measure(domain.points)
        C = transport.cost_matrix(M, mu, nu)
        if config.solver == "exact":
            worst = float(C.max())
            if worst >= transport.HIGHS_INFINITE_COST:
                # the keys that place the nodes and the targets
                keys = [f"submanifold.{key}" for key in config.chart_params] \
                    + [f"domain.{key}" for key in config.domain_params]
                if M.variant != geometry.EUCLIDEAN:
                    keys.insert(0, "manifold.curvature")
                raise ConfigError(
                    f"{', '.join(keys)}: the largest transport cost {worst:g} "
                    "reaches the exact solver's infinite cost "
                    f"{transport.HIGHS_INFINITE_COST:g}")
            try:
                coupling = transport.solve_exact(mu, nu, C)
            except SizeCapError as exc:
                raise ConfigError(
                    f"submanifold.resolution, domain.samples: {mu.size} "
                    f"nodes x {nu.size} targets exceed the exact solver's "
                    f"cap {transport.EXACT_SIZE_CAP}; lower them or set "
                    "solver.method = entropic") from exc
        else:
            eps_reg = config.eps_reg
            if eps_reg is None:
                eps_reg = 5e-3 * float(C.mean())
            coupling = transport.solve_entropic(mu, nu, C, eps_reg)
        report.stage_seconds["transport"] = clock() - t

    ctx = RunContext(config, M, mesh, f, domain, coupling, report)
    if config.field_kind != "constant":
        ctx.terms = terms   # the mesh stage's, computed once per run
    for name, check in CHECKS.items():
        if not (config.checks.get(name) if check.configured
                else coupling is not None):
            continue
        t = clock()
        rec = report.checks[name] = check.run(ctx)
        report.stage_seconds[name] = clock() - t
        if rec["passed"] is False:
            (report.theorem_failures if check.fatal
             else report.warnings).append(name)

    if strict and report.warnings:
        report.theorem_failures.extend(
            w for w in report.warnings if w not in report.theorem_failures)
    return report
