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
    ArgOutOfDomainError,
    ConfigError,
    DenominatorVanishesError,
    NormalizationDriftError,
    ResolutionTooCoarseError,
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
    jacobi_steps: int
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
            bool), ``fallback`` when it is absent; records the read.
            ``used=False`` (the run ignores the key) gives ``fallback``
            without reading it."""
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
                return convert(section, key)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from exc

        name = get("scenario", "name")
        seed = get("scenario", "seed", int)
        variant = get("manifold", "variant")
        if variant not in geometry.VARIANTS:
            raise ConfigError(f"manifold.variant: unknown variant {variant!r}")
        curvature = get("manifold", "curvature", float, {
            geometry.EUCLIDEAN: 0.0, geometry.SPHERE: 1.0,
            geometry.HYPERBOLIC: -1.0}[variant])
        ambient_dim = get("manifold", "ambient_dim", int)

        chart = get("submanifold", "chart")
        if chart not in submanifold.CHARTS:
            raise ConfigError(f"submanifold.chart: unknown chart {chart!r}")
        # the chart's fields, all required but codim, which defaults to
        # the only value the disk charts accept
        chart_type = submanifold.CHARTS[chart]
        types = get_type_hints(chart_type)
        chart_params = {
            f.name: get("submanifold", f.name, types[f.name],
                        ambient_dim - 2 if f.name == "codim" else _REQUIRED)
            for f in dataclasses.fields(chart_type)}
        resolution = get("submanifold", "resolution", int)

        field_kind = get("field", "kind", fallback="constant")
        if field_kind == "constant":
            field_spec = get("field", "value", fallback="1.0")
        elif field_kind == "expression":
            field_spec = get("field", "expression")
        else:
            raise ConfigError(f"field.kind: unknown kind {field_kind!r}")

        domain_variant = None
        domain_params = {}
        domain_samples = 0
        if cp.has_section("domain"):
            domain_variant = get("domain", "variant")
            if domain_variant not in inequalities.DOMAIN_SCOPE:
                raise ConfigError(
                    f"domain.variant: unknown variant {domain_variant!r}")
            domain_samples = get("domain", "samples", int, 1000)
            domain_params = {key: get("domain", key, float) for key in
                             inequalities.DOMAIN_SCOPE[domain_variant][1]}

        checks = {key: get("checks", key, bool, False)
                  for key in CHECK_NAMES if key != "inequality"}
        inequality_variant = get("checks", "inequality", fallback="none")
        if inequality_variant in ("none", ""):
            inequality_variant = None
        elif inequality_variant not in inequalities.INEQUALITY_SCOPE:
            raise ConfigError(
                f"checks.inequality: unknown variant {inequality_variant!r}")
        checks["inequality"] = inequality_variant is not None

        solver = get("solver", "method", fallback="exact",
                     used=_transport_enabled(checks))
        if solver not in ("exact", "entropic"):
            raise ConfigError(f"solver.method: unknown method {solver!r}")
        eps_reg = get("solver", "eps_reg", float, None,
                      used=solver == "entropic")
        jacobi_steps = get("jacobi", "steps", int, 1000, used=checks["jacobi"])
        jacobi_atoms = get("jacobi", "atoms", int, 200, used=checks["jacobi"])

        raw = {s: dict(cp.items(s)) for s in cp.sections()}
        config = cls(name, seed, variant, curvature, ambient_dim, chart,
                     chart_params, resolution, field_kind, field_spec,
                     domain_variant, domain_params, domain_samples,
                     solver, eps_reg, checks, inequality_variant,
                     jacobi_steps, jacobi_atoms, raw, frozenset(read))
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
        outside Euclidean space, [domain] section and ranges), for an
        inequality whose manifold or [domain] variant it does not hold
        on or read (``inequalities.INEQUALITY_SCOPE``), for a [domain]
        variant not built for the manifold (``inequalities.DOMAIN_SCOPE``)
        or around a hypersurface, and for fiber_mass without the
        annulus domain its envelope needs.
        Runs in ``load``, after the overrides are set."""
        least = {"scenario.seed": (self.seed, 0),
                 "manifold.ambient_dim": (self.ambient_dim, 3),
                 "jacobi.steps": (self.jacobi_steps, 100),
                 "jacobi.atoms": (self.jacobi_atoms, 1)}
        if self.domain_variant is not None:
            least["domain.samples"] = (self.domain_samples, 1)
        for name, (value, bound) in least.items():
            if value < bound:
                raise ConfigError(f"{name}: {value} is below {bound}")
        variant = self.manifold_variant
        rule, holds = {geometry.EUCLIDEAN: ("= 0", lambda K: K == 0),
                       geometry.SPHERE: ("> 0", lambda K: K > 0),
                       geometry.HYPERBOLIC: ("< 0", lambda K: K < 0),
                       }[variant]
        if not holds(self.curvature):
            raise ConfigError(f"manifold.curvature: {variant} requires K "
                              f"{rule}, got {self.curvature}")
        # every chart is 2-dimensional: ambient dimension 3 is a
        # hypersurface, which the run lifts from R^3 into R^4
        # (``inequalities.hypersurface_lift``)
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
        if not self.domain_params.get("eps", 0.0) >= 0:
            raise ConfigError(f"domain.eps: value {self.domain_params['eps']}"
                              " is negative")

    def needs_transport(self) -> bool:
        return _transport_enabled(self.checks)

    def build_manifold(self) -> ModelManifold:
        if self.manifold_variant == geometry.EUCLIDEAN:
            return geometry.euclidean(self.ambient_dim)
        if self.manifold_variant == geometry.SPHERE:
            return geometry.sphere(self.ambient_dim, self.curvature)
        return geometry.hyperbolic(self.ambient_dim, self.curvature)


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
    """What the checks of one run read.  The atom table (plan atoms,
    log_x zeta, distances), the gradient and Hessian of phi^cc and the
    tangency statistics are computed at most once, when a check first
    reads them.  ``coupling`` is None when no check needs transport."""

    config: ScenarioConfig
    M: ModelManifold
    mesh: submanifold.SubmanifoldMesh
    f: ScalarField
    domain: Optional[inequalities.TargetDomain]
    coupling: Optional[transport.DiscreteCoupling]
    report: RunReport

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
        ii, jj, _ = self.atoms
        return geometry.distance(self.M, self.mesh.points[ii],
                                 self.coupling.target.points[jj])

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
            self.mesh, self.coupling.phi_cc, per_node_max)

    @cached_property
    def hess_phi(self) -> np.ndarray:
        return submanifold.lsq_hessian(self.mesh, self.coupling.phi_cc)

    @cached_property
    def tangency(self) -> dict:
        return transport.tangency_residuals(self.mesh, self.atoms[0],
                                            self.atom_logs, self.gradient[0])


def _certification(ctx):
    """Support certification of the plan; sets ``coupling.phi_cc``,
    which every later transport check reads."""
    coupling = ctx.coupling
    if ctx.config.solver == "exact":
        cert_tol = 1e-8
    else:
        # entropic support violations scale like reg * log(mass / floor)
        cert_tol = 50.0 * coupling.reg * math.log(
            max(coupling.source.size * coupling.target.size, 2))
    cert = transport.certify_support(coupling, tol=cert_tol)
    mres = coupling.marginal_residual()
    return {
        "passed": bool(cert.passed and coupling.converged),
        "worst_violation": cert.worst_violation,
        "atom_count": cert.atom_count,
        "marginal_residual_source": mres[0],
        "marginal_residual_target": mres[1],
        "cost": coupling.cost,
        "duality_gap": coupling.duality_gap,
        "solver": coupling.solver,
    }


def _tangency(ctx):
    """Report-only: the residuals vanish only in the continuum limit."""
    return {"passed": None, **ctx.tangency,
            "capped_nodes": int(ctx.gradient[1].sum())}


def _fiber_mass(ctx):
    """Marginals and the fiber-volume envelope; ``validate`` admits the
    check only on the annulus domain, the one with an envelope."""
    envelope = inequalities.annulus_fiber_envelope(
        ctx.M, ctx.mesh, ctx.coupling.phi_cc,
        ctx.config.domain_params["sigma"], ctx.config.domain_params["r"])
    fm = transport.fiber_mass_residual(
        ctx.coupling, domain_volume=ctx.domain.volume, envelope=envelope)
    worst = float(fm.marginal_residual.max())
    return {"passed": worst <= 1e-6 and fm.envelope_ok,
            "marginal_residual_max": worst, "envelope_ok": fm.envelope_ok}


def _semiconcavity(ctx):
    sc = transport.semiconcavity_check(ctx.M, ctx.mesh, ctx.hess_phi,
                                       ctx.atoms, ctx.atom_distances,
                                       slack=0.5)
    return {"passed": bool(sc.passed), "worst_margin": sc.worst_margin}


# Atoms the Jacobi stage propagates together: stacking spreads the
# per-step Python work of RK4 over the chunk, and the bound keeps the
# stacked (atoms, steps + 1, d, d) trajectories of one chunk at a few MB.
JACOBI_CHUNK = 16


# the exceptions that flag an atom, each with the record key counting it
FLAG_REASONS = {DenominatorVanishesError: "flagged_denominator_vanishes",
                NormalizationDriftError: "flagged_normalization_drift",
                ArgOutOfDomainError: "flagged_arg_out_of_domain"}


def _jacobi(ctx):
    """Jacobi propagation and comparison checks on the heaviest atoms,
    propagated JACOBI_CHUNK at a time; the plot series of the first
    evaluated atom goes to the report.  A metric is null when its
    sub-check ran on no atom, and the check fails when no atom was
    evaluated."""
    M, mesh = ctx.M, ctx.mesh
    grad_phi, hess_phi = ctx.gradient[0], ctx.hess_phi
    ii, jj, mm = ctx.atoms
    # heaviest first, ties by index
    order = np.lexsort((jj, ii, -mm))[:ctx.config.jacobi_atoms]
    ii, logs = ii[order], ctx.atom_logs[order]
    hn = mesh.mean_curvature_normal_components()
    nf = mesh._metric_frames(mesh.normal_frames)
    K = M.curvature
    neg_r = ctx.config.domain_params.get("r")
    stats = {"atom_count": int(len(ii)), "evaluated_atoms": 0,
             "singular_atoms": 0, "flagged_atoms": 0,
             **dict.fromkeys(FLAG_REASONS.values(), 0),
             **dict.fromkeys((
                 "sym_residual_max", "q_sym_residual_max",
                 "riccati_residual_max", "lap_margin_min",
                 "mono_worst_increase", "mono_failures", "bound_margin_min",
                 "normalization_worst", "trq1_excess_max",
                 "trq3_excess_max"))}
    for start in range(0, len(ii), JACOBI_CHUNK):
        chunk = slice(start, start + JACOBI_CHUNK)
        frames, P0, P0p, dphi, hdv = [], [], [], [], []
        for i, u in zip(ii[chunk].tolist(), logs[chunk]):
            frames.append(geometry.build_parallel_frame(
                M, mesh.points[i], u, list(mesh.tangent_frames[i]),
                list(mesh.normal_frames[i]), samples=2))
            v_norm = nf[i] @ u
            p0, p0p = jacobi.initial_conditions(mesh, i, v_norm, hess_phi[i],
                                                grad_phi[i])
            P0.append(p0)
            P0p.append(p0p)
            dphi.append(float(np.trace(hess_phi[i])))
            hdv.append(float(hn[i] @ v_norm))
        trajs = jacobi.propagate_atoms(M, frames, np.stack(P0),
                                       np.stack(P0p), dphi, hdv,
                                       steps=ctx.config.jacobi_steps)
        for traj, u in zip(trajs, logs[chunk]):
            if traj is not None:
                _jacobi_atom(ctx, traj, u, K, neg_r, stats)
            else:
                stats["singular_atoms"] += 1
        # free this chunk's stacked trajectories before the next is built
        del trajs, traj
    # mono_failures and bound_margin_min are null on the K < 0 path
    passed = (stats["evaluated_atoms"] >= 1
              and stats["sym_residual_max"] <= 1e-8
              and stats["riccati_residual_max"] <= 1e-6
              and not stats["mono_failures"]
              and stats["singular_atoms"] == 0
              and (stats["bound_margin_min"] is None
                   or stats["bound_margin_min"] >= 0.0)
              and stats["lap_margin_min"] >= -jacobi.LAP_SLACK_FACTOR * mesh.n)
    return {"passed": bool(passed), **stats}


def _fold(stats, **values):
    """Fold per-atom values into the running extremes of ``stats``:
    minima for the ``*_min`` keys, maxima for the others.  A key is None
    until its sub-check first runs."""
    for key, value in values.items():
        prev = stats[key]
        stats[key] = value if prev is None else (
            min if key.endswith("_min") else max)(prev, value)


def _jacobi_atom(ctx, traj, u, K, neg_r, stats):
    """Run the checks of one propagated atom (log vector ``u``) and fold
    them into ``stats``; the first evaluated atom gives the plot series."""
    _fold(stats, sym_residual_max=traj.symmetry_residual(),
          q_sym_residual_max=traj.q_symmetry_residual(),
          riccati_residual_max=jacobi.riccati_residual(traj),
          lap_margin_min=jacobi.lap_lower_bound_check(traj))
    try:
        if K >= 0.0:
            _, _, mono, worst = jacobi.monotonicity_profile(traj)
            # a profile that never increases has worst increase 0
            _fold(stats, mono_worst_increase=max(0.0, worst))
            stats["mono_failures"] = (stats["mono_failures"] or 0) + (not mono)
            _, limit = jacobi.normalization_limit(traj)
            margin, _, _ = jacobi.jacobian_bound_check(traj, limit=limit)
            _fold(stats, bound_margin_min=margin,
                  normalization_worst=abs(limit - 1.0))
            profile = jacobi.comparison_profiles(
                "nonneg", traj.delta_phi, traj.h_dot_v, traj.n, traj.m)
        else:
            r = neg_r if neg_r is not None else 2.0 * math.sqrt(
                geometry.metric_inner(ctx.M, u, u))
            profile = jacobi.comparison_profiles(
                "negative", traj.delta_phi, traj.h_dot_v, traj.n, traj.m,
                k1=K, k2=K, r=float(r))
        rep = jacobi.trace_comparison_check(traj, profile)
    except tuple(FLAG_REASONS) as exc:
        stats["flagged_atoms"] += 1
        stats[FLAG_REASONS[type(exc)]] += 1
        return
    stats["evaluated_atoms"] += 1
    _fold(stats, trq1_excess_max=rep.worst_trq1_excess,
          trq3_excess_max=rep.worst_trq3_excess)
    if "jacobi_profile" not in ctx.report.series:
        i0 = traj.trim_index
        t = traj.times[i0:]
        ctx.report.series["jacobi_profile"] = {
            "t": t.tolist(),
            "det_p": traj.det_p[i0:].tolist(),
            "det_envelope": np.asarray(profile.det_envelope(t)).tolist(),
            "trq1": traj.trq1[i0:].tolist(),
            "trq1_bound": np.asarray(profile.trq1_bound(t)).tolist(),
            "trq3": traj.trq3[i0:].tolist(),
            "trq3_bound": np.asarray(profile.trq3_bound(t)).tolist(),
        }


def _ibp(ctx):
    r_bound = float(ctx.atom_distances.max())
    margin, lhs, rhs = inequalities.integration_by_parts_check(
        ctx.mesh, ctx.f, ctx.hess_phi, r_bound)
    return {"passed": bool(margin >= 0.0), "margin": margin, "lhs": lhs,
            "rhs": rhs, "r_bound": r_bound}


def _inequality(ctx):
    """Both sides of the configured inequality; the full record goes to
    ``report.inequality``."""
    rep = inequalities.evaluate_inequality(
        ctx.M, ctx.mesh, ctx.f, ctx.config.inequality_variant,
        dict(ctx.config.domain_params), domain=ctx.domain)
    ctx.report.inequality = {
        "variant": rep.variant, "lhs": rep.lhs, "rhs": rep.rhs,
        "ratio": rep.ratio, "passed": bool(rep.passed),
        "terms": rep.terms, "constants": rep.constants,
        "volume": rep.volume, "volume_stderr": rep.volume_stderr,
        "volume_provenance": rep.volume_provenance,
        "report_tol": rep.report_tol,
    }
    return {"passed": bool(rep.passed), "ratio": rep.ratio}


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
        mesh = submanifold.build_submanifold(M, chart, config.resolution)
    except (UnsupportedChartError, ResolutionTooCoarseError) as exc:
        raise ConfigError(f"submanifold: {exc}") from exc
    if mesh.m == 1:
        M, mesh = inequalities.hypersurface_lift(M, mesh)
    try:
        if config.field_kind == "constant":
            f = constant_field(mesh, float(config.field_spec))
        else:
            f = field_from_expression(mesh, config.field_spec)
    except ValueError as exc:  # not a number, or not positive on the mesh
        raise ConfigError(f"field: {exc}") from exc
    report.stage_seconds["mesh"] = clock() - t

    domain = None
    if config.domain_variant is not None:
        t = clock()
        domain = inequalities.build_target_domain(
            M, mesh, config.domain_variant, config.domain_params,
            config.domain_samples, config.seed)
        report.stage_seconds["domain"] = clock() - t

    coupling = None
    if config.needs_transport():
        t = clock()
        mu = transport.source_measure(mesh, f)
        nu = transport.target_measure(domain.points)
        C = transport.cost_matrix(M, mu, nu)
        if config.solver == "exact":
            coupling = transport.solve_exact(mu, nu, C)
        else:
            eps_reg = config.eps_reg
            if eps_reg is None:
                eps_reg = 5e-3 * float(C.mean())
            coupling = transport.solve_entropic(mu, nu, C, eps_reg)
        report.stage_seconds["transport"] = clock() - t

    ctx = RunContext(config, M, mesh, f, domain, coupling, report)
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
