"""Scenario orchestration: mesh -> domain -> transport -> Jacobi checks
-> inequality report.

Configs are line-oriented INI files; every random draw derives from the
scenario seed, so a fixed (config, seed) pair yields identical reports.
"""

from __future__ import annotations

import configparser
import math
import time
from dataclasses import dataclass, field
from typing import Optional

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
from .fields import constant_field, field_from_expression
from .geometry import ModelManifold

CHECK_NAMES = ("tangency", "fiber_mass", "semiconcavity", "jacobi", "ibp",
               "inequality")
# the [domain] keys each target-domain variant reads
DOMAIN_KEYS = {inequalities.ANNULUS: ("sigma", "r"),
               inequalities.COMPLEMENT_OF_TUBE: ("eps",),
               inequalities.GEODESIC_BALL: ("r",),
               inequalities.WHOLE_MANIFOLD: ()}


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    manifold_variant: str
    curvature: float
    ambient_dim: int
    lift: bool
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
    size_cap: tuple
    checks: dict
    inequality_variant: Optional[str]
    jacobi_steps: int
    jacobi_atoms: int
    raw: dict  # config echo for the report

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        cp = configparser.ConfigParser()
        read = cp.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        try:
            return cls._from_parser(cp)
        except (configparser.Error, KeyError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def _from_parser(cls, cp) -> "ScenarioConfig":
        def need(section, key):
            if not cp.has_option(section, key):
                raise ConfigError(f"missing required field {section}.{key}")
            return cp.get(section, key)

        name = need("scenario", "name")
        seed = int(need("scenario", "seed"))
        variant = need("manifold", "variant")
        if variant not in (geometry.EUCLIDEAN, geometry.SPHERE,
                           geometry.HYPERBOLIC):
            raise ConfigError(f"manifold.variant: unknown variant {variant!r}")
        curvature = cp.getfloat("manifold", "curvature", fallback={
            geometry.EUCLIDEAN: 0.0, geometry.SPHERE: 1.0,
            geometry.HYPERBOLIC: -1.0}[variant])
        ambient_dim = cp.getint("manifold", "ambient_dim")
        lift = cp.getboolean("manifold", "lift", fallback=False)

        chart = need("submanifold", "chart")
        if chart not in submanifold.CHARTS:
            raise ConfigError(f"submanifold.chart: unknown chart {chart!r}")
        try:
            chart_params = submanifold.parse_chart_params(
                chart, dict(cp.items("submanifold")), ambient_dim)
        except KeyError as exc:
            raise ConfigError(
                f"missing required field submanifold.{exc.args[0]}") from exc
        resolution = cp.getint("submanifold", "resolution")

        field_kind = cp.get("field", "kind", fallback="constant")
        if field_kind == "constant":
            field_spec = cp.get("field", "value", fallback="1.0")
        elif field_kind == "expression":
            field_spec = need("field", "expression")
        else:
            raise ConfigError(f"field.kind: unknown kind {field_kind!r}")

        domain_variant = None
        domain_params = {}
        domain_samples = 0
        if cp.has_section("domain"):
            domain_variant = need("domain", "variant")
            if domain_variant not in DOMAIN_KEYS:
                raise ConfigError(
                    f"domain.variant: unknown variant {domain_variant!r}")
            domain_samples = cp.getint("domain", "samples", fallback=1000)
            for key in ("sigma", "r", "eps"):
                if cp.has_option("domain", key):
                    domain_params[key] = cp.getfloat("domain", key)

        solver = cp.get("solver", "method", fallback="exact")
        if solver not in ("exact", "entropic"):
            raise ConfigError(f"solver.method: unknown method {solver!r}")
        eps_reg = cp.getfloat("solver", "eps_reg", fallback=None) \
            if cp.has_option("solver", "eps_reg") else None
        size_cap = (cp.getint("solver", "max_sources",
                              fallback=transport.EXACT_SIZE_CAP[0]),
                    cp.getint("solver", "max_targets",
                              fallback=transport.EXACT_SIZE_CAP[1]))

        checks = {}
        for key in CHECK_NAMES:
            if key == "inequality":
                continue
            checks[key] = cp.getboolean("checks", key, fallback=False)
        inequality_variant = cp.get("checks", "inequality", fallback="none")
        if inequality_variant in ("none", ""):
            inequality_variant = None
        elif inequality_variant not in (
                inequalities.NONNEG_LIMIT, inequalities.NONNEG_FINITE,
                inequalities.CLOSED_POSITIVE, inequalities.POSITIVE_TUBE,
                inequalities.NEGATIVE_LOCAL):
            raise ConfigError(
                f"checks.inequality: unknown variant {inequality_variant!r}")
        checks["inequality"] = inequality_variant is not None

        jacobi_steps = cp.getint("jacobi", "steps", fallback=1000) \
            if cp.has_section("jacobi") else 1000
        jacobi_atoms = cp.getint("jacobi", "atoms", fallback=200) \
            if cp.has_section("jacobi") else 200

        raw = {s: dict(cp.items(s)) for s in cp.sections()}
        config = cls(name, seed, variant, curvature, ambient_dim, lift,
                     chart, chart_params, resolution, field_kind, field_spec,
                     domain_variant, domain_params, domain_samples,
                     solver, eps_reg, size_cap, checks, inequality_variant,
                     jacobi_steps, jacobi_atoms, raw)
        config.validate()
        return config

    def validate(self) -> None:
        """Raise ConfigError for values a run would die on: a curvature
        of the wrong sign for the manifold variant, a [domain] key its
        variant needs, sigma outside (0, 1), fewer than 100 Jacobi steps
        or no Jacobi atom.  Runs on load and after each sweep override."""
        rule, holds = {geometry.EUCLIDEAN: ("= 0", lambda K: K == 0),
                       geometry.SPHERE: ("> 0", lambda K: K > 0),
                       geometry.HYPERBOLIC: ("< 0", lambda K: K < 0),
                       }[self.manifold_variant]
        if not holds(self.curvature):
            raise ConfigError(f"manifold.curvature: {self.manifold_variant} "
                              f"requires K {rule}, got {self.curvature}")
        for key in DOMAIN_KEYS.get(self.domain_variant, ()):
            if key not in self.domain_params:
                raise ConfigError(f"missing required field domain.{key}")
        sigma = self.domain_params.get("sigma")
        if sigma is not None and not 0 < sigma < 1:
            raise ConfigError(f"domain.sigma: value {sigma} outside (0, 1)")
        if self.jacobi_steps < 100:
            raise ConfigError(
                f"jacobi.steps: {self.jacobi_steps} is below 100")
        if self.jacobi_atoms < 1:
            raise ConfigError(f"jacobi.atoms: {self.jacobi_atoms} is below 1")

    def needs_transport(self) -> bool:
        return any(self.checks.get(k) for k in
                   ("tangency", "fiber_mass", "semiconcavity", "jacobi",
                    "ibp"))

    def build_manifold(self) -> ModelManifold:
        if self.manifold_variant == geometry.EUCLIDEAN:
            return geometry.euclidean(self.ambient_dim)
        if self.manifold_variant == geometry.SPHERE:
            return geometry.sphere(self.ambient_dim, self.curvature)
        return geometry.hyperbolic(self.ambient_dim, self.curvature)


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


def _choose_atoms(coupling, limit):
    """Deterministic atom selection: heaviest first, ties by index."""
    ii, jj, mm = coupling.atoms()
    order = np.lexsort((jj, ii, -mm))
    return ii[order][:limit], jj[order][:limit], mm[order][:limit]


# Atoms the Jacobi stage propagates together: stacking spreads the
# per-step Python work of RK4 over the chunk, and the bound keeps the
# stacked (atoms, steps + 1, d, d) trajectories of one chunk at a few MB.
JACOBI_CHUNK = 16


def _jacobi_stage(config, M, mesh, coupling, grad_phi, hess_phi,
                  report: RunReport):
    ii, jj, _ = _choose_atoms(coupling, config.jacobi_atoms)
    hn = mesh.mean_curvature_normal_components()
    nf = mesh._metric_frames(mesh.normal_frames)
    stats = {
        "atom_count": int(len(ii)),
        "sym_residual_max": 0.0,
        "q_sym_residual_max": 0.0,
        "riccati_residual_max": 0.0,
        "mono_worst_increase": 0.0,
        "mono_failures": 0,
        "bound_margin_min": math.inf,
        "lap_margin_min": math.inf,
        "normalization_worst": 0.0,
        "trq1_excess_max": -math.inf,
        "trq3_excess_max": -math.inf,
        "singular_atoms": 0,
        "flagged_atoms": 0,
    }
    first_series = None
    for start in range(0, len(ii), JACOBI_CHUNK):
        chunk = slice(start, start + JACOBI_CHUNK)
        series = _jacobi_chunk(config, M, mesh, coupling, grad_phi, hess_phi,
                               hn, nf, ii[chunk], jj[chunk], stats,
                               want_series=first_series is None)
        if first_series is None:
            first_series = series
    for k in ("bound_margin_min", "lap_margin_min"):
        if not math.isfinite(stats[k]):
            stats[k] = 0.0
    for k in ("trq1_excess_max", "trq3_excess_max"):
        if not math.isfinite(stats[k]):
            stats[k] = 0.0
    passed = (stats["sym_residual_max"] <= 1e-8
              and stats["riccati_residual_max"] <= 1e-6
              and stats["mono_failures"] == 0
              and stats["singular_atoms"] == 0
              and stats["bound_margin_min"] >= 0.0
              and stats["lap_margin_min"] >= -jacobi.LAP_SLACK_FACTOR * mesh.n)
    report.checks["jacobi"] = {"passed": bool(passed), **stats}
    if first_series is not None:
        report.series["jacobi_profile"] = first_series
    if not passed:
        report.warnings.append("jacobi")


def _jacobi_chunk(config, M, mesh, coupling, grad_phi, hess_phi, hn, nf,
                  ii, jj, stats, want_series):
    """Propagate the atoms (ii, jj) together and fold their checks into
    ``stats``; ``hn``/``nf`` are the mesh's normal components of H and
    metric-paired normal frames.  Returns the plot series of the first
    evaluated atom if ``want_series``.  The stacked trajectories are
    freed on return."""
    frames, P0, P0p, dphi, hdv, logs = [], [], [], [], [], []
    for i, j in zip(ii.tolist(), jj.tolist()):
        x = mesh.points[i]
        zeta = coupling.target.points[j]
        u = geometry.log_map(M, x, zeta)
        frames.append(geometry.build_parallel_frame(
            M, x, u, list(mesh.tangent_frames[i]),
            list(mesh.normal_frames[i]), samples=2))
        v_norm = nf[i] @ u
        p0, p0p = jacobi.initial_conditions(mesh, i, v_norm, hess_phi[i],
                                            grad_phi[i])
        P0.append(p0)
        P0p.append(p0p)
        dphi.append(float(np.trace(hess_phi[i])))
        hdv.append(float(hn[i] @ v_norm))
        logs.append(u)
    trajs = jacobi.propagate_atoms(M, frames, np.stack(P0), np.stack(P0p),
                                   dphi, hdv, steps=config.jacobi_steps)
    K = M.curvature
    mono_applies = K >= 0.0
    neg_r = config.domain_params.get("r")
    series = None
    for traj, u in zip(trajs, logs):
        if traj is None:
            stats["singular_atoms"] += 1
            continue
        riccati = jacobi.riccati_residual(traj)
        stats["sym_residual_max"] = max(stats["sym_residual_max"],
                                        traj.symmetry_residual())
        stats["q_sym_residual_max"] = max(stats["q_sym_residual_max"],
                                          traj.q_symmetry_residual())
        stats["riccati_residual_max"] = max(stats["riccati_residual_max"],
                                            riccati)
        stats["lap_margin_min"] = min(stats["lap_margin_min"],
                                      jacobi.lap_lower_bound_check(traj))
        if mono_applies:
            try:
                tw, prof, mono, worst = jacobi.monotonicity_profile(traj)
                stats["mono_worst_increase"] = max(
                    stats["mono_worst_increase"], worst)
                if not mono:
                    stats["mono_failures"] += 1
                margin, bound, det1 = jacobi.jacobian_bound_check(traj)
                stats["bound_margin_min"] = min(stats["bound_margin_min"],
                                                margin)
                first, limit = jacobi.normalization_limit(traj)
                stats["normalization_worst"] = max(
                    stats["normalization_worst"], abs(limit - 1.0))
            except (DenominatorVanishesError, NormalizationDriftError):
                stats["flagged_atoms"] += 1
                continue
            profile = jacobi.comparison_profiles(
                "nonneg", traj.delta_phi, traj.h_dot_v, traj.n, traj.m)
        else:
            r = neg_r if neg_r is not None else 2.0 * math.sqrt(
                geometry.metric_inner(M, u, u))
            try:
                profile = jacobi.comparison_profiles(
                    "negative", traj.delta_phi, traj.h_dot_v, traj.n, traj.m,
                    k1=K, k2=K, r=float(r))
            except ArgOutOfDomainError:
                stats["flagged_atoms"] += 1
                continue
        try:
            rep = jacobi.trace_comparison_check(traj, profile,
                                                riccati=riccati)
        except (DenominatorVanishesError, ArgOutOfDomainError):
            stats["flagged_atoms"] += 1
            continue
        stats["trq1_excess_max"] = max(stats["trq1_excess_max"],
                                       rep.worst_trq1_excess)
        stats["trq3_excess_max"] = max(stats["trq3_excess_max"],
                                       rep.worst_trq3_excess)
        if want_series and series is None:
            i0 = traj.trim_index
            t = traj.times[i0:]
            series = {
                "t": t.tolist(),
                "det_p": traj.det_p[i0:].tolist(),
                "det_envelope": np.asarray(
                    profile.det_envelope(t)).tolist(),
                "trq1": traj.trq1[i0:].tolist(),
                "trq1_bound": np.asarray(profile.trq1_bound(t)).tolist(),
                "trq3": traj.trq3[i0:].tolist(),
                "trq3_bound": np.asarray(profile.trq3_bound(t)).tolist(),
            }
    return series


def run_scenario(config: ScenarioConfig, strict: bool = False) -> RunReport:
    """Execute the full pipeline for one scenario configuration."""
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
        if not config.lift:
            raise ConfigError("manifold.lift: codimension-1 submanifolds "
                              "require lift = true")
        M, mesh = inequalities.hypersurface_lift(M, mesh)
    if config.field_kind == "constant":
        f = constant_field(mesh, float(config.field_spec))
    else:
        f = field_from_expression(mesh, config.field_spec)
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
        if domain is None:
            raise ConfigError("domain: transport checks need a [domain] "
                              "section")
        t = clock()
        mu = transport.source_measure(mesh, f)
        nu = transport.target_measure(domain.points)
        C = transport.cost_matrix(M, mu, nu)
        if config.solver == "exact":
            coupling = transport.solve_exact(mu, nu, C, config.size_cap)
        else:
            eps_reg = config.eps_reg
            if eps_reg is None:
                eps_reg = 5e-3 * float(C.mean())
            coupling = transport.solve_entropic(mu, nu, C, eps_reg)
        if config.solver == "exact":
            cert_tol = 1e-8
        else:
            # entropic support violations scale like reg * log(mass / floor)
            cert_tol = 50.0 * coupling.reg * math.log(
                max(mu.size * nu.size, 2))
        cert = transport.certify_support(coupling, tol=cert_tol)
        mres = coupling.marginal_residual()
        report.checks["certification"] = {
            "passed": bool(cert.passed and coupling.converged),
            "worst_violation": cert.worst_violation,
            "atom_count": cert.atom_count,
            "marginal_residual_source": mres[0],
            "marginal_residual_target": mres[1],
            "cost": coupling.cost,
            "duality_gap": coupling.duality_gap,
            "solver": coupling.solver,
        }
        if not (cert.passed and coupling.converged):
            report.theorem_failures.append("certification")
        report.stage_seconds["transport"] = clock() - t

    grad_phi = hess_phi = tangency = None
    if coupling is not None:
        t = clock()
        ii, jj, _ = coupling.atoms()
        dist = geometry.distance(M, mesh.points[ii],
                                 coupling.target.points[jj])
        per_node_max = np.zeros(mesh.node_count)
        np.maximum.at(per_node_max, ii, dist)
        per_node_max[per_node_max == 0] = dist.max()
        grad_phi, cap_flags = transport.potential_gradient_on_sigma(
            mesh, coupling.phi_cc, per_node_max)
        hess_phi = submanifold.lsq_hessian(mesh, coupling.phi_cc)
        tangency = transport.tangency_residuals(M, mesh, coupling, grad_phi)
        report.stage_seconds["potential"] = clock() - t

    if config.checks.get("tangency"):
        st = tangency.stats
        report.checks["tangency"] = {
            "passed": True, "median": st["median"], "p90": st["p90"],
            "max": st["max"], "atom_count": st["atom_count"],
            "capped_nodes": int(cap_flags.sum()),
        }

    if config.checks.get("fiber_mass"):
        envelope = None
        if config.domain_variant == inequalities.ANNULUS:
            sigma = config.domain_params["sigma"]
            r = config.domain_params["r"]
            # wider stencil: the discrete potential is piecewise smooth, so
            # the envelope Laplacian must average over several kink cells
            lap = np.einsum("naa->n", submanifold.lsq_hessian(
                mesh, coupling.phi_cc, stencil_radius=4.0))
            hnorm = np.sqrt(np.maximum(geometry.metric_inner(
                M, mesh.mean_curvature, mesh.mean_curvature), 0.0))
            n = mesh.n
            envelope = mesh.weights * (
                1.0 - lap / n + hnorm * r / n) ** n \
                * 0.5 * mesh.m * geometry.ball_volume(mesh.m) \
                * r**mesh.m * (1.0 - sigma**2)
        fm = transport.fiber_mass_residual(
            coupling,
            domain_volume=None if domain is None else domain.volume,
            envelope=envelope)
        rec = {"passed": bool(fm.marginal_residual.max() <= 1e-6),
               "marginal_residual_max": float(fm.marginal_residual.max())}
        if fm.envelope_ok is not None:
            rec["envelope_ok"] = bool(fm.envelope_ok)
            rec["passed"] = rec["passed"] and bool(fm.envelope_ok)
        report.checks["fiber_mass"] = rec
        if not rec["passed"]:
            report.warnings.append("fiber_mass")

    if config.checks.get("semiconcavity"):
        sc = transport.semiconcavity_check(M, mesh, coupling.phi_cc, coupling,
                                           slack=0.5)
        report.checks["semiconcavity"] = {
            "passed": bool(sc.passed), "worst_margin": sc.worst_margin}
        if not sc.passed:
            report.warnings.append("semiconcavity")

    if config.checks.get("jacobi"):
        t = clock()
        _jacobi_stage(config, M, mesh, coupling, grad_phi, hess_phi, report)
        report.stage_seconds["jacobi"] = clock() - t

    if config.checks.get("ibp"):
        ii, jj, _ = coupling.atoms()
        r_bound = float(geometry.distance(
            M, mesh.points[ii], coupling.target.points[jj]).max())
        margin, lhs, rhs = inequalities.integration_by_parts_check(
            mesh, f, coupling.phi_cc, r_bound)
        report.checks["ibp"] = {"passed": bool(margin >= 0.0),
                                "margin": margin, "lhs": lhs, "rhs": rhs,
                                "r_bound": r_bound}
        if margin < 0.0:
            report.warnings.append("ibp")

    if config.inequality_variant is not None:
        t = clock()
        rep = inequalities.evaluate_inequality(
            M, mesh, f, config.inequality_variant,
            dict(config.domain_params), domain=domain)
        report.inequality = {
            "variant": rep.variant, "lhs": rep.lhs, "rhs": rep.rhs,
            "ratio": rep.ratio, "passed": bool(rep.passed),
            "terms": rep.terms, "constants": rep.constants,
            "volume": rep.volume, "volume_stderr": rep.volume_stderr,
            "volume_provenance": rep.volume_provenance,
            "report_tol": rep.report_tol,
        }
        report.checks["inequality"] = {"passed": bool(rep.passed),
                                       "ratio": rep.ratio}
        if not rep.passed:
            report.theorem_failures.append("inequality")
        report.stage_seconds["inequality"] = clock() - t

    if strict and report.warnings:
        report.theorem_failures.extend(
            w for w in report.warnings if w not in report.theorem_failures)
    return report
