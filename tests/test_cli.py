"""Command-line front end: exit codes, report files, determinism."""

import collections
import csv
import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from otsobolev import cli, geometry, inequalities, submanifold, transport
from otsobolev.pipeline import ScenarioConfig, run_scenario

TINY_CFG = """\
[scenario]
name = tiny
seed = 123

[manifold]
variant = euclidean
ambient_dim = 4

[submanifold]
chart = flat_disk
radius = 1.0
resolution = 10

[field]
kind = constant
value = 1.0

[checks]
inequality = nonneg_limit
"""


BALL_CFG = cli.bundled_scenario_path("sphere_ball_closed.cfg")
ANNULUS_CFG = cli.bundled_scenario_path("flat_disk_annulus.cfg")


def small_annulus(tmp_path):
    """flat_disk_annulus shrunk to a run of about a second."""
    text = Path(ANNULUS_CFG).read_text()
    for old, new in (("resolution = 11", "resolution = 6"),
                     ("samples = 1000", "samples = 150"),
                     ("atoms = 250", "atoms = 4")):
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "small_annulus.cfg"
    path.write_text(text)
    return str(path)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


# an inequality on a manifold it does not hold on, or without the
# [domain] variant it reads
INEQUALITY_MISMATCHES = [
    ("sphere_tube_005",
     "[domain]\nvariant = complement_of_tube\neps = 0.05\n",
     "", "checks.inequality"),
    ("sphere_tube_005", "inequality = positive_tube",
     "inequality = nonneg_finite", "checks.inequality"),
    ("flat_disk_sharp", "inequality = nonneg_limit",
     "inequality = negative_local", "checks.inequality"),
    ("sphere_ball_closed", "inequality = closed_positive",
     "inequality = nonneg_limit", "checks.inequality"),
    ("flat_disk_annulus", "variant = annulus_around_sigma",
     "variant = complement_of_tube\neps = 0.1", "checks.inequality"),
]


# a [domain] variant on a manifold it is not built for, or around a
# lifted hypersurface, with no inequality that reads it: a transport
# check reads the domain
DOMAIN_MISMATCHES = [
    ("sphere_tube_005",
     ("variant = complement_of_tube\neps = 0.05", "inequality = positive_tube"),
     ("variant = annulus_around_sigma\nsigma = 0.5\nr = 1.0",
      "inequality = none\ntangency = true"), "domain.variant"),
    ("flat_disk_annulus",
     ("variant = annulus_around_sigma", "inequality = nonneg_finite"),
     ("variant = geodesic_ball", "inequality = none"), "domain.variant"),
    ("flat_disk_sharp", "[checks]",
     "[domain]\nvariant = complement_of_tube\neps = 0.1\n\n[checks]\n"
     "tangency = true", "domain.variant"),
    ("flat_disk_sharp", "[checks]",
     "[domain]\nvariant = whole_manifold\n\n[checks]\ntangency = true",
     "domain.variant"),
    ("flat_disk_annulus", ("ambient_dim = 4", "inequality = nonneg_finite"),
     ("ambient_dim = 3", "inequality = none"), "domain.variant"),
]


# fiber_mass on a [domain] variant without its envelope
FIBER_MASS_MISMATCHES = [
    ("sphere_transport", "tangency = true",
     "tangency = true\nfiber_mass = true", "checks.fiber_mass"),
    ("hyperbolic_disk_r1", "tangency = true",
     "tangency = true\nfiber_mass = true", "checks.fiber_mass"),
]


# a key the config does not read: a misspelt key or section, a [domain]
# key its variant does not read, samples where no targets are drawn, or
# [domain] where no check reads the domain
UNREAD_KEYS = [
    ("flat_disk_sharp", "inequality = nonneg_limit",
     "inequality = nonneg_limit\nfiber_mas = true", "checks.fiber_mas"),
    ("flat_disk_sharp", "[checks]", "[jacobi]\nstep = 50\n\n[checks]",
     "jacobi.step"),
    ("flat_disk_sharp", "[checks]", "[solvr]\nmethod = entropic\n\n[checks]",
     "solvr.method"),
    ("hyperbolic_disk_r2", "r = 2.0", "r = 2.0\nsigma = 0.5", "domain.sigma"),
    # the step count of the Jacobi grid is fixed (jacobi.STEPS); a config
    # that still sets it is told so
    ("flat_disk_annulus", "atoms = 250", "atoms = 250\nsteps = 1000",
     "jacobi.steps"),
    ("sphere_tube_005", "eps = 0.05", "eps = 0.05\nsamples = 1000",
     "domain.samples"),
    ("sphere_ball_closed", "[checks]",
     "[domain]\nvariant = whole_manifold\n\n[checks]", "domain.variant"),
    # keys with no effect on the run: eps_reg without the entropic
    # solver, [jacobi] without the jacobi check, lift, which a
    # hypersurface (ambient_dim = 3) no longer needs, and codim, which a
    # disk chart takes from ambient_dim
    ("flat_disk_annulus", "method = exact", "method = exact\neps_reg = 0.01",
     "solver.eps_reg"),
    ("flat_disk_sharp", "[checks]", "[jacobi]\natoms = 50\n\n[checks]",
     "jacobi.atoms"),
    ("flat_disk_sharp", "ambient_dim = 4", "ambient_dim = 3\nlift = true",
     "manifold.lift"),
    ("flat_disk_sharp", "radius = 1.0", "radius = 1.0\ncodim = 2",
     "submanifold.codim"),
]


def mutated(tmp_path, scenario, old, new):
    """The bundled config with ``old`` replaced by ``new`` (or each of a
    tuple of replacements in turn)."""
    text = Path(cli.bundled_scenario_path(f"{scenario}.cfg")).read_text()
    if isinstance(old, str):
        old, new = (old,), (new,)
    for o, n in zip(old, new):
        assert o in text
        text = text.replace(o, n)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    return str(cfg)


class TestRunCommand:
    def test_pass_exit_zero_and_summary(self, runner, tiny_cfg, tmp_path):
        out = tmp_path / "rep"
        res = runner.invoke(cli.main, ["run", tiny_cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "[PASS] inequality" in res.output
        assert "ratio = 1.000000" in res.output
        assert (out / "tiny.jsonl").exists()

    def test_hypersurface_runs_lifted_into_r4(self, runner, tmp_path):
        """ambient_dim = 3 is a surface of R^3, run in R^4: the lifted
        flat disk is sharp for nonneg_limit."""
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG.replace("ambient_dim = 4", "ambient_dim = 3"))
        res = runner.invoke(cli.main, ["run", str(cfg),
                                       "--out", str(tmp_path / "rep")])
        assert res.exit_code == 0, res.output
        assert "ratio = 1.000000" in res.output

    @pytest.mark.parametrize("chart", [
        "chart = flat_disk",
        # a graph whose mean-curvature trace is negative
        "chart = graph_over_disk\nheight = -(u1**2 + 2 * u2**2) / 3 + u1 / 5",
    ], ids=["flat_disk", "graph_over_disk"])
    def test_hypersurface_records_equal_the_r4_twin(self, tmp_path, chart):
        """ambient_dim = 3 builds its surface in R^4: every record but the
        config echo equals that of the ambient_dim = 4 twin."""
        records = []
        for dim in (3, 4):
            cfg = tmp_path / f"twin{dim}.cfg"
            cfg.write_text(TINY_CFG.replace("chart = flat_disk", chart)
                           .replace("ambient_dim = 4", f"ambient_dim = {dim}"))
            report = run_scenario(ScenarioConfig.load(cfg))
            records.append([json.dumps(r, sort_keys=True)
                            for r in report.records()])
        assert records[0][0] != records[1][0]
        assert records[0][1:] == records[1][1:]

    def test_jsonl_structure(self, runner, tiny_cfg, tmp_path):
        out = tmp_path / "rep"
        runner.invoke(cli.main, ["run", tiny_cfg, "--out", str(out)])
        recs = [json.loads(line)
                for line in (out / "tiny.jsonl").read_text().splitlines()]
        kinds = [r["record"] for r in recs]
        assert kinds[0] == "config" and kinds[-1] == "verdict"
        assert "inequality" in kinds
        cfg = recs[0]
        assert cfg["seed"] == 123
        verdict = recs[-1]
        assert verdict["theorem_failures"] == []

    def test_reports_byte_identical_per_seed(self, runner, tiny_cfg,
                                             tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            res = runner.invoke(cli.main,
                                ["run", tiny_cfg, "--out", str(out)])
            assert res.exit_code == 0
            outs.append((out / "tiny.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override(self, runner, tiny_cfg, tmp_path):
        out = tmp_path / "rep"
        runner.invoke(cli.main, ["run", tiny_cfg, "--out", str(out),
                                 "--seed", "999"])
        first = json.loads((out / "tiny.jsonl").read_text().splitlines()[0])
        assert first["seed"] == 999

    def test_csv_format(self, runner, tiny_cfg, tmp_path):
        out = tmp_path / "rep"
        res = runner.invoke(cli.main, ["run", tiny_cfg, "--out", str(out),
                                       "--format", "csv"])
        assert res.exit_code == 0
        with open(out / "tiny_terms.csv", newline="") as fh:
            rows = {r[0]: r[1] for r in csv.reader(fh)}
        assert rows["variant"] == "nonneg_limit"
        assert float(rows["ratio"]) == pytest.approx(1.0, abs=1e-9)
        assert (out / "tiny_checks.csv").exists()

    def test_missing_required_field_exit_two(self, runner, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CFG.replace("name = tiny\n", ""))
        res = runner.invoke(cli.main, ["run", str(bad)])
        assert res.exit_code == 2
        assert "scenario.name" in res.output

    def test_sigma_out_of_range_names_the_field(self, runner, tmp_path):
        cfg = tmp_path / "bad_sigma.cfg"
        cfg.write_text(TINY_CFG.replace(
            "[checks]\ninequality = nonneg_limit\n",
            "[domain]\nvariant = annulus_around_sigma\nsigma = 1.5\n"
            "r = 6.0\nsamples = 100\n\n"
            "[checks]\ninequality = nonneg_finite\n"))
        res = runner.invoke(cli.main, ["run", str(cfg)])
        assert res.exit_code == 2
        assert "domain.sigma" in res.output

    def test_unknown_chart_exit_two(self, runner, tmp_path):
        cfg = tmp_path / "bad_chart.cfg"
        cfg.write_text(TINY_CFG.replace("chart = flat_disk",
                                        "chart = moebius_strip"))
        res = runner.invoke(cli.main, ["run", str(cfg)])
        assert res.exit_code == 2
        assert "chart" in res.output

    @pytest.mark.parametrize("old, new", [
        ("resolution = 24", "resolution = 0"),
        ("resolution = 24", "resolution = -3"),
        ("resolution = 24", "resolution = 1"),
        ("chart = sphere_geodesic_ball", "chart = flat_disk"),
        ("radius = 1.5707963267948966", "radius = 4.0"),
        ("chart = sphere_geodesic_ball", "chart = equatorial_subsphere"),
    ])
    def test_bad_chart_exit_two(self, runner, tmp_path, old, new):
        """Chart/manifold mismatches and bad resolutions are config errors."""
        text = Path(BALL_CFG).read_text()
        assert old in text
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace(old, new))
        res = runner.invoke(cli.main, ["run", str(cfg),
                                       "--out", str(tmp_path / "rep")])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "config error" in res.output

    @pytest.mark.parametrize("scenario, old, new, named", [
        ("flat_disk_annulus", "atoms = 250", "atoms = -1", "jacobi.atoms"),
        ("flat_disk_annulus", "atoms = 250", "atoms = 0", "jacobi.atoms"),
        ("sphere_ball_closed", "curvature = 1.0", "curvature = -1.0",
         "manifold.curvature"),
        ("hyperbolic_disk_r2", "curvature = -1.0", "curvature = 1.0",
         "manifold.curvature"),
        ("flat_disk_annulus", "variant = euclidean",
         "variant = euclidean\ncurvature = 0.5", "manifold.curvature"),
        ("flat_disk_annulus", "r = 6.0\n", "", "domain.r"),
        ("flat_disk_annulus", "sigma = 0.6\n", "", "domain.sigma"),
        ("sphere_tube_005", "eps = 0.05\n", "", "domain.eps"),
        ("hyperbolic_disk_r2", "r = 2.0\n", "", "domain.r"),
        ("sphere_ball_closed", "seed = 20240604", "seed = -1",
         "scenario.seed"),
        ("flat_disk_sharp", "ambient_dim = 4", "ambient_dim = 0",
         "manifold.ambient_dim"),
        ("flat_disk_sharp", "value = 1.0", "value = 0", "field"),
        ("flat_disk_sharp", "value = 1.0", "value = abc", "field"),
        ("flat_graph", "expression = 1 + u1 * u2 / 4", "expression = -1",
         "field"),
        ("flat_disk_annulus", "samples = 1000", "samples = 0",
         "domain.samples"),
        ("hyperbolic_disk_r2", "r = 2.0", "r = 0", "domain.r"),
        ("sphere_tube_005", "eps = 0.05", "eps = -1", "domain.eps"),
    ] + INEQUALITY_MISMATCHES + DOMAIN_MISMATCHES + FIBER_MASS_MISMATCHES + [
        ("flat_disk_annulus", "atoms = 250", "atoms = many", "jacobi.atoms"),
        ("flat_disk_annulus", "jacobi = true", "jacobi = maybe",
         "checks.jacobi"),
        ("sphere_ball_closed", "radius = 1.5707963267948966",
         "radius = wide", "submanifold.radius"),
    ] + UNREAD_KEYS + [
        # only a hypersurface of Euclidean space lifts into R^4
        ("sphere_ball_closed", "ambient_dim = 4", "ambient_dim = 3",
         "manifold.ambient_dim"),
        ("hyperbolic_disk_r2", "ambient_dim = 4", "ambient_dim = 3",
         "manifold.ambient_dim"),
        # a regularization the Sinkhorn solver cannot run at
        *(("flat_disk_annulus", "method = exact",
           f"method = entropic\neps_reg = {value}", "solver.eps_reg")
          for value in ("-1", "0", "nan", "inf")),
        # non-finite floats, in the chart, the field and the domain
        ("flat_disk_sharp", "radius = 1.0", "radius = inf",
         "submanifold.radius"),
        ("flat_disk_sharp", "value = 1.0", "value = inf", "field"),
        ("hyperbolic_disk_r2", "r = 2.0", "r = inf", "domain.r"),
        ("sphere_tube_005", "eps = 0.05", "eps = inf", "domain.eps"),
        # finite values whose model-space constants overflow: the
        # geodesic ball's (R sinh(r / R))^(d-1), at unit and at tiny
        # |K|, and the sphere's volume
        ("hyperbolic_disk_r2", "r = 2.0", "r = 1e308", "domain.r"),
        ("hyperbolic_disk_r2", ("curvature = -1.0", "r = 2.0"),
         ("curvature = -1e-300", "r = 1e152"), "domain.r"),
        ("sphere_ball_closed", "curvature = 1.0", "curvature = 1e-300",
         "manifold.curvature"),
        # mesh weights that underflow to 0 (a run would pass on a zero
        # LHS, or die normalizing the barycenter) or overflow
        ("flat_disk_sharp", "radius = 1.0", "radius = 1e-200",
         "submanifold.radius"),
        ("sphere_ball_closed", "radius = 1.5707963267948966",
         "radius = 1e-300", "submanifold.radius"),
        ("flat_disk_sharp", "radius = 1.0", "radius = 1e200",
         "submanifold.radius"),
        ("flat_disk_annulus", "radius = 1.0", "radius = 1e-200",
         "submanifold.radius"),
        # an OverflowError in the boundary length of a geodesic disk (the
        # inequality and the [domain] it reads dropped: a disk that wide
        # leaves the r/2 ball of negative_local) and in the volume of the
        # annulus shell
        ("hyperbolic_disk_r2",
         ("radius = 0.5", "[domain]\nvariant = geodesic_ball\nr = 2.0\n",
          "inequality = negative_local"),
         ("radius = 1e3", "", "inequality = none"), "submanifold.radius"),
        ("flat_disk_annulus", "r = 6.0", "r = 1e200", "domain.r"),
        # transport costs at or above the LP's infinite cost, 1e20 (the
        # largest cost at r = 1.5e10 is 1.1e20)
        *(("flat_disk_annulus",
           ("resolution = 11", "samples = 1000", "r = 6.0"),
           ("resolution = 6", "samples = 150", f"r = {r}"),
           "submanifold.radius, domain.sigma, domain.r")
          for r in ("1e77", "1.5e10")),
        # negative_local holds for a submanifold inside the r/2 ball
        ("hyperbolic_disk_r2", ("radius = 0.5", "resolution = 20", "r = 2.0"),
         ("radius = 0.9", "resolution = 6", "r = 1.0"), "domain.r"),
        # a chart without a radius fails on hyperbolic space, not in the
        # r/2 check
        ("hyperbolic_disk_r2",
         ("chart = hyperbolic_geodesic_disk", "radius = 0.5\n"),
         ("chart = equatorial_subsphere", ""), "submanifold"),
        # an exact LP above the solver's size cap (576 nodes)
        ("flat_disk_annulus", "resolution = 11", "resolution = 12",
         "submanifold.resolution, domain.samples"),
        # a graph whose height overflows on the mesh
        ("flat_graph", "height = (u1**2 + u2**2) * 3 / 10",
         "height = exp(1000 * u1)", "submanifold.radius, submanifold.height"),
        # expressions whose values the floats cannot hold
        ("flat_graph", "expression = 1 + u1 * u2 / 4",
         "expression = 10**400", "field"),
        ("flat_graph", "height = (u1**2 + u2**2) * 3 / 10",
         "height = 10**400", "submanifold.height"),
        ("flat_graph", "expression = 1 + u1 * u2 / 4",
         "expression = u1/0 + 2", "field"),
        ("flat_graph", "height = (u1**2 + u2**2) * 3 / 10",
         "height = u1/0 + 2", "submanifold.height"),
        # expressions outside the grammar
        ("flat_graph", "height = (u1**2 + u2**2) * 3 / 10",
         "height = sin(u1)", "submanifold.height"),
        ("flat_graph", "expression = 1 + u1 * u2 / 4",
         "expression = sin(u1)", "field"),
        # a field finite at the nodes whose f^{n/(n-1)} and |grad f|
        # overflow
        ("flat_graph", "expression = 1 + u1 * u2 / 4",
         "expression = exp(709 * u1**2)", "field"),
    ])
    def test_bad_config_value_exit_two(self, runner, tmp_path, scenario, old,
                                       new, named):
        """Values a run would die on are config errors naming the field,
        with no warning printed on the way."""
        cfg = mutated(tmp_path, scenario, old, new)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(cli.main, ["run", cfg,
                                           "--out", str(tmp_path / "rep")])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "config error" in res.output and named in res.output
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("old, new, ratio", [
        ("expression = 1 + u1 * u2 / 4", "expression = 1 + u1**400000000",
         "0.669375"),
        ("height = (u1**2 + u2**2) * 3 / 10", "height = u1**400000000",
         "0.924296"),
    ])
    def test_huge_integer_power(self, runner, tmp_path, old, new, ratio):
        """x**k and its derivatives come in closed form, not as k
        products, so a power of 400000000 runs, with the ratio it had
        when sympy differentiated it."""
        cfg = mutated(tmp_path, "flat_graph", old, new)
        res = runner.invoke(cli.main, ["run", cfg,
                                       "--out", str(tmp_path / "rep")])
        assert res.exit_code == 0, res.output
        assert f"ratio = {ratio} " in res.output

    @pytest.mark.parametrize("dim", [4, 5, 6])
    def test_geodesic_ball_at_tiny_curvature(self, runner, tmp_path,
                                             monkeypatch, dim):
        """The geodesic ball's constants are scale-free, so at
        K = -1e-300, whose R^(d-1) overflows, the run passes with the
        ratio of K = -1e-100, and its domain drawn with points has finite
        points."""
        build = inequalities.build_target_domain
        domains = []

        def drawn(M, mesh, variant, params, n_samples, seed):
            # the run reads the volume alone: draw the points beside it
            domains.append(build(M, mesh, variant, params, 400, seed))
            return build(M, mesh, variant, params, n_samples, seed)

        monkeypatch.setattr(inequalities, "build_target_domain", drawn)
        ratios = []
        for curvature in ("-1e-300", "-1e-100"):
            cfg = mutated(tmp_path, "hyperbolic_disk_r2",
                          ("curvature = -1.0", "ambient_dim = 4"),
                          (f"curvature = {curvature}",
                           f"ambient_dim = {dim}"))
            out = tmp_path / curvature
            res = runner.invoke(cli.main, ["run", cfg, "--out", str(out)])
            assert res.exit_code == 0, res.output
            points = domains[-1].points
            assert len(points) == 400 and np.isfinite(points).all()
            recs = [json.loads(line) for line in
                    (out / "hyperbolic_disk_r2.jsonl").read_text()
                    .splitlines()]
            ratios.append(next(r["ratio"] for r in recs
                               if r["record"] == "inequality"))
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("scenario", [
        "sphere_tube_005", "sphere_tube_02", "hyperbolic_disk_r2"])
    def test_volume_only_domain_draws_no_points(self, monkeypatch, scenario):
        """An inequality that reads only the volume of its domain, with no
        transport check, draws no target points."""
        build = inequalities.build_target_domain
        domains = []
        monkeypatch.setattr(inequalities, "build_target_domain",
                            lambda *args: domains.append(build(*args))
                            or domains[-1])
        report = run_scenario(ScenarioConfig.load(
            cli.bundled_scenario_path(f"{scenario}.cfg")))
        assert report.ok
        domain, = domains
        assert domain.points.shape == (0, 5) and domain.volume > 0

    def test_tube_covering_the_sphere_fails_the_run(self, runner, tmp_path):
        """At eps = 1.6 the Monte Carlo tube volume is the sphere's: the
        complement is empty, and the run fails, not passes on volume 0."""
        cfg = mutated(tmp_path, "sphere_tube_005", "eps = 0.05", "eps = 1.6")
        res = runner.invoke(cli.main, ["run", cfg,
                                       "--out", str(tmp_path / "rep")])
        assert res.exit_code == 1, res.output
        assert "EmptyDomainError: the 1.6-tube covers the sphere" \
            in res.output

    def test_costs_below_the_infinite_cost_reach_the_solver(self, runner,
                                                            tmp_path):
        """At r = 1.3e10 the largest cost, 0.85e20, is below the LP's
        infinite cost: the config is accepted, and the run fails in the
        solver."""
        cfg = mutated(tmp_path, "flat_disk_annulus",
                      ("resolution = 11", "samples = 1000", "r = 6.0"),
                      ("resolution = 6", "samples = 150", "r = 1.3e10"))
        res = runner.invoke(cli.main, ["run", cfg,
                                       "--out", str(tmp_path / "rep")])
        assert res.exit_code == 1, res.output
        assert "NoConvergenceError" in res.output

    def test_tangency_is_report_only(self, runner, tmp_path):
        """Tangency has no verdict: null in the report, an empty CSV
        cell, INFO on the console; the run passes."""
        cfg = small_annulus(tmp_path)
        out = tmp_path / "rep"
        res = runner.invoke(cli.main, ["run", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "[INFO] tangency" in res.output
        recs = [json.loads(line) for line in
                (out / "flat_disk_annulus.jsonl").read_text().splitlines()]
        tangency = next(r for r in recs if r.get("name") == "tangency")
        assert tangency["passed"] is None and tangency["atom_count"] > 0
        res = runner.invoke(cli.main, ["run", cfg, "--out", str(out),
                                       "--format", "csv"])
        assert res.exit_code == 0, res.output
        with open(out / "flat_disk_annulus_checks.csv", newline="") as fh:
            rows = {r["check"]: r["passed"] for r in csv.DictReader(fh)}
        assert rows["tangency"] == "" and rows["certification"] == "True"

    def test_failed_certification_is_a_theorem_failure(
            self, runner, tmp_path, monkeypatch):
        """A plan that fails certification is recorded, not raised: the
        other checks still run and the run exits 1."""
        certify = transport.certify_support
        monkeypatch.setattr(transport, "certify_support",
                            lambda cpl: certify(cpl)._replace(
                                worst_violation=1.0))
        out = tmp_path / "rep"
        res = runner.invoke(cli.main, ["run", small_annulus(tmp_path),
                                       "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert "[FAIL] certification" in res.output
        assert "[PASS] inequality" in res.output
        verdict = json.loads((out / "flat_disk_annulus.jsonl").read_text()
                             .splitlines()[-1])
        assert verdict["theorem_failures"] == ["certification"]

    def test_each_value_is_computed_once(self, runner, tmp_path,
                                         monkeypatch):
        """The atom velocities come from one log_map over the atom
        table, each rejection batch from one distance matrix (plus one
        for the cost matrix), and the atoms are filtered once for
        certification and once for the checks."""
        calls = collections.Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        count(geometry, "log_map")
        count(geometry, "pairwise_distances")
        count(submanifold, "distance_to_mesh")
        count(transport.DiscreteCoupling, "atoms")
        res = runner.invoke(cli.main, ["run", small_annulus(tmp_path),
                                       "--out", str(tmp_path / "rep")])
        assert res.exit_code == 0, res.output
        rounds = calls["distance_to_mesh"]
        assert rounds >= 1
        assert calls["log_map"] == 1
        assert calls["pairwise_distances"] == rounds + 1
        assert calls["atoms"] <= 2

    @pytest.mark.parametrize("factor, passed", [(1.0, True), (1.5, False)])
    def test_fiber_mass_fails_on_a_wrong_domain_volume(
            self, runner, tmp_path, monkeypatch, factor, passed):
        """Negative control: an annulus volume 1.5 times too large puts
        the fiber-volume proxy above its envelope."""
        build = inequalities.build_target_domain

        def scaled(*args, **kwargs):
            domain = build(*args, **kwargs)
            domain.volume *= factor
            return domain

        monkeypatch.setattr(inequalities, "build_target_domain", scaled)
        cfg = small_annulus(tmp_path)
        out = tmp_path / "rep"
        runner.invoke(cli.main, ["run", cfg, "--out", str(out)])
        recs = [json.loads(line) for line in
                (out / "flat_disk_annulus.jsonl").read_text().splitlines()]
        fiber = next(r for r in recs if r.get("name") == "fiber_mass")
        assert fiber["passed"] is passed and fiber["envelope_ok"] is passed
        assert ("fiber_mass" in recs[-1]["warnings"]) is not passed
        res = runner.invoke(cli.main, ["run", cfg, "--strict",
                                       "--out", str(out)])
        assert res.exit_code == (0 if passed else 1), res.output

    @pytest.mark.parametrize("converged", [True, False])
    def test_unconverged_solver_fails_certification(
            self, runner, tmp_path, monkeypatch, converged):
        """Negative control: a Sinkhorn plan that did not converge fails
        certification, a theorem failure."""
        solve = transport.solve_entropic
        monkeypatch.setattr(
            transport, "solve_entropic", lambda *args, **kwargs:
            dataclasses.replace(solve(*args, **kwargs), converged=converged))
        text = Path(small_annulus(tmp_path)).read_text()
        assert "method = exact" in text
        cfg = tmp_path / "entropic.cfg"
        cfg.write_text(text.replace("method = exact", "method = entropic"))
        out = tmp_path / "rep"
        res = runner.invoke(cli.main, ["run", str(cfg), "--out", str(out)])
        assert res.exit_code == (0 if converged else 1), res.output
        recs = [json.loads(line) for line in
                (out / "flat_disk_annulus.jsonl").read_text().splitlines()]
        cert = next(r for r in recs if r.get("name") == "certification")
        assert cert["passed"] is converged
        assert ("certification" in recs[-1]["theorem_failures"]) \
            is not converged

    def test_malformed_file_exit_two(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CFG.replace("seed = 123", "seed = 123\nseed = 4"))
        res = runner.invoke(cli.main, ["run", str(cfg)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "config error" in res.output

    def test_negative_seed_override_exit_two(self, runner, tiny_cfg):
        res = runner.invoke(cli.main, ["run", tiny_cfg, "--seed", "-1"])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "scenario.seed" in res.output

    def test_missing_file_exit_two(self, runner):
        res = runner.invoke(cli.main, ["run", "/nonexistent/x.cfg"])
        assert res.exit_code == 2


class TestSweepCommand:
    def test_radius_sweep_writes_grid_csv(self, runner, tiny_cfg, tmp_path):
        out = tmp_path / "rep"
        res = runner.invoke(cli.main, [
            "sweep", tiny_cfg, "--grid", "submanifold.radius=0.5,1.0",
            "--out", str(out)])
        assert res.exit_code == 0, res.output
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["grid_value"] for r in rows] == ["0.5", "1.0"]
        for r in rows:
            assert float(r["ratio"]) == pytest.approx(1.0, abs=1e-9)
        # per-point reports are also emitted
        assert (out / "tiny_radius_0.5.jsonl").exists()

    def test_malformed_grid_exit_two(self, runner, tiny_cfg):
        res = runner.invoke(cli.main, ["sweep", tiny_cfg, "--grid",
                                       "radius0.5,1.0"])
        assert res.exit_code == 2

    def test_bad_chart_at_grid_point_exit_two(self, runner, tmp_path):
        res = runner.invoke(cli.main, [
            "sweep", BALL_CFG, "--grid", "submanifold.radius=4.0",
            "--out", str(tmp_path / "rep")])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "config error at radius=4.0" in res.output

    @pytest.mark.parametrize("grid, named", [
        ("jacobi.atoms=-1", "jacobi.atoms"),
        ("jacobi.atoms=0", "jacobi.atoms"),
        ("jacobi.atoms=many", "jacobi.atoms"),
        ("domain.sigma=1.5", "domain.sigma"),
    ])
    def test_bad_value_at_grid_point_exit_two(self, runner, tmp_path, grid,
                                              named):
        """Sweep overrides are validated like the config file."""
        res = runner.invoke(cli.main, [
            "sweep", ANNULUS_CFG, "--grid", grid,
            "--out", str(tmp_path / "rep")])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "config error at" in res.output and named in res.output

    @pytest.mark.parametrize("scenario, old, new, named",
                             INEQUALITY_MISMATCHES)
    def test_inequality_mismatch_at_grid_point_exit_two(
            self, runner, tmp_path, scenario, old, new, named):
        self.check_grid_point_exit_two(
            runner, tmp_path, mutated(tmp_path, scenario, old, new), named)

    @pytest.mark.parametrize("scenario, old, new, named", DOMAIN_MISMATCHES)
    def test_domain_mismatch_at_grid_point_exit_two(
            self, runner, tmp_path, scenario, old, new, named):
        self.check_grid_point_exit_two(
            runner, tmp_path, mutated(tmp_path, scenario, old, new), named)

    def test_fiber_mass_without_envelope_at_grid_point_exit_two(
            self, runner, tmp_path):
        scenario, old, new, named = FIBER_MASS_MISMATCHES[0]
        self.check_grid_point_exit_two(
            runner, tmp_path, mutated(tmp_path, scenario, old, new), named)

    @pytest.mark.parametrize("scenario, old, new, named", UNREAD_KEYS)
    def test_unread_key_at_grid_point_exit_two(
            self, runner, tmp_path, scenario, old, new, named):
        """A key the config does not read exits 2 in the file and as a
        grid key."""
        self.check_grid_point_exit_two(
            runner, tmp_path, mutated(tmp_path, scenario, old, new), named)
        res = runner.invoke(cli.main, [
            "sweep", cli.bundled_scenario_path(f"{scenario}.cfg"),
            "--grid", f"{named}=1", "--out", str(tmp_path / "rep")])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"unsupported sweep target {named}" in res.output

    @staticmethod
    def check_grid_point_exit_two(runner, tmp_path, cfg, named):
        """The sweep loads its base config once, before the grid: a
        fault there exits 2 naming the key, and no grid point runs."""
        res = runner.invoke(cli.main, [
            "sweep", cfg, "--grid", "submanifold.resolution=6",
            "--out", str(tmp_path / "rep")])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "config error: " in res.output and named in res.output
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("grid, named", [
        ("submanifold.radius=0.5", "unsupported sweep target"),
        ("submanifold.height=u1", "unsupported sweep target"),
        ("submanifold.codim=1", "unsupported sweep target"),
    ])
    def test_chart_override_follows_chart_fields(self, runner, tmp_path,
                                                 grid, named):
        """A [submanifold] grid key must be a field of the config's chart:
        the equatorial subsphere has none."""
        cfg = tmp_path / "subsphere.cfg"
        cfg.write_text(
            "[scenario]\nname = subsphere\nseed = 1\n\n"
            "[manifold]\nvariant = sphere\nambient_dim = 4\n\n"
            "[submanifold]\nchart = equatorial_subsphere\nresolution = 8\n")
        res = runner.invoke(cli.main, [
            "sweep", str(cfg), "--grid", grid,
            "--out", str(tmp_path / "rep")])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert named in res.output

    @pytest.mark.parametrize("scenario, grid", [
        ("flat_disk_annulus", "domain.sigmaa=0.5"),
        ("flat_disk_sharp", "domain.r=1,2"),
        ("flat_disk_sharp", "domain.samples=10"),
        ("sphere_tube_005", "domain.samples=500,1000"),
        ("sphere_tube_005", "domain.r=1"),
        ("flat_disk_sharp", "jacobi.atoms=20,40"),
    ])
    def test_domain_override_follows_domain_keys(self, runner, tmp_path,
                                                 scenario, grid):
        """A [domain] grid key must be ``samples``, where targets are
        drawn, or a key the config's [domain] variant reads; a [jacobi]
        grid key needs the jacobi check.  Without them the points would
        be identical runs."""
        res = runner.invoke(cli.main, [
            "sweep", cli.bundled_scenario_path(f"{scenario}.cfg"),
            "--grid", grid, "--out", str(tmp_path / "rep")])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "unsupported sweep target" in res.output

    def test_graph_height_sweep(self, runner, tmp_path):
        """Any field of the chart is a sweep target, typed by the chart."""
        text = Path(cli.bundled_scenario_path("flat_graph.cfg")).read_text()
        cfg = tmp_path / "graph.cfg"
        cfg.write_text(text.replace("resolution = 30", "resolution = 10"))
        out = tmp_path / "rep"
        res = runner.invoke(cli.main, [
            "sweep", str(cfg), "--grid", "submanifold.height=0*u1,u1*u2*0.25",
            "--out", str(out)])
        assert res.exit_code == 0, res.output
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["grid_value"] for r in rows] == ["0*u1", "u1*u2*0.25"]
        assert float(rows[0]["ratio"]) != float(rows[1]["ratio"])

    def test_grid_value_with_path_separator(self, runner, tmp_path):
        """A grid value with a '/' names its report file with '_'."""
        text = Path(cli.bundled_scenario_path("flat_graph.cfg")).read_text()
        cfg = tmp_path / "graph.cfg"
        cfg.write_text(text.replace("resolution = 30", "resolution = 10"))
        out = tmp_path / "rep"
        res = runner.invoke(cli.main, [
            "sweep", str(cfg), "--grid", "submanifold.height=u1*u2/4",
            "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "flat_graph_height_u1*u2_4.jsonl").exists()
        with open(out / "sweep.csv", newline="") as fh:
            assert [r["grid_value"] for r in csv.DictReader(fh)] == [
                "u1*u2/4"]

    def test_unsupported_target_exit_two(self, runner, tiny_cfg, tmp_path):
        res = runner.invoke(cli.main, [
            "sweep", tiny_cfg, "--grid", "field.value=1,2",
            "--out", str(tmp_path / "rep")])
        assert res.exit_code == 2


class TestSharpnessSweeps:
    """One inequality across a parameter grid: a sweep of a bundled
    config at resolution 10."""

    @staticmethod
    def sweep_ratios(runner, tmp_path, cfg, grid, *options):
        out = tmp_path / "rep"
        res = runner.invoke(cli.main, ["sweep", cfg, "--grid", grid,
                                       "--out", str(out), *options])
        assert res.exit_code == 0, res.output
        with open(out / "sweep.csv", newline="") as fh:
            return [float(r["ratio"]) for r in csv.DictReader(fh)]

    def test_flat_family_is_uniformly_sharp(self, runner, tmp_path):
        cfg = mutated(tmp_path, "flat_disk_sharp", "resolution = 50",
                      "resolution = 10")
        ratios = self.sweep_ratios(runner, tmp_path, cfg,
                                   "submanifold.radius=0.5,1.0,2.0")
        assert len(ratios) == 3
        for ratio in ratios:
            assert abs(ratio - 1.0) < 1e-9

    def test_sphere_family_stays_below_one(self, runner, tmp_path):
        cfg = mutated(tmp_path, "sphere_ball_closed", "resolution = 24",
                      "resolution = 10")
        grid = f"submanifold.radius=0.6,1.0,{math.pi / 2!r}"
        ratios = self.sweep_ratios(runner, tmp_path, cfg, grid)
        assert len(ratios) == 3
        for ratio in ratios:
            assert ratio <= 1.0 + inequalities.REPORT_TOL

    def test_hyperbolic_family_stays_below_one(self, runner, tmp_path):
        """A disk of radius 0.75 fits the r/2 ball of every grid point."""
        cfg = mutated(tmp_path, "hyperbolic_disk_r2",
                      ("radius = 0.5", "resolution = 20"),
                      ("radius = 0.75", "resolution = 10"))
        ratios = self.sweep_ratios(runner, tmp_path, cfg,
                                   "domain.r=1.5,2.0,3.0", "--seed", "0")
        assert len(ratios) == 3
        for ratio in ratios:
            assert ratio <= 1.0 + inequalities.REPORT_TOL
        # larger balls are increasingly slack
        assert ratios[0] > ratios[1] > ratios[2]


def test_readme_config_loads(tmp_path):
    """The annotated config of the README is a config the parser
    accepts."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(block)
    config = ScenarioConfig.load(str(cfg))
    assert config.chart == "flat_disk" and config.solver == "exact"


class TestListScenarios:
    def test_lists_bundled_configs(self, runner):
        res = runner.invoke(cli.main, ["list-scenarios"])
        assert res.exit_code == 0
        names = res.output.split()
        assert "flat_disk_sharp.cfg" in names
        assert "flat_disk_annulus.cfg" in names
        assert len(names) == 9
        assert names == sorted(names)
