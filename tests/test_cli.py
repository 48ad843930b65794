"""Command-line front end: exit codes, report files, determinism."""

import csv
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from otsobolev import cli, transport

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
                     ("steps = 1000", "steps = 100"),
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
     "[domain]\nvariant = complement_of_tube\neps = 0.05\nsamples = 1000\n",
     "", "checks.inequality"),
    ("sphere_tube_005", "inequality = positive_tube",
     "inequality = nonneg_finite", "checks.inequality"),
    ("flat_disk_sharp", "inequality = nonneg_limit",
     "inequality = negative_local", "checks.inequality"),
    ("sphere_ball_closed", "ambient_dim = 4", "ambient_dim = 3\nlift = true",
     "checks.inequality"),
    ("flat_disk_annulus", "variant = annulus_around_sigma",
     "variant = complement_of_tube\neps = 0.1", "checks.inequality"),
]


def mutated(tmp_path, scenario, old, new):
    text = Path(cli.bundled_scenario_path(f"{scenario}.cfg")).read_text()
    assert old in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old, new))
    return str(cfg)


class TestRunCommand:
    def test_pass_exit_zero_and_summary(self, runner, tiny_cfg, tmp_path):
        out = tmp_path / "rep"
        res = runner.invoke(cli.main, ["run", tiny_cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "[PASS] inequality" in res.output
        assert "ratio = 1.000000" in res.output
        assert (out / "tiny.jsonl").exists()

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
        ("flat_disk_annulus", "steps = 1000", "steps = 50", "jacobi.steps"),
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
        ("sphere_tube_005", "samples = 1000", "samples = 0",
         "domain.samples"),
        ("hyperbolic_disk_r2", "r = 2.0", "r = 0", "domain.r"),
        ("sphere_tube_005", "eps = 0.05", "eps = -1", "domain.eps"),
    ] + INEQUALITY_MISMATCHES)
    def test_bad_config_value_exit_two(self, runner, tmp_path, scenario, old,
                                       new, named):
        """Values a run would die on are config errors naming the field."""
        cfg = mutated(tmp_path, scenario, old, new)
        res = runner.invoke(cli.main, ["run", cfg,
                                       "--out", str(tmp_path / "rep")])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "config error" in res.output and named in res.output

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
                            lambda cpl, tol: certify(cpl, tol=-1.0))
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
        ("jacobi.steps=50", "jacobi.steps"),
        ("jacobi.atoms=0", "jacobi.atoms"),
        ("jacobi.steps=many", "jacobi.steps"),
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
        res = runner.invoke(cli.main, [
            "sweep", mutated(tmp_path, scenario, old, new),
            "--grid", "submanifold.resolution=6",
            "--out", str(tmp_path / "rep")])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "config error at resolution=6" in res.output
        assert named in res.output

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
            "[manifold]\nvariant = sphere\nambient_dim = 3\nlift = true\n\n"
            "[submanifold]\nchart = equatorial_subsphere\nresolution = 8\n")
        assert runner.invoke(cli.main, [
            "run", str(cfg), "--out", str(tmp_path / "rep")]).exit_code == 0
        res = runner.invoke(cli.main, [
            "sweep", str(cfg), "--grid", grid,
            "--out", str(tmp_path / "rep")])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert named in res.output

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

    def test_unsupported_target_exit_two(self, runner, tiny_cfg, tmp_path):
        res = runner.invoke(cli.main, [
            "sweep", tiny_cfg, "--grid", "field.value=1,2",
            "--out", str(tmp_path / "rep")])
        assert res.exit_code == 2


class TestListScenarios:
    def test_lists_bundled_configs(self, runner):
        res = runner.invoke(cli.main, ["list-scenarios"])
        assert res.exit_code == 0
        names = res.output.split()
        assert "flat_disk_sharp.cfg" in names
        assert "flat_disk_annulus.cfg" in names
        assert len(names) == 9
        assert names == sorted(names)
