"""Command-line front end: run scenarios, sweep parameter grids, list
the bundled scenario configs.

Exit codes: 0 pass, 1 theorem/certification failure, 2 config error.
"""

from __future__ import annotations

import csv
import importlib.resources
import json
import os
import sys

import click

from .errors import ConfigError, OTSobolevError
from .pipeline import RunReport, ScenarioConfig, run_scenario


def emit_report(report: RunReport, out_dir: str, fmt: str = "json") -> list:
    """Write the machine-readable report files; returns the paths.

    json: a json-lines stream, one record per check plus the inequality
    and the verdict.  csv: one table of inequality terms and one table
    of the det-profile/envelope plot series.  Timing data is kept out of
    the files so reruns with the same seed are byte-identical.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    if fmt == "json":
        path = os.path.join(out_dir, f"{report.name}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in report.records():
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        paths.append(path)
    elif fmt == "csv":
        path = os.path.join(out_dir, f"{report.name}_checks.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["check", "passed", "metrics"])
            for name in sorted(report.checks):
                rec = dict(report.checks[name])
                passed = rec.pop("passed")
                w.writerow([name, passed, json.dumps(rec, sort_keys=True)])
        paths.append(path)
        if report.inequality is not None:
            path = os.path.join(out_dir, f"{report.name}_terms.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["term", "value"])
                ineq = report.inequality
                for key in ("variant", "lhs", "rhs", "ratio"):
                    w.writerow([key, ineq[key]])
                for key in sorted(ineq["terms"]):
                    w.writerow([key, ineq["terms"][key]])
                for key in sorted(ineq["constants"]):
                    w.writerow([f"constant_{key}", ineq["constants"][key]])
            paths.append(path)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    series = report.series.get("jacobi_profile")
    if series is not None:
        path = os.path.join(out_dir, f"{report.name}_profile.csv")
        keys = ["t", "det_p", "det_envelope", "trq1", "trq1_bound",
                "trq3", "trq3_bound"]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(keys)
            for row in zip(*(series[k] for k in keys)):
                w.writerow([repr(v) for v in row])
        paths.append(path)
    return paths


def _summarize(report: RunReport) -> str:
    lines = [f"scenario {report.name} (seed {report.seed})"]
    for name in sorted(report.checks):
        rec = report.checks[name]
        mark = {True: "PASS", False: "FAIL", None: "INFO"}[rec["passed"]]
        lines.append(f"  [{mark}] {name}")
    if report.inequality is not None:
        lines.append(f"  ratio = {report.inequality['ratio']:.6f} "
                     f"(tol {report.inequality['report_tol']})")
    for key, sec in report.stage_seconds.items():
        lines.append(f"  stage {key}: {sec:.2f}s")
    return "\n".join(lines)


def _seed_override(seed) -> tuple:
    return () if seed is None else (("scenario", "seed", str(seed)),)


# a grid key must be one the config reads in these sections, other
# than the chart and the [domain] variant
SWEEP_SECTIONS = ("submanifold", "domain", "jacobi")


def _exit_code(report: RunReport) -> int:
    return 0 if report.ok else 1


@click.group()
def main():
    """Numerical verification lab for submanifold Sobolev inequalities."""


@main.command("run")
@click.argument("config_path", type=click.Path(exists=True))
@click.option("--strict", is_flag=True,
              help="Treat check-slack violations as failures.")
@click.option("--seed", type=int, default=None,
              help="Override the config seed.")
@click.option("--out", "out_dir", type=click.Path(), default="reports",
              help="Output directory for report files.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", help="Report file format.")
def run_cmd(config_path, strict, seed, out_dir, fmt):
    """Run one scenario config end to end."""
    try:
        config = ScenarioConfig.load(config_path, _seed_override(seed))
        report = run_scenario(config, strict=strict)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except OTSobolevError as exc:
        click.echo(f"run failed: {type(exc).__name__}: {exc}", err=True)
        sys.exit(1)
    paths = emit_report(report, out_dir, fmt)
    click.echo(_summarize(report))
    for p in paths:
        click.echo(f"wrote {p}")
    sys.exit(_exit_code(report))


@main.command("sweep")
@click.argument("config_path", type=click.Path(exists=True))
@click.option("--grid", required=True,
              help="Grid spec 'section.key=v1,v2,...' (e.g. domain.eps="
                   "0.0,0.05,0.2).")
@click.option("--strict", is_flag=True)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(), default="reports")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json")
def sweep_cmd(config_path, grid, strict, seed, out_dir, fmt):
    """Run a scenario across a parameter grid; emit one csv row per point."""
    overrides = _seed_override(seed)
    try:
        target, _, values = grid.partition("=")
        section, _, key = target.partition(".")
        if not (section and key and values):
            raise ConfigError(f"malformed grid spec {grid!r}")
        grid_values = [v.strip() for v in values.split(",") if v.strip()]
        if not grid_values:
            raise ConfigError(f"empty grid in {grid!r}")
        read = ScenarioConfig.load(config_path, overrides).read_keys
        targets = sorted(f"{s}.{k}" for s, k in read
                         if s in SWEEP_SECTIONS
                         and k not in ("chart", "variant"))
        if target not in targets:
            raise ConfigError(
                f"unsupported sweep target {target}: this config's "
                f"targets are {', '.join(targets)}")
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    rows = []
    worst = 0
    for value in grid_values:
        try:
            config = ScenarioConfig.load(
                config_path, overrides + ((section, key, value),))
            # the name is the report's file name: no path separators
            config.name = f"{config.name}_{key}_{value}".replace(
                "/", "_").replace("\\", "_")
            report = run_scenario(config, strict=strict)
        except ConfigError as exc:
            click.echo(f"config error at {key}={value}: {exc}", err=True)
            sys.exit(2)
        except OTSobolevError as exc:
            click.echo(f"run failed at {key}={value}: "
                       f"{type(exc).__name__}: {exc}", err=True)
            sys.exit(1)
        emit_report(report, out_dir, fmt)
        row = {"grid_value": value}
        if report.inequality is not None:
            row.update(lhs=report.inequality["lhs"],
                       rhs=report.inequality["rhs"],
                       ratio=report.inequality["ratio"])
        rows.append(row)
        worst = max(worst, _exit_code(report))
        click.echo(_summarize(report))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "sweep.csv")
    keys = sorted({k for r in rows for k in r}, key=lambda k: (k != "grid_value", k))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(keys)
        for r in rows:
            w.writerow([r.get(k, "") for k in keys])
    click.echo(f"wrote {path}")
    sys.exit(worst)


@main.command("list-scenarios")
def list_scenarios_cmd():
    """List the scenario configs bundled with the package."""
    names = sorted(name for name in os.listdir(bundled_scenario_path(""))
                   if name.endswith(".cfg"))
    for name in names:
        click.echo(name)


def bundled_scenario_path(name: str) -> str:
    """Filesystem path of a bundled scenario config."""
    res = importlib.resources.files("otsobolev") / "scenarios" / name
    return str(res)


if __name__ == "__main__":
    main()
