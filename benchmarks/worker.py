"""Benchmark worker: one process per workload, started by ``run.py``.

``worker.py setup CONFIG...`` imports the package and loads and
validates the configs; ``run.py`` times it as the set-up cost.

``worker.py run --out DIR --seconds S --trace 0|1 CFG...`` runs an
untimed warm-up pass, then timed passes until S
seconds have passed (at least one), and with ``--trace 1`` one more
pass under the tracer.  Each pass runs the scenarios one at a time
through ``ScenarioConfig`` -> ``pipeline.run_scenario`` ->
``cli.emit_report``, and gates each report.  Results go to
``DIR/result.json``; spans of the traced pass to ``DIR/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import time
import traceback
from pathlib import Path

from otsobolev import cli, pipeline

import numpy
import scipy

from tracer import Tracer

MAX_DUALITY_GAP = 1e-9


def check_values(report) -> dict:
    """The values a later change must keep, or explain."""
    vals = {}
    cert = report.checks.get("certification")
    if cert is not None:
        vals.update(cost=cert["cost"], duality_gap=cert["duality_gap"],
                    worst_violation=cert["worst_violation"],
                    plan_atoms=cert["atom_count"])
    if "tangency" in report.checks:
        vals["fiber_atoms"] = report.checks["tangency"]["atom_count"]
    jac = report.checks.get("jacobi")
    if jac is not None:
        vals.update({f"jacobi_{k}": jac[k] for k in (
            "atom_count", "flagged_atoms", "singular_atoms",
            "lap_margin_min", "bound_margin_min", "trq1_excess_max",
            "trq3_excess_max", "riccati_residual_max")})
    if report.inequality is not None:
        vals["inequality_ratio"] = report.inequality["ratio"]
    return vals


def gate(config, report) -> list:
    """Reasons the run is not a correct pass; empty when it is."""
    bad = []
    if not report.ok:
        bad.append(f"theorem failures {report.theorem_failures}")
    if report.warnings:
        bad.append(f"warnings {report.warnings}")
    expected = {k for k, on in config.checks.items() if on}
    if config.needs_transport():
        expected.add("certification")
    missing = expected - set(report.checks)
    if missing:
        bad.append(f"checks missing {sorted(missing)}")
    cert = report.checks.get("certification")
    if cert is not None:
        if not cert["passed"]:
            bad.append("certification failed")
        if cert["solver"] == "exact" \
                and not abs(cert["duality_gap"]) <= MAX_DUALITY_GAP:
            bad.append(f"duality gap {cert['duality_gap']:.3e}")
    return bad


def run_one(config, out_dir) -> dict:
    """One scenario through the public entry points, gated."""
    rec = {"scenario": config.name, "seed": config.seed}
    try:
        report = pipeline.run_scenario(config)
        paths = cli.emit_report(report, str(out_dir))
    except Exception:  # any raise is a failed run, not a crashed benchmark
        rec.update(failures=["raised: " + traceback.format_exc(limit=3)])
        return rec
    jsonl = next(p for p in paths if p.endswith(".jsonl"))
    with open(jsonl, "rb") as fh:
        rec["report_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    rec.update(failures=gate(config, report), checks=check_values(report))
    return rec


def run_pass(configs, out_dir, tracer=None) -> dict:
    t0, c0 = time.perf_counter(), time.process_time()
    runs = []
    for config in configs:
        if tracer is not None:
            tracer.run_id = config.name
        runs.append(run_one(config, out_dir))
    return {"run_s": time.perf_counter() - t0,
            "cpu_s": time.process_time() - c0, "runs": runs}


def cmd_run(args) -> None:
    out = Path(args.out)
    configs = [pipeline.ScenarioConfig.load(p) for p in args.configs]
    # untimed: the first pass in a process pays for lazy imports and for
    # growing the heap
    warmup = run_pass(configs, out / "warmup_reports")
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(configs, out / "reports"))
    result = {"warmup": warmup, "passes": passes, "env": {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "malloc_trim_threshold": os.environ.get("MALLOC_TRIM_THRESHOLD_")}}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            result["traced_pass"] = run_pass(configs, out / "reports", tracer)
        finally:
            tracer.uninstall()
        tracer.write(out / "spans.jsonl")
        result["layers"] = tracer.layer_table()
        result["heaviest_path"] = tracer.heaviest_path()
        result["layer_counts"] = tracer.layer_counts()
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)


def cmd_setup(args) -> None:
    for path in args.configs:
        pipeline.ScenarioConfig.load(path)


def main() -> None:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("configs", nargs="+")
    run = sub.add_parser("run")
    run.add_argument("--out", required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("configs", nargs="+")
    args = ap.parse_args()
    {"setup": cmd_setup, "run": cmd_run}[args.cmd](args)


if __name__ == "__main__":
    main()
