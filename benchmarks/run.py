"""Scenario-verdict benchmark for otsobolev.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads are defined in
``workloads.py``.  The benchmark writes the workload's configs from the
seed, times a fresh process that imports the package and loads them
(``setup_s``, median of several), then runs the workload in one worker
process (``worker.py``): an untimed warm-up pass, then passes until S
seconds have passed, one scenario at a time (closed loop).  Every
scenario run is gated: verdict ok, no warnings, every enabled check
present, certification passed and, for the exact solver, |duality gap|
<= 1e-9; every report of one scenario must be byte-identical across
passes.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it adds one traced pass and prints the per-layer table.  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics.  Reports, spans and the full result (timings next to the check
values and report hashes) go to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNT_UNITS, SPAN_NAMES
from workloads import WORKLOADS, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# every run must end within 180 s; leave room for set-up and reporting
RUN_DEADLINE_S = 170.0

END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}_s": "s", f"{name}_self_s": "s",
                      f"{name}_calls": "count"})
    return {**units, **COUNT_UNITS,
            "bench.traced_run_s": "s", "bench.trace_overhead_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Keep freed heap memory instead of handing it back to the kernel:
    # otherwise each large numpy temporary is page-faulted in afresh,
    # which made Sinkhorn twice as slow in the first pass of a process
    # and timings depend on the heap's history and the host's memory.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(16 << 30)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def worker(args: list, timeout: float) -> None:
    subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                   env=child_env(), check=True, timeout=timeout,
                   stdout=subprocess.DEVNULL)


def measure_setup(configs: list) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        worker(["setup", *map(str, configs)], timeout=60)
        times.append(time.perf_counter() - t)
    return times


def mark_nondeterminism(runs: list) -> None:
    """A scenario whose reports differ between passes fails every run."""
    hashes = {}
    for run in runs:
        hashes.setdefault(run["scenario"], set()).add(
            run.get("report_sha256"))
    for run in runs:
        if len(hashes[run["scenario"]]) > 1:
            run["failures"].append("report differs between passes")


def print_runs(result: dict) -> None:
    env = result["env"]
    print(f"env: python {env['python']} numpy {env['numpy']} "
          f"scipy {env['scipy']} nproc {env['nproc']} "
          f"blas_threads {env['blas_threads']} "
          f"malloc_trim_threshold {env['malloc_trim_threshold']}")
    for k, p in enumerate(result["passes"], 1):
        print(f"pass {k}: run_s {p['run_s']:.4f} s, cpu_s {p['cpu_s']:.4f} s")
    for run in result["passes"][0]["runs"]:
        verdict = "FAIL " + "; ".join(run["failures"]) if run["failures"] \
            else "PASS"
        print(f"  {run['scenario']} (scenario seed {run['seed']}): {verdict}")
        for key, val in sorted(run.get("checks", {}).items()):
            print(f"    {key} = {val!r}")
        print(f"    report sha256 = {run.get('report_sha256')}")


def print_layers(result: dict, values: dict) -> None:
    base = values["bench.traced_run_s"]
    print(f"per-layer table, one traced pass: run_s {base:.4f} s; tracing "
          f"overhead {values['bench.trace_overhead_s']:+.4f} s "
          f"against the untraced median run_s")
    rows = sorted(((name, row) for name, row in result["layers"].items()
                   if row["calls"]), key=lambda kv: -kv[1]["self_s"])
    top = rows[0][0]
    print(f"  {'span':42s} {'calls':>7s} {'s':>10s} {'self_s':>10s}  "
          f"self share of traced run_s ({base:.4f} s)")
    for name, row in rows:
        mark = "  <- largest self time" if name == top else ""
        print(f"  {name:42s} {row['calls']:7d} {row['s']:10.4f} "
              f"{row['self_s']:10.4f}  {row['self_s'] / base:7.2%}{mark}")
    idle = [name for name, row in result["layers"].items() if not row["calls"]]
    print(f"  not called ({len(idle)}): {', '.join(idle)}")
    path, seconds = result["heaviest_path"]
    print(f"  heaviest call path by self time ({seconds:.4f} s, "
          f"{seconds / base:.2%} of {base:.4f} s): {path}")
    for name, unit in COUNT_UNITS.items():
        print(f"  {name} = {values[name]} {unit}")
    riccati = result["layers"]["jacobi.riccati_residual"]["calls"]
    print(f"  bases: jacobi.riccati_per_atom = {riccati} riccati_residual "
          f"calls / {values['jacobi.atoms_evaluated']} evaluated atoms; "
          f"jacobi.evaluated_share = {values['jacobi.atoms_evaluated']} / "
          f"{values['jacobi.atoms_selected']} selected atoms; "
          "transport.sinkhorn_iters = transport.logsumexp calls / 4")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    scenario_dir = SRC / "otsobolev" / "scenarios"
    if not (SRC / "otsobolev" / "__init__.py").is_file():
        print(f"benchmark: no otsobolev sources under {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    out = ROOT / ".bench_out" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    configs = write_configs(args.workload, args.seed, scenario_dir, out)
    print(f"workload {args.workload}, seed {args.seed}, seconds "
          f"{args.seconds:g}, trace {args.trace}")

    setup = [] if args.trace else measure_setup(configs)
    try:
        worker(["run", "--out", str(out), "--seconds", str(args.seconds),
                "--trace", str(args.trace), *map(str, configs)],
               timeout=RUN_DEADLINE_S - (time.perf_counter() - start))
    except subprocess.TimeoutExpired:
        print("benchmark: worker exceeded the run deadline", file=sys.stderr)
        return 1
    with open(out / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)

    runs = [r for p in result["passes"] for r in p["runs"]]
    if args.trace:
        runs += result["traced_pass"]["runs"]
    mark_nondeterminism(runs)
    failed = sum(1 for r in runs if r["failures"])
    print_runs(result)

    run_s = statistics.median(p["run_s"] for p in result["passes"])
    if args.trace:
        units = per_layer_units()
        traced = result["traced_pass"]["run_s"]
        values = {**{f"{name}_{key}": row[key]
                     for name, row in result["layers"].items()
                     for key in ("s", "self_s", "calls")},
                  **result["layer_counts"],
                  "bench.traced_run_s": traced,
                  "bench.trace_overhead_s": traced - run_s}
        print_layers(result, values)
    else:
        units = END_TO_END
        values = {"run_s": run_s,
                  "cpu_s": statistics.median(p["cpu_s"]
                                             for p in result["passes"]),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
        n = len(result["passes"])
        print(f"run_s = {values['run_s']:.4f} s (median of {n} passes)")
        print(f"cpu_s = {values['cpu_s']:.4f} s (median of {n} passes)")
        print(f"setup_s = {values['setup_s']:.4f} s (median of "
              f"{SETUP_REPEATS} fresh processes: "
              + ", ".join(f"{t:.4f}" for t in setup) + ")")
        print(f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB")
    print(f"failed_share = {failed}/{len(runs)} = {failed / len(runs):.4f} "
          "(failed scenario runs / attempted)")
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "metrics": values}, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
