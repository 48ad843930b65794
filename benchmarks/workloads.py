"""Workload definitions: which bundled scenarios each workload runs, the
overrides the benchmark applies, and the config files it generates.

Each workload stresses different layers, so that a change to one layer
has a workload that exercises it and one that should not move:

- ``exact_hyperbolic``: dense exact LP (HiGHS) plus Jacobi propagation
  on the K < 0 comparison path; the LP dominates time and memory.
- ``entropic_annulus``: Sinkhorn instead of the LP, the K >= 0 Jacobi
  path and the fiber-mass envelope; Jacobi dominates.
- ``analytic_suite``: the six transport-free scenarios: mesh building,
  Monte-Carlo tube volumes and closed-form inequality assembly.

``BENCHMARK.json`` lists only ``entropic_annulus`` and
``analytic_suite``.  ``exact_hyperbolic`` stays runnable by name, but a
benchmark workload must pass on every seed, and the exact LP fails its
own support certification (violation a few 1e-8 against a tolerance of
1e-8) on about one seed in twelve; its runs report that as a failure.

Every scenario is a bundled one.  The benchmark sets the seed (the
bundled seed plus ``--seed``).  It shrinks the two transport scenarios,
whose bundled sizes take 20-50 s a pass on a 2-core host, to a few
seconds a pass, so that a run holds several timed passes and their
median is steady: both use resolution 8 (256 nodes); ``exact_hyperbolic``
draws 600 domain samples (a 256 x 600 LP) and checks its 20 heaviest
Jacobi atoms; ``entropic_annulus`` sets ``[solver] method = entropic``,
draws 500 samples and checks 60 atoms, which keeps Jacobi the largest
share of its pass.
"""

from __future__ import annotations

import configparser
from pathlib import Path

WORKLOADS = {
    "exact_hyperbolic": {
        "scenarios": ["hyperbolic_disk_r1"],
        "overrides": {("submanifold", "resolution"): "8",
                      ("domain", "samples"): "600", ("jacobi", "atoms"): "20"},
    },
    "entropic_annulus": {
        "scenarios": ["flat_disk_annulus"],
        "overrides": {("solver", "method"): "entropic",
                      ("submanifold", "resolution"): "8",
                      ("domain", "samples"): "500", ("jacobi", "atoms"): "60"},
    },
    "analytic_suite": {
        "scenarios": ["flat_disk_sharp", "flat_graph", "sphere_ball_closed",
                      "sphere_tube_005", "sphere_tube_02",
                      "hyperbolic_disk_r2"],
        "overrides": {},
    },
}


def _write(template: Path, overrides: dict, seed: int, out: Path) -> Path:
    cp = configparser.ConfigParser()
    if not cp.read(template):
        raise FileNotFoundError(f"bundled scenario {template} not found")
    cp["scenario"]["seed"] = str(cp.getint("scenario", "seed") + seed)
    for (section, key), value in overrides.items():
        cp[section][key] = value
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return out


def write_configs(workload: str, seed: int, scenario_dir: Path,
                  out_dir: Path) -> list:
    """Write the configs of one workload; returns their paths."""
    spec = WORKLOADS[workload]
    return [_write(scenario_dir / f"{name}.cfg", spec["overrides"], seed,
                   out_dir / "configs" / f"{name}.cfg")
            for name in spec["scenarios"]]
