"""In-memory span tracer that wraps the program's public functions from
outside, plus the per-layer metrics derived from the spans.

A span is recorded at each wrapped call: name, start, end, parent span
and run id.  Wrapping replaces the module attribute, which is also the
module's global, so calls from inside the module are traced as well.
Names bound by ``from ... import`` are wrapped where they are looked up
(``pipeline.field_from_expression``).  Probes on ``transport.linprog``
and ``transport.logsumexp`` only count; they are not spans, so the time
inside ``linprog`` stays in the self time of ``solve_exact``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter

clock = time.perf_counter

# (module, function) pairs at the layer boundaries; a span is named
# "module.function"
SPANS = [
    ("transport", "solve_exact"),
    ("transport", "solve_entropic"),
    ("transport", "cost_matrix"),
    ("transport", "certify_support"),
    ("transport", "semiconcavity_check"),
    ("transport", "tangency_residuals"),
    ("transport", "potential_gradient_on_sigma"),
    ("jacobi", "propagate"),
    ("jacobi", "riccati_residual"),
    ("jacobi", "trace_comparison_check"),
    ("jacobi", "monotonicity_profile"),
    ("submanifold", "build_submanifold"),
    ("submanifold", "lsq_hessian"),
    ("submanifold", "tubular_volume"),
    ("submanifold", "distance_to_mesh"),
    ("inequalities", "build_target_domain"),
    ("inequalities", "evaluate_inequality"),
    ("inequalities", "integration_by_parts_check"),
    ("geometry", "build_parallel_frame"),
    ("geometry", "log_map"),
    ("geometry", "pairwise_distances"),
    ("cli", "emit_report"),
    ("pipeline", "run_scenario"),
]
# (module that looks the name up, from-imported name, module it is from)
IMPORTED_SPANS = [("pipeline", "field_from_expression", "fields")]

SPAN_NAMES = [f"{mod}.{attr}" for mod, attr in SPANS] + \
    [f"{layer}.{attr}" for _, attr, layer in IMPORTED_SPANS]

# counts and ratios recorded at the same boundaries, with their units
COUNT_UNITS = {
    "transport.lp_s": "s", "transport.lp_columns": "count",
    "transport.lp_nit": "count", "transport.sinkhorn_iters": "count",
    "transport.plan_atoms": "count", "jacobi.riccati_per_atom": "calls/atom",
    "jacobi.atoms_selected": "count", "jacobi.atoms_evaluated": "count",
    "jacobi.atoms_flagged": "count", "jacobi.atoms_singular": "count",
    "jacobi.evaluated_share": "ratio", "submanifold.nodes": "count",
    "inequalities.targets": "count", "cli.report_bytes": "bytes",
}


class Tracer:
    """Wraps module attributes; keeps spans and counts in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.run_id = None
        self._stack = []
        self._saved = []

    def _patch(self, module_name, attr, wrapper_factory):
        module = importlib.import_module(f"otsobolev.{module_name}")
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(
            wrapper_factory(original)))

    def _span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            rec = {"id": len(self.spans), "name": name, "run": self.run_id,
                   "parent": self._stack[-1] if self._stack else None,
                   "start": clock(), "end": None}
            self.spans.append(rec)
            self._stack.append(rec["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = clock()
                self._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def install(self):
        hooks = {
            "transport.solve_exact": self._count_lp_columns,
            "transport.certify_support": self._count_plan_atoms,
            "submanifold.build_submanifold": self._count_nodes,
            "inequalities.build_target_domain": self._count_targets,
            "cli.emit_report": self._count_report_bytes,
            "pipeline.run_scenario": self._count_jacobi_atoms,
        }
        for mod, attr in SPANS:
            name = f"{mod}.{attr}"
            self._patch(mod, attr, lambda fn, name=name: self._span(
                name, fn, hooks.get(name)))
        for mod, attr, layer in IMPORTED_SPANS:
            self._patch(mod, attr,
                        lambda fn, name=f"{layer}.{attr}": self._span(name, fn))
        self._patch("transport", "linprog", self._linprog_probe)
        self._patch("transport", "logsumexp", self._logsumexp_probe)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- probes and count hooks ------------------------------------------

    def _linprog_probe(self, fn):
        def wrapper(*args, **kwargs):
            t = clock()
            res = fn(*args, **kwargs)
            self.counts["transport.lp_s"] += clock() - t
            self.counts["transport.lp_nit"] += int(res.nit)
            return res
        return wrapper

    def _logsumexp_probe(self, fn):
        def wrapper(*args, **kwargs):
            self.counts["logsumexp_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_lp_columns(self, args, coupling):
        self.counts["transport.lp_columns"] += args[0].size * args[1].size

    def _count_plan_atoms(self, args, cert):
        self.counts["transport.plan_atoms"] += cert.atom_count

    def _count_nodes(self, args, mesh):
        self.counts["submanifold.nodes"] += mesh.node_count

    def _count_targets(self, args, domain):
        self.counts["inequalities.targets"] += len(domain.points)

    def _count_report_bytes(self, args, paths):
        self.counts["cli.report_bytes"] += sum(os.path.getsize(p)
                                               for p in paths)

    def _count_jacobi_atoms(self, args, report):
        rec = report.checks.get("jacobi")
        if rec is None:
            return
        self.counts["jacobi.atoms_selected"] += rec["atom_count"]
        self.counts["jacobi.atoms_flagged"] += rec["flagged_atoms"]
        self.counts["jacobi.atoms_singular"] += rec["singular_atoms"]

    # -- results ---------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def _self_times(self) -> list:
        """Self time of each span: its duration minus its children's."""
        own = [rec["end"] - rec["start"] for rec in self.spans]
        for rec in self.spans:
            if rec["parent"] is not None:
                own[rec["parent"]] -= rec["end"] - rec["start"]
        return own

    def layer_table(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds."""
        table = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
                 for name in SPAN_NAMES}
        for rec, own in zip(self.spans, self._self_times()):
            row = table[rec["name"]]
            row["calls"] += 1
            row["s"] += rec["end"] - rec["start"]
            row["self_s"] += own
        return table

    def heaviest_path(self) -> tuple:
        """(call path from the root, self seconds) of the path that holds
        the most self time."""
        by_path = Counter()
        for rec, own in zip(self.spans, self._self_times()):
            path, r = [], rec
            while r is not None:
                path.append(r["name"])
                r = None if r["parent"] is None else self.spans[r["parent"]]
            by_path[" > ".join(reversed(path))] += own
        return by_path.most_common(1)[0] if by_path else ("", 0.0)

    def layer_counts(self) -> dict:
        c = self.counts
        selected = c["jacobi.atoms_selected"]
        evaluated = selected - c["jacobi.atoms_flagged"] \
            - c["jacobi.atoms_singular"]
        riccati = sum(1 for rec in self.spans
                      if rec["name"] == "jacobi.riccati_residual")
        out = {name: c[name] for name in COUNT_UNITS}
        out.update({
            # four logsumexp calls per Sinkhorn iteration
            "transport.sinkhorn_iters": c["logsumexp_calls"] / 4,
            "jacobi.atoms_evaluated": evaluated,
            "jacobi.riccati_per_atom": riccati / evaluated if evaluated else 0.0,
            "jacobi.evaluated_share": evaluated / selected if selected else 0.0,
        })
        return out
