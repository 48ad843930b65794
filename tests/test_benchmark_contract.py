"""The benchmark's tracer wraps functions of the package by name
(``benchmarks/tracer.py``); a change that deletes or renames one of
them fails here instead of in a traced benchmark run."""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_installs_against_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracer = importlib.import_module("tracer")
    targets = [(importlib.import_module(f"otsobolev.{mod}"), attr)
               for mod, attr in tracer.SPANS + [
                   (mod, attr) for mod, attr, _ in tracer.IMPORTED_SPANS]]
    originals = [getattr(module, attr) for module, attr in targets]
    t = tracer.Tracer()
    try:
        t.install()
        for (module, attr), original in zip(targets, originals):
            assert getattr(module, attr).__wrapped__ is original
    finally:
        t.uninstall()
    for (module, attr), original in zip(targets, originals):
        assert getattr(module, attr) is original
