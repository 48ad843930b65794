"""Every top-level import in ``src`` and ``tests`` is used in its module
or re-exported through ``__all__``, every definition in ``src`` is
referenced from ``src`` or ``benchmarks``, every dataclass and
NamedTuple field in ``src`` is read there, ``src`` touches no
``_private`` attribute of another object, and loading a config, or
running one without the exact LP, leaves the slow optional imports
unloaded."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src").rglob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))
MODULES = sorted([*SRC, *(ROOT / "tests").glob("*.py")])

# definitions in src that nothing references yet, each with its reason
ALLOWED = {
    "geometry.intermediate_ricci":
        "the per-atom curvature hypothesis of the Jacobi check will call "
        "it (ROADMAP item 1)",
}


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that no expression in
    the module reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_import():
    source = "import math\nfrom os import path, sep\n__all__ = ['sep']\n"
    assert unused_imports(source) == ["math", "path"]


def references(tree: ast.AST, names: bool = True) -> Counter:
    """How often each name is read in ``tree``: as a name (unless
    ``names`` is false), as an attribute, or as a string that is an
    identifier (the benchmark tracer names the functions it wraps by
    strings)."""
    out = Counter()
    for node in ast.walk(tree):
        if names and isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out[node.value] += 1
    return out


def is_click_command(node: ast.AST) -> bool:
    """Decorated by ``<group>.command`` or ``click.group``: the decorator
    registers it, so nothing else needs to name it."""
    for dec in getattr(node, "decorator_list", ()):
        func = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(func, ast.Attribute) and func.attr in ("command",
                                                             "group"):
            return True
    return False


def definitions(module: str, tree: ast.Module):
    """(qualified name, node) of each top-level function and class of
    ``module``, and of each method and property of its classes other
    than the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("__"):
                    yield f"{module}.{node.name}.{sub.name}", sub


def dead_names(modules: dict, readers: list) -> list:
    """Qualified names of the definitions in ``modules`` (module name ->
    source) that no source of ``modules`` or ``readers`` references
    outside the definition itself.  A reader reaches a definition only
    as an attribute or by an identifier string, so its bare names (its
    own locals) do not count.  The scan matches by name only, so a
    definition sharing its name with anything read counts as live."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = Counter()
    for tree in trees.values():
        read += references(tree)
    for source in readers:
        read += references(ast.parse(source), names=False)
    return [qualified for name, tree in trees.items()
            for qualified, node in definitions(name, tree)
            if not is_click_command(node)
            and read[node.name] - references(node)[node.name] <= 0]


def test_every_definition_in_src_is_referenced():
    dead = dead_names({p.stem: p.read_text(encoding="utf-8") for p in SRC},
                      [p.read_text(encoding="utf-8") for p in BENCHMARKS])
    assert sorted(set(dead) - set(ALLOWED)) == []
    # an allowed name that gained a reference leaves ALLOWED
    assert sorted(set(ALLOWED) - set(dead)) == []


def test_scan_flags_a_definition_nothing_references():
    source = (
        "import click\n"
        "def used(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def traced(): pass\n"
        "class Box:\n"
        "    def __init__(self): pass\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    @property\n"
        "    def t0(self): return 0\n"
        "    def unread(self): pass\n"
        "@click.group()\n"
        "def main(): pass\n"
        "@main.command('go')\n"
        "def go_cmd(): pass\n"
        "used(); Box().size\n")
    spans = "SPANS = [('m', 'traced')]\n"
    # a reader's local variable of the same name does not read Box.t0
    timer = "t0 = clock()\nprint(t0)\n"
    assert dead_names({"m": source}, [spans, timer]) == [
        "m.recursive", "m.Box.t0", "m.Box.unread"]


def record_fields(module: str, tree: ast.Module):
    """(qualified name, field name) of each field of the dataclasses and
    NamedTuples of ``module``."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        marks = [dec.func if isinstance(dec, ast.Call) else dec
                 for dec in node.decorator_list] + node.bases
        if {getattr(m, "id", getattr(m, "attr", None)) for m in marks} \
                & {"dataclass", "NamedTuple"}:
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) \
                        and isinstance(sub.target, ast.Name):
                    yield f"{module}.{node.name}.{sub.target.id}", \
                        sub.target.id


def unread_fields(modules: dict, readers: list) -> list:
    """Qualified names of the fields in ``modules`` (module name ->
    source) that no source of ``modules`` or ``readers`` reads as an
    attribute or by an identifier string.  Like ``dead_names``, the scan
    matches by name only."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = Counter()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        read += references(tree, names=False)
    return [qualified for name, tree in trees.items()
            for qualified, field in record_fields(name, tree)
            if not read[field]]


def test_every_field_in_src_is_read():
    assert unread_fields({p.stem: p.read_text(encoding="utf-8")
                          for p in SRC},
                         [p.read_text(encoding="utf-8")
                          for p in BENCHMARKS]) == []


def test_scan_flags_a_field_nothing_reads():
    source = (
        "from dataclasses import dataclass, field\n"
        "from typing import NamedTuple\n"
        "@dataclass(frozen=True)\n"
        "class Box:\n"
        "    size: int\n"
        "    meta: dict = field(default_factory=dict)\n"
        "    LIMIT = 3\n"
        "class Pair(NamedTuple):\n"
        "    left: int\n"
        "    right: int\n"
        "class Plain:\n"
        "    note: str\n"
        "Box(1, meta={}).size\n")
    # a local of the same name, or a keyword argument, reads no field
    reader = "left = 1\nPair(left=left, right=2)\ngetattr(p, 'right')\n"
    assert unread_fields({"m": source}, [reader]) == ["m.Box.meta",
                                                      "m.Pair.left"]


def private_reads(source: str) -> list:
    """(line, expression) of each access to a ``_private`` attribute of
    anything other than ``self`` or ``cls``; dunders are not private."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) \
                and node.attr.startswith("_") \
                and not node.attr.endswith("__") \
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("self", "cls")):
            out.append((node.lineno, ast.unparse(node)))
    return sorted(out)


@pytest.mark.parametrize("path", SRC, ids=[str(p.relative_to(ROOT))
                                           for p in SRC])
def test_src_reads_no_private_name_of_another_object(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


def test_scan_flags_a_private_read():
    source = ("class A:\n"
              "    def f(self, mesh):\n"
              "        self._tree = cls._x = type(self).__name__\n"
              "        return mesh._frames(self._tree), submanifold._fit\n")
    assert private_reads(source) == [(4, "mesh._frames"),
                                     (4, "submanifold._fit")]


# imported only where they are needed: scipy.optimize by the exact LP,
# scipy.integrate by the geodesic-ball domain; sympy and scipy.stats by no
# code in ``src`` (tests use them as oracles)
DEFERRED = ("sympy", "scipy.optimize", "scipy.integrate", "scipy.stats")


def loaded_deferred(script: str, *args) -> str:
    """What ``script`` prints in a fresh process that finds the package
    on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script, *args],
                         capture_output=True, text=True, env=env, check=True)
    return out.stdout.strip()


def test_start_up_leaves_deferred_imports_unloaded():
    """A fresh process that imports the command line and loads every
    bundled config has loaded none of ``DEFERRED``: each costs a few
    tenths of a second, ten times a transport-free run."""
    configs = sorted((ROOT / "src" / "otsobolev" / "scenarios").glob("*.cfg"))
    assert len(configs) == 9
    script = (
        "import sys\n"
        "import otsobolev.cli\n"
        "from otsobolev.pipeline import ScenarioConfig\n"
        "for path in sys.argv[1:]:\n"
        "    ScenarioConfig.load(path)\n"
        f"print(sorted(set({DEFERRED!r}) & set(sys.modules)))\n")
    assert loaded_deferred(script, *map(str, configs)) == "[]"


def test_runs_without_the_lp_leave_deferred_imports_unloaded():
    """Running flat_disk_annulus with the entropic solver, shrunk to
    resolution 6, 150 samples and 20 atoms, sphere_ball_closed, and
    flat_graph at resolution 10, which parses a height and a field, loads
    none of ``DEFERRED`` either: the run path, not only start-up."""
    script = (
        "import sys\n"
        "from otsobolev import cli, pipeline\n"
        "from otsobolev.pipeline import ScenarioConfig\n"
        "annulus = ScenarioConfig.load(\n"
        "    cli.bundled_scenario_path('flat_disk_annulus.cfg'),\n"
        "    [('solver', 'method', 'entropic'),\n"
        "     ('submanifold', 'resolution', '6'),\n"
        "     ('domain', 'samples', '150'), ('jacobi', 'atoms', '20')])\n"
        "ball = ScenarioConfig.load(\n"
        "    cli.bundled_scenario_path('sphere_ball_closed.cfg'))\n"
        "graph = ScenarioConfig.load(\n"
        "    cli.bundled_scenario_path('flat_graph.cfg'),\n"
        "    [('submanifold', 'resolution', '10')])\n"
        "assert graph.field_spec == '1 + u1 * u2 / 4'\n"
        "for config in (annulus, ball, graph):\n"
        "    assert pipeline.run_scenario(config).checks\n"
        f"print(sorted(set({DEFERRED!r}) & set(sys.modules)))\n")
    assert loaded_deferred(script) == "[]"
