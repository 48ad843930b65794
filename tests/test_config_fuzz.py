"""Config fuzz: mutated bundled configs keep the CLI exit-code contract
(0 pass, 1 theorem failure, 2 config error) and never print a traceback."""

import configparser
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from otsobolev import cli

SCENARIOS = sorted(p.name[:-len(".cfg")] for p in
                   Path(cli.bundled_scenario_path("")).glob("*.cfg"))
VALUES = ("0", "-1", "abc", "", "1e200", "1e-200")
# caps that keep one run of any bundled scenario near a second
CAPS = {("submanifold", "resolution"): 6, ("domain", "samples"): 200,
        ("jacobi", "atoms"): 4}


def shrunk(name: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.read(cli.bundled_scenario_path(f"{name}.cfg"))
    for (section, key), cap in CAPS.items():
        if cp.has_option(section, key):
            cp[section][key] = str(min(cp.getint(section, key), cap))
    return cp


def mutate(cp: configparser.ConfigParser, section: str, key, value):
    """Drop ``section`` (key None), drop ``key`` (value None) or set it."""
    if key is None:
        cp.remove_section(section)
    elif value is None:
        cp.remove_option(section, key)
    else:
        cp[section][key] = value


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(SCENARIOS))
    cp = shrunk(name)
    section = draw(st.sampled_from(cp.sections()))
    key = draw(st.sampled_from([None, *cp[section]]))
    value = None if key is None else draw(st.sampled_from((None, *VALUES)))
    mutate(cp, section, key, value)
    return name, section, key, value, cp


def run_cli(cp: configparser.ConfigParser):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.cfg"
        with open(path, "w", encoding="utf-8") as fh:
            cp.write(fh)
        return CliRunner().invoke(cli.main, ["run", str(path),
                                             "--out", str(Path(tmp) / "rep")])


def assert_contract(res, label):
    # click keeps an uncaught exception here; sys.exit(0) leaves None
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        (label, res.exception)
    assert res.exit_code in (0, 1, 2), (label, res.exit_code, res.output)
    assert "Traceback" not in res.output, (label, res.output)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mutations())
def test_mutated_config_keeps_exit_contract(mutation):
    name, section, key, value, cp = mutation
    assert_contract(run_cli(cp), (name, section, key, value))
