"""The documented examples run: every demo script, and every `toriclab`
line of the README's "Command line" block, each in a fresh process; every
document of its "File formats" section parses; its "Library map" names
every module; the package's name table names where each export lives."""

import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import toriclab
from toriclab.combinatorics import parse_polytope
from toriclab.fan import parse_fan

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def readme_commands():
    """The `toriclab` lines of the first sh block after "## Command line",
    with their trailing comments removed."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [ln.split("#", 1)[0].strip() for ln in block.splitlines()
            if ln.startswith("toriclab ")]


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_command_line_block_runs(tmp_path):
    commands = readme_commands()
    assert len(commands) == 10
    for line in commands:
        argv = shlex.split(line)[1:]
        target = None
        if ">" in argv:
            k = argv.index(">")
            argv, target = argv[:k], argv[k + 1]
        proc = subprocess.run([sys.executable, "-m", "toriclab.cli", *argv],
                              cwd=tmp_path, env=_env(), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, (line, proc.stderr)
        if target is not None:
            (tmp_path / target).write_text(proc.stdout, encoding="utf-8")


def test_readme_file_format_blocks_parse():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### File formats", 1)[1].split("\n## ", 1)[0]
    parsers = {"poly3": parse_polytope, "fan3": parse_fan}
    kinds = []
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        kind = block.split(None, 1)[0]
        parsers[kind](block)
        kinds.append(kind)
    assert sorted(set(kinds)) == ["fan3", "poly3"]


def test_library_map_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library map", 1)[1].split("\n## ", 1)[0]
    mapped = set(re.findall(r"^\| `toriclab\.(\w+)`", section, re.M))
    modules = {p.stem for p in (ROOT / "src" / "toriclab").glob("*.py")}
    assert mapped == modules - {"__init__"}


# The names ``from toriclab import *`` gave before the package resolved them
# on first use; the table must neither lose nor gain one.
EXPORTED = """
    CertificationFailure CharacteristicFunction CharacteristicPair ConeAnalysis
    FacetColoring Fan3 IncompleteFan InternalError NoWitness NotFound
    NotUnimodular ObstructionWitness ParseError
    SimplePolytope3 SimplicialSphere2 SupportInvalid ToricLabError
    ValidationError Wall WallClass betti_numbers certify_fan certify_support
    characteristic_pair check_complete check_star_condition check_unimodular
    chern_number_c1c2 classify_wall coloring_to_charfunc cone_membership
    corpus_get corpus_names curvature delzant_obstruction_witness
    dual_polytope dual_sphere edge_functional edge_functionals
    evaluate_volume extremal_walls face_histogram four_color
    gauss_bonnet_sum is_fullerene linear_relation load_fan load_polytope
    parse_charfunc parse_fan parse_polytope positive_functional
    serialize_fan serialize_polytope serialize_volume_polynomial
    signed_triple_intersection signed_wall_classes strict_convexity_witness
    triple_intersection volume_polynomial wall_classes wall_data
""".split()


def test_name_table_names_the_defining_module():
    assert len(EXPORTED) == 62
    assert sorted(toriclab.__all__) == sorted(EXPORTED)
    for name, module in toriclab._MODULE_OF.items():
        obj = getattr(importlib.import_module(f"toriclab.{module}"), name)
        assert obj.__module__ == f"toriclab.{module}", (name, module)
