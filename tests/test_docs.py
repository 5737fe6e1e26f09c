"""The documented examples run: every demo script, and every `toriclab`
line of the README's "Command line" block, each in a fresh process; every
document of its "File formats" section parses."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

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
