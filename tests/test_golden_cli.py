"""Golden CLI output: every fan and polytope report, pinned by digest.

``golden_cli.json`` maps each invocation to the sha256 of its exit code,
its stdout without the ``timing_ms`` line and its stderr.  A refactor that
keeps the reports byte-identical keeps every digest; a change that is
meant to alter a report must say so by changing the file.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from branched import branched_cover_text
from toriclab.cli import main
from toriclab.corpus import FAN_NAMES, POLYTOPE_NAMES, corpus_get

GOLDEN = Path(__file__).with_name("golden_cli.json")

FAN_COMMANDS = [
    [cmd, *extra, *json_flag]
    for cmd, extra in (("report", []), ("volume", []),
                       ("volume", ["--polynomial"]), ("extremal", []),
                       ("witness", []))
    for json_flag in ([], ["--json"])
]


def _cube_pair_text():
    """The antipodal cube pair: the cube fan's cones on rays e1, e1, e2,
    e2, e3, e3, a sphere of unimodular cones that is not a fan."""
    text = corpus_get("cube-fan").text
    for i, ray in enumerate(("1 0 0", "1 0 0", "0 1 0", "0 1 0", "0 0 1", "0 0 1")):
        old = next(ln for ln in text.splitlines() if ln.startswith(f"R {i}:"))
        text = text.replace(old + "\n", f"R {i}: {ray}\n")
    return text.replace("fan3 cube-fan", "fan3 cube-pair")


def _documents():
    docs = {f"{name}.fan": corpus_get(name).text for name in FAN_NAMES}
    docs["cube-pair.fan"] = _cube_pair_text()
    docs["branched-cover.fan"] = branched_cover_text()
    docs["cp3-nonuni.fan"] = corpus_get("cp3").text.replace(
        "R 3: -1 -1 -1", "R 3: -1 -1 -2")
    docs.update({f"{name}.poly": corpus_get(name).text for name in POLYTOPE_NAMES})
    return docs


def _invocations():
    for path in _documents():
        if path.endswith(".fan"):
            for cmd in FAN_COMMANDS:
                yield ["fan", cmd[0], path, *cmd[1:]]
        else:
            yield ["polytope", "report", path]
            yield ["polytope", "report", path, "--json"]
            yield ["polytope", "color", path]


def _digest(code, out, err):
    out = "\n".join(ln for ln in out.splitlines() if "timing_ms" not in ln)
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


@pytest.fixture
def documents(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for path, text in _documents().items():
        (tmp_path / path).write_text(text)


def run_all(capsys):
    """The digest of every invocation, keyed by its command line."""
    digests = {}
    for argv in _invocations():
        code = main(argv)
        captured = capsys.readouterr()
        digests[" ".join(argv)] = _digest(code, captured.out, captured.err)
    return digests


def test_reports_match_the_golden_digests(capsys, documents):
    golden = json.loads(GOLDEN.read_text())
    got = run_all(capsys)
    assert len(got) == 95
    assert sorted(got) == sorted(golden)
    changed = [argv for argv in got if got[argv] != golden[argv]]
    assert changed == []


def test_reports_do_not_depend_on_the_hash_seed(documents, tmp_path):
    # each corpus report, run through the real entry point in a child with a
    # fixed hash seed, matches the golden digest of the in-process run
    golden = json.loads(GOLDEN.read_text())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": "12345",
           "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    reports = ([["fan", "report", f"{name}.fan", "--json"] for name in FAN_NAMES]
               + [["polytope", "report", f"{name}.poly", "--json"] for name in POLYTOPE_NAMES])
    for argv in reports:
        proc = subprocess.run([sys.executable, "-m", "toriclab.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert _digest(proc.returncode, proc.stdout, proc.stderr) == golden[" ".join(argv)], argv
