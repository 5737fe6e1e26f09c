"""The package resolves its names on first use, and each command loads only
the layers it runs.  Module sets are read in fresh processes, since this
one has every layer loaded already."""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toriclab
from toriclab.corpus import corpus_get, corpus_names

ROOT = Path(__file__).resolve().parents[1]

# Run toriclab.cli as ``python -m`` would; report the exit code, the loaded
# toriclab modules and which of the probed standard modules it loaded, on
# the last line of stderr.
RUN_CLI = """
import json, runpy, sys
sys.argv = ["toriclab", *sys.argv[1:]]
try:
    runpy.run_module("toriclab.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
loaded = sorted(m.removeprefix("toriclab.") for m in sys.modules if m.startswith("toriclab."))
heavy = sorted(m for m in {heavy!r} if m in sys.modules)
print(json.dumps([code, loaded, heavy]), file=sys.stderr)
"""

# CPython's own SHA-256 module, _sha2 on 3.12+ and _sha256 before, if
# this interpreter has it
SHA256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
BUILTIN_SHA256 = importlib.util.find_spec(SHA256) is not None
# Standard modules that cost milliseconds to import and that no command
# needs: dataclasses brings inspect, ast, dis and tokenize with it,
# argparse brings gettext and locale, and _hashlib is OpenSSL, which a
# report's digest needs only where CPython has no SHA-256 of its own.
HEAVY = ("dataclasses", "inspect", "typing", "argparse", "gettext", "locale",
         *(("_hashlib",) if BUILTIN_SHA256 else ()))
# Loaded only where they are used: fractions (with decimal) by the layers
# that make rationals, heapq by the coloring search.
RATIONAL = ("fractions", "decimal")

PAIR = ["charfunc", "combinatorics", "errors", "lattice", "read", "value"]
POLYTOPE = sorted(PAIR + ["coloring", "polytope"])
VOLUME = sorted(PAIR + ["cohomology", "fan"])
CONE = sorted(VOLUME + ["cone", "exactlp"])
CORPUS = ["corpus", "errors", "value"]


def _python(*argv, cwd, input=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, input=input,
                          capture_output=True, text=True, timeout=120)


def test_import_loads_no_layer(tmp_path):
    # a layer module is an attribute too, loaded when first read
    proc = _python("-c", "import sys, toriclab\n"
                   "print(sorted(m for m in sys.modules if m.startswith('toriclab')))\n"
                   "print(len(toriclab.corpus.ENTRIES), toriclab.cone.__name__)",
                   cwd=tmp_path)
    assert proc.stdout.splitlines() == ["['toriclab']", "10 toriclab.cone"], proc.stderr


def test_corpus_import_loads_no_layer(tmp_path):
    # the documents are literals: no construction, no parser, and none of
    # the standard modules the layers bring
    proc = _python("-S", "-c", "import sys, toriclab.corpus\n"
                   "print(sorted(m for m in sys.modules if m.startswith('toriclab')))\n"
                   "print(sorted(m for m in ('fractions', 'random', 'heapq', 're') "
                   "if m in sys.modules))",
                   cwd=tmp_path)
    assert proc.stdout.splitlines() == [
        "['toriclab', 'toriclab.corpus', 'toriclab.value']", "[]"], proc.stderr


def test_every_exported_name_is_its_modules_object():
    assert len(toriclab.__all__) == len(set(toriclab.__all__))
    for name in toriclab.__all__:
        module = importlib.import_module(f"toriclab.{toriclab._MODULE_OF[name]}")
        assert getattr(toriclab, name) is getattr(module, name), name
    assert set(toriclab.__all__) <= set(dir(toriclab))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        toriclab.no_such_name
    assert not hasattr(toriclab, "integral_table")  # not exported


# The layers, lowest first: a module imports only modules before it, at
# module level or inside a function, but for the lazy imports in UPWARD:
# a pair's intersection calculus, stage 2 of the coloring and a fan's
# cone analysis.
LAYERS = ("value", "errors", "read", "lattice", "combinatorics", "polytope", "exactlp",
          "charfunc", "coloring", "_kempe", "fan", "cohomology", "cone", "corpus", "cli")
UPWARD = {("charfunc", "cohomology"), ("coloring", "_kempe"), ("fan", "cone")}


def test_each_layer_imports_only_layers_below_it():
    package = ROOT / "src" / "toriclab"
    assert sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__") == sorted(LAYERS)
    imports = set()
    for name in LAYERS:
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        imports |= {(name, node.module) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert all(module in LAYERS for _, module in imports), imports
    assert {(a, b) for a, b in imports if LAYERS.index(b) >= LAYERS.index(a)} == UPWARD
    # the one reader of outside input stands on the errors alone
    assert {b for a, b in imports if a == "read"} == {"errors"}


# each command line, its toriclab modules and the standard modules it must
# not load besides HEAVY
COMMANDS = [
    (["polytope", "report", "d.poly", "--json"], POLYTOPE, RATIONAL),
    (["polytope", "color", "d.poly"], POLYTOPE, RATIONAL),
    (["fan", "volume", "cp3.fan", "--polynomial"], VOLUME, ("heapq",)),
    (["fan", "report", "cp3.fan"], CONE, ("heapq",)),
    (["fan", "extremal", "cp3.fan"], CONE, ("heapq",)),
    (["fan", "witness", "cp3.fan", "--json"], CONE, ("heapq",)),
    (["corpus", "list"], CORPUS, RATIONAL),
    # the name is read by the one reader; the list reads no name
    (["corpus", "get", "cp3"], sorted(CORPUS + ["read"]), RATIONAL),
]


def _run_cli(tmp_path, argv, unused=()):
    """Run one command in a fresh ``python -S``, so that no module ``site``
    imports can hide one the package imports."""
    (tmp_path / "d.poly").write_text(corpus_get("dodecahedron").text)
    (tmp_path / "cp3.fan").write_text(corpus_get("cp3").text)
    proc = _python("-S", "-c", RUN_CLI.format(heavy=HEAVY + unused), *argv, cwd=tmp_path)
    code, loaded, heavy = json.loads(proc.stderr.splitlines()[-1])
    return code, loaded, heavy, proc.stderr


@pytest.mark.parametrize("argv, modules, unused", COMMANDS,
                         ids=[" ".join(argv[:2]) for argv, _, _ in COMMANDS])
def test_each_command_loads_only_its_layers(tmp_path, argv, modules, unused):
    code, loaded, heavy, err = _run_cli(tmp_path, argv, unused)
    assert code == 0, err
    assert loaded == modules
    assert heavy == []


FILE_COMMANDS = [argv[:2] for argv, _, _ in COMMANDS if argv[0] != "corpus"]


@pytest.mark.parametrize("command", FILE_COMMANDS, ids=" ".join)
def test_no_command_reading_a_file_loads_the_corpus(tmp_path, command):
    code, loaded, _, err = _run_cli(tmp_path, [*command, "missing"])
    assert code == 2 and "error: cannot read missing" in err
    assert "corpus" not in loaded


# The stdlib modules a command should not load, read after the command has
# run; ``pass`` stands for the command in a bare interpreter, since ``site``
# may load modules of its own.
PROBE = """
import runpy, sys
sys.argv = ["toriclab", *sys.argv[1:]]
try:
    {run}
except SystemExit as exc:
    print("exit", exc.code)
print(sorted(m for m in ("hashlib", "json") if m in sys.modules))
"""


def test_polytope_color_loads_neither_hashlib_nor_json(tmp_path):
    # it prints no report, so it needs no digest and no JSON
    (tmp_path / "d.poly").write_text(corpus_get("dodecahedron").text)
    bare = _python("-c", PROBE.format(run="pass"), cwd=tmp_path)
    run = PROBE.format(run='runpy.run_module("toriclab.cli", run_name="__main__")')
    color = _python("-c", run, "polytope", "color", "d.poly", cwd=tmp_path)
    assert color.stdout.splitlines()[-2:] == ["exit 0", bare.stdout.strip()], color.stderr


# Compute cli._digest of each text read from stdin, with the modules named
# on the command line hidden as if the interpreter had none of them; print
# the digests and which SHA-256 provider loaded.
DIGEST = """
import json, sys
for name in sys.argv[1:]:
    sys.modules[name] = None
from toriclab.cli import _digest
digests = list(map(_digest, json.load(sys.stdin)))
print(json.dumps([digests, [m for m in ("_sha2", "_sha256", "hashlib") if sys.modules.get(m)]]))
"""


@pytest.mark.parametrize("hidden", [(), ("_sha2", "_sha256")], ids=["built-in", "hashlib"])
def test_digest_is_the_sha256_prefix_on_every_path(tmp_path, hidden):
    texts = [*(corpus_get(name).text for name in corpus_names()), "", "poly3 \u00e9t\u00e9 \u03a9\n"]
    proc = _python("-S", "-c", DIGEST, *hidden, cwd=tmp_path, input=json.dumps(texts))
    digests, loaded = json.loads(proc.stdout)
    assert digests == [hashlib.sha256(text.encode()).hexdigest()[:16] for text in texts]
    assert loaded == [SHA256 if BUILTIN_SHA256 and not hidden else "hashlib"], proc.stderr
