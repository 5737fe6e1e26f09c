"""End-to-end command-line tests, run in process via ``main(argv)``."""

import json

import pytest

from branched import branched_cover_text
from toriclab.cli import main
from toriclab.corpus import FAN_NAMES, POLYTOPE_NAMES, corpus_get
from toriclab.cohomology import certify_support
from toriclab.errors import IncompleteFan, SupportInvalid
from toriclab.fan import Fan3, certify_fan, parse_fan, serialize_fan
from toriclab.polytope import parse_polytope


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(text: str) -> str:
    return "\n".join(
        ln for ln in text.splitlines() if not ln.startswith("timing_ms")
    )


@pytest.fixture
def fan_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.fan"
        path.write_text(corpus_get(name).text)
        return str(path)
    return write


@pytest.fixture
def poly_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.poly"
        path.write_text(corpus_get(name).text)
        return str(path)
    return write


# ---------------------------------------------------------------------------
# polytope commands


def test_polytope_report_dodecahedron(capsys, poly_file):
    code, out, err = run(capsys, "polytope", "report", poly_file("dodecahedron"))
    assert code == 0
    assert err == ""
    assert "fullerene: yes" in out
    assert "star_condition: ok" in out
    assert "betti: (1, 9, 9, 1)" in out
    assert "quasitoric: YES" in out
    assert "delzant: NO (every face has at least 5 sides)" in out
    assert "face_histogram: 5^12" in out


def test_polytope_report_cube_not_excluded(capsys, poly_file):
    code, out, _ = run(capsys, "polytope", "report", poly_file("cube"))
    assert code == 0
    assert "delzant: not excluded (has a face with at most 4 sides)" in out
    assert "betti: (1, 3, 3, 1)" in out


def test_polytope_report_json(capsys, poly_file):
    code, out, _ = run(
        capsys, "polytope", "report", poly_file("dodecahedron"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "polytope report"
    assert data["facets"] == 12
    assert data["vertices"] == 20
    assert data["edges"] == 30
    assert data["betti"] == [1, 9, 9, 1]
    assert len(data["digest"]) == 16
    int(data["digest"], 16)  # hex string
    assert data["charfunc"]["0"] == [1, 0, 0]


def test_polytope_color(capsys, poly_file):
    code, out, _ = run(capsys, "polytope", "color", poly_file("tetrahedron"))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5  # 4 facets + star verdict
    assert lines[0] == "0: a (1, 0, 0)"
    assert lines[-1] == "star_condition: ok"


# ---------------------------------------------------------------------------
# fan commands


@pytest.mark.parametrize("name", FAN_NAMES)
def test_fan_report_all_corpus_fans(capsys, fan_file, name):
    code, out, err = run(capsys, "fan", "report", fan_file(name))
    assert code == 0
    assert err == ""
    assert "unimodular: yes" in out
    assert "complete: yes" in out
    assert "gauss_bonnet_sum: 24" in out
    assert "gauss_bonnet_check: PASS" in out
    assert "chern_matches_gauss_bonnet: yes" in out
    assert "obstruction_witness:" in out


def test_fan_report_text_deterministic_modulo_timing(capsys, fan_file):
    path = fan_file("blowup-cp3")
    _, first, _ = run(capsys, "fan", "report", path)
    _, second, _ = run(capsys, "fan", "report", path)
    assert strip_timing(first) == strip_timing(second)


def test_fan_report_json_deterministic_modulo_timing(capsys, fan_file):
    path = fan_file("flatwall")
    _, first, _ = run(capsys, "fan", "report", path, "--json")
    _, second, _ = run(capsys, "fan", "report", path, "--json")
    a, b = json.loads(first), json.loads(second)
    a.pop("timing_ms"), b.pop("timing_ms")
    assert a == b


@pytest.mark.parametrize("argv, target, parse", [
    (("fan", "extremal"), "toriclab.fan.parse_fan", parse_fan),
    (("fan", "report"), "toriclab.fan.parse_fan", parse_fan),
    (("polytope", "report"), "toriclab.polytope.parse_polytope", parse_polytope),
])
def test_timing_covers_parsing(capsys, monkeypatch, fan_file, poly_file, argv, target, parse):
    import time

    def slow(text):
        time.sleep(0.051)
        return parse(text)

    monkeypatch.setattr(target, slow)
    path = fan_file("cp3") if argv[0] == "fan" else poly_file("dodecahedron")
    code, out, _ = run(capsys, *argv, path, "--json")
    assert code == 0
    assert json.loads(out)["timing_ms"] >= 50


def test_fan_volume_default_support(capsys, fan_file):
    code, out, _ = run(capsys, "fan", "volume", fan_file("cp3"))
    assert code == 0
    assert "support: (1, 1, 1, 1)" in out
    assert "volume: 32/3" in out


def test_fan_volume_support_override(capsys, fan_file):
    code, out, _ = run(
        capsys, "fan", "volume", fan_file("cp3"), "--support", "2,1,1,1")
    assert code == 0
    assert "volume: 125/6" in out


def test_fan_volume_json_renders_rationals_as_strings(capsys, fan_file):
    code, out, _ = run(capsys, "fan", "volume", fan_file("flatwall"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["volume"] == "383/48"
    assert data["support"] == [1, 1, 1, 1, 1, 1, "5/2"]


def test_fan_volume_polynomial_flag(capsys, fan_file):
    code, out, _ = run(
        capsys, "fan", "volume", fan_file("cube-fan"), "--polynomial")
    assert code == 0
    assert "polynomial:" in out
    assert "1 : 0^1 2^1 4^1" in out
    assert "volume: 8" in out


def test_fan_volume_degenerate_support_fails(capsys, fan_file):
    code, out, err = run(
        capsys, "fan", "volume", fan_file("cube-fan"),
        "--support", "1,-1,1,1,1,1")
    assert code == 1
    assert "non-positive edge functionals" in err
    assert "(2, 4)" in err
    # the report with the offending functionals is still printed
    assert "edge_functionals" in out


def test_fan_volume_wrong_support_length(capsys, fan_file):
    code, _, err = run(
        capsys, "fan", "volume", fan_file("cp3"), "--support", "1,1,1")
    assert code == 1
    assert "4 rays" in err


def test_fan_volume_malformed_support(capsys, fan_file):
    code, _, err = run(
        capsys, "fan", "volume", fan_file("cp3"), "--support", "1,1,x,1")
    assert code == 2
    assert "bad support value" in err


@pytest.mark.parametrize("entry", ["1.5", "1e1", "+1", "1_0", "1/0", "", "1/\u0662",
                                   "1/2\u2003", "1\x1c"])
def test_fan_volume_support_is_integers_or_p_over_q(capsys, fan_file, entry):
    # Fraction() read 1.5, 1e1, +1 and 1_0 as 3/2, 10, 1 and 10
    code, out, err = run(
        capsys, "fan", "volume", fan_file("cp3"), "--support", f"1,{entry},1,1")
    assert (code, out) == (2, "")
    assert err == f"error: bad support value: {entry!r}\n"


def test_fan_volume_support_reads_signed_rationals(capsys, fan_file):
    code, out, _ = run(
        capsys, "fan", "volume", fan_file("cp3"), "--support", "3/2, 1,1,1")
    assert code == 0
    assert "support: (3/2, 1, 1, 1)" in out


def test_fan_volume_needs_support(capsys, tmp_path):
    path = tmp_path / "cp3.fan"
    path.write_text(corpus_get("cp3").text.replace("support: 1 1 1 1\n", ""))
    code, out, err = run(capsys, "fan", "volume", str(path))
    assert (code, out) == (1, "")
    assert err == "error: no support parameters: none in the file and no --support given\n"


def test_invalid_support_is_refused_with_one_message(capsys, tmp_path):
    # every fan command refuses it with certify_support's message
    text = corpus_get("cube-fan").text.replace("support: 1 1 1 1 1 1",
                                               "support: 1 1 1 1 1 -3")
    path = tmp_path / "cube-fan.fan"
    path.write_text(text)
    f = parse_fan(text)
    with pytest.raises(SupportInvalid) as e:
        certify_support(f, f.support)
    for cmd in ("report", "volume", "extremal", "witness"):
        code, out, err = run(capsys, "fan", cmd, str(path))
        assert (code, err) == (1, f"error: {e.value}\n"), cmd
        # fan volume prints its report up to the edge functionals
        assert ("edge_functionals" in out) == (cmd == "volume"), cmd


def test_fan_witness_cp3(capsys, fan_file):
    code, out, _ = run(capsys, "fan", "witness", fan_file("cp3"))
    assert code == 0
    assert "wall: (0, 1)" in out
    assert "case: a1 < 0" in out
    assert "vertex: 1" in out
    assert "dual_face: triangular" in out


def test_fan_witness_cube(capsys, fan_file):
    code, out, _ = run(capsys, "fan", "witness", fan_file("cube-fan"))
    assert code == 0
    assert "case: a1 = 0" in out
    assert "dual_face: quadrangular" in out


def test_fan_witness_notes_an_uncertified_analysis(capsys, tmp_path):
    # with no support, fan witness carries the note fan report prints
    path = tmp_path / "cp3.fan"
    path.write_text(corpus_get("cp3").text.replace("support: 1 1 1 1\n", ""))
    note = "uncertified: no strict convexity witness supplied"
    code, out, _ = run(capsys, "fan", "report", str(path))
    assert code == 0 and f"strict_convexity_witness: {note}" in out.splitlines()
    code, out, _ = run(capsys, "fan", "witness", str(path))
    assert code == 0
    assert out.splitlines()[-3:-1] == ["dual_face: triangular", f"note: {note}"]
    code, out, _ = run(capsys, "fan", "witness", str(path), "--json")
    assert code == 0 and json.loads(out)["note"] == note


def test_unexpected_exception_is_reported_without_traceback(
    capsys, fan_file, monkeypatch
):
    import toriclab.cli as cli

    def broken(args):
        raise RuntimeError("simulated failure")

    monkeypatch.setattr(cli, "cmd_fan_witness", broken)
    code, out, err = run(capsys, "fan", "witness", fan_file("cp3"))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err == (
        "error: internal error in fan witness: RuntimeError: simulated failure\n"
    )


def test_fan_extremal_cube(capsys, fan_file):
    code, out, _ = run(capsys, "fan", "extremal", fan_file("cube-fan"), "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["wall_classes"]) == 12
    assert len(data["groups"]) == 3
    assert data["extremal_walls"] == ["(0, 2)", "(0, 4)", "(2, 4)"]
    assert data["strict_convexity_witness"] == [1, 1, 1, 1, 1, 1]


def test_fan_extremal_blowup(capsys, fan_file):
    code, out, _ = run(capsys, "fan", "extremal", fan_file("blowup-cp3"))
    assert code == 0
    assert "extremal_walls: ((0, 1), (0, 4))" in out


# ---------------------------------------------------------------------------
# error paths


def test_missing_file_is_a_parse_error(capsys):
    code, _, err = run(capsys, "fan", "report", "/nonexistent/f.fan")
    assert code == 2
    assert "cannot read" in err


def test_garbage_grammar_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.fan"
    path.write_text("garbage nonsense\n")
    code, _, err = run(capsys, "fan", "report", str(path))
    assert code == 2
    assert "error:" in err


def test_negative_count_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "negative.fan"
    path.write_text("fan3 x\nrays -4\ncones 0\nsupport:\n")
    code, out, err = run(capsys, "fan", "report", str(path))
    assert (code, out, err) == (2, "", "error: malformed count line 'rays -4'\n")


def test_nonunimodular_fan_reports_and_fails(capsys, tmp_path):
    text = corpus_get("cp3").text.replace("R 3: -1 -1 -1", "R 3: -1 -1 -2")
    path = tmp_path / "nonuni.fan"
    path.write_text(text)
    code, out, _ = run(capsys, "fan", "report", str(path))
    assert code == 1
    assert "unimodular: no" in out
    assert "unimodular_violations" in out
    assert "(0, 1, 3)" in out


def test_nonunimodular_fan_fails_every_analysis(capsys, tmp_path):
    text = corpus_get("cp3").text.replace("R 3: -1 -1 -1", "R 3: -1 -1 -2")
    path = tmp_path / "nonuni.fan"
    path.write_text(text)
    for cmd in ("volume", "extremal", "witness"):
        code, out, err = run(capsys, "fan", cmd, str(path))
        assert (code, out) == (1, ""), cmd
        assert err == ("error: fan is not unimodular: "
                       "cone (0, 1, 3) has determinant -2\n"), cmd


def test_every_fan_command_certifies_first(capsys, tmp_path):
    # The antipodal cube pair: unimodular cones on the octahedron, but
    # opposite rays are equal, so it is no fan.  Every command must stop
    # at the completeness certificate, with one message.
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    cones = parse_fan(corpus_get("cube-fan").text).maximal_cones
    f = Fan3.from_data("cube-pair", (e1, e1, e2, e2, e3, e3), cones)
    path = tmp_path / "cube-pair.fan"
    path.write_text(serialize_fan(f))
    errors = set()
    for cmd in ("report", "volume", "extremal", "witness"):
        code, out, err = run(capsys, "fan", cmd, str(path))
        assert (code, out) == (1, ""), cmd
        errors.add(err)
    assert errors == {"error: apexes 4, 5 of wall (0, 2) do not lie strictly "
                      "on opposite sides (determinants 1, 1)\n"}


def test_branched_cover_is_refused_with_the_library_message(capsys, tmp_path):
    # Every wall check passes on the degree-2 cover of the sphere; each
    # command refuses it with certify_fan's message, as the library does.
    path = tmp_path / "branched-cover.fan"
    path.write_text(branched_cover_text())
    with pytest.raises(IncompleteFan, match="lies in 2 maximal cones") as e:
        certify_fan(parse_fan(branched_cover_text()))
    for cmd in ("report", "volume", "extremal", "witness"):
        code, out, err = run(capsys, "fan", cmd, str(path))
        assert (code, out, err) == (1, "", f"error: {e.value}\n"), cmd


def test_incomplete_fan_fails(capsys, tmp_path):
    lines = corpus_get("cp3").text.splitlines()
    lines = [ln for ln in lines if ln != "C: 0 1 2"]
    lines = ["cones 3" if ln == "cones 4" else ln for ln in lines]
    path = tmp_path / "incomplete.fan"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "fan", "report", str(path))
    assert code == 1
    assert "not a 2-sphere" in err


def test_nonprimitive_ray_fails_validation(capsys, tmp_path):
    text = corpus_get("cp3").text.replace("R 0: 1 0 0", "R 0: 2 0 0")
    path = tmp_path / "scaled.fan"
    path.write_text(text)
    code, _, err = run(capsys, "fan", "report", str(path))
    assert code == 1
    assert "not primitive" in err


# ---------------------------------------------------------------------------
# corpus commands


def test_corpus_list(capsys):
    code, out, _ = run(capsys, "corpus", "list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert any(ln.startswith("dodecahedron (polytope):") for ln in lines)
    assert any(ln.startswith("cp3 (fan):") for ln in lines)


def test_corpus_get_round_trips(capsys):
    for name in POLYTOPE_NAMES:
        code, out, _ = run(capsys, "corpus", "get", name)
        assert code == 0
        assert parse_polytope(out).name == name
    for name in FAN_NAMES:
        code, out, _ = run(capsys, "corpus", "get", name)
        assert code == 0
        assert parse_fan(out).name == name


def test_corpus_get_unknown(capsys):
    code, _, err = run(capsys, "corpus", "get", "no-such-entry")
    assert code == 1
    assert "no corpus entry" in err


# ---------------------------------------------------------------------------
# reading the command line


def without_timing(capsys, *argv):
    """The run with its timing line dropped, in text and in JSON."""
    code, out, err = run(capsys, *argv)
    return code, [ln for ln in out.splitlines() if "timing_ms" not in ln], err


@pytest.mark.parametrize("argv", [
    ["--support", "2,1,1,1", "--polynomial", "--json", "{}"],
    ["--json", "{}", "--polynomial", "--support", "2,1,1,1"],
    ["{}", "--sup", "2,1,1,1", "--poly", "--js"],
    ["{}", "--support=2,1,1,1", "--polynomial", "--json"],
    ["--json", "--polynomial", "--support", "2,1,1,1", "--", "{}"],
], ids=["options before the file", "around it", "unique prefixes", "name=value",
        "double dash ends the options"])
def test_options_read_as_argparse_read_them(capsys, fan_file, argv):
    path = fan_file("cp3")
    expected = without_timing(capsys, "fan", "volume", path, "--support", "2,1,1,1",
                              "--polynomial", "--json")
    assert expected[0] == 0
    assert '  "volume": "125/6",' in expected[1] and '  "polynomial": [' in expected[1]
    assert without_timing(capsys, "fan", "volume", *(a.format(path) for a in argv)) == expected


def test_double_dash_reads_a_file_named_like_an_option(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-cp3.fan").write_text(corpus_get("cp3").text)
    code, out, err = run(capsys, "fan", "report", "--json", "--", "-cp3.fan")
    assert (code, err) == (0, "")
    assert json.loads(out)["input"] == "-cp3.fan"
    code, out, err = run(capsys, "fan", "report", "-cp3.fan")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: -cp3.fan" in err


def test_negative_support_values_read_in_both_spellings(capsys, fan_file):
    # the value option takes the next word whatever it is
    path = fan_file("cp3")
    spaced = without_timing(capsys, "fan", "volume", path, "--support", "-1,3,3,3")
    assert spaced == without_timing(capsys, "fan", "volume", path, "--support=-1,3,3,3")
    assert spaced[0] == 0
    assert "support: (-1, 3, 3, 3)" in spaced[1]
    assert "volume: 256/3" in spaced[1]


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["toriclab", "corpus", "get", "cp3"])
    assert main() == 0
    assert capsys.readouterr().out == corpus_get("cp3").text


HELP = [
    (["-h"], "toriclab [-h] {polytope,fan,corpus} ...",
     ["polytope  combinatorial polytope commands", "fan       lattice fan commands",
      "corpus    built-in example documents"]),
    (["--help"], "toriclab [-h] {polytope,fan,corpus} ...",
     ["polytope  combinatorial polytope commands"]),
    (["fan", "-h"], "toriclab fan [-h] {report,volume,extremal,witness} ...",
     ["report    full certification report", "volume    edge functionals and volume",
      "extremal  effective-cone analysis", "witness   small-face obstruction witness"]),
    (["corpus", "--help"], "toriclab corpus [-h] {list,get} ...",
     ["list  list entries", "get   print one entry"]),
    (["fan", "volume", "x.fan", "--support", "1", "-h"],
     "toriclab fan volume [-h] [--support SUPPORT] [--polynomial] [--json] file",
     ["--support SUPPORT  comma-separated rationals c1,...,cm",
      "--polynomial       include the full volume polynomial",
      "--json             structured JSON report"]),
    (["polytope", "color", "--he"], "toriclab polytope color [-h] file",
     ["-h, --help  show this help message and exit"]),
]


@pytest.mark.parametrize("argv, usage, lines", HELP, ids=[" ".join(h[0]) for h in HELP])
def test_help_lists_the_table_and_exits_0(capsys, argv, usage, lines):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"usage: {usage}"
    assert [ln for ln in out.splitlines() if ln.strip() in lines] == [f"  {ln}" for ln in lines]


USAGE_ERRORS = [
    ([], "toriclab: error: the following arguments are required: command"),
    (["knot"], "toriclab: error: invalid command: 'knot'"),
    (["fan"], "toriclab fan: error: the following arguments are required: subcommand"),
    (["fan", "cone"], "toriclab fan: error: invalid subcommand: 'cone'"),
    (["fan", "report"], "toriclab fan report: error: the following arguments are required: file"),
    (["corpus", "get"], "toriclab corpus get: error: the following arguments are required: name"),
    (["fan", "report", "cp3.fan", "--bogus"],
     "toriclab fan report: error: unrecognized arguments: --bogus"),
    (["polytope", "color", "d.poly", "--json"],
     "toriclab polytope color: error: unrecognized arguments: --json"),
    (["fan", "report", "a.fan", "b.fan"],
     "toriclab fan report: error: unrecognized arguments: b.fan"),
    (["fan", "volume", "cp3.fan", "--support"],
     "toriclab fan volume: error: argument --support: expected one argument"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[" ".join(argv) or "no arguments" for argv, _ in USAGE_ERRORS])
def test_usage_errors_exit_2_with_usage_and_error_lines(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: " + message.split(":")[0] + " [-h]")
    assert error == message
