import json
import subprocess
import sys
from pathlib import Path

import pytest

from quasiloop.cli import main
from quasiloop.fixtures import fixture_spec
from quasiloop.selftest import ALL_SUITES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_spec(tmp_path, name="qt2"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(fixture_spec(name).to_json_dict()), encoding="utf-8")
    return str(path)


def test_validate_fixture(capsys):
    code, out, _ = run(capsys, "validate", "--spec", "fixture:qt2")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 1
    assert data["generators"] == ["g1 g2^-1"]
    assert [g["id"] for g in data["gates"]] == ["g1", "g2"]


def test_validate_spec_file(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "--spec", write_spec(tmp_path, "qg1"))
    assert code == 0
    assert json.loads(out)["rank"] == 2


def test_validate_malformed_json(capsys, tmp_path):
    # text that is not JSON, and a spec whose basepoint id is a JSON list
    # (an unhashable key, once a traceback)
    list_id = fixture_spec("qt2").to_json_dict()
    list_id["basepoint"] = [list_id["basepoint"]]
    for name, text in (("bad", "{not json"), ("list_id", json.dumps(list_id))):
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "validate", "--spec", str(path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "error" in json.loads(err)
    assert json.loads(err)["error"].startswith("malformed quasi-surface spec: ")


def test_validate_disconnected(capsys, tmp_path):
    spec = fixture_spec("qt2").to_json_dict()
    spec["graph"]["vertices"].append("lonely")
    path = tmp_path / "disc.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = run(capsys, "validate", "--spec", str(path))
    assert code == 1
    assert "lonely" in json.loads(err)["error"]


def test_bracket_zero(capsys):
    code, out, _ = run(
        capsys, "bracket", "--spec", "fixture:qt2", "--x", "g1 g2^-1", "--y", "g1 g2^-1"
    )
    assert code == 0
    assert json.loads(out)["value"] == []


def test_brace_pinned_output(capsys):
    code, out, _ = run(
        capsys,
        "brace", "--spec", "fixture:qt2", "--gate", "g1", "--m", "2",
        "--x", "g1 g2^-1", "--y", "g1 g2^-1",
    )
    assert code == 0
    assert json.loads(out)["value"] == [[1, "g1 g2^-1 g1 g2^-1"]]


def test_brace_m_mismatch(capsys):
    code, _, err = run(
        capsys, "brace", "--spec", "fixture:qt2", "--gate", "g1", "--m", "3",
        "--x", "g1 g2^-1", "--y", "g1 g2^-1",
    )
    assert code == 1
    assert "does not match" in json.loads(err)["error"]


def test_homology_gram(capsys):
    code, out, _ = run(capsys, "homology", "--spec", "fixture:qt2")
    assert code == 0
    assert json.loads(out)["gram"] == [[0]]
    code, out, _ = run(capsys, "homology", "--spec", "fixture:qg1")
    assert json.loads(out)["gram"] == [[0, 2], [-2, 0]]


def test_bullet_with_omega(capsys):
    code, out, _ = run(
        capsys, "bullet", "--spec", "fixture:qt2", "--omega=-+",
        "--x", "g1 g2^-1", "--y", "g1 g2^-1",
    )
    assert code == 0
    assert json.loads(out)["value"] == []


def test_omega_length_mismatch(capsys):
    code, _, err = run(
        capsys, "bullet", "--spec", "fixture:qt2", "--omega", "+",
        "--x", "g1 g2^-1", "--y", "g1 g2^-1",
    )
    assert code == 1
    assert "orientation" in json.loads(err)["error"]


def test_unknown_token(capsys):
    code, _, err = run(
        capsys, "bracket", "--spec", "fixture:qt2", "--x", "h1", "--y", "g1 g2^-1"
    )
    assert code == 1
    assert "unknown generator token" in json.loads(err)["error"]


def test_jacobi_exit_code(capsys):
    code, out, _ = run(
        capsys, "jacobi", "--spec", "fixture:qg1",
        "--x", "g1 g3^-1", "--y", "g2 g4^-1", "--z", "g1 g4^-1 g2 g3^-1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    assert data["lhs"] == data["rhs"]


def test_mu_and_s(capsys):
    code, out, _ = run(
        capsys, "mu", "--spec", "fixture:qt2",
        "--x", "g1 g2^-1", "--y", "g1 g2^-1", "--z", "g1 g2^-1",
    )
    assert code == 0 and json.loads(out)["value"] == []
    code, out, _ = run(
        capsys, "s", "--spec", "fixture:qt2",
        "--x", "g1 g2^-1", "--y", "g1 g2^-1", "--z", "g1 g2^-1",
    )
    assert code == 0 and json.loads(out)["value"] == []


def test_diagnostics(capsys):
    code, out, _ = run(
        capsys, "diagnostics", "--spec", "fixture:qg1",
        "--x", "g1 g3^-1", "--y", "g2 g4^-1", "--z", "g1 g4^-1 g2 g3^-1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["p_decomposes"] and data["jacobiator_matches"]


def test_trace_eval(capsys, tmp_path):
    rep = {"n": 1, "images": {"g1": [["3"]]}}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep), encoding="utf-8")
    code, out, _ = run(
        capsys, "trace-eval", "--spec", "fixture:qt2", "--rep", str(path),
        "--expr", "g1 g2^-1 g1 g2^-1",
    )
    assert code == 0
    assert json.loads(out)["trace"] == "9"


def test_trace_eval_rep_without_n(capsys, tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"images": {"g1": [["3"]]}}), encoding="utf-8")
    code, out, err = run(
        capsys, "trace-eval", "--spec", "fixture:qt2", "--rep", str(path),
        "--expr", "g1 g2^-1",
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"].startswith("malformed representation")


@pytest.mark.parametrize(
    "rep",
    [
        {"n": 1, "images": {"g1": [["1/0"]]}},
        {"n": 0, "images": {}},
        {"n": 1, "images": {"g1": [[True]]}},
        {"n": True, "images": {"g1": [["3"]]}},
        {"n": 1.9, "images": {"g1": [["3"]]}},
        {"n": 1, "images": {"g1": [[0.1]]}},
    ],
    ids=["zero_denominator", "n_zero", "bool_entry", "bool_n", "float_n", "float_entry"],
)
def test_trace_eval_malformed_rep(capsys, tmp_path, rep):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep), encoding="utf-8")
    code, out, err = run(
        capsys, "trace-eval", "--spec", "fixture:qt2", "--rep", str(path),
        "--expr", "g1 g2^-1",
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"].startswith("malformed representation: ")


@pytest.mark.parametrize(
    "images", [{"g1": ["12", "01"]}, {"g1": "5"}], ids=["string_rows", "string_image"]
)
def test_rep_with_string_rows_rejected(capsys, tmp_path, images):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"n": len(images["g1"]), "images": images}), encoding="utf-8")
    for command in (["trace-eval", "--expr", "g1 g2^-1"],
                    ["bracket", "--x", "g1 g2^-1", "--y", "g1 g2^-1"]):
        code, out, err = run(capsys, *command, "--spec", "fixture:qt2", "--rep", str(path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"].startswith("malformed representation: the image of g1 ")


@pytest.mark.parametrize("bad", ["a^-1", "b c", "", "1"])
def test_validate_rejects_gate_id_that_is_not_a_loop_token(capsys, tmp_path, bad):
    spec = {
        "disks": [{"gates": ["a", bad]}],
        "graph": {"vertices": ["v"], "edges": []},
        "gluing": {"a": "v", bad: "v"},
        "basepoint": "v",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run(capsys, "validate", "--spec", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == (
        f"gate id {bad!r} is not a loop token: a gate id is a string, not empty"
        " or 1, with no whitespace and not ending in ^-1"
    )


def test_bracket_with_trace(capsys, tmp_path):
    rep = {"n": 1, "images": {"g1": [["3"]]}}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep), encoding="utf-8")
    code, out, _ = run(
        capsys, "brace", "--spec", "fixture:qt2", "--gate", "g1",
        "--x", "g1 g2^-1", "--y", "g1 g2^-1", "--rep", str(path),
    )
    assert code == 0
    assert json.loads(out)["trace"] == "9"


@pytest.mark.parametrize(
    "images",
    [
        {"g1": [["3"]], "g2": [["2"]], "g3": [["5"]]},  # one image too many
        {"g1": [["3"]]},  # one too few; mu's value is zero, so no image is missing
    ],
)
def test_rep_of_wrong_rank_rejected(capsys, tmp_path, images):
    # qg1 has rank 2; every command taking --rep rejects the point as
    # trace-eval does, instead of evaluating the value's trace at it
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"n": 1, "images": images}), encoding="utf-8")
    x, y = ["--x", "g1 g3^-1"], ["--y", "g2 g4^-1"]
    commands = [
        ["bracket", *x, *y],
        ["bullet", *x, "--y", "g1 g3^-1"],
        ["mu", *x, *y, "--z", "g1 g3^-1"],
        ["s", *x, *y, "--z", "g1 g3^-1"],
        ["brace", "--gate", "g1", *x, *y],
        ["trace-eval", "--expr", "g1 g3^-1"],
    ]
    for command in commands:
        code, out, err = run(capsys, *command, "--spec", "fixture:qg1", "--rep", str(path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == (
            f"representation has {len(images)} generator images, surface rank is 2"
        )


def test_diagram_input(capsys, tmp_path):
    from quasiloop.diagrams import diagram_to_json, word_to_diagram
    from quasiloop.fixtures import qt2 as build_qt2

    qs = build_qt2()
    d = word_to_diagram(qs, qs.parse_loop("g1 g2^-1"))
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(diagram_to_json(qs, d)), encoding="utf-8")
    code, out, _ = run(
        capsys, "bullet", "--spec", "fixture:qt2",
        "--x", f"@{path}", "--y", "g1 g2^-1",
    )
    assert code == 0
    assert json.loads(out)["value"] == [[1, "g1 g2^-1 g1 g2^-1"]]


def qt2_arc(**fields):
    """The one-arc diagram of ``g1 g2^-1`` on qt2, with some fields replaced."""
    return {"arcs": [{"disk": 0, "lane": 0, "depth": 1, "reverse": False, **fields}], "paths": [[]]}


def test_malformed_diagram_input(capsys, tmp_path):
    # a top-level list, a one-element path step and a step of sign 2 are
    # malformed diagrams; so is any field of another JSON type, which is
    # never coerced (a string "false" is not a boolean, 0.9 is not disk 0)
    for name, spec, data, y in (
        ("list", "qg1", [], "g1 g3^-1"),
        ("step", "qg1", {"paths": [[["g1"]]]}, "g1 g3^-1"),
        ("sign", "qy1", {"arcs": [], "paths": [[["e1", 2]]]}, "e1"),
        ("reverse_string", "qt2", qt2_arc(reverse="false"), "g1 g2^-1"),
        ("reverse_int", "qt2", qt2_arc(reverse=0), "g1 g2^-1"),
        ("disk_float", "qt2", qt2_arc(disk=0.9), "g1 g2^-1"),
        ("lane_bool", "qt2", qt2_arc(lane=True), "g1 g2^-1"),
        ("depth_float", "qt2", qt2_arc(depth=1.5), "g1 g2^-1"),
        ("depth_bool", "qt2", qt2_arc(depth=True), "g1 g2^-1"),
        ("sign_float", "qy1", {"arcs": [], "paths": [[["e1", 1.5]]]}, "e1"),
        ("sign_bool", "qy1", {"arcs": [], "paths": [[["e1", True]]]}, "e1"),
        ("token_int", "qy1", {"arcs": [], "paths": [[[1, 1]]]}, "e1"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(
            capsys, "bullet", "--spec", f"fixture:{spec}",
            "--x", f"@{path}", "--y", y,
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"].startswith("malformed diagram: ")


def test_brace_keeps_trivial_loop(capsys):
    code, out, _ = run(capsys, "brace", "--spec", "fixture:qg1", "--gate", "g1", "--x", "")
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 1
    assert data["loops"] == [""]


def test_selftest_deterministic(capsys):
    code1, out1, _ = run(capsys, "selftest", "--seed", "3", "--cases", "5")
    code2, out2, _ = run(capsys, "selftest", "--seed", "3", "--cases", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["passed"] is True


def test_selftest_zero_cases_warns(capsys):
    code, out, _ = run(capsys, "selftest", "--cases", "0")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert any("vacuous" in (s.get("warning") or "") for s in data["suites"])


def test_selftest_negative_cases_rejected(capsys):
    code, out, err = run(capsys, "selftest", "--cases", "-3")
    assert code == 1
    assert out == ""
    assert "--cases" in json.loads(err)["error"]


def test_selftest_suites_reject_negative_cases():
    # the library suites reject what the CLI rejects, instead of passing
    for suite in ALL_SUITES:
        with pytest.raises(ValueError, match="case count must be >= 0"):
            suite(0, -3)


def test_json_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "homology", "--spec", "fixture:qt2", "--json-out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["gram"] == [[0]]


def test_bracket_omega_independent(capsys):
    outs = []
    for omega in ("++++", "+-+-", "--++", "----"):
        code, out, _ = run(
            capsys, "bracket", "--spec", "fixture:qg1", f"--omega={omega}",
            "--x", "g1 g3^-1", "--y", "g2 g4^-1",
        )
        assert code == 0
        outs.append(json.loads(out)["value"])
    assert all(v == outs[0] for v in outs)
    assert outs[0] == [[2, "g1 g4^-1 g2 g3^-1"]]


# What ``import quasiloop.cli`` loads from the standard library on a bare
# interpreter (``-I -S``: no site hook or .pth file loads modules first;
# ``-B`` so the run leaves no bytecode behind), per Python version.  Every one-shot call pays for it; a module joins
# only with measured ``setup_s`` pairs, and then these sets grow with it.
_CLI_STDLIB_311 = frozenset({
    "__future__", "_ast", "_bisect", "_bz2", "_collections", "_collections_abc",
    "_compression", "_decimal", "_functools", "_json", "_lzma", "_opcode", "_operator",
    "_random", "_sha512", "_sre", "_stat", "_typing", "_weakrefset", "argparse", "ast",
    "bisect", "bz2", "collections", "collections.abc", "contextlib", "copy", "copyreg",
    "dataclasses", "decimal", "dis", "enum", "errno", "fnmatch", "fractions",
    "functools", "genericpath", "gettext", "importlib", "importlib._bootstrap",
    "importlib._bootstrap_external", "importlib.machinery", "importlib.resources",
    "importlib.resources._adapters", "importlib.resources._common",
    "importlib.resources._legacy", "importlib.resources.abc", "inspect", "ipaddress",
    "itertools", "json", "json.decoder", "json.encoder", "json.scanner", "keyword",
    "linecache", "lzma", "math", "ntpath", "numbers", "opcode", "operator", "os",
    "os.path", "pathlib", "posixpath", "random", "re", "re._casefix", "re._compiler",
    "re._constants", "re._parser", "reprlib", "shutil", "stat", "tempfile", "token",
    "tokenize", "types", "typing", "typing.io", "typing.re", "urllib", "urllib.parse",
    "warnings", "weakref", "zlib",
})
CLI_STDLIB_IMPORTS = {
    (3, 10): _CLI_STDLIB_311 - {
        "_typing", "importlib.resources._adapters", "importlib.resources._common",
        "importlib.resources._legacy", "importlib.resources.abc", "ipaddress",
        "re._casefix", "re._compiler", "re._constants", "re._parser",
    } | {
        "_locale", "importlib._abc", "importlib._adapters", "importlib._common",
        "importlib.abc", "sre_compile", "sre_constants", "sre_parse",
    },
    (3, 11): _CLI_STDLIB_311,
    (3, 12): _CLI_STDLIB_311 - {"_sha512"} | {"_sha2", "_tokenize"},
    (3, 13): _CLI_STDLIB_311 - {
        "_sha512", "importlib.resources._adapters", "importlib.resources._legacy",
        "ipaddress", "linecache", "typing.io", "typing.re", "urllib", "urllib.parse",
    } | {
        "_opcode_metadata", "_tokenize", "glob", "grp", "importlib.resources._functional",
        "pathlib._abc", "pathlib._local", "pwd",
    },
}


def test_cli_import_loads_only_stdlib_and_package():
    # the runtime is stdlib only, and the CLI's import graph is what every
    # one-shot call pays for; on a Python version with a pinned set, no
    # module outside it joins
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import quasiloop.cli; print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, src],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "quasiloop.cli" in out
    foreign = [
        m for m in out
        if m.split(".")[0] not in sys.stdlib_module_names and m.split(".")[0] != "quasiloop"
    ]
    assert foreign == []
    pinned = CLI_STDLIB_IMPORTS.get(sys.version_info[:2])
    if pinned is not None:
        new = [m for m in out if m.split(".")[0] != "quasiloop" and m not in pinned]
        assert new == []
