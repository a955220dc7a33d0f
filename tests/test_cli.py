import json

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
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "validate", "--spec", str(path))
    assert code == 1
    assert "error" in json.loads(err)


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


def test_malformed_diagram_input(capsys, tmp_path):
    # a top-level list and a one-element path step are malformed diagrams
    for name, data in (("list", []), ("step", {"paths": [[["g1"]]]})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(
            capsys, "bullet", "--spec", "fixture:qg1",
            "--x", f"@{path}", "--y", "g1 g3^-1",
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
