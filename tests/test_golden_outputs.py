"""Golden outputs: the JSON stdout of the README's CLI commands on the
shipped fixtures, and ``to_pairs()`` of seeded Jacobiators and brackets
of loops drawn from twelve letters, compared byte for byte with
``golden_outputs.json``.

The expected file was written by an earlier engine, so any change in a
representative, a rotation or a term order shows up here.  Rewrite it
only when an output is meant to change::

    PYTHONPATH=src python tests/test_golden_outputs.py --write
"""

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from quasiloop import fixtures, jacobiator, second_bracket
from quasiloop.cli import main
from quasiloop.randomcase import random_class

GOLDEN = Path(__file__).with_name("golden_outputs.json")

REP_QG1 = {"n": 2, "images": {"g1": [["1", "1"], ["0", "1"]], "g2": [["1", "0"], ["2/3", "1"]]}}
REP_QT2 = {"n": 2, "images": {"g1": [["2", "1"], ["1", "1"]]}}
QG1_XYZ = ["--x", "g1 g3^-1", "--y", "g2 g4^-1", "--z", "g1 g4^-1 g2 g3^-1"]
QD2_XYZ = [
    "--x", "g1 g2^-1 e1^-1 g5 g4^-1 e1^-1 g1 g3^-1",
    "--y", "g5 g4^-1 e1^-1 g1 g3^-1 e1 e2^-1",
    "--z", "g1 g2^-1 e1^-1 g1 g3^-1 g1 g2^-1 e1^-1",
]

# name -> argv; "{rep_qg1}" and "{rep_qt2}" stand for representation files
CLI_CASES = {
    "validate_qg1": ["validate", "--spec", "fixture:qg1"],
    "bracket_qt2": ["bracket", "--spec", "fixture:qt2", "--x", "g1 g2^-1", "--y", "g1 g2^-1"],
    "bullet_qt2": ["bullet", "--spec", "fixture:qt2", "--omega", "++", "--x", "g1 g2^-1", "--y", "g1 g2^-1"],
    "brace_qt2": ["brace", "--spec", "fixture:qt2", "--gate", "g1", "--m", "2",
                  "--x", "g1 g2^-1", "--y", "g1 g2^-1"],
    "mu_qg1": ["mu", "--spec", "fixture:qg1", *QG1_XYZ],
    "s_qg1": ["s", "--spec", "fixture:qg1", *QG1_XYZ],
    "homology_qg1": ["homology", "--spec", "fixture:qg1"],
    "homology_qd2": ["homology", "--spec", "fixture:qd2"],
    "jacobi_qg1": ["jacobi", "--spec", "fixture:qg1", *QG1_XYZ],
    "diagnostics_qg1": ["diagnostics", "--spec", "fixture:qg1", *QG1_XYZ],
    "trace_eval_qt2": ["trace-eval", "--spec", "fixture:qt2", "--rep", "{rep_qt2}",
                       "--expr", "g1 g2^-1 g1 g2^-1"],
    "trace_eval_qg1": ["trace-eval", "--spec", "fixture:qg1", "--rep", "{rep_qg1}",
                       "--expr", "g1 g4^-1 g2 g3^-1 g1 g3^-1"],
    "bracket_qd2": ["bracket", "--spec", "fixture:qd2", *QD2_XYZ[:4]],
    "bullet_qd2": ["bullet", "--spec", "fixture:qd2", "--omega=-+-+-", "--x", QD2_XYZ[3], "--y", QD2_XYZ[5]],
    "brace_qd2": ["brace", "--spec", "fixture:qd2", "--gate", "g4", "--m", "3", *QD2_XYZ],
    "mu_qd2": ["mu", "--spec", "fixture:qd2", *QD2_XYZ],
    "jacobi_qd2": ["jacobi", "--spec", "fixture:qd2", *QD2_XYZ],
    "bracket_qg1_rep": ["bracket", "--spec", "fixture:qg1", "--rep", "{rep_qg1}",
                        "--x", "g1 g4^-1 g2 g3^-1", "--y", "g1 g3^-1 g1 g3^-1"],
}

# name -> (operation, fixture, seed), on classes drawn from twelve letters
# each; the Jacobiator vanishes on qg1, so there the bracket is pinned
SEEDED_CASES = {
    **{f"jacobiator_qd2_{seed}": (jacobiator, "qd2", seed) for seed in (1, 2, 3, 5)},
    **{f"second_bracket_qg1_{seed}": (second_bracket, "qg1", seed) for seed in (1, 2)},
}


def cli_output(name, rep_dir):
    reps = {}
    for key, rep in (("rep_qg1", REP_QG1), ("rep_qt2", REP_QT2)):
        path = Path(rep_dir) / f"{key}.json"
        path.write_text(json.dumps(rep), encoding="utf-8")
        reps[key] = str(path)
    argv = [arg.format(**reps) for arg in CLI_CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


def seeded_output(name):
    operation, fixture, seed = SEEDED_CASES[name]
    qs = getattr(fixtures, fixture)()
    rng = random.Random(seed)
    loops = [random_class(rng, qs.rank, max_len=12, min_len=12) for _ in range(3)]
    if operation is second_bracket:
        loops = loops[:2]
    return json.dumps(operation(qs, *loops).to_pairs())


def expected(name):
    return json.loads(GOLDEN.read_text(encoding="utf-8"))[name]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_golden_output(name, tmp_path):
    assert cli_output(name, tmp_path) == expected(name)


@pytest.mark.parametrize("name", sorted(SEEDED_CASES))
def test_seeded_golden_output(name):
    assert seeded_output(name) == expected(name)


def _write():
    golden = {}
    with tempfile.TemporaryDirectory() as rep_dir:
        for name in sorted(CLI_CASES):
            golden[name] = cli_output(name, rep_dir)
    for name in sorted(SEEDED_CASES):
        golden[name] = seeded_output(name)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_outputs.py --write")
    _write()
