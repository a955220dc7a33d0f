"""The selftest runner's failure path: every law can fail, each failure is
a JSON record that redraws its case, and its sides agree with the CLI."""

import hashlib
import itertools
import json

import pytest

from quasiloop import homology as H
from quasiloop import quasilie as QL
from quasiloop import selftest as S
from quasiloop import traceeval as T
from quasiloop.cli import main
from quasiloop.diagrams import LaneDiagram
from quasiloop.fox import FoxDerivative
from quasiloop.ring import GroupRingElement, LoopCombination
from quasiloop.words import ConjClass, Word, _class, canonical_conjugacy

TRIVIAL = canonical_conjugacy(Word())


def _term(loop) -> LoopCombination:
    """What a perturbed operation adds for one loop argument: the class
    itself, or for a lane diagram its arc count in trivial loops, so that a
    diagram and its class no longer agree."""
    if isinstance(loop, ConjClass):
        return LoopCombination.from_class(loop)
    if isinstance(loop, LaneDiagram):
        return LoopCombination.from_class(TRIVIAL, len(loop.arcs) + 1)
    return LoopCombination.zero()


def _off(value, loops, weight: int = 1):
    """``value`` plus ``weight`` times a term that depends on each loop
    argument and on its position: off by a little, in the value's type."""
    extra = LoopCombination.zero()
    for i, loop in enumerate(loops):
        extra = extra + (i + 1) * _term(loop)
    if isinstance(value, LoopCombination):
        return value + weight * extra
    return value + weight * sum(c * (len(k) + 1) for k, c in extra)


def _weight(omega) -> int:
    # one more for each gate oriented clockwise, so the error moves with omega
    return 1 + sum(s < 0 for s in omega or ())


def _jacobiator_codes(f):
    def wrong(qs, terms, tx, ty, tz, scale=1):
        terms = f(qs, terms, tx, ty, tz, scale)
        terms[()] = terms.get((), 0) + scale
        return terms
    return wrong


def _rotated_class(f):
    def wrong(w):
        codes = f(w).word.codes
        return _class(codes[1:] + codes[:1])
    return wrong


def _reversed_path(f):
    return lambda qs, path: f(qs, tuple((e, -d) for e, d in reversed(path)))


def _left_shift(self, g):
    return FoxDerivative(tuple(img.left_mul(g) for img in self.images))


# one engine operation at a time, each wrong in a way that some law must see
PERTURBATIONS = {
    "gate brace": [(S, "gate_brace_geometric", lambda f: lambda qs, gate, loops: _off(f(qs, gate, loops), loops))],
    "pairing": [(S, "bullet", lambda f: lambda qs, omega, *loops: _off(f(qs, omega, *loops), loops,
                                                                       _weight(omega)))],
    "first form": [(H, "first_form", lambda f: lambda qs, omega, *loops: _off(f(qs, omega, *loops), loops,
                                                                              _weight(omega)))],
    "bracket": [(S, "second_bracket", lambda f: lambda qs, x, y, omega=None: _off(f(qs, x, y, omega), [x, y]))],
    "s-bracket": [(QL, "s_bracket", lambda f: lambda qs, *loops: _off(f(qs, *loops), loops))],
    "mu": [(QL, "mu_total", lambda f: lambda qs, *loops: _off(f(qs, *loops), loops))],
    "Jacobiator": [(QL, "_jacobiator_codes", _jacobiator_codes)],
    "gate dual count": [(S, "dual_v", lambda f: lambda qs, gate, d: f(qs, gate, d) + 1)],
    "delta3": [(QL, "delta3", lambda f: lambda e1, e2, e3: f(e1, e2, e3) + e1)],
    "canonical rotation": [(S, "canonical_conjugacy", _rotated_class)],
    "diagram class": [(S, "diagram_to_word", lambda f: lambda qs, d: canonical_conjugacy(~f(qs, d).word))],
    "cyclic path diagram": [(S, "diagram_from_cyclic_path", _reversed_path)],
    "based pairing": [(m, "kk_pairing", lambda f: lambda *a: f(*a) + GroupRingElement.one()) for m in (S, T)],
    "shifted derivative": [(FoxDerivative, "shifted", lambda f: _left_shift)],
}

# per suite a count that draws enough cases for every perturbation to show
COUNTS = {
    "oracle_gate_braces": 3, "quasi_jacobi": 1, "omega_change": 4, "symmetrization": 4,
    "representative_invariance": 8, "omega_independence": 1, "symmetries": 3,
    "derivation_certificates": 4, "trace_descent": 1, "fixture_values": 1,
}
SEED = 11


def _perturb(monkeypatch, name):
    for owner, attr, wrong in PERTURBATIONS[name]:
        monkeypatch.setattr(owner, attr, wrong(getattr(owner, attr)))


def _laws(name, seed, cases):
    draw, laws = S._SUITES[name]
    return {tag for case in draw(seed, cases) for tag, _, _ in laws(**case)}


def _run_all(monkeypatch) -> dict:
    """Each suite's failure records, by suite name, with no dump limit."""
    monkeypatch.setattr(S, "MAX_DUMPS", 10**6)
    records = {}
    for suite in S.ALL_SUITES:
        name = suite(SEED, 0).name
        result = suite(SEED, COUNTS[name])
        records[name] = [json.loads(text) for text in result.failures]
    return records


def test_every_law_fails_under_some_perturbation(monkeypatch):
    # a law that compares a value with itself, or two routes that cannot
    # differ, fails under no perturbation and is named here; without one,
    # nothing fails
    assert not any(_run_all(monkeypatch).values())
    seen = {name: set() for name in S._SUITES}
    for perturbation in PERTURBATIONS:
        with monkeypatch.context() as m:
            _perturb(m, perturbation)
            for name, records in _run_all(m).items():
                for record in records:
                    assert record["suite"] == name and record["seed"] == SEED
                    assert record["cases"] == COUNTS[name]
                    seen[name].add(record["law"])
    for name in S._SUITES:
        tags = _laws(name, SEED, COUNTS[name])
        assert seen[name] <= tags
        assert sorted(tags - seen[name]) == [], name


def _redraw(record):
    draw, laws = S._SUITES[record["suite"]]
    case = next(itertools.islice(draw(record["seed"], record["cases"]), record["case"], None))
    return case, laws


@pytest.mark.parametrize(("perturbation", "suite"), [
    ("pairing", S.suite_representative_invariance),
    ("Jacobiator", S.suite_trace_descent),
    ("canonical rotation", S.suite_representative_invariance),
])
def test_a_record_redraws_its_case(monkeypatch, perturbation, suite):
    _perturb(monkeypatch, perturbation)
    monkeypatch.setattr(S, "MAX_DUMPS", 10**6)
    result = suite(SEED, 3)
    assert not result.passed
    for text in result.failures:
        record = json.loads(text)
        assert text == json.dumps(record, sort_keys=True)
        case, laws = _redraw(record)
        qs = case["qs"]
        assert {key: S._json(qs, value) for key, value in case.items()} == record["inputs"]
        sides = [(lhs, rhs) for tag, lhs, rhs in laws(**case) if tag == record["law"]]
        assert len(sides) == 1 and sides[0][0] != sides[0][1]
        assert [S._json(qs, side) for side in sides[0]] == [record["lhs"], record["rhs"]]


def _recorded(monkeypatch, owner, attr, wrong, law):
    """The symmetry suite's records of one law, with one operation wrong."""
    with monkeypatch.context() as m:
        m.setattr(S, "MAX_DUMPS", 10**6)
        m.setattr(owner, attr, wrong(getattr(owner, attr)))
        records = [json.loads(text) for text in S.suite_symmetries(SEED, 3).failures]
    return [record for record in records if record["law"] == law]


def test_a_recorded_side_is_what_the_cli_prints(monkeypatch, capsys, tmp_path):
    # the pairing is wrong, so its transpose is: the bracket side is right
    (owner, attr, wrong), = PERTURBATIONS["pairing"]
    brackets = _recorded(monkeypatch, owner, attr, wrong, "bracket is the pairing minus its transpose")
    # the orientation is not reversed: the reversal law's pairing side is right
    pairings = _recorded(monkeypatch, S, "opposite", lambda f: lambda omega: omega, "reversal law")
    assert brackets and pairings
    for command, records in (("bracket", brackets), ("bullet", pairings)):
        for record in records:
            inputs = record["inputs"]
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps(inputs["qs"]), encoding="utf-8")
            assert main([command, "--spec", str(spec), "--omega=" + inputs["omega"],
                         "--x", inputs["x"], "--y", inputs["y"]]) == 0
            assert json.loads(capsys.readouterr().out)["value"] == record["lhs"]


def test_zero_cases_check_nothing_and_say_so():
    # fixture_values used to run its table for 0 cases and report 5 cases
    # for one pass; symmetries used to check the delta3 table for 0 cases
    for suite in S.ALL_SUITES:
        result = suite(0, 0)
        assert result.passed and result.cases == 0
        assert result.warning == "0 cases requested: vacuous pass"
    assert S.suite_fixture_values(0, 5).cases == 1
    assert S.suite_fixture_values(0, 1).warning is None


def test_a_run_with_no_cases_computes_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a 0-case run checked a law")

    for owner, attr in ((QL, "delta3"), (S, "gate_brace_geometric"), (S, "dual_v")):
        monkeypatch.setattr(owner, attr, refuse)
    for suite in S.ALL_SUITES:
        suite(0, 0)


# sha256 of each suite's drawn inputs, in their JSON forms, at seed 0 and
# the CLI's default counts; the parent of this table drew the same cases
DRAW_DIGESTS = {
    "oracle_gate_braces": "642c3a1b9aad86bc13721680fdaa1b0aedef99ad0b455735166f81add0449dc6",
    "quasi_jacobi": "6d7d0f314e269c96b9e5b56a18880b0c9cbe751a2638b2a61210deb87d15b2ac",
    "omega_change": "dd35ea5abdf488c4f75b5b01d98dc1d1d0d567f5e6ee95cf3a2896b9e6dfb748",
    "symmetrization": "459d2ef023ff14035465519c7fd2ea23f79ffa67e9f531930e7eb38bc6ccf82b",
    "representative_invariance": "0f7bf787043cc560a9442826844189650937195ae1627b4df84307fb57a5ba19",
    "omega_independence": "920e4ba9dfeb16844fd271939801f85f1a6098e578330ae3a4ce772a89ada01d",
    "symmetries": "cfef285146ae48d93f8d2a289f311d352b40df0da7eec814b9e97eeccffdbcf0",
    "derivation_certificates": "9ce0d2edb10af3ee316affc7eb2ce2043c8be996a6aabc85a3e37fa70cee59b9",
    "trace_descent": "8719427e071cd7a53010ce11c82aa894dfa19c0c5af01cc7aa06ed643c832603",
    "fixture_values": "77b6edb00eb75d88be767de5813a95e85bb980a697328f42e96e8ffb480c9efc",
}


def _draw_digest(name, cases):
    draw, _ = S._SUITES[name]
    digest = hashlib.sha256()
    for case in draw(0, cases):
        inputs = {key: S._json(case["qs"], value) for key, value in case.items()}
        digest.update(json.dumps(inputs, sort_keys=True).encode())
    return digest.hexdigest()


def test_draws_are_pinned():
    counts = {suite(0, 0).name: default for suite, _, default in S.SUITE_COUNTS}
    assert {name: _draw_digest(name, n) for name, n in counts.items()} == DRAW_DIGESTS
