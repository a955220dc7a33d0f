"""Acceptance gate: every shipped identity at its contracted scale.

Each criterion runs a seeded suite at full scale with tolerance zero
(exact integer/rational equality) and prints one PASS line; run with
``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines).
"""

import ast
from pathlib import Path

from quasiloop import selftest as S
from quasiloop.diagrams import dual_v, word_to_diagram
from quasiloop.fixtures import qt2
from quasiloop.homology import first_form
from quasiloop.homotopy import bullet, gate_brace_geometric
from quasiloop.quasilie import mu_total
from quasiloop.ring import LoopCombination

SEED = 2026


def _run(criterion, suite, cases, label):
    result = suite(SEED, cases)
    detail = "; ".join(result.failures)
    assert result.passed, f"criterion {criterion} failed: {detail}"
    print(f"ACCEPTANCE {criterion}: PASS ({result.cases} cases) {label}")


def test_criterion_1_oracle_equivalence():
    _run(1, S.suite_oracle_braces, 1000,
         "geometric gate braces equal Fox-derivative braces for m=1,2,3")


def test_criterion_2_quasi_jacobi():
    _run(2, S.suite_quasi_jacobi, 1000,
         "Jacobiator equals mu(x,y,z) - mu(y,x,z) on qt2/qg1/qd2")


def test_criterion_3_omega_change_laws():
    _run(3, S.suite_omega_change, 500,
         "gate-flip laws for the homological and homotopy pairings, every gate")


def test_criterion_4_symmetrization_laws():
    _run(4, S.suite_symmetrization, 500,
         "2x.y = i(x,y) + sum and x*y + y*x = sum of gate 2-braces")


def test_criterion_5_representative_invariance():
    _run(5, S.suite_representative_invariance, 500,
         "conjugation, depth permutation, detour insertion, interleaving swap")


def test_criterion_6_omega_independence():
    _run(6, S.suite_omega_independence, 6,
         "skew forms identical across all 2^gates orientations")


def test_criterion_7_symmetries():
    _run(7, S.suite_symmetries, 500,
         "skew bracket, reversal law, cyclic 3-braces, symmetric s, delta table")


def test_criterion_8_derivation_certificates():
    _run(8, S.suite_derivation_certificates, 500,
         "based Leibniz rule and projection intertwiner")


def test_criterion_9_trace_descent():
    _run(9, S.suite_trace_descent, 50,
         "evaluated symmetries, quasi-Jacobi, n=1 and determinant-one certificates")


def test_selftest_full_runs_the_acceptance_counts():
    # `selftest --full` reads the table's acceptance counts: they are the
    # literals of the criteria above, and criterion 10 is one worked case
    calls = [node for node in ast.walk(ast.parse(Path(__file__).read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_run"]
    literals = {call.args[1].attr: call.args[2].value for call in calls}
    table = {suite.__name__: full for suite, full, _ in S.SUITE_COUNTS}
    assert len(literals) == len(calls) == 9
    assert table == {**literals, "suite_fixture_values": 1}


# --- criterion 10: the worked two-gate fixture table ---------------------
#
# The expected values below are recomputed here by brute-force enumeration
# of crossing tuples from first principles, independent of the library's
# family machinery, and then pinned against the engine.
#
# On the two-gate fixture the generator z enters the disk at g1 and leaves
# at g2; its cyclic edge word is (g1, +1)(g2, -1).  A copy of z crosses g1
# once with sign +1 (rotation word: z) and g2 once with sign -1 (rotation
# word, starting after the exit letter: z again).  Combining two copies
# (first argument below the second) yields the gate orders
#     g1: [copy 2, copy 1]        g2: [copy 1, copy 2]
# so with the counterclockwise orientation of both gates the only triple
# with the second loop's crossing strictly before the first loop's is at
# g1.  Every pinned value is enumerated from exactly this data.

Z_CROSSINGS = {  # gate -> (sign, rotation exponent of z)
    "g1": (+1, 1),
    "g2": (-1, 1),
}
GATE_ORDER_TWO_COPIES = {"g1": ["b", "a"], "g2": ["a", "b"]}  # ccw reference


def _brute_force_pair_terms(omega_g1=1, omega_g2=1):
    """All (gate, sign product, graft exponent) terms with the b-crossing
    before the a-crossing in the oriented gate order."""
    terms = []
    for gate, omega in (("g1", omega_g1), ("g2", omega_g2)):
        order = GATE_ORDER_TWO_COPIES[gate]
        if omega < 0:
            order = list(reversed(order))
        if order.index("b") < order.index("a"):
            sign, rot = Z_CROSSINGS[gate]
            terms.append((gate, omega * sign * sign, rot + rot))
    return terms


def test_criterion_10_fixture_table():
    qs = qt2()
    z = qs.parse_loop("g1 g2^-1")
    zw = z.representative()

    # dual counts: one +1 crossing at g1, one -1 crossing at g2
    d = word_to_diagram(qs, z)
    assert dual_v(qs, "g1", d) == +1
    assert dual_v(qs, "g2", d) == -1

    # one-variable braces: a single crossing each, sign times rotation
    for gate, (sign, rot) in Z_CROSSINGS.items():
        expected = sign * LoopCombination.from_word(zw ** rot)
        assert gate_brace_geometric(qs, gate, [z]) == expected

    # two-variable brace at g1: one crossing tuple, signs (+1)(+1), graft z.z
    assert gate_brace_geometric(qs, "g1", [z, z]) == LoopCombination.from_word(zw * zw)

    # oriented pairing and crossing number from the enumerated T terms
    terms = _brute_force_pair_terms()
    assert [(g, s) for g, s, _ in terms] == [("g1", 1)]
    expected_bullet = LoopCombination.zero()
    for _, coeff, exponent in terms:
        expected_bullet = expected_bullet + coeff * LoopCombination.from_word(zw ** exponent)
    assert bullet(qs, None, z, z) == expected_bullet == LoopCombination.from_word(zw * zw)
    assert first_form(qs, None, z, z) == sum(s for _, s, _ in terms) == 1

    # flipping g1 empties the enumerated term set
    assert _brute_force_pair_terms(omega_g1=-1) == []
    assert first_form(qs, (-1, 1), z, z) == 0

    # the total 3-bracket cancels between the two gates:
    # g1 contributes (+1)^3 <z^3>, g2 contributes (-1)^3 <z^3>
    contributions = []
    for gate, (sign, rot) in Z_CROSSINGS.items():
        contributions.append(sign ** 3 * LoopCombination.from_word(zw ** (3 * rot)))
    assert contributions[0] + contributions[1] == LoopCombination.zero()
    assert mu_total(qs, z, z, z).is_zero()

    print("ACCEPTANCE 10: PASS worked fixture table reproduced from brute-force enumeration")
