import itertools
import random

from quasiloop.quasilie import (
    PandUDiagnostics,
    delta3,
    delta3_companion,
    delta_sign,
    jacobiator,
    mu_total,
    p_and_u_diagnostics,
    s_bracket,
    verify_quasi_jacobi,
)
from quasiloop import fixtures
from quasiloop.homotopy import _loop_terms, bullet, gate_brace_geometric, second_bracket
from quasiloop.randomcase import random_class, random_omega, random_surface
from quasiloop.ring import GroupRingElement, LoopCombination, project_to_classes
from quasiloop.words import canonical_conjugacy


def test_mu_total_cancels_on_two_gate_fixture(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    assert mu_total(qt2, z, z, z).is_zero()


def test_mu_total_trivial_argument(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    assert mu_total(qt2, z, z, qt2.parse_loop("")).is_zero()


def test_mu_total_cyclic():
    rng = random.Random(41)
    for _ in range(25):
        qs = random_surface(rng)
        x, y, z = (random_class(rng, qs.rank, max_len=5) for _ in range(3))
        assert mu_total(qs, x, y, z) == mu_total(qs, z, x, y)


def test_jacobiator_vanishes_on_rank_one(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    assert jacobiator(qt2, z, z, z).is_zero()


def test_quasi_jacobi_on_fixtures(qt2, qg1, qd2):
    rng = random.Random(42)
    for qs in (qt2, qg1, qd2):
        for _ in range(25):
            x, y, z = (random_class(rng, qs.rank, max_len=5) for _ in range(3))
            report = verify_quasi_jacobi(qs, x, y, z)
            assert report.equal, report.difference.to_pairs()
            assert report.difference.is_zero()


def test_quasi_jacobi_random_surfaces():
    rng = random.Random(43)
    for _ in range(20):
        qs = random_surface(rng)
        x, y, z = (random_class(rng, qs.rank, max_len=5) for _ in range(3))
        assert verify_quasi_jacobi(qs, x, y, z).equal


def test_quasi_jacobi_degenerate_graph_loop(qd2):
    y = qd2.parse_loop("e1 e2^-1")
    x = qd2.parse_loop("g1 g2^-1 e1^-1")
    report = verify_quasi_jacobi(qd2, x, y, y)
    assert report.equal and report.lhs.is_zero() and report.rhs.is_zero()


def test_s_bracket_symmetric():
    rng = random.Random(44)
    for _ in range(12):
        qs = random_surface(rng)
        x, y, z = (random_class(rng, qs.rank, max_len=4) for _ in range(3))
        base = s_bracket(qs, x, y, z)
        for perm in itertools.permutations((x, y, z)):
            assert s_bracket(qs, *perm) == base


def test_s_bracket_diagonal(qt2):
    # with [x,x] = 0 the symmetric bracket reduces to twice the 3-bracket
    z = qt2.parse_loop("g1 g2^-1")
    assert s_bracket(qt2, z, z, z) == 2 * mu_total(qt2, z, z, z)
    assert s_bracket(qt2, z, z, z).is_zero()


def test_quasi_lie_pair_stable_under_symmetric_shift():
    # adding a fully symmetric 3-bracket preserves the quasi-Jacobi identity
    rng = random.Random(45)
    for _ in range(8):
        qs = random_surface(rng)
        x, y, z = (random_class(rng, qs.rank, max_len=4) for _ in range(3))
        jac = jacobiator(qs, x, y, z)

        def shifted_mu(a, b, c):
            return mu_total(qs, a, b, c) + 3 * s_bracket(qs, a, b, c)

        assert jac == shifted_mu(x, y, z) - shifted_mu(y, x, z)


def test_p_and_u_diagnostics():
    rng = random.Random(46)
    for _ in range(10):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        x, y, z = (random_class(rng, qs.rank, max_len=4) for _ in range(3))
        diag = p_and_u_diagnostics(qs, omega, x, y, z)
        assert isinstance(diag, PandUDiagnostics)
        assert diag.p_decomposes
        assert diag.jacobiator_matches


def test_p_and_u_zero_inputs(qt2):
    triv = qt2.parse_loop("")
    diag = p_and_u_diagnostics(qt2, None, triv, triv, triv)
    assert diag.p_xyz.is_zero() and diag.u_omega.is_zero() and diag.u_omega_bar.is_zero()
    assert diag.p_decomposes and diag.jacobiator_matches


def test_p_and_u_diagnostics_forms_each_pairing_once(qg1, monkeypatch):
    # the README qg1 example: P(x,y,z) and P(y,x,z) share their six inner
    # products, and u_omega is the first three outer terms of P(x,y,z), so
    # the 36 pairings of the definitions hold 24 distinct ones
    import quasiloop.quasilie as QL

    calls = []

    def counting_bullet(qs, omega, a, b):
        calls.append((omega, a, b))
        return bullet(qs, omega, a, b)

    monkeypatch.setattr(QL, "bullet", counting_bullet)
    x, y, z = (qg1.parse_loop(t) for t in ("g1 g3^-1", "g2 g4^-1", "g1 g4^-1 g2 g3^-1"))
    diag = QL.p_and_u_diagnostics(qg1, None, x, y, z)
    assert diag.p_decomposes and diag.jacobiator_matches
    assert len(calls) == len(set(calls)) == 24


def test_delta_tables():
    assert delta_sign(1) == 1 and delta_sign(-1) == 0
    assert delta3(1, 1, 1) == 2
    for triple in itertools.product((1, -1), repeat=3):
        value = delta3(*triple)
        for perm in itertools.permutations(triple):
            assert delta3(*perm) == value
        e1, e2, e3 = triple
        assert value - e1 * e2 * e3 == delta3_companion(*triple)


def test_jacobiator_bilinear_extension(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    combo = 2 * LoopCombination.from_class(z)
    assert jacobiator(qt2, combo, z, z) == 2 * jacobiator(qt2, z, z, z)


def test_both_sides_cyclically_symmetric():
    rng = random.Random(47)
    for _ in range(10):
        qs = random_surface(rng)
        x, y, z = (random_class(rng, qs.rank, max_len=4) for _ in range(3))
        assert jacobiator(qs, x, y, z) == jacobiator(qs, z, x, y)
        rhs = mu_total(qs, x, y, z) - mu_total(qs, y, x, z)
        rhs_rot = mu_total(qs, z, x, y) - mu_total(qs, x, z, y)
        assert rhs == rhs_rot


def test_degenerate_fixture_all_brackets_vanish(qy1):
    # no reduced loop of this surface crosses its single gate
    loop = qy1.parse_loop("e1")
    assert mu_total(qy1, loop, loop, loop).is_zero()
    assert jacobiator(qy1, loop, loop, loop).is_zero()
    assert verify_quasi_jacobi(qy1, loop, loop, loop).equal


# --- the code-tuple route against the Word route --------------------------------

def word_side_table(qs, x):
    """Reference side table: per gate, the (start, end) lists of rotation
    Word and coeff · sign, with the side rule of ``_RArc.start_side``."""
    table = [([], []) for _ in qs.gates]
    for rl, c in _loop_terms(qs, x):
        for (start, end), crossings in zip(table, rl.crossings):
            for arc, entry in crossings:
                side = start if rl.arcs[arc].start_side(entry) else end
                side.append((rl.rotation(rl.cut(arc, entry)), c if entry else -c))
    return table


def word_bracket(tx, ty):
    def grafts():
        for (start_x, end_x), (start_y, end_y) in zip(tx, ty):
            for a, ca in start_x:
                for b, cb in end_y:
                    yield canonical_conjugacy(a * b), ca * cb
            for b, cb in start_y:
                for a, ca in end_x:
                    yield canonical_conjugacy(b * a), -cb * ca

    return LoopCombination.collect(grafts())


def word_bullet(qs, omega, x, y):
    return LoopCombination.collect(
        (canonical_conjugacy(a * b), w * ca * cb)
        for w, (start, end), (start_y, end_y) in zip(
            omega, word_side_table(qs, x), word_side_table(qs, y)
        )
        for a, ca in (start if w > 0 else end)
        for b, cb in start_y + end_y
    )


def word_jacobiator(qs, x, y, z):
    tx, ty, tz = (word_side_table(qs, a) for a in (x, y, z))
    total = LoopCombination.zero()
    for ta, tb, tc in ((tx, ty, tz), (ty, tz, tx), (tz, tx, ty)):
        total = total + word_bracket(word_side_table(qs, word_bracket(ta, tb)), tc)
    return total


def word_mu(qs, x, y, z):
    factors = [
        [GroupRingElement.collect(start + end) for start, end in word_side_table(qs, a)]
        for a in (x, y, z)
    ]
    return LoopCombination.collect(
        (canonical_conjugacy(w), c)
        for dx, dy, dz in zip(*factors)
        for w, c in (dx * dy * dz).terms.items()
    )


def word_brace(qs, gate, loops):
    # one group-ring factor per loop, both sides at the gate, multiplied
    # and projected to classes
    k = qs.gate_index(gate)
    product = GroupRingElement.one()
    for x in loops:
        start, end = word_side_table(qs, x)[k]
        product = product * GroupRingElement.collect(start + end)
    return project_to_classes(product)


def reference_cases():
    rng = random.Random(143)
    for _ in range(80):
        qs = random_surface(rng, max_disks=3, max_gates=7)
        yield qs, random_omega(rng, qs), [random_class(rng, qs.rank, max_len=6) for _ in range(3)]
    for qs in (fixtures.qg1(), fixtures.qd2()):
        for _ in range(3):
            loops = [random_class(rng, qs.rank, max_len=10, min_len=10) for _ in range(3)]
            yield qs, random_omega(rng, qs), loops


def canonical_without_zeros(value):
    return all(c != 0 and k == canonical_conjugacy(k.word) for k, c in value.terms.items())


def test_code_route_equals_word_route():
    # every form that grafts on code tuples, against the Word route it
    # replaced: rotation Words, products, canonical_conjugacy, collect
    nonzero = dict.fromkeys(("bracket", "bullet", "brace", "jacobiator", "mu", "s"), 0)
    for qs, omega, (x, y, z) in reference_cases():
        combo = LoopCombination.collect([(x, 2), (y, -3), (z, 1)])
        tx, ty = (word_side_table(qs, a) for a in (x, y))
        checks = [
            ("bracket", second_bracket(qs, x, y), word_bracket(tx, ty)),
            ("bullet", bullet(qs, omega, x, y), word_bullet(qs, omega, x, y)),
            ("bullet", bullet(qs, omega, combo, z), word_bullet(qs, omega, combo, z)),
            ("bullet", bullet(qs, omega, y, combo), word_bullet(qs, omega, y, combo)),
            ("jacobiator", jacobiator(qs, x, y, z), word_jacobiator(qs, x, y, z)),
            ("mu", mu_total(qs, x, y, z), word_mu(qs, x, y, z)),
            ("s", s_bracket(qs, x, y, z), 2 * word_mu(qs, x, y, z) - word_jacobiator(qs, x, y, z)),
        ]
        for m in (1, 2, 3, 4):
            # a combination in the last slot
            loops = [x, y, z][: m - 1] + [combo]
            checks += [
                ("brace", gate_brace_geometric(qs, gate, loops), word_brace(qs, gate, loops))
                for gate in qs.gates
            ]
        report = verify_quasi_jacobi(qs, x, y, z)
        checks += [
            ("jacobiator", report.lhs, word_jacobiator(qs, x, y, z)),
            ("mu", report.rhs, word_mu(qs, x, y, z) - word_mu(qs, y, x, z)),
        ]
        for name, value, expected in checks:
            assert value == expected, name
            assert canonical_without_zeros(value), name
            nonzero[name] += bool(expected)
    # 45, 162, 820, 46, 52 and 29 nonzero when written
    floors = {"bracket": 30, "bullet": 110, "brace": 550, "jacobiator": 30, "mu": 35, "s": 20}
    assert all(nonzero[name] >= floor for name, floor in floors.items()), nonzero
