import itertools
import random

import pytest

from quasiloop.diagrams import (
    ExplicitDiagram,
    GenericFamily,
    SurfaceCrossing,
    all_orientations,
    combine_generic,
    flip_gate,
    opposite,
    parse_omega,
    realize_based,
    realize_loop,
    word_to_diagram,
)
from quasiloop.fox import algebraic_brace
from quasiloop.homology import first_form, gram_matrix
from quasiloop.homotopy import bullet, gate_brace_geometric, kk_pairing, second_bracket
from quasiloop.quasilie import mu_total
from quasiloop.randomcase import random_class, random_omega, random_surface, random_word
from quasiloop.ring import GroupRingElement, LoopCombination, project_to_classes
from quasiloop.surface import build
from quasiloop.words import Word, canonical_conjugacy


def lc(qs, text, coeff=1):
    return coeff * LoopCombination.from_class(qs.parse_loop(text))


def test_gate_brace_values(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    assert gate_brace_geometric(qt2, "g1", [z, z]) == lc(qt2, "g1 g2^-1 g1 g2^-1")
    assert gate_brace_geometric(qt2, "g2", [z, z, z]) == lc(qt2, "g1 g2^-1 g1 g2^-1 g1 g2^-1", -1)


def test_gate_brace_missing_gate_gives_zero(qd2):
    y = qd2.parse_loop("e1 e2^-1")
    x = qd2.parse_loop("g1 g2^-1 e1^-1")
    assert gate_brace_geometric(qd2, "g5", [x, y]).is_zero()
    assert gate_brace_geometric(qd2, "g1", [x, y]).is_zero()  # y never crosses g1


def test_gate_brace_trivial_argument(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    assert gate_brace_geometric(qt2, "g1", [z, qt2.parse_loop("")]).is_zero()


def test_gate_brace_unknown_gate(qt2):
    with pytest.raises(ValueError, match="unknown gate"):
        gate_brace_geometric(qt2, "g9", [qt2.parse_loop("g1 g2^-1")])


def test_gate_brace_bilinear(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    z2 = qt2.parse_loop("g1 g2^-1 g1 g2^-1")
    combo = 2 * LoopCombination.from_class(z) - 1 * LoopCombination.from_class(z2)
    direct = gate_brace_geometric(qt2, "g1", [combo, z])
    expanded = 2 * gate_brace_geometric(qt2, "g1", [z, z]) - gate_brace_geometric(
        qt2, "g1", [z2, z]
    )
    assert direct == expanded


def test_bullet_values(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    assert bullet(qt2, None, z, z) == lc(qt2, "g1 g2^-1 g1 g2^-1")
    assert bullet(qt2, flip_gate(parse_omega(qt2, None), 0), z, z).is_zero()


def test_bullet_graph_loop_vanishes(qd2):
    y = qd2.parse_loop("e1 e2^-1")
    x = qd2.parse_loop("g1 g2^-1 e1^-1")
    assert bullet(qd2, None, x, y).is_zero()
    assert bullet(qd2, None, y, x).is_zero()


def test_second_bracket_skew_and_rank_one(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    z2 = qt2.parse_loop("g1 g2^-1 g1 g2^-1")
    assert second_bracket(qt2, z, z).is_zero()
    assert second_bracket(qt2, z, z2).is_zero()
    assert second_bracket(qt2, z, qt2.parse_loop("")).is_zero()


def test_oracle_equivalence_fixtures(qt2, qg1, qd2):
    rng = random.Random(31)
    for qs in (qt2, qg1, qd2):
        for _ in range(15):
            gate = rng.choice(qs.gates)
            d = qs.gate_derivative(gate)
            for m in (1, 2, 3):
                args = [random_class(rng, qs.rank, max_len=6) for _ in range(m)]
                geo = gate_brace_geometric(qs, gate, args)
                alg = algebraic_brace([d] * m, [LoopCombination.from_class(c) for c in args])
                assert geo == alg


def test_bullet_reversal_law():
    rng = random.Random(32)
    for _ in range(40):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        x = random_class(rng, qs.rank, max_len=6)
        y = random_class(rng, qs.rank, max_len=6)
        assert bullet(qs, omega, x, y) == -1 * bullet(qs, opposite(omega), y, x)


def test_bullet_gate_flip_law():
    rng = random.Random(33)
    for _ in range(25):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        x = random_class(rng, qs.rank, max_len=5)
        y = random_class(rng, qs.rank, max_len=5)
        base = bullet(qs, omega, x, y)
        for k, gate in enumerate(qs.gates):
            lhs = bullet(qs, flip_gate(omega, k), x, y)
            assert lhs == base - omega[k] * gate_brace_geometric(qs, gate, [x, y])


def test_bullet_symmetrization():
    rng = random.Random(34)
    for _ in range(25):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        x = random_class(rng, qs.rank, max_len=5)
        y = random_class(rng, qs.rank, max_len=5)
        total = LoopCombination.zero()
        for k, gate in enumerate(qs.gates):
            total = total + omega[k] * gate_brace_geometric(qs, gate, [x, y])
        assert bullet(qs, omega, x, y) + bullet(qs, omega, y, x) == total


def test_second_bracket_omega_free(qg1):
    from quasiloop.diagrams import all_orientations

    rng = random.Random(35)
    x = random_class(rng, qg1.rank, max_len=5)
    y = random_class(rng, qg1.rank, max_len=5)
    values = {
        repr((bullet(qg1, om, x, y) - bullet(qg1, om, y, x)).to_pairs())
        for om in all_orientations(qg1)
    }
    assert len(values) == 1


def test_second_bracket_equals_difference_of_pairings():
    # the opposite-side route against the pairing minus its transpose at a
    # random orientation, on classes, rotated and depth-permuted lane
    # diagrams, and combinations holding a bracket value
    from quasiloop.diagrams import diagram_from_cyclic_path
    from quasiloop.selftest import _permute_depths

    rng = random.Random(71)
    nonzero = 0
    for _ in range(200):
        qs = random_surface(rng, max_disks=3, max_gates=7)
        omega = random_omega(rng, qs)
        x, y, z = (random_class(rng, qs.rank, max_len=7) for _ in range(3))
        path = qs.cyclic_edge_path(x)
        r = rng.randrange(len(path)) if path else 0
        rotated = diagram_from_cyclic_path(qs, path[r:] + path[:r])
        px, py = _permute_depths(rng, combine_generic(qs, [rotated, y]).diagrams())
        combo = second_bracket(qs, y, z) - 2 * LoopCombination.from_class(x)
        for a, b in ((x, y), (rotated, y), (px, py), (combo, z), (y, combo), (px, combo)):
            expected = bullet(qs, omega, a, b) - bullet(qs, omega, b, a)
            assert second_bracket(qs, a, b, omega) == expected
            assert second_bracket(qs, a, b) == expected
            nonzero += bool(expected)
    assert nonzero >= 400


def test_mu_total_equals_gate_braces_and_fox_route():
    # mu read from side tables against the one-gate braces summed over the
    # gates and against the Fox route; verify_quasi_jacobi and s_bracket,
    # which share the tables, against the public operations
    from quasiloop.quasilie import jacobiator, mu_total, s_bracket, verify_quasi_jacobi

    rng = random.Random(72)
    nonzero = 0
    for _ in range(60):
        qs = random_surface(rng, max_disks=3, max_gates=7)
        x, y, z = (random_class(rng, qs.rank, max_len=6) for _ in range(3))
        combo = second_bracket(qs, x, y) - LoopCombination.from_class(z)
        for args in ([x, y, z], [combo, y, z], [z, x, combo]):
            value = mu_total(qs, *args)
            assert value == LoopCombination.collect(
                term for gate in qs.gates for term in gate_brace_geometric(qs, gate, args)
            )
            combos = [a if isinstance(a, LoopCombination) else LoopCombination.from_class(a)
                      for a in args]
            assert value == LoopCombination.collect(
                term
                for gate in qs.gates
                for term in algebraic_brace([qs.gate_derivative(gate)] * 3, combos)
            )
            nonzero += bool(value)
        report = verify_quasi_jacobi(qs, x, y, z)
        assert report.lhs == jacobiator(qs, x, y, z)
        assert report.rhs == mu_total(qs, x, y, z) - mu_total(qs, y, x, z)
        assert s_bracket(qs, x, y, z) == 2 * mu_total(qs, x, y, z) - report.lhs
    assert nonzero >= 50


def test_kk_pairing_example(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    zw = z.representative()
    out = kk_pairing(qt2, None, z, zw)
    assert out.to_pairs() == [[1, "g1 g1"]]
    assert project_to_classes(out) == bullet(qt2, None, z, z)
    assert kk_pairing(qt2, None, qt2.parse_loop(""), zw).is_zero()


def test_kk_pairing_leibniz():
    rng = random.Random(36)
    for _ in range(40):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        x = random_class(rng, qs.rank, max_len=5)
        u = random_word(rng, qs.rank, max_len=4)
        v = random_word(rng, qs.rank, max_len=4)
        lhs = kk_pairing(qs, omega, x, u * v)
        rhs = kk_pairing(qs, omega, x, u).right_mul(v) + kk_pairing(qs, omega, x, v).left_mul(u)
        assert lhs == rhs


def test_kk_projection_intertwines():
    rng = random.Random(37)
    for _ in range(40):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        x = random_class(rng, qs.rank, max_len=5)
        u = random_word(rng, qs.rank, max_len=5)
        assert project_to_classes(kk_pairing(qs, omega, x, u)) == bullet(
            qs, omega, x, canonical_conjugacy(u)
        )


def test_explicit_crossings_contribute(qt2):
    # two copies of the generator with one declared crossing of sign +1:
    # the crossing grafts the exit rotations of the crossed arcs
    z = qt2.parse_loop("g1 g2^-1")
    d0 = word_to_diagram(qt2, z)
    d1 = word_to_diagram(qt2, z).arcs[0]
    from quasiloop.diagrams import DiskArc, LaneDiagram

    d1 = LaneDiagram((DiskArc(0, 0, 2),), ((),))
    fam = ExplicitDiagram((d0, d1), (SurfaceCrossing((0, 0), (1, 0), 1),))
    with_crossing = bullet(qt2, None, fam)
    without = bullet(qt2, None, ExplicitDiagram((d0, d1), ()))
    diff = with_crossing - without
    # the graft of the two exit rotations is z * z
    assert diff == lc(qt2, "g1 g2^-1 g1 g2^-1")
    # and the homological count rises by exactly the declared sign
    from quasiloop.homology import first_form

    assert first_form(qt2, None, fam) == first_form(
        qt2, None, ExplicitDiagram((d0, d1), ())
    ) + 1


def test_explicit_family_depth_clash_rejected(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    d = word_to_diagram(qt2, z)
    with pytest.raises(ValueError, match="share depth"):
        bullet(qt2, None, ExplicitDiagram((d, d), ()))


def test_sandwich_realizes_brace_in_last_slot():
    # the 3-brace in its last variable is induced by the filling derivation
    # built from the first two companion values
    from quasiloop.fox import sandwich_derivation

    rng = random.Random(38)
    for _ in range(20):
        qs = random_surface(rng)
        gate = rng.choice(qs.gates)
        d = qs.gate_derivative(gate)
        x1 = random_class(rng, qs.rank, max_len=4)
        x2 = random_class(rng, qs.rank, max_len=4)
        w = random_word(rng, qs.rank, max_len=4)
        filling = d.delta(x1) * d.delta(x2)
        realized = project_to_classes(sandwich_derivation(d, filling)(w))
        direct = algebraic_brace(
            [d, d, d],
            [
                LoopCombination.from_class(x1),
                LoopCombination.from_class(x2),
                LoopCombination.from_word(w),
            ],
        )
        assert realized == direct


def test_doubled_goldman_bracket_on_cut_torus(qg1):
    # the four-gate fixture is a once-punctured torus cut along two arcs;
    # its standard generators meet once, and the skew bracket returns the
    # grafted class with coefficient two (the doubled classical bracket)
    x = qg1.parse_loop("g1 g3^-1")
    y = qg1.parse_loop("g2 g4^-1")
    value = second_bracket(qg1, x, y)
    assert [[c, qg1.format_class(k)] for k, c in value.sorted_terms()] == [
        [2, "g1 g4^-1 g2 g3^-1"]
    ]


def test_bullet_bilinear_over_combinations(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    z2 = qt2.parse_loop("g1 g2^-1 g1 g2^-1")
    combo = 2 * LoopCombination.from_class(z) - 3 * LoopCombination.from_class(z2)
    direct = bullet(qt2, None, combo, z)
    expanded = 2 * bullet(qt2, None, z, z) - 3 * bullet(qt2, None, z2, z)
    assert direct == expanded
    assert second_bracket(qt2, combo, combo).is_zero()


def test_cancelling_declared_crossing_pair_is_invisible(qt2):
    # pushing one arc across another creates two crossings of opposite
    # sign with identical grafts; declaring such a pair changes nothing
    from quasiloop.diagrams import DiskArc, LaneDiagram
    from quasiloop.homology import first_form

    d0 = LaneDiagram((DiskArc(0, 0, 1),), ((),))
    d1 = LaneDiagram((DiskArc(0, 0, 2),), ((),))
    plain = ExplicitDiagram((d0, d1), ())
    pushed = ExplicitDiagram(
        (d0, d1),
        (SurfaceCrossing((0, 0), (1, 0), 1), SurfaceCrossing((0, 0), (1, 0), -1)),
    )
    assert bullet(qt2, None, pushed) == bullet(qt2, None, plain)
    assert first_form(qt2, None, pushed) == first_form(qt2, None, plain)


def test_first_form_is_coefficient_sum_of_bullet():
    # both forms consume the same crossing pairs: the oriented crossing
    # count is the augmentation of the oriented pairing, declared
    # crossings of explicit families included
    rng = random.Random(61)
    for _ in range(40):
        qs = random_surface(rng)
        x = random_class(rng, qs.rank, max_len=6)
        y = random_class(rng, qs.rank, max_len=6)
        dx, dy = combine_generic(qs, [x, y]).diagrams()
        crossings = []
        for i, a in enumerate(dx.arcs):
            for j, b in enumerate(dy.arcs):
                if a.disk == b.disk and rng.random() < 0.4:
                    ends = [(0, i), (1, j)]
                    rng.shuffle(ends)
                    crossings.append(SurfaceCrossing(*ends, rng.choice((1, -1))))
        explicit = ExplicitDiagram((dx, dy), tuple(crossings))
        for omega in all_orientations(qs):
            assert first_form(qs, omega, x, y) == sum(bullet(qs, omega, x, y).terms.values())
            assert first_form(qs, omega, explicit) == sum(bullet(qs, omega, explicit).terms.values())


def test_crossing_must_join_arcs_of_one_disk(qd2):
    from quasiloop.diagrams import word_to_diagram as w2d

    a = w2d(qd2, qd2.parse_loop("g1 g2^-1 e1^-1"))
    b = w2d(qd2, qd2.parse_loop("g5 g4^-1 e1^-1"))
    with pytest.raises(ValueError, match="one disk"):
        ExplicitDiagram((a, b), (SurfaceCrossing((0, 0), (1, 0), 1),))


def test_bracket_realized_by_two_orientation_pairing():
    # the skew bracket applied to a based class is induced by the
    # derivation summing the pairing over an orientation and its opposite
    rng = random.Random(39)
    for _ in range(25):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        x = random_class(rng, qs.rank, max_len=5)
        y = random_word(rng, qs.rank, max_len=5)
        both = kk_pairing(qs, omega, x, y) + kk_pairing(qs, opposite(omega), x, y)
        assert project_to_classes(both) == second_bracket(qs, x, canonical_conjugacy(y))


def test_twice_bullet_decomposition():
    # 2 x*y = [x,y] + sum of oriented gate 2-braces, the halving identity
    rng = random.Random(58)
    for _ in range(25):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        x = random_class(rng, qs.rank, max_len=5)
        y = random_class(rng, qs.rank, max_len=5)
        gate_sum = LoopCombination.zero()
        for k, gate in enumerate(qs.gates):
            gate_sum = gate_sum + omega[k] * gate_brace_geometric(qs, gate, [x, y])
        assert 2 * bullet(qs, omega, x, y) == second_bracket(qs, x, y) + gate_sum


def _weighted_sum(zero, pairs):
    # sum of coeff * value, built with + only: an independent route to collect
    total = zero
    for value, coeff in pairs:
        total = total + coeff * value
    return total


def test_operations_are_linear_in_every_slot():
    # X = sum a_i x_i and Y = sum b_j y_j on random surfaces: each operation
    # on combinations equals the weighted sum of its values on single loops
    from quasiloop.diagrams import diagram_from_cyclic_path
    from quasiloop.quasilie import mu_total
    from quasiloop.ring import GroupRingElement
    from quasiloop.selftest import _reroute_arc

    rng = random.Random(4)
    zero = LoopCombination.zero()
    for _ in range(20):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        xs = [random_class(rng, qs.rank, max_len=5) for _ in range(2)]
        ys = [random_class(rng, qs.rank, max_len=5) for _ in range(2)]
        a = [rng.choice((-2, -1, 1, 3)) for _ in xs]
        b = [rng.choice((-3, -1, 1, 2)) for _ in ys]
        X = LoopCombination.collect(zip(xs, a))
        Y = LoopCombination.collect(zip(ys, b))
        z, w = (random_class(rng, qs.rank, max_len=4) for _ in range(2))
        u = random_word(rng, qs.rank, max_len=4)
        gate = rng.choice(qs.gates)

        assert (X - X).terms == {}
        assert bullet(qs, omega, X, Y) == _weighted_sum(
            zero, ((bullet(qs, omega, xi, yj), ai * bj)
                   for xi, ai in zip(xs, a) for yj, bj in zip(ys, b))
        )
        for slot in range(3):
            def at(arg):
                args = [z, w, z]
                args[slot] = arg
                return args

            assert gate_brace_geometric(qs, gate, at(X)) == _weighted_sum(
                zero, ((gate_brace_geometric(qs, gate, at(xi)), ai) for xi, ai in zip(xs, a))
            )
            assert mu_total(qs, *at(Y)) == _weighted_sum(
                zero, ((mu_total(qs, *at(yj)), bj) for yj, bj in zip(ys, b))
            )
        assert kk_pairing(qs, omega, X, u) == _weighted_sum(
            GroupRingElement.zero(), ((kk_pairing(qs, omega, xi, u), ai) for xi, ai in zip(xs, a))
        )

        d = qs.gate_derivative(gate)
        words = [random_word(rng, qs.rank, max_len=4) for _ in range(3)]
        coeffs = [rng.choice((-2, 1, 2)) for _ in words]
        G = GroupRingElement.collect(zip(words, coeffs))
        expect_delta = GroupRingElement.zero()
        for v, c in G:
            expect_delta = expect_delta + c * d.delta_word(v)
        assert d.delta(G) == expect_delta
        assert d.delta(X) == _weighted_sum(
            GroupRingElement.zero(), ((d.delta(xi), ai) for xi, ai in zip(xs, a))
        )

        # a lane diagram of another representative of x, next to class
        # arguments, gives the value of the class route
        x = xs[0]
        path = qs.cyclic_edge_path(x)
        r = rng.randrange(len(path)) if path else 0
        rotated = diagram_from_cyclic_path(qs, path[r:] + path[:r])
        others = [rotated]
        if rotated.arcs:
            others.append(_reroute_arc(qs, rotated, rng.randrange(len(rotated.arcs))))
        for dx in others:
            assert bullet(qs, omega, dx, Y) == bullet(qs, omega, x, Y)
            assert bullet(qs, omega, Y, dx) == bullet(qs, omega, Y, x)
            assert gate_brace_geometric(qs, gate, [z, dx, Y]) == gate_brace_geometric(
                qs, gate, [z, x, Y]
            )
            assert kk_pairing(qs, omega, dx, u) == kk_pairing(qs, omega, x, u)


def fresh_rotation(qs, fam, ref):
    """Reference rotation word: collapse the rotated edge path."""
    rl = fam.loops[ref.loop]
    arc = rl.arcs[ref.arc]
    cut = arc.entry_pos if ref.entry else arc.exit_pos + 1
    return qs.word_from_edge_path(rl.edge_path[cut:] + rl.edge_path[:cut])


def fresh_bullet(qs, omega, x, y):
    """Reference: a fresh ``combine_generic`` family for every pair of terms."""
    terms = []
    for (kx, cx), (ky, cy) in itertools.product(x.terms.items(), y.terms.items()):
        fam = combine_generic(qs, [kx, ky])
        for p, q, c in fam.crossing_pairs(omega):
            word = fresh_rotation(qs, fam, p) * fresh_rotation(qs, fam, q)
            terms.append((canonical_conjugacy(word), cx * cy * c))
    return LoopCombination.collect(terms)


def fresh_brace(qs, gate, args):
    """Reference: a fresh ``combine_generic`` family for every choice of terms."""
    terms = []
    for picks in itertools.product(*(a.terms.items() for a in args)):
        fam = combine_generic(qs, [k for k, _ in picks])
        coeff = 1
        for _, c in picks:
            coeff *= c
        sequence = fam.gate_sequence(gate)
        per_loop = [[c for c in sequence if c.loop == i] for i in range(len(picks))]
        for combo in itertools.product(*per_loop):
            sign, word = coeff, Word()
            for ref in combo:
                sign *= ref.sign
                word = word * fresh_rotation(qs, fam, ref)
            terms.append((canonical_conjugacy(word), sign))
    return LoopCombination.collect(terms)


def test_realizing_once_per_call_matches_fresh_families():
    # combinations whose terms repeat across arguments, so that one
    # realized loop serves several families, and twice in one family
    rng = random.Random(41)
    for _ in range(30):
        qs = random_surface(rng)
        a, b, c = (random_class(rng, qs.rank, max_len=6) for _ in range(3))
        x = 2 * LoopCombination.from_class(a) - LoopCombination.from_class(b)
        y = LoopCombination.from_class(b) + 3 * LoopCombination.from_class(c)
        omega = random_omega(rng, qs)
        for left, right in ((x, y), (y, x), (x, x)):
            assert bullet(qs, omega, left, right) == fresh_bullet(qs, omega, left, right)
        for gate in qs.gates:
            for args in ([x], [x, y], [y, x, y]):
                assert gate_brace_geometric(qs, gate, args) == fresh_brace(qs, gate, args)


def fresh_kk(qs, omega, x, u):
    """Reference: a fresh family of each term of x with the based loop of
    u, spliced at each crossing pair between the collapsed halves of the
    based loop's edge path."""
    based = realize_based(qs, u)
    terms = []
    for kx, cx in x.terms.items():
        fam = GenericFamily(qs, [realize_loop(qs, kx), based])
        for p, q, c in fam.crossing_pairs(omega):
            arc = based.arcs[q.arc]
            cut = arc.entry_pos if q.entry else arc.exit_pos + 1
            prefix = qs.word_from_edge_path(based.edge_path[:cut])
            suffix = qs.word_from_edge_path(based.edge_path[cut:])
            terms.append((prefix * fresh_rotation(qs, fam, p) * suffix, cx * c))
    return GroupRingElement.collect(terms)


def pair_count(qs, omega, x, y):
    """Reference: the coefficient sum of a fresh family's crossing pairs."""
    fam = GenericFamily(qs, [realize_loop(qs, x), realize_loop(qs, y)])
    return sum(c for _, _, c in fam.crossing_pairs(omega))


def test_pair_forms_equal_crossing_pair_sums():
    # kk_pairing, first_form and gram_matrix read side tables; each against
    # the pair sum of a fresh family, at a random orientation, for class
    # and combination arguments
    rng = random.Random(73)
    nonzero = {"kk": 0, "first": 0, "gram": 0}
    for _ in range(150):
        qs = random_surface(rng, max_disks=3, max_gates=7)
        omega = random_omega(rng, qs)
        x, y = (random_class(rng, qs.rank, max_len=8) for _ in range(2))
        u = random_word(rng, qs.rank, max_len=8)
        combo = LoopCombination.collect([(x, 2), (y, -3)])
        for a, terms in ((x, LoopCombination.from_class(x)), (combo, combo)):
            expected = fresh_kk(qs, omega, terms, u)
            assert kk_pairing(qs, omega, a, u) == expected
            nonzero["kk"] += bool(expected)
        expected = pair_count(qs, omega, x, y)
        assert first_form(qs, omega, x, y) == expected
        nonzero["first"] += bool(expected)
        gens = [Word.generator(i) for i in range(qs.rank)]
        raw = [[pair_count(qs, omega, a, b) for b in gens] for a in gens]
        expected = [[raw[i][j] - raw[j][i] for j in range(qs.rank)] for i in range(qs.rank)]
        assert gram_matrix(qs) == expected
        nonzero["gram"] += any(any(row) for row in expected)
    # 178, 65 and 121 nonzero when written
    assert nonzero["kk"] >= 120 and nonzero["first"] >= 40 and nonzero["gram"] >= 80


def test_bullet_y_slot_fox_route():
    # the pairing's second route: y's crossings at gate k are replaced by
    # the gate's Fox companion, x *_omega y = sum_k omega_k
    # p(A^omega_k(x) delta_k(y)); x's start side (+1) or end side (-1) is
    # read off its realized arcs here, and y's sides are never classified
    rng = random.Random(75)
    nonzero = 0
    for _ in range(300):
        qs = random_surface(rng, max_disks=3, max_gates=7)
        omega = random_omega(rng, qs)
        x, y = (random_class(rng, qs.rank, max_len=10) for _ in range(2))
        rl = realize_loop(qs, x)
        expected = LoopCombination.zero()
        for k, gate in enumerate(qs.gates):
            side = []
            for arc, entry in rl.crossings[k]:
                a = rl.arcs[arc]
                if (entry != a.reverse) == (omega[k] > 0):
                    cut = a.entry_pos if entry else a.exit_pos + 1
                    word = qs.word_from_edge_path(rl.edge_path[cut:] + rl.edge_path[:cut])
                    side.append((word, 1 if entry else -1))
            delta = qs.gate_derivative(gate).delta(y)
            expected = expected + omega[k] * project_to_classes(GroupRingElement.collect(side) * delta)
        assert bullet(qs, omega, x, y) == expected
        nonzero += bool(expected)
    assert nonzero >= 120  # 163 of the 300 when written


def _memo_snapshot(qs):
    """A copy of every memoized side table; holding it keeps its classes,
    and so their entries, alive."""
    return {
        c: tuple((list(start), list(end)) for start, end in table)
        for c, table in qs.side_tables.items()
    }


def test_shared_realizations_stay_read_only_in_any_call_order():
    # every route reads the one side table of a class on its surface, so
    # none may change it: each memoized table is unchanged after each call,
    # and the calls in a shuffled order on one surface give the values they
    # give each on a fresh surface
    rng = random.Random(79)
    for _ in range(40):
        qs = random_surface(rng, max_disks=3, max_gates=7)
        omega = random_omega(rng, qs)
        x, y, z = (random_class(rng, qs.rank, min_len=2, max_len=8) for _ in range(3))
        u = random_word(rng, qs.rank, max_len=6)
        combo = second_bracket(qs, x, y)
        calls = [
            ("bullet", lambda s: bullet(s, omega, x, y)),
            ("bullet opposite", lambda s: bullet(s, opposite(omega), x, y)),
            ("bullet combination", lambda s: bullet(s, omega, combo, z)),
            ("second_bracket", lambda s: second_bracket(s, y, z)),
            ("kk_pairing", lambda s: kk_pairing(s, omega, x, u)),
            ("first_form", lambda s: first_form(s, omega, x, y)),
            ("gram_matrix", lambda s: gram_matrix(s)),
            ("mu_total", lambda s: mu_total(s, x, y, z)),
            ("combine_generic", lambda s: combine_generic(s, [x, y, z]).diagrams()),
        ]
        calls += [
            (f"gate brace {gate}", lambda s, gate=gate: gate_brace_geometric(s, gate, [x, y]))
            for gate in qs.gates
        ]
        expected = {name: call(build(qs.spec)) for name, call in calls}
        rng.shuffle(calls)
        for name, call in calls:
            before = _memo_snapshot(qs)
            assert call(qs) == expected[name], name
            after = _memo_snapshot(qs)
            assert all(after[c] == loop for c, loop in before.items()), name
