import random

import pytest

from quasiloop.diagrams import (
    ExplicitDiagram,
    SurfaceCrossing,
    all_orientations,
    combine_generic,
    flip_gate,
    opposite,
    parse_omega,
    word_to_diagram,
)
from quasiloop.fox import algebraic_brace
from quasiloop.homology import first_form
from quasiloop.homotopy import bullet, gate_brace_geometric, kk_pairing, second_bracket
from quasiloop.randomcase import random_class, random_omega, random_surface, random_word
from quasiloop.ring import LoopCombination, project_to_classes
from quasiloop.words import canonical_conjugacy


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
        expect_apply = GroupRingElement.zero()
        expect_delta = GroupRingElement.zero()
        for v, c in G:
            expect_apply = expect_apply + c * d.apply_word(v)
            expect_delta = expect_delta + c * d.delta_word(v)
        assert d.apply(G) == expect_apply
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
