import gc
import random

import pytest

from quasiloop import diagrams, fixtures
from quasiloop.diagrams import (
    DiskArc,
    ExplicitDiagram,
    GenericFamily,
    LaneDiagram,
    SurfaceCrossing,
    _class_sides,
    _codes_sides,
    all_orientations,
    combine_generic,
    diagram_from_cyclic_path,
    diagram_to_word,
    dual_v,
    explicit_pair,
    realize_based,
    realize_loop,
    validate_diagram,
    word_to_diagram,
)
from quasiloop.homology import _side_counts
from quasiloop.homotopy import _side_table, _sides, bullet, second_bracket
from quasiloop.quasilie import jacobiator
from quasiloop.randomcase import random_class, random_surface, random_word
from quasiloop.ring import LoopCombination
from quasiloop.surface import build
from quasiloop.words import Word, canonical_conjugacy, format_word


def test_single_arc_diagram(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    d = word_to_diagram(qt2, z)
    assert d.arcs == (DiskArc(0, 0, 1),)
    assert d.paths == ((),)
    assert diagram_to_word(qt2, d) == z


def test_two_arc_diagram(qt2):
    z2 = qt2.parse_loop("g1 g2^-1 g1 g2^-1")
    d = word_to_diagram(qt2, z2)
    assert d.arcs == (DiskArc(0, 0, 1), DiskArc(0, 0, 2))
    assert diagram_to_word(qt2, d) == z2


def test_opposite_passage_uses_other_lane(qt2):
    # entering through g2 takes the lane after g2
    zinv = qt2.parse_loop("g2 g1^-1")
    d = word_to_diagram(qt2, zinv)
    assert d.arcs == (DiskArc(0, 1, 1),)
    assert diagram_to_word(qt2, d) == zinv


def test_trivial_class_gives_empty_diagram(qt2):
    d = word_to_diagram(qt2, qt2.parse_loop(""))
    assert d == LaneDiagram((), ())
    assert diagram_to_word(qt2, d).is_trivial()


def test_pure_graph_loop(qd2):
    c = qd2.parse_loop("e1 e2^-1")
    d = word_to_diagram(qd2, c)
    assert not d.arcs and len(d.paths) == 1
    assert diagram_to_word(qd2, d) == c
    assert all(dual_v(qd2, g, d) == 0 for g in qd2.gates)


def test_far_passage_inserts_detour(qg1):
    # g1 -> g3 passes an intervening gate either way around the disk
    c = qg1.parse_loop("g1 g3^-1")
    d = word_to_diagram(qg1, c)
    assert len(d.arcs) == 2
    assert diagram_to_word(qg1, d) == c
    # detour crossings cancel in the dual count
    assert dual_v(qg1, "g1", d) == 1
    assert dual_v(qg1, "g3", d) == -1
    assert dual_v(qg1, "g2", d) == 0 and dual_v(qg1, "g4", d) == 0


def test_round_trip_random():
    rng = random.Random(11)
    for _ in range(120):
        qs = random_surface(rng)
        c = random_class(rng, qs.rank, max_len=8)
        assert diagram_to_word(qs, word_to_diagram(qs, c)) == c


def test_rotation_of_path_preserves_class():
    rng = random.Random(12)
    for _ in range(60):
        qs = random_surface(rng)
        c = random_class(rng, qs.rank, max_len=6)
        path = qs.cyclic_edge_path(c)
        if not path:
            continue
        r = rng.randrange(len(path))
        d = diagram_from_cyclic_path(qs, path[r:] + path[:r])
        assert diagram_to_word(qs, d) == c


def test_dual_v_matches_abelianized_count():
    rng = random.Random(13)
    from quasiloop.homology import gate_dual, h1_class

    for _ in range(60):
        qs = random_surface(rng)
        c = random_class(rng, qs.rank, max_len=7)
        d = word_to_diagram(qs, c)
        vec = h1_class(qs, c)
        for gate in qs.gates:
            assert dual_v(qs, gate, d) == gate_dual(qs, gate, vec)


def test_dual_v_examples(qt2, qd2):
    z = qt2.parse_loop("g1 g2^-1")
    z2 = qt2.parse_loop("g1 g2^-1 g1 g2^-1")
    assert dual_v(qt2, "g1", z) == 1
    assert dual_v(qt2, "g1", z2) == 2
    with pytest.raises(ValueError, match="unknown gate"):
        dual_v(qt2, "g5", z)
    # a malformed diagram: an unknown disk (either side of the range), an
    # out-of-range lane, an arc field of another type, which is never
    # coerced (False is not disk 0, 1.5 is not a depth), or an arc that is
    # a plain tuple
    for arc, message in (
        (DiskArc(5, 0, 1), "unknown disk 5"),
        (DiskArc(-1, 0, 1), "unknown disk -1"),
        (DiskArc(0, 2, 1), "lane 2 out of range"),
        (DiskArc(0, -1, 1), "lane -1 out of range"),
        (DiskArc(0, 0.0, 1), "^malformed diagram: an arc needs"),
        (DiskArc(False, 0, 1), "^malformed diagram: an arc needs"),
        (DiskArc(0, 0, True), "^malformed diagram: an arc needs"),
        (DiskArc(0, 0, 1.5), "^malformed diagram: an arc needs"),
        (DiskArc(0, 0, 1, "no"), "^malformed diagram: an arc needs"),
        ((0, 0, 1), "^malformed diagram: an arc is a DiskArc"),
    ):
        with pytest.raises(ValueError, match=message):
            dual_v(qt2, "g1", LaneDiagram((arc,), ((),)))
    # a path step off the graph edges: a negative index would be read from
    # the end (e1 e2^-1 on qd2 as the trivial class), and a gate edge
    # belongs to an arc; and paths of the wrong shape: one step given as
    # the path, a step that is not a pair, a string of paths, a list path
    for qs, paths, message in (
        (qd2, (((-7, 1), (-6, -1)),), "path step edge"),
        (qd2, (((99, 1),),), "path step edge"),
        (qd2, (((2, 1), (3, -1)),), "path step edge"),
        (qt2, (((0, 1), (1, -1)),), "path step edge"),
        (qd2, ((0, 1),), "a path step is an .edge, sign. pair, got 0$"),
        (qd2, ((5,),), "a path step is an .edge, sign. pair, got 5$"),
        (qd2, (((5,),),), "a path step is an .edge, sign. pair, got .5,.$"),
        (qd2, "ab", "arcs and paths are tuples"),
        (qd2, ([(0, 1)],), "a path is a tuple"),
    ):
        with pytest.raises(ValueError, match="^malformed diagram: " + message):
            dual_v(qs, qs.gates[0], LaneDiagram((), paths))


def test_combine_generic_block_order(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    fam = combine_generic(qt2, [z, z])
    # along g1 (counterclockwise) the second copy comes first
    assert [c.loop for c in fam.gate_sequence("g1")] == [1, 0]
    assert [c.loop for c in fam.gate_sequence("g2")] == [0, 1]
    assert [c.sign for c in fam.gate_sequence("g1")] == [1, 1]
    assert [c.sign for c in fam.gate_sequence("g2")] == [-1, -1]


def test_combine_single_diagram_unchanged(qt2):
    z2 = qt2.parse_loop("g1 g2^-1 g1 g2^-1")
    d = word_to_diagram(qt2, z2)
    fam = combine_generic(qt2, [d])
    assert fam.diagrams() == (d,)


def test_combine_no_shared_gates(qd2):
    z = qd2.parse_loop("g1 g2^-1 e1^-1")
    y = qd2.parse_loop("e1 e2^-1")
    fam = combine_generic(qd2, [z, y])
    assert all(c.loop == 0 for g in qd2.gates for c in fam.gate_sequence(g))


def test_rotation_words(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    fam = combine_generic(qt2, [z, z])
    for ref in fam.gate_sequence("g1") + fam.gate_sequence("g2"):
        assert format_word(fam.rotation_word(ref)) == "g1"


def test_validate_diagram_catches_depth_clash(qt2):
    bad = LaneDiagram((DiskArc(0, 0, 1), DiskArc(0, 0, 1)), ((), ()))
    with pytest.raises(ValueError, match="share depth"):
        validate_diagram(qt2, bad)


def test_validate_diagram_catches_broken_chain(qd2):
    # arc exits g2 at w2, but path e1 starts at w1
    bad = LaneDiagram((DiskArc(0, 0, 1),), (((0, 1),),))
    with pytest.raises(ValueError, match="chain"):
        validate_diagram(qd2, bad)


def test_validate_diagram_catches_step_sign(qy1):
    # a closed one-edge path whose step has sign 2: every route that takes
    # a diagram from outside validates it before realizing it
    bad = LaneDiagram((), (((0, 2),),))
    for route in (
        lambda: validate_diagram(qy1, bad),
        lambda: diagram_to_word(qy1, bad),
        lambda: combine_generic(qy1, [bad]),
        lambda: explicit_pair(qy1, ExplicitDiagram((bad, bad), ())),
    ):
        with pytest.raises(ValueError, match="^malformed diagram: path step sign"):
            route()


def test_explicit_diagram_validation(qt2):
    z = word_to_diagram(qt2, qt2.parse_loop("g1 g2^-1"))
    with pytest.raises(ValueError, match="unknown loop"):
        ExplicitDiagram((z,), (SurfaceCrossing((0, 0), (1, 0), 1),))
    # a negative index would be read from the end and then dropped by
    # ``oriented``, silently changing the forms
    pair = combine_generic(qt2, [z, z]).diagrams()
    for crossing, message in (
        (SurfaceCrossing((0, 0), (-1, 0), 1), "unknown loop -1"),
        (SurfaceCrossing((-2, 0), (1, 0), 1), "unknown loop -2"),
        (SurfaceCrossing((0, -1), (1, 0), 1), "unknown arc -1 of loop 0"),
        (SurfaceCrossing((0, 0), (1, -1), 1), "unknown arc -1 of loop 1"),
    ):
        with pytest.raises(ValueError, match=message):
            ExplicitDiagram(pair, (crossing,))
    with pytest.raises(ValueError, match="sign"):
        SurfaceCrossing((0, 0), (1, 0), 2)
    crossing = SurfaceCrossing((0, 0), (1, 0), 1)
    assert crossing.oriented(0, 1) == 1
    assert crossing.oriented(1, 0) == -1
    assert crossing.oriented(2, 3) is None


def test_diagram_json_round_trip(qg1, qd2):
    from quasiloop.diagrams import diagram_from_json, diagram_to_json

    d = word_to_diagram(qg1, qg1.parse_loop("g1 g3^-1"))
    assert diagram_from_json(qg1, diagram_to_json(qg1, d)) == d
    d2 = word_to_diagram(qd2, qd2.parse_loop("g1 g2^-1 e1^-1"))
    data = diagram_to_json(qd2, d2)
    assert data["paths"][-1] == [["e1", -1]]
    assert diagram_from_json(qd2, data) == d2


def test_two_arc_cancellation(qt2):
    # an arc g1 -> g2 followed by an arc g2 -> g1 through the other lane
    # spells e1 e2^-1 e2 e1^-1, the trivial class
    d = LaneDiagram((DiskArc(0, 0, 1), DiskArc(0, 1, 1)), ((), ()))
    validate_diagram(qt2, d)
    assert diagram_to_word(qt2, d).is_trivial()


def test_redepth_preserves_class():
    from quasiloop.selftest import _permute_depths

    rng = random.Random(14)
    for _ in range(40):
        qs = random_surface(rng)
        x = random_class(rng, qs.rank, max_len=6)
        y = random_class(rng, qs.rank, max_len=6)
        combined = combine_generic(qs, [word_to_diagram(qs, x), word_to_diagram(qs, y)])
        for diagram, expect in zip(_permute_depths(rng, combined.diagrams()), (x, y)):
            assert diagram_to_word(qs, diagram) == expect


def rotated_path_word(qs, rl, cut):
    """Reference: collapse the edge path rotated to start at ``cut``."""
    return qs.word_from_edge_path(rl.edge_path[cut:] + rl.edge_path[:cut])


def test_rotation_words_equal_collapsed_rotated_paths():
    rng = random.Random(31)
    for _ in range(80):
        qs = random_surface(rng)
        x, y = (random_class(rng, qs.rank, max_len=8) for _ in range(2))
        fam = combine_generic(qs, [x, y, x])
        for gate in qs.gates:
            for ref in fam.gate_sequence(gate):
                rl = fam.loops[ref.loop]
                arc = rl.arcs[ref.arc]
                cut = arc.entry_pos if ref.entry else arc.exit_pos + 1
                assert fam.rotation_word(ref) == rotated_path_word(qs, rl, cut)
                assert fam.exit_rotation_word(ref.loop, ref.arc) == rotated_path_word(
                    qs, rl, arc.exit_pos
                )
        # a based loop split at each gate crossing, against the collapsed
        # halves; kk_pairing's splices are checked in test_homotopy
        based = realize_based(qs, random_word(rng, qs.rank, max_len=8))
        for arc in based.arcs:
            for cut in (arc.entry_pos, arc.exit_pos + 1):
                assert based.split(cut) == (
                    qs.word_from_edge_path(based.edge_path[:cut]),
                    qs.word_from_edge_path(based.edge_path[cut:]),
                )


def is_letter_tuple(w):
    return type(w.letters) is tuple and all(
        type(l) is tuple and len(l) == 2 and type(l[0]) is int and l[0] >= 0
        and type(l[1]) is int and l[1] in (1, -1)
        for l in w.letters
    )


def test_word_letters_keep_their_shape():
    # Word.letters stays a tuple of (int, +-1) pairs on every engine route
    rng = random.Random(32)
    for _ in range(40):
        qs = random_surface(rng)
        u, v = (random_word(rng, qs.rank, max_len=8) for _ in range(2))
        words = [u * v, ~u, canonical_conjugacy(u * v).word, Word([list(l) for l in u])]
        fam = combine_generic(qs, [canonical_conjugacy(u), canonical_conjugacy(v)])
        words += [fam.rotation_word(ref) for g in qs.gates for ref in fam.gate_sequence(g)]
        assert all(is_letter_tuple(w) for w in words)


def pure_graph_class(rng, qs, max_len):
    """A random class in the generators whose loops avoid every gate."""
    graph_gens = [
        g for g, loop in enumerate(qs.generator_loops)
        if all(qs.edges[e].gate is None for e, _ in loop)
    ]
    if not graph_gens:
        return None
    w = random_word(rng, len(graph_gens), max_len=max_len)
    return canonical_conjugacy(Word([(graph_gens[g], s) for g, s in w.letters]))


def test_direct_realization_equals_diagram_route():
    # a class is realized by walking its cyclic edge path; the reference is
    # the lane diagram route, through validate_diagram and _diagram_steps
    rng = random.Random(41)
    graph_loops = 0
    for _ in range(150):
        qs = random_surface(rng, max_edges=4)
        classes = [
            random_class(rng, qs.rank, max_len=12, min_len=9),
            random_class(rng, qs.rank, max_len=6),
            canonical_conjugacy(Word()),
        ]
        graph = pure_graph_class(rng, qs, max_len=6)
        if graph is not None and not graph.is_trivial():
            classes.append(graph)
            graph_loops += 1
        for c in classes:
            direct = realize_loop(qs, c)
            reference = realize_loop(qs, word_to_diagram(qs, c))
            assert direct.edge_path == reference.edge_path
            assert direct.arcs == reference.arcs
            assert direct.codes == reference.codes
            assert direct.before == reference.before
            assert direct.diagram() == word_to_diagram(qs, c)
            assert canonical_conjugacy(direct.rotation(0)) == c
        fam = combine_generic(qs, classes)
        assert [diagram_to_word(qs, d) for d in fam.diagrams()] == classes
    assert graph_loops >= 20


# --- the gate order, against the stored order it replaced -----------------


def reference_gate_order(qs, loops, normalize=True):
    """Reference: the gate order as a family once stored it.  Depths are
    renumbered per lane by (argument index, own depth) (verbatim without
    ``normalize``); then each gate lists the arcs of the preceding lane by
    increasing depth and those of the following lane by decreasing depth.
    Returns ``depths[loop][arc]`` and each gate's ``(loop, arc, entry,
    sign)`` sequence."""
    depths = [[arc.depth for arc in rl.arcs] for rl in loops]
    if normalize:
        lanes = {}
        for loop_idx, rl in enumerate(loops):
            for arc_idx, arc in enumerate(rl.arcs):
                lanes.setdefault((arc.disk, arc.lane), []).append((loop_idx, arc.depth, arc_idx))
        for members in lanes.values():
            members.sort()
            for new_depth, (loop_idx, _, arc_idx) in enumerate(members, start=1):
                depths[loop_idx][arc_idx] = new_depth
    by_lane = {}
    for loop_idx, rl in enumerate(loops):
        for arc_idx, arc in enumerate(rl.arcs):
            by_lane.setdefault((arc.disk, arc.lane), []).append(
                (depths[loop_idx][arc_idx], loop_idx, arc_idx, arc)
            )
    order = {}
    for gate in qs.gates:
        disk, pos = qs.gate_position[gate]
        m = len(qs.disk_gates(disk))
        prev_members = sorted(by_lane.get((disk, (pos - 1) % m), ()), key=lambda t: t[0])
        next_members = sorted(by_lane.get((disk, pos), ()), key=lambda t: -t[0])
        seq = []
        for _, loop_idx, arc_idx, arc in prev_members:
            entry = arc.reverse  # the far endpoint of the lane is the entry of a reverse arc
            seq.append((loop_idx, arc_idx, entry, 1 if entry else -1))
        for _, loop_idx, arc_idx, arc in next_members:
            entry = not arc.reverse
            seq.append((loop_idx, arc_idx, entry, 1 if entry else -1))
        order[gate] = tuple(seq)
    return depths, order


def reference_pairs(qs, order, omega):
    """Reference crossing pairs, read off the stored sequences."""
    pairs = []
    for k, gate in enumerate(qs.gates):
        seq = order[gate]
        for i, p in enumerate(seq):
            if p[0] == 0:
                for q in seq[:i] if omega[k] > 0 else seq[i + 1:]:
                    if q[0] == 1:
                        pairs.append((p, q, omega[k] * p[3] * q[3]))
    return sorted(pairs)


def ref_tuple(ref):
    return (ref.loop, ref.arc, ref.entry, ref.sign)


def assert_reference_order(qs, fam, normalize=True):
    depths, order = reference_gate_order(qs, fam.loops, normalize)
    for gate in qs.gates:
        assert tuple(ref_tuple(c) for c in fam.gate_sequence(gate)) == order[gate]
    assert fam.diagrams() == tuple(rl.diagram(d) for rl, d in zip(fam.loops, depths))
    for omega in all_orientations(qs):
        pairs = sorted((ref_tuple(p), ref_tuple(q), c) for p, q, c in fam.crossing_pairs(omega))
        assert pairs == reference_pairs(qs, order, omega)
    return sum(len(seq) for seq in order.values())


def test_gate_order_equals_stored_reference():
    # generic pairs and 3-loop families, class x based pairs, and explicit
    # pairs whose depths were permuted jointly per lane
    from quasiloop.selftest import _permute_depths

    rng = random.Random(43)
    shared_lanes = 0
    for _ in range(150):
        qs = random_surface(rng)
        x, y, z = (random_class(rng, qs.rank, max_len=8) for _ in range(3))
        loops = [realize_loop(qs, c) for c in (x, y, z)]
        assert_reference_order(qs, GenericFamily(qs, loops[:2]))
        assert_reference_order(qs, GenericFamily(qs, [loops[1], loops[0], loops[1]]))
        assert_reference_order(qs, GenericFamily(qs, loops))
        based = realize_based(qs, random_word(rng, qs.rank, max_len=8))
        assert_reference_order(qs, GenericFamily(qs, [loops[0], based]))
        pair = _permute_depths(rng, combine_generic(qs, [x, y]).diagrams())
        fam, _ = explicit_pair(qs, ExplicitDiagram(tuple(pair), ()))
        assert_reference_order(qs, fam, normalize=False)
        lanes = [{(a.disk, a.lane) for a in rl.arcs} for rl in loops[:2]]
        shared_lanes += bool(lanes[0] & lanes[1])
    # the argument index in the key only matters where two loops share a lane
    assert shared_lanes >= 50


# --- side tables from the edge path, against the realized route ---------


def as_multisets(table):
    return [(sorted(start), sorted(end)) for start, end in table]


def realized_table(qs, terms):
    """Reference side table of ``(class, coeff)`` terms, as multisets: each
    class realized (``realize_loop``) and read off its arcs
    (``homotopy._sides``), its signs scaled by the coefficient."""
    table = [([], []) for _ in qs.gates]
    for c, coeff in terms:
        rl = realize_loop(qs, c)
        for k, (start, end) in enumerate(table):
            start_k, end_k = _sides(rl, k)
            start += [(a, coeff * s) for a, s in start_k]
            end += [(a, coeff * s) for a, s in end_k]
    return as_multisets(table)


def test_side_tables_from_the_edge_path_equal_the_realized_route():
    # the passage-table route (diagrams._class_sides, _codes_sides and
    # homotopy._side_table on combinations) against realize_loop + _sides,
    # as multisets per gate and side; the signed counts of _side_counts and
    # dual_v against the realized arcs
    rng = random.Random(11)
    seen = {"tables": 0, "graph": 0, "multi-lane": 0, "reversed": 0, "split detours": 0}
    for _ in range(1500):
        qs = random_surface(rng, max_disks=3, max_gates=7)
        classes = [random_class(rng, qs.rank, max_len=10) for _ in range(3)]
        coeffs = [rng.choice((1, -1, 2, -2)) for _ in classes]
        graph = pure_graph_class(rng, qs, max_len=6)
        extra = [canonical_conjugacy(Word())] + ([graph] if graph is not None else [])
        seen["graph"] += graph is not None and not graph.is_trivial()
        for c in classes + extra:
            expected = realized_table(qs, [(c, 1)])
            assert as_multisets(_class_sides(qs, c)) == expected
            rl = realize_loop(qs, c)
            counts = [[0, 0] for _ in qs.gates]
            for k, crossings in enumerate(rl.crossings):
                for arc, entry in crossings:
                    counts[k][rl.arcs[arc].start_side(entry)] += 1 if entry else -1
            assert _side_counts(qs, c) == counts
            assert [dual_v(qs, g, c) for g in qs.gates] == [sum(n) for n in counts]
            seen["tables"] += len(qs.gates)
        # a combination, and the same terms as collected codes (a repeated
        # class merges its coefficients, and a zero one drops out)
        combination = LoopCombination.collect(zip(classes, coeffs))
        expected = realized_table(qs, combination.terms.items())
        assert as_multisets(_side_table(qs, combination)) == expected
        codes = {}
        for c, coeff in zip(classes, coeffs):
            codes[c.word.codes] = codes.get(c.word.codes, 0) + coeff
        assert as_multisets(_codes_sides(qs, codes)) == expected
        for _, crossings in diagrams._PASSAGES[qs][1].values():
            seen["multi-lane"] += len(crossings) > 2
            seen["reversed"] += crossings[0][0] % 2  # the first entry lies on the end side
            seen["split detours"] += any(h is not None for *_, h in crossings)
    # 39,081 gate tables, 683 graph loops, and 2,560 multi-lane, 2,973
    # reversed and 2,073 passages with split detours when written
    assert seen["tables"] >= 30000 and seen["graph"] >= 500
    assert seen["multi-lane"] >= 2000 and seen["reversed"] >= 2000 and seen["split detours"] >= 1500


# --- the per-surface side-table memo -------------------------------------


def test_realization_memo_keys_by_class_per_surface():
    # an equal but distinct class object, or a word of the class, gets the
    # same side table; two surfaces built from one spec share no entry
    rng = random.Random(131)
    for _ in range(40):
        qs = random_surface(rng, max_disks=3, max_gates=7)
        w = random_word(rng, qs.rank, max_len=10)
        a, b = canonical_conjugacy(w), canonical_conjugacy(w)
        assert a is not b and a == b
        table = _class_sides(qs, a)
        assert _class_sides(qs, b) is table
        assert _class_sides(qs, w) is table
        other = build(qs.spec)
        assert len(other.side_tables) == 0
        table_other = _class_sides(other, b)
        assert table_other is not table and table_other == table
        assert list(other.side_tables.values()) == [table_other]
        assert all(v is not table_other for v in qs.side_tables.values())


def test_lane_diagrams_are_never_memoized(monkeypatch):
    # a lane diagram is validated and realized verbatim, depths included,
    # on every call, even when its class is memoized, and the forms read it
    # without a memo entry
    qs = fixtures.qt2()
    z = qs.parse_loop("g1 g2^-1 g1 g2^-1")
    d = word_to_diagram(qs, z)
    assert [a.depth for a in d.arcs] == [1, 2]
    swapped = LaneDiagram(tuple(DiskArc(a.disk, a.lane, 3 - a.depth, a.reverse) for a in d.arcs), d.paths)
    _class_sides(qs, z)
    entries = len(qs.side_tables)
    validated = []
    real_validate = diagrams.validate_diagram

    def counting_validate(surface, diagram):
        validated.append(diagram)
        real_validate(surface, diagram)

    monkeypatch.setattr(diagrams, "validate_diagram", counting_validate)
    first, second = realize_loop(qs, swapped), realize_loop(qs, swapped)
    assert first is not second
    assert [a.depth for a in first.arcs] == [a.depth for a in second.arcs] == [2, 1]
    assert [a.depth for a in realize_loop(qs, z).arcs] == [1, 2]
    assert validated == [swapped, swapped]
    assert second_bracket(qs, swapped, z) == second_bracket(qs, z, z)
    assert dual_v(qs, "g1", swapped) == dual_v(qs, "g1", z) == 2
    assert len(validated) == 4
    assert len(qs.side_tables) == entries
    bad = LaneDiagram(d.arcs, d.paths[:1])
    for _ in range(2):
        with pytest.raises(ValueError, match="one connecting path per arc"):
            realize_loop(qs, bad)
    assert len(validated) == 6


def test_realization_memo_dies_with_its_classes():
    # the memo holds its classes weakly: once the caller drops them and the
    # combinations holding them, it is empty, so a surface that lives for a
    # whole run does not grow with the classes it has seen; the Jacobiator's
    # inner brackets never enter it
    rng = random.Random(137)
    qs = fixtures.qg1()
    held = []
    for _ in range(10):
        x, y, z = (random_class(rng, qs.rank, min_len=4, max_len=10) for _ in range(3))
        inner = second_bracket(qs, x, y)
        entries = len(qs.side_tables)
        jac = jacobiator(qs, x, y, z)
        assert len(qs.side_tables) <= entries + 1  # z's table, if z is new
        held.append((x, y, z, inner, bullet(qs, None, inner, z), jac))
    assert len(qs.side_tables) >= len({t for *_, inner, _, _ in held for t in inner.terms})
    assert len(qs.side_tables) > 30
    del held, x, y, z, inner, jac
    gc.collect()
    assert len(qs.side_tables) == 0
