import copy
import pickle
import random

import pytest

from quasiloop.randomcase import random_surface, random_word
from quasiloop.surface import QuasiSurfaceSpec, build, invert_edge_path
from quasiloop.words import _reduce, encode, format_word


def test_qt2_presentation(qt2):
    assert qt2.rank == 1
    assert qt2.format_edge_path(qt2.generator_loops[0]) == "g1 g2^-1"


def test_qg1_presentation(qg1):
    # 4 gate edges, 3 vertices of the total graph
    assert qg1.rank == 2


def test_qd2_presentation(qd2):
    # 7 edges, 4 vertices
    assert qd2.rank == 4


def test_zero_gate_disk_is_disconnected():
    spec = QuasiSurfaceSpec(
        disks=((),),
        vertices=("v",),
        edges=(),
        gluing={},
        basepoint="v",
    )
    with pytest.raises(ValueError, match="disconnected"):
        build(spec)


def test_duplicate_gate_rejected():
    spec = QuasiSurfaceSpec(
        disks=(("g1", "g1"),),
        vertices=("v",),
        edges=(),
        gluing={"g1": "v"},
        basepoint="v",
    )
    with pytest.raises(ValueError, match="duplicate gate"):
        build(spec)


@pytest.mark.parametrize("bad", ["a^-1", "b c", "b\tc", "", "1"])
def test_gate_id_that_is_not_a_loop_token_rejected(bad):
    # "a^-1" would read as the inverse of gate a, "b c" as two tokens, and
    # "" and "1" as the trivial loop
    spec = QuasiSurfaceSpec(
        disks=(("a", bad),),
        vertices=("v",),
        edges=(),
        gluing={"a": "v", bad: "v"},
        basepoint="v",
    )
    with pytest.raises(ValueError, match="is not a loop token") as info:
        build(spec)
    assert "\n" not in str(info.value)


def test_gate_id_with_inner_caret_is_a_token():
    spec = QuasiSurfaceSpec(
        disks=(("a", "a^-1b"),),
        vertices=("v",),
        edges=(),
        gluing={"a": "v", "a^-1b": "v"},
        basepoint="v",
    )
    qs = build(spec)
    assert qs.format_edge_path(qs.generator_loops[0]) == "a a^-1b^-1"
    assert qs.parse_edge_word("a a^-1b^-1") == tuple(qs.generator_loops[0])


def test_partial_gluing_rejected():
    spec = QuasiSurfaceSpec(
        disks=(("g1", "g2"),),
        vertices=("v",),
        edges=(),
        gluing={"g1": "v"},
        basepoint="v",
    )
    with pytest.raises(ValueError, match="not total"):
        build(spec)


def test_basepoint_must_be_a_graph_vertex():
    spec = QuasiSurfaceSpec(
        disks=(("g1", "g2"),),
        vertices=("v",),
        edges=(),
        gluing={"g1": "v", "g2": "v"},
        basepoint="w",
    )
    with pytest.raises(ValueError, match="basepoint"):
        build(spec)


def test_spec_json_round_trip(qd2):
    data = qd2.spec.to_json_dict()
    assert QuasiSurfaceSpec.from_json_dict(data) == qd2.spec


def test_built_spec_gluing_is_read_only(qg1):
    # the gluing was a plain dict: assigning to it changed the saved spec
    # (to_json_dict) but not the built surface (summary and every form)
    gluing = {"g1": "v1", "g2": "v2", "g3": "v1", "g4": "v2"}
    with pytest.raises(TypeError):
        qg1.spec.gluing["g1"] = "v2"
    assert qg1.spec.to_json_dict()["gluing"] == gluing
    assert qg1.summary()["gates"][0]["vertex"] == "v1"
    with pytest.raises(TypeError):
        hash(qg1.spec)
    # the spec keeps its own copy, and pickles and copies to an equal spec
    given = dict(gluing)
    spec = QuasiSurfaceSpec(qg1.spec.disks, qg1.spec.vertices, (), given, "v1")
    given["g1"] = "v2"
    assert spec == qg1.spec
    for twin in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert twin == spec and type(twin.gluing) is type(spec.gluing)


def qd2_data(**changes):
    data = {
        "disks": [{"gates": ["g1", "g2", "g3"]}, {"gates": ["g4", "g5"]}],
        "graph": {"vertices": ["w1", "w2"], "edges": [["w1", "w2"], ["w1", "w2"]]},
        "gluing": {"g1": "w1", "g2": "w2", "g3": "w1", "g4": "w2", "g5": "w1"},
        "basepoint": "w1",
    }
    data.update(changes)
    return data


MALFORMED_SPECS = {
    # a non-string id would reach a set or dict lookup as an unhashable key
    "basepoint_list": qd2_data(basepoint=["w1"]),
    "vertex_list": qd2_data(graph={"vertices": ["w1", ["w2"]], "edges": [["w1", "w2"]]}),
    "gate_list": qd2_data(disks=[{"gates": ["g1", ["g2"], "g3"]}, {"gates": ["g4", "g5"]}]),
    "edge_end_list": qd2_data(graph={"vertices": ["w1", "w2"], "edges": [["w1", ["w2"]]]}),
    "gluing_value_list": qd2_data(gluing={"g1": "w1", "g2": ["w2"], "g3": "w1", "g4": "w2", "g5": "w1"}),
    "gluing_value_int": qd2_data(gluing={"g1": "w1", "g2": 2, "g3": "w1", "g4": "w2", "g5": "w1"}),
    "gluing_key_int": qd2_data(gluing={"g1": "w1", 2: "w2", "g3": "w1", "g4": "w2", "g5": "w1"}),
    "vertex_int": qd2_data(graph={"vertices": ["w1", 2], "edges": []}),
    # an edge of three ends was cut to two; a string was split into
    # letters, and an object read as its keys
    "edge_three_ends": qd2_data(graph={"vertices": ["w1", "w2"], "edges": [["w1", "w2", "w1"]]}),
    "edge_string": qd2_data(graph={"vertices": ["w1", "w2"], "edges": ["w1"]}),
    "vertices_string": qd2_data(graph={"vertices": "w1w2", "edges": []}),
    "edges_object": qd2_data(graph={"vertices": ["w1", "w2"], "edges": {"w1": "w2"}}),
    # a list of pairs was read as the gluing
    "gluing_pairs": qd2_data(gluing=[["g1", "w1"], ["g2", "w2"], ["g3", "w1"], ["g4", "w2"], ["g5", "w1"]]),
}


def test_malformed_spec(qt2):
    with pytest.raises(ValueError, match="malformed"):
        QuasiSurfaceSpec.from_json_dict({"disks": [{}]})
    # a string is not read as one gate per character
    data = qt2.spec.to_json_dict()
    data["disks"][0]["gates"] = "ab"
    data["gluing"] = {"a": "v", "b": "v"}
    with pytest.raises(ValueError, match="malformed"):
        QuasiSurfaceSpec.from_json_dict(data)
    for bad in MALFORMED_SPECS.values():
        with pytest.raises(ValueError, match="^malformed quasi-surface spec: "):
            QuasiSurfaceSpec.from_json_dict(bad)
    # a spec built in Python is checked as one read from JSON: a string is
    # not split into ids, and every id is a string
    fields = dict(disks=(("a", "b"),), vertices=("v",), edges=(), gluing={"a": "v", "b": "v"}, basepoint="v")
    for changes in (
        {"disks": ("ab",)},
        {"vertices": "v"},
        {"vertices": ("v", "w"), "edges": ("vw",)},
        {"vertices": ("v", 1)},
        {"vertices": (["v"],)},
        {"basepoint": 1},
        {"gluing": {"a": "v", "b": 1}},
    ):
        with pytest.raises(ValueError, match="^malformed quasi-surface spec: "):
            build(QuasiSurfaceSpec(**{**fields, **changes}))


def test_parse_loop_rejects_open_paths(qg1):
    with pytest.raises(ValueError, match="not closed"):
        qg1.parse_loop("g1 g4^-1")


def test_parse_loop_rejects_unknown_tokens(qt2):
    with pytest.raises(ValueError, match="unknown generator token"):
        qt2.parse_loop("g9")


def test_parse_loop_rejects_nonchaining(qd2):
    # e1 then g1 forward: e1 ends at w2 but g1 starts at w1
    with pytest.raises(ValueError, match="chain"):
        qd2.parse_loop("e1 g1 g2^-1")


def test_edge_word_round_trip(qd2):
    c = qd2.parse_loop("g1 g2^-1 e1^-1")
    # canonical rotation starts at the graph edge (lowest edge index)
    canonical = qd2.format_class(c)
    assert canonical == "e1^-1 g1 g2^-1"
    assert qd2.parse_loop(canonical) == c


def test_identity_loop(qt2):
    assert qt2.parse_loop("").is_trivial()
    assert qt2.parse_loop("g1 g1^-1").is_trivial()


def test_based_loop_must_start_at_basepoint(qd2):
    # a closed loop at w2 is not based at the basepoint w1
    with pytest.raises(ValueError, match="basepoint"):
        qd2.parse_based_loop("g2 g2^-1 e1^-1 e1")
    qd2.parse_based_loop("e1 e2^-1")  # fine: starts at w1


def test_word_edge_path_round_trip_random():
    rng = random.Random(10)
    for _ in range(50):
        qs = random_surface(rng)
        w = random_word(rng, qs.rank, max_len=8)
        assert qs.word_from_edge_path(qs.edge_path_of_word(w)) == w


def test_reduce_edge_path(qd2):
    # edge paths, coded as letters are, reduce with the same helper as words
    assert _reduce(encode(((0, 1), (0, -1), (2, 1)))) == encode(((2, 1),))
    loop = qd2.generator_loops[0]
    assert _reduce(encode(loop + invert_edge_path(loop))) == ()


def test_gate_derivative_values(qt2):
    z = qt2.parse_loop("g1 g2^-1").representative()
    d1 = qt2.gate_derivative("g1")
    d2 = qt2.gate_derivative("g2")
    assert d1.apply_word(z).to_pairs() == [[1, ""]]
    assert d2.apply_word(z).to_pairs() == [[-1, "g1"]]
    assert format_word(z) == "g1"


def test_gate_derivative_of_unused_gate(qd2):
    # the class of e1 e2^-1 never crosses disk 2
    d5 = qd2.gate_derivative("g5")
    w = qd2.parse_loop("e1 e2^-1").representative()
    assert d5.apply_word(w).is_zero()


def test_gate_derivative_unknown_gate(qt2):
    with pytest.raises(ValueError, match="unknown gate"):
        qt2.gate_derivative("g7")


def test_gate_derivative_satisfies_fox_axiom():
    rng = random.Random(3)
    for _ in range(30):
        qs = random_surface(rng)
        d = qs.gate_derivative(rng.choice(qs.gates))
        u = random_word(rng, qs.rank, max_len=6)
        v = random_word(rng, qs.rank, max_len=6)
        assert d.apply_word(u * v) == d.apply_word(u) + d.apply_word(v).left_mul(u)


def test_gate_crossing_matrix_qt2(qt2):
    assert qt2.gate_crossing_matrix() == ((1, -1),)


def test_token_collision_rejected():
    spec = QuasiSurfaceSpec(
        disks=(("e1", "g2"),),
        vertices=("v",),
        edges=(("v", "v"),),
        gluing={"e1": "v", "g2": "v"},
        basepoint="v",
    )
    with pytest.raises(ValueError, match="collides"):
        build(spec)


def test_rank_is_euler_count():
    rng = random.Random(60)
    for _ in range(40):
        qs = random_surface(rng)
        n_edges = len(qs.edges)
        assert qs.rank == n_edges - qs.n_vertices + 1
        assert len(qs.tree_edges) == qs.n_vertices - 1
