import gc
import random
import weakref

import pytest

from quasiloop import diagrams
from quasiloop.diagrams import flip_gate, opposite, parse_omega, word_to_diagram
from quasiloop.homology import first_form, gate_dual, gram_matrix, h1_class, second_form
from quasiloop.randomcase import random_class, random_omega, random_surface, random_word
from quasiloop.surface import QuasiSurface
from quasiloop.words import canonical_conjugacy, commutator


def test_qt2_self_pairing(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    assert first_form(qt2, None, z, z) == 1
    flipped = flip_gate(parse_omega(qt2, None), 0)
    assert first_form(qt2, flipped, z, z) == 0


def test_graph_loops_pair_to_zero(qd2):
    y = qd2.parse_loop("e1 e2^-1")
    x = qd2.parse_loop("g1 g2^-1 e1^-1")
    assert first_form(qd2, None, y, x) == 0
    assert first_form(qd2, None, x, y) == 0


def test_homology_vector_of_wrong_length_rejected(qg1):
    # (1,) once read as (1, 0), and (1, 0, 7) as (1, 0); other lengths
    # ended in a bare IndexError
    for bad in ((), (1,), (1, 0, 7)):
        with pytest.raises(ValueError, match=f"^homology class has {len(bad)} entries, surface rank is 2$"):
            gate_dual(qg1, "g1", bad)
        with pytest.raises(ValueError, match="^homology class has "):
            second_form(qg1, bad, (0, 1))
        with pytest.raises(ValueError, match="^homology class has "):
            second_form(qg1, (0, 1), bad)
    assert second_form(qg1, (1, 0), (0, 1)) == 2
    assert gate_dual(qg1, "g1", (1, 0)) == 1


def test_qt2_gram_is_zero(qt2):
    assert gram_matrix(qt2) == [[0]]


def test_qg1_gram_is_doubled_symplectic(qg1):
    assert gram_matrix(qg1) == [[0, 2], [-2, 0]]


def test_second_form_skew(qg1):
    x = qg1.parse_loop("g1 g3^-1")
    y = qg1.parse_loop("g2 g4^-1")
    assert second_form(qg1, x, y) == 2
    assert second_form(qg1, y, x) == -2
    assert second_form(qg1, x, x) == 0


def test_omega_string_parsing(qg1):
    assert parse_omega(qg1, "+-+-") == (1, -1, 1, -1)
    assert opposite((1, -1)) == (-1, 1)


@pytest.mark.parametrize(
    "omega",
    [[1.5, -1], [True, "-1"], [1, True], [1.0, -1], ["1", -1], [1, -1, 1], [1, 0]],
    ids=["float", "bool_and_string", "bool", "integral_float", "string", "too_long", "zero"],
)
def test_omega_sequence_is_not_coerced(qt2, omega):
    # once read with int(), so [1.5, -1] and [True, "-1"] both gave (1, -1)
    assert parse_omega(qt2, [1, -1]) == parse_omega(qt2, (1, -1)) == (1, -1)
    with pytest.raises(ValueError, match="orientation"):
        parse_omega(qt2, omega)


def test_reversal_law():
    rng = random.Random(21)
    for _ in range(60):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        x = random_class(rng, qs.rank, max_len=6)
        y = random_class(rng, qs.rank, max_len=6)
        assert first_form(qs, omega, x, y) == -first_form(qs, opposite(omega), y, x)


def test_gate_flip_law():
    rng = random.Random(22)
    for _ in range(40):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        x = random_class(rng, qs.rank, max_len=6)
        y = random_class(rng, qs.rank, max_len=6)
        vx, vy = h1_class(qs, x), h1_class(qs, y)
        base = first_form(qs, omega, x, y)
        for k, gate in enumerate(qs.gates):
            assert first_form(qs, flip_gate(omega, k), x, y) == base - omega[k] * gate_dual(
                qs, gate, vx
            ) * gate_dual(qs, gate, vy)


def test_homology_invariance_commutator():
    rng = random.Random(23)
    for _ in range(40):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        w = random_word(rng, qs.rank, max_len=5)
        u = random_word(rng, qs.rank, max_len=3)
        v = random_word(rng, qs.rank, max_len=3)
        y = random_class(rng, qs.rank, max_len=5)
        a = canonical_conjugacy(w)
        a_shifted = canonical_conjugacy(w * commutator(u, v))
        assert h1_class(qs, a) == h1_class(qs, a_shifted)
        assert first_form(qs, omega, a, y) == first_form(qs, omega, a_shifted, y)


def test_bilinearity_over_loop_product():
    rng = random.Random(24)
    for _ in range(40):
        qs = random_surface(rng)
        omega = random_omega(rng, qs)
        w1 = random_word(rng, qs.rank, max_len=4)
        w2 = random_word(rng, qs.rank, max_len=4)
        y = random_class(rng, qs.rank, max_len=5)
        total = first_form(qs, omega, canonical_conjugacy(w1 * w2), y)
        parts = first_form(qs, omega, canonical_conjugacy(w1), y) + first_form(
            qs, omega, canonical_conjugacy(w2), y
        )
        assert total == parts


def test_form_accepts_diagrams(qt2):
    z = qt2.parse_loop("g1 g2^-1")
    d = word_to_diagram(qt2, z)
    assert first_form(qt2, None, d, d) == 1


def test_rank_zero_gram():
    from quasiloop.surface import QuasiSurfaceSpec, build

    spec = QuasiSurfaceSpec(
        disks=(("g1",),), vertices=("v",), edges=(), gluing={"g1": "v"}, basepoint="v"
    )
    qs = build(spec)
    assert qs.rank == 0
    assert gram_matrix(qs) == []


def test_gram_matrix_computed_once_per_surface(monkeypatch):
    # gram_matrix and second_form read one Gram matrix per surface, each
    # generator walked once, and every matrix returned is the caller's own
    walks = []
    real_walk = diagrams._walk

    def counting_walk(qs, path, cyclic):
        walks.append(path)
        return real_walk(qs, path, cyclic)

    monkeypatch.setattr(diagrams, "_walk", counting_walk)
    rng = random.Random(139)
    for _ in range(20):
        qs = random_surface(rng, max_disks=3, max_gates=7)
        walks.clear()
        gram = gram_matrix(qs)
        kept = [list(row) for row in gram]
        for _ in range(20):
            x, y = (tuple(rng.randint(-2, 2) for _ in range(qs.rank)) for _ in range(2))
            expected = sum(x[i] * y[j] * kept[i][j] for i in range(qs.rank) for j in range(qs.rank))
            assert second_form(qs, x, y) == expected
        assert len(walks) == qs.rank
        gram[0][0] += 7
        gram.append([1])
        assert gram_matrix(qs) == kept
        assert gram_matrix(qs, "+" * qs.n_gates) is not gram_matrix(qs)
        assert len(walks) == qs.rank
    # the cached matrix does not keep its surface alive
    gone = weakref.ref(qs)
    del qs
    gc.collect()
    assert gone() is None


def test_gate_dual_reads_one_matrix_per_surface(monkeypatch):
    # gate_dual computes the gate crossing matrix once per surface, in the
    # same per-surface table as the Gram matrix, and agrees with a fresh one
    builds = []
    real_matrix = QuasiSurface.gate_crossing_matrix

    def counting_matrix(qs):
        builds.append(qs)
        return real_matrix(qs)

    monkeypatch.setattr(QuasiSurface, "gate_crossing_matrix", counting_matrix)
    rng = random.Random(147)
    for _ in range(20):
        qs = random_surface(rng, max_disks=3, max_gates=7)
        fresh = real_matrix(qs)
        builds.clear()
        gram = gram_matrix(qs)
        for _ in range(10):
            x = tuple(rng.randint(-2, 2) for _ in range(qs.rank))
            for k, gate in enumerate(qs.gates):
                assert gate_dual(qs, gate, x) == sum(c * fresh[i][k] for i, c in enumerate(x))
        assert builds == [qs]
        assert gram_matrix(qs) == gram
    # the cached matrices do not keep their surface alive
    gone = weakref.ref(qs)
    del qs
    builds.clear()
    gc.collect()
    assert gone() is None
