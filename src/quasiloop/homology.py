"""Intersection forms on the first homology of a quasi-surface.

H1 is the abelianized fundamental group, with the free generators of the
presentation as basis.  The oriented form counts, for a pair of loops in
generic position, the signed crossings forced near the gates by a gate
orientation (plus any declared surface crossings); it depends only on the
homology classes.  It is read from each loop's signed crossing counts per
gate and side (start: the lane starting at the gate counterclockwise;
end: the lane ending there), as the homotopy forms read their side
tables.  Antisymmetrizing keeps only opposite-side pairs, which removes
the orientation dependence.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

from .diagrams import (
    ExplicitDiagram,
    LaneDiagram,
    diagram_to_word,
    explicit_pair,
    parse_omega,
    realize_loop,
)
from .surface import QuasiSurface
from .words import ConjClass, Word, abelianize

H1Class = tuple[int, ...]


def h1_class(qs: QuasiSurface, x: "Word | ConjClass | LaneDiagram") -> H1Class:
    if isinstance(x, LaneDiagram):
        x = diagram_to_word(qs, x)
    if isinstance(x, ConjClass):
        x = x.representative()
    return abelianize(x, qs.rank)


# per surface, the matrices computed once for it (keyed by the function that
# builds each), dropped with the surface
_MATRICES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _matrix(qs: QuasiSurface, build: Callable[[QuasiSurface], tuple]) -> tuple:
    """``build(qs)``, computed on the first call for the surface and then kept."""
    matrices = _MATRICES.get(qs)
    if matrices is None:
        matrices = _MATRICES[qs] = {}
    matrix = matrices.get(build)
    if matrix is None:
        matrix = matrices[build] = build(qs)
    return matrix


def _check_rank(qs: QuasiSurface, x: H1Class) -> None:
    """Reject a homology vector that has not one entry per generator."""
    if len(x) != qs.rank:
        raise ValueError(f"homology class has {len(x)} entries, surface rank is {qs.rank}")


def gate_dual(qs: QuasiSurface, gate: str, x: H1Class) -> int:
    """The linear map dual to a gate, evaluated on a homology class (one
    entry per generator); the gate crossing matrix is computed once per
    surface."""
    k = qs.gate_index(gate)
    _check_rank(qs, x)
    matrix = _matrix(qs, QuasiSurface.gate_crossing_matrix)
    return sum(coeff * matrix[i][k] for i, coeff in enumerate(x))


def _side_counts(qs: QuasiSurface, x: "LaneDiagram | ConjClass | Word") -> list[list[int]]:
    """Per gate, ``[E_k, S_k]``: the signed counts of a loop's end- and
    start-side crossings, the coefficient sums of its side table."""
    rl = realize_loop(qs, x)
    counts = [[0, 0] for _ in rl.crossings]
    for sides, crossings in zip(counts, rl.crossings):
        for arc, entry in crossings:
            sides[rl.arcs[arc].start_side(entry)] += 1 if entry else -1
    return counts


def first_form(
    qs: QuasiSurface,
    omega: "str | Sequence[int] | None",
    a: "LaneDiagram | ConjClass | Word | ExplicitDiagram",
    b: "LaneDiagram | ConjClass | Word | None" = None,
) -> int:
    """The oriented crossing number of a pair of loops.

    Accepts two loops in generic position, where at gate k all of b's
    crossings come before a's start side (+1) or end side (-1) in the
    gate's orientation and before none of a's other side, so the count
    is ``sum_k omega_k C^omega_k(a) v_k(b)`` from the side counts; or a
    single two-loop :class:`ExplicitDiagram`, counted pair by pair, whose
    declared crossings then contribute their signs on top of the gate
    terms.
    """
    signs = parse_omega(qs, omega)
    if isinstance(a, ExplicitDiagram):
        fam, declared = explicit_pair(qs, a, b)
        return sum(s for _, _, s in declared) + sum(c for _, _, c in fam.crossing_pairs(signs))
    if b is None:
        raise ValueError("first_form needs two loops")
    return sum(
        w * (sa if w > 0 else ea) * (eb + sb)
        for w, (ea, sa), (eb, sb) in zip(signs, _side_counts(qs, a), _side_counts(qs, b))
    )


def _build_gram(qs: QuasiSurface) -> tuple[tuple[int, ...], ...]:
    """The Gram matrix, each generator realized once."""
    counts = [_side_counts(qs, Word.generator(i)) for i in range(qs.rank)]
    return tuple(
        tuple(sum(sx * ey - sy * ex for (ex, sx), (ey, sy) in zip(cx, cy)) for cy in counts)
        for cx in counts
    )


def gram_matrix(qs: QuasiSurface, omega: "str | Sequence[int] | None" = None) -> list[list[int]]:
    """Gram matrix of the orientation-independent pairing on the generator
    basis: ``first_form(omega; x, y) - first_form(omega; y, x)``, in which
    only the opposite-side pairs survive, ``sum_k S_k(x) E_k(y) - S_k(y) E_k(x)``.
    It is computed once per surface, each generator realized once; every
    call returns fresh lists.  ``omega`` is validated and otherwise unused."""
    parse_omega(qs, omega)
    return [list(row) for row in _matrix(qs, _build_gram)]


def second_form(qs: QuasiSurface, x, y) -> int:
    """The skew-symmetric homological intersection form; orientation-free.
    A homology class given as a tuple has one entry per generator."""
    if not isinstance(x, tuple):
        x = h1_class(qs, x)
    if not isinstance(y, tuple):
        y = h1_class(qs, y)
    _check_rank(qs, x)
    _check_rank(qs, y)
    gram = _matrix(qs, _build_gram)
    return sum(
        x[i] * y[j] * gram[i][j] for i in range(qs.rank) for j in range(qs.rank)
    )
