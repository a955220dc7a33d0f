"""Intersection forms on the first homology of a quasi-surface.

H1 is the abelianized fundamental group, with the free generators of the
presentation as basis.  The oriented form counts, for a pair of loops in
generic position, the signed crossings forced near the gates by a gate
orientation (plus any declared surface crossings); it depends only on the
homology classes.  Antisymmetrizing removes the orientation dependence.
"""

from __future__ import annotations

from typing import Sequence

from .diagrams import (
    ExplicitDiagram,
    GenericFamily,
    LaneDiagram,
    combine_generic,
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


def gate_dual(qs: QuasiSurface, gate: str, x: H1Class) -> int:
    """The linear map dual to a gate, evaluated on a homology class."""
    k = qs.gate_index(gate)
    matrix = qs.gate_crossing_matrix()
    return sum(coeff * matrix[i][k] for i, coeff in enumerate(x))


def first_form(
    qs: QuasiSurface,
    omega: "str | Sequence[int] | None",
    a: "LaneDiagram | ConjClass | Word | ExplicitDiagram",
    b: "LaneDiagram | ConjClass | Word | None" = None,
) -> int:
    """The oriented crossing number of a pair of loops.

    Accepts two loops (combined generically here) or a single
    two-loop :class:`ExplicitDiagram`, whose declared crossings then
    contribute their signs on top of the gate terms.
    """
    signs = parse_omega(qs, omega)
    declared: list = []
    if isinstance(a, ExplicitDiagram):
        fam, declared = explicit_pair(qs, a, b)
    else:
        if b is None:
            raise ValueError("first_form needs two loops")
        fam = combine_generic(qs, [a, b])
    return sum(s for _, _, s in declared) + sum(c for _, _, c in fam.crossing_pairs(signs))


def gram_matrix(qs: QuasiSurface, omega: "str | Sequence[int] | None" = None) -> list[list[int]]:
    """Gram matrix of the orientation-independent pairing on the generator basis."""
    signs = parse_omega(qs, omega)
    loops = [realize_loop(qs, Word.generator(i)) for i in range(qs.rank)]
    raw = [
        [sum(c for _, _, c in GenericFamily(qs, [x, y]).crossing_pairs(signs)) for y in loops]
        for x in loops
    ]
    return [
        [raw[i][j] - raw[j][i] for j in range(qs.rank)]
        for i in range(qs.rank)
    ]


def second_form(qs: QuasiSurface, x, y) -> int:
    """The skew-symmetric homological intersection form; orientation-free."""
    if not isinstance(x, tuple):
        x = h1_class(qs, x)
    if not isinstance(y, tuple):
        y = h1_class(qs, y)
    gram = gram_matrix(qs)
    return sum(
        x[i] * y[j] * gram[i][j] for i in range(qs.rank) for j in range(qs.rank)
    )
