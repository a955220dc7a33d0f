"""Homotopy intersection forms and geometric gate braces.

All operations return exact integer combinations of conjugacy classes.
The oriented pairing grafts the two loops at every crossing forced near a
gate (and at every declared surface crossing), with the loop words
rotated to the crossing.  The skew bracket, the pairing minus its
transpose, keeps only the grafts of crossings on opposite sides of a
gate: a pair of crossings on the same side is grafted once in each
pairing, to the same class with the same coefficient, and cancels.  It
therefore needs no orientation, and it reads each argument's side table,
the signed rotation words of its crossings per gate and side.  The gate
braces multiply one rotation per loop over all crossing tuples of a
single gate; they agree with the algebraic braces built from the gate's
Fox derivative, which is the engine's standing cross-check.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .diagrams import (
    ExplicitDiagram,
    GenericFamily,
    LaneDiagram,
    _RLoop,
    explicit_pair,
    parse_omega,
    realize_based,
    realize_loop,
)
from .ring import GroupRingElement, LoopCombination, project_to_classes
from .surface import QuasiSurface
from .words import ConjClass, Word, canonical_conjugacy


def _loop_terms(qs: QuasiSurface, x) -> list[tuple[_RLoop, int]]:
    """An argument's ``(loop, coeff)`` pairs, each loop realized once: the
    terms of a loop combination, or a single class or lane diagram with
    coefficient 1."""
    if isinstance(x, LoopCombination):
        return [(realize_loop(qs, k), c) for k, c in x.terms.items()]
    if isinstance(x, Word):
        x = canonical_conjugacy(x)
    if isinstance(x, (ConjClass, LaneDiagram)):
        return [(realize_loop(qs, x), 1)]
    raise TypeError(f"cannot interpret {type(x).__name__} as a loop combination")


_Side = list[tuple[Word, int]]


def _side_table(qs: QuasiSurface, x) -> list[tuple[_Side, _Side]]:
    """An argument's crossings, per gate, as ``(start, end)``: the rotation
    word and coeff · sign of each crossing on the lane starting at the gate
    counterclockwise (``entry != arc.reverse``, the side rule of
    ``GenericFamily._place``) and of each crossing on the lane ending
    there, over the argument's terms, each term realized once."""
    table: list[tuple[_Side, _Side]] = [([], []) for _ in qs.gates]
    for rl, c in _loop_terms(qs, x):
        for (start, end), crossings in zip(table, rl.crossings):
            for arc, entry in crossings:
                side = start if entry != rl.arcs[arc].reverse else end
                side.append((rl.rotation(rl.cut(arc, entry)), c if entry else -c))
    return table


def _bracket_terms(
    tx: Sequence[tuple[_Side, _Side]], ty: Sequence[tuple[_Side, _Side]]
) -> Iterator[tuple[ConjClass, int]]:
    """The grafts of ``[x, y]`` from the side tables of x and y: at each
    gate, x's start side with y's end side, minus y's start side with x's
    end side."""
    for (start_x, end_x), (start_y, end_y) in zip(tx, ty):
        for a, ca in start_x:
            for b, cb in end_y:
                yield canonical_conjugacy(a * b), ca * cb
        for b, cb in start_y:
            for a, ca in end_x:
                yield canonical_conjugacy(b * a), -cb * ca


def gate_brace_geometric(qs: QuasiSurface, gate: str, loops: Sequence) -> LoopCombination:
    """The m-linear gate bracket: over every choice of one gate crossing
    per loop, the product of crossing signs times the class of the
    product of the rotated loop words.  The sum factors into one group-ring
    element per argument, its signed rotations at the gate; the bracket
    is the class projection of their product."""
    k = qs.gate_index(gate)
    if not loops:
        raise ValueError("gate brace needs at least one loop")
    factors = [
        GroupRingElement.collect(
            (rl.rotation(rl.cut(arc, entry)), c if entry else -c)
            for rl, c in _loop_terms(qs, x)
            for arc, entry in rl.crossings[k]
        )
        for x in loops
    ]
    product = factors[0]
    for factor in factors[1:]:
        product = product * factor
    return project_to_classes(product)


def _bullet_terms(
    fam: GenericFamily, omega: Sequence[int], declared: Sequence[tuple[int, int, int]] = ()
) -> Iterator[tuple[ConjClass, int]]:
    for p, q, coeff in fam.crossing_pairs(omega):
        yield canonical_conjugacy(fam.rotation_word(p) * fam.rotation_word(q)), coeff
    for arc_0, arc_1, s in declared:
        word = fam.exit_rotation_word(0, arc_0) * fam.exit_rotation_word(1, arc_1)
        yield canonical_conjugacy(word), s


def bullet(
    qs: QuasiSurface,
    omega: "str | Sequence[int] | None",
    x,
    y=None,
) -> LoopCombination:
    """The oriented homotopy pairing: the algebraic sum of all grafts of
    the first loop onto the second at gate-forced and declared crossings.

    Accepts conjugacy classes, lane diagrams, loop combinations (extended
    bilinearly), or a single two-loop :class:`ExplicitDiagram`.
    """
    signs = parse_omega(qs, omega)
    if isinstance(x, ExplicitDiagram):
        fam, declared = explicit_pair(qs, x, y)
        return LoopCombination.collect(_bullet_terms(fam, signs, declared))
    if y is None:
        raise ValueError("bullet needs two loops")
    return LoopCombination.collect(
        (key, cx * cy * c)
        for (rx, cx), (ry, cy) in itertools.product(_loop_terms(qs, x), _loop_terms(qs, y))
        for key, c in _bullet_terms(GenericFamily(qs, [rx, ry]), signs)
    )


def second_bracket(qs: QuasiSurface, x, y, omega=None) -> LoopCombination:
    """The skew-symmetric homotopy bracket: the oriented pairing minus its
    transpose, ``bullet(omega; x, y) - bullet(omega; y, x)`` for every
    orientation.  Only the pairs of crossings on opposite sides of a gate
    survive that difference, so it is summed from those:
    ``[x, y] = sum_k p(A+_k(x) A-_k(y)) - p(A+_k(y) A-_k(x))``, where
    ``A+_k`` and ``A-_k`` are the signed rotation words of the start- and
    end-side crossings at gate k.  ``omega`` is validated and otherwise
    unused: it changes neither the value nor the route."""
    parse_omega(qs, omega)
    return LoopCombination.collect(_bracket_terms(_side_table(qs, x), _side_table(qs, y)))


def kk_pairing(
    qs: QuasiSurface,
    omega: "str | Sequence[int] | None",
    x,
    y: Word,
) -> GroupRingElement:
    """The based refinement of the oriented pairing: grafting a circular
    loop into a based loop returns a group-ring element, a derivation of
    the group algebra in the based slot."""
    signs = parse_omega(qs, omega)
    based = realize_based(qs, y)

    def terms() -> Iterator[tuple[Word, int]]:
        for rx, cx in _loop_terms(qs, x):
            fam = GenericFamily(qs, [rx, based])
            for p, q, coeff in fam.crossing_pairs(signs):
                prefix, suffix = fam.splice_words(q)
                yield prefix * fam.rotation_word(p) * suffix, cx * coeff

    return GroupRingElement.collect(terms())
