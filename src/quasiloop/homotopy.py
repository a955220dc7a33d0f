"""Homotopy intersection forms and geometric gate braces.

All operations return exact integer combinations of conjugacy classes.
The oriented pairing grafts the two loops at every crossing forced near a
gate (and at every declared surface crossing), with the loop words
rotated to the crossing; antisymmetrizing gives the orientation-free
bracket generalizing the Goldman bracket.  The gate braces multiply one
rotation per loop over all crossing tuples of a single gate; they agree
with the algebraic braces built from the gate's Fox derivative, which is
the engine's standing cross-check.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .diagrams import (
    ExplicitDiagram,
    GenericFamily,
    LaneDiagram,
    explicit_pair,
    parse_omega,
    realize_based,
    realize_loop,
)
from .ring import GroupRingElement, LoopCombination
from .surface import QuasiSurface
from .words import ConjClass, Word, _word, canonical_conjugacy


def _loop_terms(x):
    """An argument's ``(loop, coeff)`` pairs: the terms of a loop
    combination, or a single class or lane diagram with coefficient 1."""
    if isinstance(x, LoopCombination):
        return x.terms.items()
    if isinstance(x, Word):
        x = canonical_conjugacy(x)
    if isinstance(x, (ConjClass, LaneDiagram)):
        return ((x, 1),)
    raise TypeError(f"cannot interpret {type(x).__name__} as a loop combination")


def _families(qs: QuasiSurface, args: Sequence) -> Iterator[tuple[GenericFamily, int]]:
    """The multilinear extension over loop arguments: the generic family
    of each choice of one term per argument, with the product of the
    chosen coefficients.  Each term is realized once, for all families."""
    terms = [[(realize_loop(qs, k), c) for k, c in _loop_terms(a)] for a in args]
    for picks in itertools.product(*terms):
        coeff = 1
        for _, c in picks:
            coeff *= c
        yield GenericFamily(qs, [rl for rl, _ in picks]), coeff


def gate_brace_geometric(qs: QuasiSurface, gate: str, loops: Sequence) -> LoopCombination:
    """The m-linear gate bracket: over every choice of one gate crossing
    per loop, the product of crossing signs times the class of the
    product of the rotated loop words."""
    if gate not in qs.gate_edge:
        raise ValueError(f"unknown gate {gate!r}")
    if not loops:
        raise ValueError("gate brace needs at least one loop")
    return LoopCombination.collect(
        (key, coeff * sign)
        for fam, coeff in _families(qs, loops)
        for key, sign in _gate_brace_terms(gate, fam)
    )


def _gate_brace_terms(gate: str, fam: GenericFamily) -> Iterator[tuple[ConjClass, int]]:
    per_loop = [fam.crossings_of(gate, i) for i in range(len(fam.loops))]
    for combo in itertools.product(*per_loop):
        sign = 1
        word = _word(())
        for ref in combo:
            sign *= ref.sign
            word = word * fam.rotation_word(ref)
        yield canonical_conjugacy(word), sign


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
        (key, coeff * c)
        for fam, coeff in _families(qs, (x, y))
        for key, c in _bullet_terms(fam, signs)
    )


def second_bracket(qs: QuasiSurface, x, y, omega=None) -> LoopCombination:
    """The skew-symmetric homotopy bracket: the oriented pairing minus its
    transpose.  Independent of the orientation used to compute it (the
    default is all-counterclockwise); passing one only changes the route."""
    signs = parse_omega(qs, omega)
    return bullet(qs, signs, x, y) - bullet(qs, signs, y, x)


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
        for kx, cx in _loop_terms(x):
            fam = GenericFamily(qs, [realize_loop(qs, kx), based])
            for p, q, coeff in fam.crossing_pairs(signs):
                prefix, suffix = fam.splice_words(q)
                yield prefix * fam.rotation_word(p) * suffix, cx * coeff

    return GroupRingElement.collect(terms())
