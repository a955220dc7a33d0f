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
from typing import Sequence

from .diagrams import (
    CrossingRef,
    ExplicitDiagram,
    GenericFamily,
    LaneDiagram,
    combine_generic,
    combine_with_based,
    explicit_pair,
    parse_omega,
)
from .ring import GroupRingElement, LoopCombination
from .surface import QuasiSurface
from .words import ConjClass, Word, canonical_conjugacy


def _as_combination(qs: QuasiSurface, x) -> LoopCombination:
    if isinstance(x, LoopCombination):
        return x
    if isinstance(x, LaneDiagram):
        from .diagrams import diagram_to_word

        return LoopCombination.from_class(diagram_to_word(qs, x))
    if isinstance(x, Word):
        x = canonical_conjugacy(x)
    if isinstance(x, ConjClass):
        return LoopCombination.from_class(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a loop combination")


def gate_brace_geometric(qs: QuasiSurface, gate: str, loops: Sequence) -> LoopCombination:
    """The m-linear gate bracket: over every choice of one gate crossing
    per loop, the product of crossing signs times the class of the
    product of the rotated loop words."""
    if gate not in qs.gate_edge:
        raise ValueError(f"unknown gate {gate!r}")
    if not loops:
        raise ValueError("gate brace needs at least one loop")
    combos = [_as_combination(qs, x) if not isinstance(x, LaneDiagram) else x for x in loops]

    # bilinear extension over combination inputs
    def expand(x):
        if isinstance(x, LaneDiagram):
            return [(1, x)]
        return [(c, k) for k, c in x.terms.items()]

    total = LoopCombination.zero()
    for picks in itertools.product(*(expand(x) for x in combos)):
        coeff = 1
        for c, _ in picks:
            coeff *= c
        fam = combine_generic(qs, [k for _, k in picks])
        total = total + coeff * _gate_brace_family(qs, gate, fam)
    return total


def _gate_brace_family(qs: QuasiSurface, gate: str, fam: GenericFamily) -> LoopCombination:
    per_loop: list[list[CrossingRef]] = [
        fam.crossings_of(gate, i) for i in range(len(fam.loops))
    ]
    if any(not refs for refs in per_loop):
        return LoopCombination.zero()
    terms: dict = {}
    for combo in itertools.product(*per_loop):
        sign = 1
        word = Word()
        for ref in combo:
            sign *= ref.sign
            word = word * fam.rotation_word(ref)
        key = canonical_conjugacy(word)
        terms[key] = terms.get(key, 0) + sign
    return LoopCombination(terms)


def _bullet_family(
    fam: GenericFamily, omega: Sequence[int], declared: Sequence[tuple[int, int, int]] = ()
) -> LoopCombination:
    terms: dict = {}
    for p, q, coeff in fam.crossing_pairs(omega):
        key = canonical_conjugacy(fam.rotation_word(p) * fam.rotation_word(q))
        terms[key] = terms.get(key, 0) + coeff
    for arc_0, arc_1, s in declared:
        word = fam.exit_rotation_word(0, arc_0) * fam.exit_rotation_word(1, arc_1)
        key = canonical_conjugacy(word)
        terms[key] = terms.get(key, 0) + s
    return LoopCombination(terms)


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
        return _bullet_family(fam, signs, declared)
    if y is None:
        raise ValueError("bullet needs two loops")
    if isinstance(x, LaneDiagram) and isinstance(y, LaneDiagram):
        fam = combine_generic(qs, [x, y])
        return _bullet_family(fam, signs)
    total = LoopCombination.zero()
    for kx, cx in _as_combination(qs, x).terms.items():
        for ky, cy in _as_combination(qs, y).terms.items():
            fam = combine_generic(qs, [kx, ky])
            total = total + (cx * cy) * _bullet_family(fam, signs)
    return total


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
    terms: dict = {}
    for kx, cx in _as_combination(qs, x).terms.items():
        fam = combine_with_based(qs, kx, y)
        for p, q, coeff in fam.crossing_pairs(signs):
            prefix, suffix = fam.splice_words(q)
            word = prefix * fam.rotation_word(p) * suffix
            terms[word] = terms.get(word, 0) + cx * coeff
    return GroupRingElement(terms)
