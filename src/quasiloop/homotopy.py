"""Homotopy intersection forms and geometric gate braces.

All operations return exact integer combinations of conjugacy classes.
Each argument is read through its sides at each gate: the signed
rotation words of its crossings on the start side (the lane starting at
the gate counterclockwise) and on the end side, held as letter codes.
A class's side table is read straight from its cyclically reduced edge
path, one disk passage at a time from the surface's passage table, and
kept once per class on the surface (``diagrams._class_sides``); no loop
is realized for it.  Only a lane diagram is realized and read off its
arcs (``_sides``).  Every generic form sums grafts ``p(X·Y)`` in one
loop (``_graft_sum``), from two code tuples to the canonical codes of
the class (``words._graft``), into one dict keyed by those codes; a
class is built once per surviving term.  The oriented pairing grafts x onto y at
every crossing q of y met before a crossing p of x along a gate in the
gate's orientation: every crossing of y comes before each of x's
crossings on one side (start for +1, end for -1) and before none on the
other, so the pair set is that side of x times all of y.  The based
pairing splices the same side of x into the based loop at each of its
crossings.  The skew bracket, the pairing minus its transpose, keeps
only the grafts of crossings on opposite sides of a gate: a same-side
pair is grafted once in each pairing, to the same class with the same
coefficient, and cancels.  An explicit family (declared surface
crossings, verbatim depths) is paired crossing by crossing instead.
The m-fold gate brace multiplies one factor per argument, its signed
rotations at the gate, and grafts the product of all but the last onto
the last (``_brace_codes``); mu is its 3-brace summed over the gates.
The braces agree with the algebraic braces of the gate's Fox
derivative, the engine's standing cross-check.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .diagrams import (
    ExplicitDiagram,
    LaneDiagram,
    _RLoop,
    _Side,
    _class_sides,
    explicit_pair,
    parse_omega,
    realize_based,
    realize_loop,
)
from .ring import GroupRingElement, LoopCombination
from .surface import QuasiSurface
from .words import Codes, ConjClass, Word, _graft, _product, _word


def _sides(rl: _RLoop, k: int) -> tuple[_Side, _Side]:
    """A realized loop's crossings at gate ``k`` as ``(start, end)``: the
    rotation codes and sign of each crossing on the lane starting at the
    gate counterclockwise (``_RArc.start_side``) and of each crossing on the
    lane ending there.  Lane diagrams are read this way; classes read the
    same table from their edge paths (``diagrams._class_sides``)."""
    start: list[tuple[Codes, int]] = []
    end: list[tuple[Codes, int]] = []
    for arc, entry in rl.crossings[k]:
        side = start if rl.arcs[arc].start_side(entry) else end
        side.append((rl.rotation_codes(rl.cut(arc, entry)), 1 if entry else -1))
    return tuple(start), tuple(end)


def _side_table(qs: QuasiSurface, x) -> Sequence[tuple[_Side, _Side]]:
    """An argument's sides at every gate: a class's memoized table, a loop
    combination's as the sum of its terms' tables, each term's coefficient
    times each sign, and a lane diagram's from its realization."""
    if isinstance(x, LoopCombination):
        table = [([], []) for _ in qs.gates]
        for k, c in x.terms.items():
            for (start, end), (start_k, end_k) in zip(table, _class_sides(qs, k)):
                start += [(a, c * s) for a, s in start_k]
                end += [(a, c * s) for a, s in end_k]
        return table
    if isinstance(x, (ConjClass, Word)):
        return _class_sides(qs, x)
    if isinstance(x, LaneDiagram):
        rl = realize_loop(qs, x)
        return [_sides(rl, k) for k in range(len(qs.gates))]
    raise TypeError(f"cannot interpret {type(x).__name__} as a loop combination")


def _gate_factor(sides: tuple[_Side, _Side]) -> dict[Codes, int]:
    """The gate brace's factor of one argument at one gate,
    ``D_k = A+_k + A-_k``: its signed rotation codes on both sides, merged,
    zero coefficients dropped."""
    start, end = sides
    factor: dict[Codes, int] = {}
    for a, c in start + end:
        factor[a] = factor.get(a, 0) + c
    return {a: c for a, c in factor.items() if c}


def _graft_sum(terms: dict[Codes, int], xs, ys, scale: int = 1) -> dict[Codes, int]:
    """Add ``scale · p(X·Y)`` into ``terms``, canonical codes to
    coefficients, for X and Y given as ``(codes, coeff)`` pairs: every code
    tuple of X grafted onto every one of Y."""
    get = terms.get
    for a, ca in xs:
        ca *= scale
        for b, cb in ys:
            k = _graft(a, b)
            terms[k] = get(k, 0) + ca * cb
    return terms


def _bracket_codes(terms: dict[Codes, int], tx, ty, scale: int = 1) -> dict[Codes, int]:
    """Add ``scale · [x, y]`` into ``terms`` from the side tables of x and
    y: at each gate, the grafts of x's start side onto y's end side, minus
    those of y's start side onto x's end side."""
    for (start_x, end_x), (start_y, end_y) in zip(tx, ty):
        _graft_sum(terms, start_x, end_y, scale)
        _graft_sum(terms, start_y, end_x, -scale)
    return terms


def _brace_codes(
    terms: dict[Codes, int], factors: Sequence[dict[Codes, int]], scale: int = 1
) -> dict[Codes, int]:
    """Add ``scale · p(F_1 ... F_m)`` into ``terms`` for gate factors
    ``F_i``: all factors but the last multiplied out on code tuples, zero
    coefficients dropped, then grafted onto the last."""
    *head, last = factors
    product: dict[Codes, int] = {(): 1}
    for factor in head:
        step: dict[Codes, int] = {}
        for u, cu in product.items():
            for v, cv in factor.items():
                k = _product(u, v)
                step[k] = step.get(k, 0) + cu * cv
        product = {k: c for k, c in step.items() if c}
    return _graft_sum(terms, product.items(), last.items(), scale)


def gate_brace_geometric(qs: QuasiSurface, gate: str, loops: Sequence) -> LoopCombination:
    """The m-linear gate bracket: over every choice of one gate crossing
    per loop, the product of crossing signs times the class of the
    product of the rotated loop words.  The sum factors into one factor
    per argument, its signed rotations at the gate; the bracket is the
    class projection of their product."""
    k = qs.gate_index(gate)
    if not loops:
        raise ValueError("gate brace needs at least one loop")
    factors = [_gate_factor(_side_table(qs, x)[k]) for x in loops]
    return LoopCombination._from_codes(_brace_codes({}, factors))


def bullet(
    qs: QuasiSurface,
    omega: "str | Sequence[int] | None",
    x,
    y=None,
) -> LoopCombination:
    """The oriented homotopy pairing: the algebraic sum of all grafts of
    the first loop onto the second at gate-forced and declared crossings,
    ``sum_k omega_k p(A^omega_k(x) (A+_k(y) + A-_k(y)))`` for generic loops.

    Accepts conjugacy classes, lane diagrams, loop combinations (extended
    bilinearly), or a single two-loop :class:`ExplicitDiagram`.
    """
    signs = parse_omega(qs, omega)
    terms: dict[Codes, int] = {}
    if isinstance(x, ExplicitDiagram):
        fam, declared = explicit_pair(qs, x, y)
        grafts = [
            (fam.rotation_word(p), fam.rotation_word(q), c) for p, q, c in fam.crossing_pairs(signs)
        ]
        grafts += [
            (fam.exit_rotation_word(0, i), fam.exit_rotation_word(1, j), s) for i, j, s in declared
        ]
        for a, b, c in grafts:
            k = _graft(a.codes, b.codes)
            terms[k] = terms.get(k, 0) + c
        return LoopCombination._from_codes(terms)
    if y is None:
        raise ValueError("bullet needs two loops")
    # at each gate, x's start side (omega_k = +1) or end side (-1) with all of y
    both_y = [start + end for start, end in _side_table(qs, y)]
    for w, (start, end), y_k in zip(signs, _side_table(qs, x), both_y):
        _graft_sum(terms, start if w > 0 else end, y_k, w)
    return LoopCombination._from_codes(terms)


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
    return LoopCombination._from_codes(_bracket_codes({}, _side_table(qs, x), _side_table(qs, y)))


def kk_pairing(
    qs: QuasiSurface,
    omega: "str | Sequence[int] | None",
    x,
    y: Word,
) -> GroupRingElement:
    """The based refinement of the oriented pairing: grafting a circular
    loop into a based loop returns a group-ring element, a derivation of
    the group algebra in the based slot.  At gate k, x's side
    ``A^omega_k(x)`` is spliced into the based loop at each of its
    crossings there."""
    signs = parse_omega(qs, omega)
    based = realize_based(qs, y)

    def terms() -> Iterator[tuple[Word, int]]:
        for w, (start, end), crossings in zip(signs, _side_table(qs, x), based.crossings):
            side = start if w > 0 else end
            for arc, entry in crossings if side else ():
                prefix, suffix = based.split(based.cut(arc, entry))
                for a, c in side:
                    yield prefix * _word(a) * suffix, (w if entry else -w) * c

    return GroupRingElement.collect(terms())
