"""Loop diagrams in lane normal form, and generic families of them.

A loop in simple position alternates between disk arcs and edge paths in
the graph Y.  Every arc lives in a lane, the region between two
cyclically adjacent gates of one disk, at a positive integer depth; arcs
of one lane are nested by depth, so a family of lane diagrams never has
crossings in the surface part.  A chord between far-apart gates is
decomposed into consecutive lane hops with trivial gate detours, which
leaves the free homotopy class unchanged.

Crossing order along a gate is forced by the geometry: traversing a gate
in the counterclockwise direction of its disk, one first meets the
endpoints coming from the preceding lane in increasing depth, then the
endpoints of the following lane in decreasing depth.  The order is a
comparison, not a stored sequence: a family compares two endpoints by
one key.  A gate orientation assigns each gate a sign against this
reference direction (+1 = counterclockwise); it orders crossings and
orients crossing signs for the intersection forms downstream.
"""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Iterable, Iterator, Mapping, Sequence

from ._value import FrozenValue, Value
from .surface import EdgePath, EdgeStep, QuasiSurface
from .words import Codes, ConjClass, Word, _product, _reduce, _word, canonical_conjugacy, cyclic_reduction


class DiskArc(FrozenValue):
    """An embedded arc hugging lane ``lane`` of disk ``disk`` at ``depth``.

    Lane ``i`` runs counterclockwise from the gate at position ``i`` to
    the gate at position ``i + 1`` (mod the gate count).  A forward arc
    enters the disk at the lane's start gate and exits at its end gate;
    ``reverse`` swaps that.
    """

    _fields = ("disk", "lane", "depth", "reverse")

    def __init__(self, disk: int, lane: int, depth: int, reverse: bool = False):
        self._assign(disk, lane, depth, reverse)


class LaneDiagram(FrozenValue):
    """A loop in lane normal form.

    ``paths[i]`` is the (possibly empty) edge path in Y from the exit
    vertex of ``arcs[i]`` to the entry vertex of the cyclically next arc.
    A loop living entirely in Y is a single closed path with no arcs; the
    empty diagram is the trivial loop.
    """

    _fields = ("arcs", "paths")

    def __init__(self, arcs: tuple[DiskArc, ...], paths: tuple[EdgePath, ...]):
        self._assign(arcs, paths)


class SurfaceCrossing(FrozenValue):
    """A declared transversal crossing between two arcs in one disk.

    ``first`` and ``second`` are (loop index, arc index) pairs.  ``sign``
    is the crossing sign of the ordered pair (first loop, second loop);
    using the crossing with the loops swapped negates it.
    """

    _fields = ("first", "second", "sign")

    def __init__(self, first: tuple[int, int], second: tuple[int, int], sign: int):
        if sign not in (1, -1):
            raise ValueError("crossing sign must be +1 or -1")
        self._assign(first, second, sign)

    def oriented(self, loop_a: int, loop_b: int) -> "int | None":
        """Sign of this crossing for the ordered loop pair (a, b), if it joins them."""
        if self.first[0] == loop_a and self.second[0] == loop_b:
            return self.sign
        if self.first[0] == loop_b and self.second[0] == loop_a:
            return -self.sign
        return None


class ExplicitDiagram(FrozenValue):
    """A family of lane diagrams with explicitly declared surface crossings.

    Planar realizability of the declaration is not validated; invariance
    statements downstream only apply to families the library constructed
    itself.
    """

    _fields = ("loops", "crossings")

    def __init__(self, loops: tuple[LaneDiagram, ...], crossings: tuple[SurfaceCrossing, ...]):
        for c in crossings:
            for loop_idx, arc_idx in (c.first, c.second):
                if not 0 <= loop_idx < len(loops):
                    raise ValueError(f"crossing references unknown loop {loop_idx}")
                if not 0 <= arc_idx < len(loops[loop_idx].arcs):
                    raise ValueError(f"crossing references unknown arc {arc_idx} of loop {loop_idx}")
            disk_a = loops[c.first[0]].arcs[c.first[1]].disk
            disk_b = loops[c.second[0]].arcs[c.second[1]].disk
            if disk_a != disk_b:
                raise ValueError("a crossing must join two arcs of one disk")
        self._assign(loops, crossings)


def validate_diagram(qs: QuasiSurface, d: LaneDiagram) -> None:
    """Check a lane diagram, read from JSON or built in Python alike;
    nothing is coerced.  Arcs and paths are tuples, each path a tuple of
    steps; every step is a pair of the ``int`` index of a graph edge and an
    ``int`` sign of +-1; an arc-free diagram carries at most one path and
    any other one path per arc; every arc is a ``DiskArc`` with ``int`` (not
    ``bool``) disk, lane and depth in range, a ``bool`` ``reverse`` and a
    depth of its own in its lane; and the closed step sequence of
    :func:`_diagram_steps` chains and closes."""
    if not isinstance(d.arcs, tuple) or not isinstance(d.paths, tuple):
        raise ValueError(f"malformed diagram: arcs and paths are tuples, got {d!r}")
    for path in d.paths:
        if not isinstance(path, tuple):
            raise ValueError(f"malformed diagram: a path is a tuple of (edge, sign) steps, got {path!r}")
        for step in path:
            if not isinstance(step, tuple) or len(step) != 2:
                raise ValueError(f"malformed diagram: a path step is an (edge, sign) pair, got {step!r}")
            e, sign = step
            if type(sign) is not int or not (sign == 1 or sign == -1):
                raise ValueError(f"malformed diagram: path step sign must be +1 or -1, got {sign!r}")
            if type(e) is not int or not 0 <= e < qs.n_y_edges:
                raise ValueError(
                    f"malformed diagram: path step edge {e!r} is not the int index of one of"
                    f" the {qs.n_y_edges} graph edges"
                )
    if not d.arcs and len(d.paths) > 1:
        raise ValueError("an arc-free diagram carries at most one closed path")
    if d.arcs and len(d.paths) != len(d.arcs):
        raise ValueError("need exactly one connecting path per arc")
    seen_depths: set[tuple[int, int, int]] = set()
    for arc in d.arcs:
        if not isinstance(arc, DiskArc):
            raise ValueError(f"malformed diagram: an arc is a DiskArc, got {arc!r}")
        if any(type(v) is not int for v in (arc.disk, arc.lane, arc.depth)) or type(arc.reverse) is not bool:
            raise ValueError(
                f"malformed diagram: an arc needs integer disk, lane and depth and a boolean reverse, got {arc!r}"
            )
        if not 0 <= arc.disk < len(qs.spec.disks):
            raise ValueError(f"unknown disk {arc.disk}")
        if not 0 <= arc.lane < len(qs.disk_gates(arc.disk)):
            raise ValueError(f"lane {arc.lane} out of range for disk {arc.disk}")
        if arc.depth < 1:
            raise ValueError("arc depth must be >= 1")
        key = (arc.disk, arc.lane, arc.depth)
        if key in seen_depths:
            raise ValueError(f"two arcs share depth {arc.depth} in lane {arc.lane} of disk {arc.disk}")
        seen_depths.add(key)
    steps, _ = _diagram_steps(qs, d)
    qs.validate_edge_path(steps, closed_at=qs.edge_endpoints(steps[0])[0] if steps else None)


# --- realized loops ----------------------------------------------------


class _RArc(Value):
    _fields = ("disk", "lane", "depth", "reverse", "entry_pos", "exit_pos")

    def __init__(self, disk: int, lane: int, depth: int, reverse: bool, entry_pos: int, exit_pos: int):
        self.disk = disk
        self.lane = lane
        self.depth = depth
        self.reverse = reverse
        self.entry_pos = entry_pos
        self.exit_pos = exit_pos

    def start_side(self, entry: bool) -> bool:
        """Whether the arc's entry (or exit) crossing lies on the start
        side of its gate, the lane starting there counterclockwise, which a
        forward arc enters and a reversed arc leaves; otherwise it lies on
        the end side, the lane ending there.  Every pair form reads a
        crossing's side from here."""
        return entry != self.reverse


class _RLoop(Value):
    """A realized loop.  Its letter codes are collapsed and its gate endpoints
    listed once, and the codes of its rotation words are cached on it, so
    that a family reading one crossing many times reduces its rotation
    once.  Nothing changes it after :func:`_rloop` builds it; ``rotations``
    only caches."""

    _fields = ("edge_path", "arcs", "codes", "before", "crossings", "rotations")

    def __init__(
        self,
        edge_path: EdgePath,
        arcs: list[_RArc],
        codes: Codes,
        before: list[int],
        crossings: list[list[tuple[int, bool]]],
        rotations: dict[int, Codes] | None = None,
    ):
        self.edge_path = edge_path  # detours included; positions below index into it
        self.arcs = arcs
        self.codes = codes  # the letter codes of edge_path, unreduced
        self.before = before  # before[i]: the number of codes in edge_path[:i]
        self.crossings = crossings  # crossings[k]: (arc, entry) at gate k
        self.rotations = {} if rotations is None else rotations

    def cut(self, arc: int, entry: bool) -> int:
        """Where a gate crossing cuts the loop: at the arc's entry letter
        for an entry, right after its exit letter for an exit."""
        a = self.arcs[arc]
        return a.entry_pos if entry else a.exit_pos + 1

    def rotation_codes(self, cut: int) -> Codes:
        """The reduced codes of the loop's word read from edge position
        ``cut`` around to it."""
        k = self.before[cut]
        codes = self.rotations.get(k)
        if codes is None:
            codes = self.rotations[k] = _reduce(self.codes[k:] + self.codes[:k])
        return codes

    def rotation(self, cut: int) -> Word:
        """The loop's word read from edge position ``cut`` around to it."""
        return _word(self.rotation_codes(cut))

    def split(self, cut: int) -> tuple[Word, Word]:
        """The words before and after edge position ``cut``: where a based
        loop is spliced open at a gate crossing."""
        k = self.before[cut]
        return _word(_reduce(self.codes[:k])), _word(_reduce(self.codes[k:]))

    def diagram(self, depths: "Sequence[int] | None" = None) -> LaneDiagram:
        """The loop as a lane diagram, at its own depths or the given ones."""
        if not self.arcs:
            return LaneDiagram((), (self.edge_path,) if self.edge_path else ())
        if depths is None:
            depths = [a.depth for a in self.arcs]
        ends = [a.entry_pos for a in self.arcs[1:]] + [len(self.edge_path)]
        return LaneDiagram(
            tuple(DiskArc(a.disk, a.lane, d, a.reverse) for a, d in zip(self.arcs, depths)),
            tuple(self.edge_path[a.exit_pos + 1:end] for a, end in zip(self.arcs, ends)),
        )


def _lane_route(m: int, a: int, b: int) -> list[tuple[int, bool]]:
    """Lane hops from gate position a to gate position b on an m-gate disk,
    along the shorter boundary side (counterclockwise on ties)."""
    if a == b:
        raise ValueError("a disk passage cannot enter and exit the same gate")
    ccw = (b - a) % m
    if ccw <= m - ccw:
        return [((a + j) % m, False) for j in range(ccw)]
    return [((a - 1 - j) % m, True) for j in range(m - ccw)]


def _passage_hops(
    qs: QuasiSurface, gate_in: int, gate_out: int
) -> tuple[int, list[tuple[int, bool, str, str]]]:
    """The disk of a passage from gate index ``gate_in`` to ``gate_out``,
    and its lane hops along :func:`_lane_route`, each as its lane, whether
    it runs reversed, and the gates it enters and leaves."""
    disk, pos_a = qs.gate_position[qs.gates[gate_in]]
    disk_b, pos_b = qs.gate_position[qs.gates[gate_out]]
    if disk != disk_b:
        raise ValueError("disk passage must enter and exit one disk")
    gates = qs.disk_gates(disk)
    m = len(gates)
    hops = []
    for lane, reverse in _lane_route(m, pos_a, pos_b):
        start, end = gates[lane], gates[(lane + 1) % m]
        hops.append((lane, reverse, end, start) if reverse else (lane, reverse, start, end))
    return disk, hops


def _append_passage(
    qs: QuasiSurface,
    steps: list[EdgeStep],
    arcs: list[_RArc],
    depth_counter: dict[tuple[int, int], int],
    gate_in: int,
    gate_out: int,
) -> None:
    disk, hops = _passage_hops(qs, gate_in, gate_out)
    for lane, reverse, enter, leave in hops:
        key = (disk, lane)
        depth_counter[key] = depth_counter.get(key, 0) + 1
        entry_pos = len(steps)
        steps.append((qs.gate_edge[enter], 1))
        steps.append((qs.gate_edge[leave], -1))
        arcs.append(_RArc(disk, lane, depth_counter[key], reverse, entry_pos, entry_pos + 1))


def _walk(qs: QuasiSurface, path: EdgePath, cyclic: bool) -> _RLoop:
    """Realize a reduced edge path (cyclically reduced and closed when
    ``cyclic``; it is then read from its first gate entry): graph steps are
    kept verbatim, and each disk passage is decomposed into lane hops with
    trivial gate detours, at fresh maximal depths per lane in construction
    order.  The rotation of a cyclic path influences the representative
    built, never the class it represents."""
    edges = qs.edges
    if cyclic:
        start = next((i for i, (e, d) in enumerate(path) if d > 0 and edges[e].gate is not None), 0)
        path = path[start:] + path[:start]
    steps: list[EdgeStep] = []
    arcs: list[_RArc] = []
    depth_counter: dict[tuple[int, int], int] = {}
    i = 0
    while i < len(path):
        e, d = path[i]
        gate_in = edges[e].gate
        if gate_in is None:
            steps.append(path[i])
            i += 1
            continue
        e2, d2 = path[i + 1]
        gate_out = edges[e2].gate
        assert d > 0 and gate_out is not None and d2 < 0, "a reduced path enters a disk before leaving it"
        _append_passage(qs, steps, arcs, depth_counter, gate_in, gate_out)
        i += 2
    return _rloop(qs, steps, arcs)


def _diagram_steps(qs: QuasiSurface, d: LaneDiagram) -> tuple[list[EdgeStep], list[_RArc]]:
    """The closed step sequence of a lane diagram, depths included: each
    arc's entry and exit gate steps, then its graph path; an arc-free
    diagram is its one path.  :func:`validate_diagram` checks that it
    chains and closes, and :func:`realize_loop` realizes it verbatim."""
    if not d.arcs:
        return list(d.paths[0] if d.paths else ()), []
    steps: list[EdgeStep] = []
    arcs: list[_RArc] = []
    for arc, ypath in zip(d.arcs, d.paths):
        gates = qs.disk_gates(arc.disk)
        enter = qs.gate_edge[gates[arc.lane]]
        leave = qs.gate_edge[gates[(arc.lane + 1) % len(gates)]]
        if arc.reverse:
            enter, leave = leave, enter
        arcs.append(_RArc(arc.disk, arc.lane, arc.depth, arc.reverse, len(steps), len(steps) + 1))
        steps += ((enter, 1), (leave, -1), *ypath)
    return steps, arcs


def _rloop(qs: QuasiSurface, steps: list[EdgeStep], arcs: list[_RArc]) -> _RLoop:
    """The realized loop of a walk: its letter codes collapsed, and each arc's
    entry and exit listed at their gates."""
    crossings: list[list[tuple[int, bool]]] = [[] for _ in qs.gates]
    for i, arc in enumerate(arcs):
        crossings[qs.edges[steps[arc.entry_pos][0]].gate].append((i, True))
        crossings[qs.edges[steps[arc.exit_pos][0]].gate].append((i, False))
    return _RLoop(tuple(steps), arcs, *qs.collapse(steps), crossings)


def realize_based(qs: QuasiSurface, w: Word) -> _RLoop:
    """A based loop realized from its word's edge path, read from the
    basepoint: :meth:`_RLoop.split` cuts it open at a gate crossing."""
    return _walk(qs, qs.edge_path_of_word(w), cyclic=False)


def realize_loop(qs: QuasiSurface, x: "LaneDiagram | ConjClass | Word") -> _RLoop:
    """One circular loop realized: a class from its canonical cyclic edge
    path, a lane diagram given from outside verbatim once validated.

    Nothing is memoized: every call walks afresh.  The forms read a class
    through its side table (:func:`_class_sides`), which needs no
    realization; a realized loop serves lane diagrams, ``word_to_diagram``,
    the generic families and the tests' reference route."""
    if isinstance(x, LaneDiagram):
        validate_diagram(qs, x)
        return _rloop(qs, *_diagram_steps(qs, x))
    if isinstance(x, Word):
        x = canonical_conjugacy(x)
    if isinstance(x, ConjClass):
        return _walk(qs, qs.cyclic_edge_path(x), cyclic=True)
    raise TypeError(f"cannot interpret {type(x).__name__} as a loop diagram")


def word_to_diagram(qs: QuasiSurface, c: ConjClass) -> LaneDiagram:
    """Lane normal form of a conjugacy class: its canonical cyclic edge path
    realized as in :func:`realize_loop`.  ``diagram_to_word`` inverts this
    exactly."""
    return realize_loop(qs, c).diagram()


def diagram_from_cyclic_path(qs: QuasiSurface, path: EdgePath) -> LaneDiagram:
    """Lane normal form of a cyclically reduced closed edge path."""
    return _walk(qs, path, cyclic=True).diagram()


def diagram_to_word(qs: QuasiSurface, d: LaneDiagram) -> ConjClass:
    """The conjugacy class a lane diagram represents: gate edges from the
    arcs, singular paths verbatim, spanning tree collapsed."""
    return canonical_conjugacy(realize_loop(qs, d).rotation(0))


def diagram_to_json(qs: QuasiSurface, d: LaneDiagram) -> dict:
    """Serialized lane diagram; singular paths are written in edge tokens."""
    return {
        "arcs": [
            {"disk": a.disk, "lane": a.lane, "depth": a.depth, "reverse": a.reverse}
            for a in d.arcs
        ],
        "paths": [
            [[qs.edges[e].name, s] for e, s in p] for p in d.paths
        ],
    }


def diagram_from_json(qs: QuasiSurface, data: dict) -> LaneDiagram:
    """A lane diagram read from JSON, its edge tokens looked up, and
    validated by :func:`validate_diagram`; nothing is coerced."""
    try:
        arcs = tuple(
            DiskArc(a["disk"], a["lane"], a["depth"], a.get("reverse", False)) for a in data.get("arcs", ())
        )
        paths = [[(token, s) for token, s in p] for p in data.get("paths", ())]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed diagram: {exc}") from exc
    steps = []
    for p in paths:
        path = []
        for token, s in p:
            if type(token) is not str:
                raise ValueError(f"malformed diagram: an edge token is a string, got {token!r}")
            if token not in qs.token_to_edge:
                raise ValueError(f"unknown generator token {token!r}")
            path.append((qs.token_to_edge[token], s))
        steps.append(tuple(path))
    diagram = LaneDiagram(arcs, tuple(steps))
    validate_diagram(qs, diagram)
    return diagram


# --- side tables from the edge path -------------------------------------

# A loop's side table: per gate, ``(start, end)``, the rotation codes and
# signed coefficient of each crossing on the start side of the gate (the
# lane starting there counterclockwise, :meth:`_RArc.start_side`) and of
# each one on the end side.  A crossing's sign is +1 for an entry, -1 for
# an exit.
_Side = tuple[tuple[Codes, int], ...]
_SideTable = tuple[tuple[_Side, _Side], ...]

# per surface, the letter code of each coded edge step (-1 off the
# generators) and the disk passages met so far, dropped with the surface
_PASSAGES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _passages(qs: QuasiSurface) -> tuple[tuple[int, ...], dict]:
    """The surface's step letters and its passage table, filled per
    passage on first use."""
    table = _PASSAGES.get(qs)
    if table is None:
        gen_of_edge = qs._gen_of_edge
        letters: list[int] = []
        for e in range(len(qs.edges)):
            g = gen_of_edge.get(e)
            # a step forward (code 2e) reads as its generator's inverse
            letters += (-1, -1) if g is None else (2 * g + 1, 2 * g)
        table = _PASSAGES[qs] = (tuple(letters), {})
    return table


def _passage(qs: QuasiSurface, letters: tuple[int, ...], enter: int, leave: int):
    """The disk passage entering by coded step ``enter`` and leaving by
    ``leave``, as :func:`_walk` decomposes it into lane hops: its reduced
    letters, zero to two codes since the hops' gate detours cancel in
    pairs, and its crossings in walk order, each ``(slot, sign, offset,
    h)``.  ``slot`` is ``2 k`` for the start side of gate k and ``2 k + 1``
    for its end side; the cut falls after ``offset`` of the passage's
    letters; ``h`` is the letter of a detour that the cut splits (between
    two hops, at a gate on the generators), else None, and conjugates the
    rotation read at the offset."""
    n_y = qs.n_y_edges
    _, hops = _passage_hops(qs, (enter >> 1) - n_y, (leave >> 1) - n_y)
    reverse = hops[0][1]
    # the gate edges along the route: each hop's entry, then the last exit
    edges = [qs.gate_edge[g] for _, _, g, _ in hops] + [qs.gate_edge[hops[-1][3]]]
    first, last = letters[enter], letters[leave]
    word = tuple(c for c in (first, last) if c >= 0)
    # at each gate along the route: the cut's offset, and the letter of the
    # detour that a cut between two hops splits (None at either end)
    offsets = [0] + [int(first >= 0)] * (len(hops) - 1) + [len(word)]
    detours = [None] + [letters[2 * e] if letters[2 * e] >= 0 else None for e in edges[1:-1]] + [None]
    crossings = []
    for j in range(len(hops)):
        # hop j enters through edges[j] and leaves through edges[j + 1]; its
        # entry lies on the start side unless it is reversed, its exit on the other
        crossings.append((2 * (edges[j] - n_y) + reverse, 1, offsets[j], detours[j]))
        crossings.append((2 * (edges[j + 1] - n_y) + (not reverse), -1, offsets[j + 1], detours[j + 1]))
    return word, tuple(crossings)


def _add_sides(qs: QuasiSurface, codes: Codes, coeff: int, slots: list[list]) -> None:
    """Append the crossings of the class with canonical codes ``codes``, with
    coefficient ``coeff`` times their signs, to ``slots`` (``2 k`` and
    ``2 k + 1``: the start and end sides of gate k).  The class's cyclically
    reduced edge path is read from its first gate entry, as :func:`_walk`
    reads it, one passage at a time from the passage table.  With ``W`` the
    loop's word and a cut after ``p`` of its letters, the rotation there is
    ``R = W[p:] + W[:p]``, conjugated by a split detour's letter ``h`` as
    ``h R h^-1``; it is computed once per ``(p, h)``."""
    letters, passages = _passages(qs)
    path = cyclic_reduction(qs._edge_codes_of_word(_word(codes)))
    gate_steps = 2 * qs.n_y_edges
    start = next((i for i, s in enumerate(path) if s >= gate_steps and not s & 1), None)
    if start is None:
        return
    steps = iter(path[start:] + path[:start])
    word: list[int] = []
    met = []  # (letters before the passage, its crossings)
    for s in steps:
        if s < gate_steps:
            if letters[s] >= 0:
                word.append(letters[s])
            continue
        leave = next(steps)  # a reduced path leaves the disk right after entering it
        passage = passages.get((s, leave))
        if passage is None:
            passage = passages[s, leave] = _passage(qs, letters, s, leave)
        met.append((len(word), passage[1]))
        word += passage[0]
    w = tuple(word)
    rotations: dict = {}
    for base, crossings in met:
        for slot, sign, offset, h in crossings:
            p = base + offset
            rotation = rotations.get((p, h))
            if rotation is None:
                rotation = w[p:] + w[:p]
                if h is not None:
                    rotation = _product(_product((h,), rotation), (h ^ 1,))
                rotations[p, h] = rotation
            slots[slot].append((rotation, coeff * sign))


def _codes_sides(qs: QuasiSurface, terms: Mapping[Codes, int]) -> _SideTable:
    """The side table of a combination given as canonical class codes to
    coefficients (as :func:`~quasiloop.words._graft` returns them), zero
    coefficients skipped; no class is built and nothing is memoized."""
    slots: list[list] = [[] for _ in range(2 * qs.n_gates)]
    for codes, coeff in terms.items():
        if coeff:
            _add_sides(qs, codes, coeff, slots)
    return tuple(zip(map(tuple, slots[0::2]), map(tuple, slots[1::2])))


def _class_sides(qs: QuasiSurface, x: "ConjClass | Word") -> _SideTable:
    """The side table of a class, read from its edge path.  It is computed
    once per surface: it is memoized in ``qs.side_tables`` under the class,
    and an equal class gets the same table.  The memo holds its keys
    weakly, so an entry lives only while a caller holds that class object
    (a loop combination holds its terms).  A word is looked up under its
    class but not stored, since that class object dies with the call.  The
    table is made of tuples and shared."""
    memo = qs.side_tables
    if isinstance(x, Word):
        c = canonical_conjugacy(x)
        table = memo.get(c)
        return table if table is not None else _codes_sides(qs, {c.word.codes: 1})
    if not isinstance(x, ConjClass):
        raise TypeError(f"cannot interpret {type(x).__name__} as a loop diagram")
    table = memo.get(x)
    if table is None:
        table = memo[x] = _codes_sides(qs, {x.word.codes: 1})
    return table


def dual_v(qs: QuasiSurface, gate: str, d: "LaneDiagram | ConjClass | Word") -> int:
    """Signed count of the loop's crossings with a gate: a class's from
    its side table, a lane diagram's from its realized arcs."""
    k = qs.gate_index(gate)
    if isinstance(d, LaneDiagram):
        return sum(1 if entry else -1 for _, entry in realize_loop(qs, d).crossings[k])
    start, end = _class_sides(qs, d)[k]
    return sum(c for _, c in start) + sum(c for _, c in end)


# --- generic families --------------------------------------------------


class CrossingRef(FrozenValue):
    """One gate crossing of one loop in a family: an arc's entry or exit."""

    _fields = ("loop", "arc", "entry", "sign")

    def __init__(self, loop: int, arc: int, entry: bool, sign: int):
        self._assign(loop, arc, entry, sign)


class GenericFamily:
    """Loops put in generic position: per lane, arcs are nested by
    (argument index, own depth), earlier arguments below later ones.  The
    gate order is a comparison, not a stored sequence: every order the
    family reports compares the places :meth:`_place` gives.  Nothing is
    built per family, and one realized loop can serve many families.

    The pair forms of generic loops do not need a family: at each gate
    every crossing of loop 0 sits on one side of every crossing of loop 1,
    so their pair set is a product of sides, read from side tables.  A
    family serves :func:`combine_generic` (lane diagrams in generic
    position) and, with ``normalize=False``, explicitly pre-combined
    families: their depths are taken verbatim (they must already be
    pairwise distinct per lane), so their pair set need not be a
    product."""

    def __init__(self, qs: QuasiSurface, loops: Sequence[_RLoop], normalize: bool = True):
        self.qs = qs
        self.loops = list(loops)
        self.normalize = normalize
        if not normalize:
            self._check_depths()

    def _check_depths(self) -> None:
        seen: set[tuple[int, int, int]] = set()
        for rl in self.loops:
            for arc in rl.arcs:
                key = (arc.disk, arc.lane, arc.depth)
                if key in seen:
                    raise ValueError(
                        f"two arcs of the family share depth {arc.depth} in lane "
                        f"{arc.lane} of disk {arc.disk}"
                    )
                seen.add(key)

    def _place(self, loop: int, arc: _RArc, entry: bool) -> tuple[int, int, int]:
        """A crossing's place along its gate, counterclockwise: the lane
        ending there by increasing depth, then the lane starting there
        (:meth:`_RArc.start_side`) by decreasing depth.  The depth compared is
        (argument index, own depth), or the own depth with ``normalize=False``."""
        rank = loop if self.normalize else 0
        if arc.start_side(entry):
            return (1, -rank, -arc.depth)
        return (0, rank, arc.depth)

    def _at_gate(self, loop: int, k: int) -> list[tuple[tuple[int, int, int], CrossingRef]]:
        """The crossings of one loop with gate ``k``, each with its place."""
        rl = self.loops[loop]
        return [
            (self._place(loop, rl.arcs[a], entry), CrossingRef(loop, a, entry, 1 if entry else -1))
            for a, entry in rl.crossings[k]
        ]

    def gate_sequence(self, gate: str) -> tuple[CrossingRef, ...]:
        k = self.qs.gate_index(gate)
        placed = [c for loop in range(len(self.loops)) for c in self._at_gate(loop, k)]
        return tuple(ref for _, ref in sorted(placed, key=lambda c: c[0]))

    def crossing_pairs(self, omega: Sequence[int]) -> Iterator[tuple[CrossingRef, CrossingRef, int]]:
        """The ordered crossing pairs of loops 0 and 1 that the pair forms
        of an explicit family are built from: at each gate, each crossing
        ``p`` of loop 0 with each crossing ``q`` of loop 1 that comes
        before ``p`` along the gate ordered by ``omega``, and the
        coefficient ``omega[k] * p.sign * q.sign``."""
        for k in range(len(self.qs.gates)):
            direction, mine = omega[k], self._at_gate(0, k)
            theirs = self._at_gate(1, k) if mine else ()
            for here, p in mine:
                for there, q in theirs:
                    if (there < here) == (direction > 0):
                        yield p, q, direction * p.sign * q.sign

    def diagrams(self) -> tuple[LaneDiagram, ...]:
        """The family as lane diagrams, each lane's depths numbered 1, 2, ...
        in the order its arcs reach the lane's end gate."""
        lanes: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for loop, rl in enumerate(self.loops):
            for arc in rl.arcs:
                lanes.setdefault((arc.disk, arc.lane), []).append(self._place(loop, arc, arc.reverse))
        for places in lanes.values():
            places.sort()
        return tuple(
            rl.diagram([lanes[a.disk, a.lane].index(self._place(loop, a, a.reverse)) + 1 for a in rl.arcs])
            for loop, rl in enumerate(self.loops)
        )

    def rotation_word(self, ref: CrossingRef) -> Word:
        """The loop reparametrized to start on the gate: at its entry
        letter for a +1 crossing, right after its exit letter for a -1."""
        rl = self.loops[ref.loop]
        return rl.rotation(rl.cut(ref.arc, ref.entry))

    def exit_rotation_word(self, loop: int, arc_idx: int) -> Word:
        """The loop reparametrized to start at an arc's exit letter; the
        grafting word of a declared surface crossing on that arc."""
        rl = self.loops[loop]
        return rl.rotation(rl.arcs[arc_idx].exit_pos)


def combine_generic(
    qs: QuasiSurface, inputs: Sequence["LaneDiagram | ConjClass | Word"]
) -> GenericFamily:
    """Put loops in generic position: per lane, earlier arguments take
    the smaller depths as one block, keeping each loop's internal nesting."""
    return GenericFamily(qs, [realize_loop(qs, x) for x in inputs])


def explicit_pair(
    qs: QuasiSurface, family: ExplicitDiagram, other=None
) -> tuple[GenericFamily, list[tuple[int, int, int]]]:
    """The generic family of an explicit two-loop diagram with its depths
    taken verbatim, and its declared crossings between the two loops as
    (arc of loop 0, arc of loop 1, sign for the ordered pair (0, 1))."""
    if other is not None:
        raise ValueError("pass either two loops or one explicit two-loop family")
    if len(family.loops) != 2:
        raise ValueError("the explicit family of a pair form must hold two loops")
    fam = GenericFamily(qs, [realize_loop(qs, d) for d in family.loops], normalize=False)
    declared = []
    for crossing in family.crossings:
        s = crossing.oriented(0, 1)
        if s is None:
            continue
        on_0, on_1 = crossing.first, crossing.second
        if on_0[0] != 0:
            on_0, on_1 = on_1, on_0
        declared.append((on_0[1], on_1[1], s))
    return fam, declared


# --- gate orientations --------------------------------------------------


def parse_omega(qs: QuasiSurface, omega: "str | Sequence[int] | None") -> tuple[int, ...]:
    """Normalize a gate orientation: one sign per gate in declared order;
    +1 means the gate keeps its counterclockwise reference direction.  A
    sequence must hold ints (not bools) of +-1; nothing is coerced."""
    if omega is None:
        return (1,) * qs.n_gates
    if isinstance(omega, str):
        if len(omega) != qs.n_gates or any(ch not in "+-" for ch in omega):
            raise ValueError(
                f"orientation string must be {qs.n_gates} characters of '+'/'-', got {omega!r}"
            )
        return tuple(1 if ch == "+" else -1 for ch in omega)
    signs = tuple(omega)
    if len(signs) != qs.n_gates or not all(type(s) is int and (s == 1 or s == -1) for s in signs):
        raise ValueError(f"orientation must assign an int +1 or -1 to every gate, got {omega!r}")
    return signs


def flip_gate(omega: Sequence[int], k: int) -> tuple[int, ...]:
    out = list(omega)
    out[k] = -out[k]
    return tuple(out)


def opposite(omega: Sequence[int]) -> tuple[int, ...]:
    return tuple(-s for s in omega)


def all_orientations(qs: QuasiSurface) -> Iterable[tuple[int, ...]]:
    return itertools.product((1, -1), repeat=qs.n_gates)
