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
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .surface import EdgePath, EdgeStep, QuasiSurface
from .words import Codes, ConjClass, Word, _reduce, _word, canonical_conjugacy


@dataclass(frozen=True)
class DiskArc:
    """An embedded arc hugging lane ``lane`` of disk ``disk`` at ``depth``.

    Lane ``i`` runs counterclockwise from the gate at position ``i`` to
    the gate at position ``i + 1`` (mod the gate count).  A forward arc
    enters the disk at the lane's start gate and exits at its end gate;
    ``reverse`` swaps that.
    """

    disk: int
    lane: int
    depth: int
    reverse: bool = False


@dataclass(frozen=True)
class LaneDiagram:
    """A loop in lane normal form.

    ``paths[i]`` is the (possibly empty) edge path in Y from the exit
    vertex of ``arcs[i]`` to the entry vertex of the cyclically next arc.
    A loop living entirely in Y is a single closed path with no arcs; the
    empty diagram is the trivial loop.
    """

    arcs: tuple[DiskArc, ...]
    paths: tuple[EdgePath, ...]

    def is_empty(self) -> bool:
        return not self.arcs and not self.paths


@dataclass(frozen=True)
class SurfaceCrossing:
    """A declared transversal crossing between two arcs in one disk.

    ``sign`` is the crossing sign of the ordered pair (first loop, second
    loop); using the crossing with the loops swapped negates it.
    """

    first: tuple[int, int]  # (loop index, arc index)
    second: tuple[int, int]
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("crossing sign must be +1 or -1")

    def oriented(self, loop_a: int, loop_b: int) -> "int | None":
        """Sign of this crossing for the ordered loop pair (a, b), if it joins them."""
        if self.first[0] == loop_a and self.second[0] == loop_b:
            return self.sign
        if self.first[0] == loop_b and self.second[0] == loop_a:
            return -self.sign
        return None


@dataclass(frozen=True)
class ExplicitDiagram:
    """A family of lane diagrams with explicitly declared surface crossings.

    Planar realizability of the declaration is not validated; invariance
    statements downstream only apply to families the library constructed
    itself.
    """

    loops: tuple[LaneDiagram, ...]
    crossings: tuple[SurfaceCrossing, ...]

    def __post_init__(self):
        for c in self.crossings:
            for loop_idx, arc_idx in (c.first, c.second):
                if not 0 <= loop_idx < len(self.loops):
                    raise ValueError(f"crossing references unknown loop {loop_idx}")
                if not 0 <= arc_idx < len(self.loops[loop_idx].arcs):
                    raise ValueError(f"crossing references unknown arc {arc_idx} of loop {loop_idx}")
            disk_a = self.loops[c.first[0]].arcs[c.first[1]].disk
            disk_b = self.loops[c.second[0]].arcs[c.second[1]].disk
            if disk_a != disk_b:
                raise ValueError("a crossing must join two arcs of one disk")


def arc_gates(qs: QuasiSurface, arc: DiskArc) -> tuple[str, str]:
    """(entry gate, exit gate) of an arc."""
    gates = qs.disk_gates(arc.disk)
    m = len(gates)
    start, end = gates[arc.lane], gates[(arc.lane + 1) % m]
    return (end, start) if arc.reverse else (start, end)


def validate_diagram(qs: QuasiSurface, d: LaneDiagram) -> None:
    for path in d.paths:
        for _, sign in path:
            if sign != 1 and sign != -1:
                raise ValueError(f"malformed diagram: path step sign must be +1 or -1, got {sign!r}")
    if not d.arcs:
        if len(d.paths) > 1:
            raise ValueError("an arc-free diagram carries at most one closed path")
        if d.paths:
            path = d.paths[0]
            for e, _ in path:
                if qs.edges[e].gate is not None:
                    raise ValueError("singular paths may only use graph edges")
            start = qs.edge_endpoints(path[0])[0] if path else None
            qs.validate_edge_path(path, closed_at=start)
        return
    if len(d.paths) != len(d.arcs):
        raise ValueError("need exactly one connecting path per arc")
    seen_depths: set[tuple[int, int, int]] = set()
    for arc in d.arcs:
        if not 0 <= arc.disk < len(qs.spec.disks):
            raise ValueError(f"unknown disk {arc.disk}")
        m = len(qs.disk_gates(arc.disk))
        if not 0 <= arc.lane < m:
            raise ValueError(f"lane {arc.lane} out of range for disk {arc.disk}")
        if arc.depth < 1:
            raise ValueError("arc depth must be >= 1")
        key = (arc.disk, arc.lane, arc.depth)
        if key in seen_depths:
            raise ValueError(f"two arcs share depth {arc.depth} in lane {arc.lane} of disk {arc.disk}")
        seen_depths.add(key)
    n = len(d.arcs)
    for i, (arc, path) in enumerate(zip(d.arcs, d.paths)):
        for e, _ in path:
            if qs.edges[e].gate is not None:
                raise ValueError("singular paths may only use graph edges")
        _, exit_gate = arc_gates(qs, arc)
        at = qs.glued_vertex(exit_gate)
        for step in path:
            src, dst = qs.edge_endpoints(step)
            if src != at:
                raise ValueError("singular path does not chain with its arc")
            at = dst
        next_entry, _ = arc_gates(qs, d.arcs[(i + 1) % n])
        if at != qs.glued_vertex(next_entry):
            raise ValueError("singular path does not reach the next arc's gate")


# --- realized loops ----------------------------------------------------


@dataclass
class _RArc:
    disk: int
    lane: int
    depth: int
    reverse: bool
    entry_pos: int
    exit_pos: int

    def start_side(self, entry: bool) -> bool:
        """Whether the arc's entry (or exit) crossing lies on the start
        side of its gate, the lane starting there counterclockwise, which a
        forward arc enters and a reversed arc leaves; otherwise it lies on
        the end side, the lane ending there.  Every pair form reads a
        crossing's side from here."""
        return entry != self.reverse


@dataclass
class _RLoop:
    """A realized loop.  Its letter codes are collapsed and its gate endpoints
    listed once, and its rotation words are cached on it, so the one
    realization of a class on a surface (:func:`realize_loop`) serves every
    side table and family that reads the class.  It is shared, so nothing
    changes it after :func:`_rloop` builds it; ``rotations`` only caches."""

    edge_path: EdgePath  # detours included; positions below index into it
    arcs: list[_RArc]
    codes: Codes  # the letter codes of edge_path, unreduced
    before: list[int]  # before[i]: the number of codes in edge_path[:i]
    crossings: list[list[tuple[int, bool]]]  # crossings[k]: (arc, entry) at gate k
    rotations: dict[int, Word] = field(default_factory=dict)

    def cut(self, arc: int, entry: bool) -> int:
        """Where a gate crossing cuts the loop: at the arc's entry letter
        for an entry, right after its exit letter for an exit."""
        a = self.arcs[arc]
        return a.entry_pos if entry else a.exit_pos + 1

    def rotation(self, cut: int) -> Word:
        """The loop's word read from edge position ``cut`` around to it."""
        k = self.before[cut]
        word = self.rotations.get(k)
        if word is None:
            word = self.rotations[k] = _word(_reduce(self.codes[k:] + self.codes[:k]))
        return word

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


def _append_passage(
    qs: QuasiSurface,
    steps: list[EdgeStep],
    arcs: list[_RArc],
    depth_counter: dict[tuple[int, int], int],
    gate_in: int,
    gate_out: int,
) -> None:
    disk, pos_a = qs.gate_position[qs.gates[gate_in]]
    disk_b, pos_b = qs.gate_position[qs.gates[gate_out]]
    if disk != disk_b:
        raise ValueError("disk passage must enter and exit one disk")
    gates = qs.disk_gates(disk)
    m = len(gates)
    for lane, reverse in _lane_route(m, pos_a, pos_b):
        enter = gates[(lane + 1) % m] if reverse else gates[lane]
        leave = gates[lane] if reverse else gates[(lane + 1) % m]
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


def _realize_cyclic(qs: QuasiSurface, d: LaneDiagram) -> _RLoop:
    """A validated lane diagram realized verbatim, depths included."""
    steps: list[EdgeStep] = []
    arcs: list[_RArc] = []
    for arc, ypath in zip(d.arcs, d.paths):
        enter, leave = arc_gates(qs, arc)
        entry_pos = len(steps)
        steps.append((qs.gate_edge[enter], 1))
        steps.append((qs.gate_edge[leave], -1))
        steps.extend(ypath)
        arcs.append(_RArc(arc.disk, arc.lane, arc.depth, arc.reverse, entry_pos, entry_pos + 1))
    if not d.arcs and d.paths:
        steps.extend(d.paths[0])
    return _rloop(qs, steps, arcs)


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

    A class is realized once per surface: its loop is memoized in
    ``qs.realized`` under the class, and an equal class gets the same
    loop.  The memo holds its keys weakly, so an entry lives only while a
    caller holds that class object (a loop combination holds its terms).
    A word is looked up under its class but not stored, since that class
    object dies with the call.  The returned loop is shared and must not
    be changed.  A lane diagram is validated and realized on every call
    and never memoized."""
    if isinstance(x, LaneDiagram):
        validate_diagram(qs, x)
        return _realize_cyclic(qs, x)
    if isinstance(x, Word):
        c = canonical_conjugacy(x)
        rl = qs.realized.get(c)
        return rl if rl is not None else _walk(qs, qs.cyclic_edge_path(c), cyclic=True)
    if isinstance(x, ConjClass):
        memo = qs.realized
        rl = memo.get(x)
        if rl is None:
            rl = memo[x] = _walk(qs, qs.cyclic_edge_path(x), cyclic=True)
        return rl
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
    """A lane diagram read from JSON and validated.  Nothing is coerced:
    ``disk``, ``lane``, ``depth`` and step signs must be integers (not
    booleans), ``reverse`` a boolean and a step's edge token a string."""
    try:
        arcs = []
        for a in data.get("arcs", ()):
            fields = (a["disk"], a["lane"], a["depth"], a.get("reverse", False))
            if any(type(v) is not int for v in fields[:3]) or type(fields[3]) is not bool:
                raise TypeError(f"an arc needs integer disk, lane and depth and a boolean reverse, got {a!r}")
            arcs.append(DiskArc(*fields))
        paths = [[(token, s) for token, s in p] for p in data.get("paths", ())]
        for token, s in (step for p in paths for step in p):
            if type(token) is not str or type(s) is not int:
                raise TypeError(f"a path step needs a string token and an integer sign, got {[token, s]!r}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed diagram: {exc}") from exc
    steps = []
    for p in paths:
        path = []
        for token, s in p:
            if token not in qs.token_to_edge:
                raise ValueError(f"unknown generator token {token!r}")
            path.append((qs.token_to_edge[token], s))
        steps.append(tuple(path))
    diagram = LaneDiagram(tuple(arcs), tuple(steps))
    validate_diagram(qs, diagram)
    return diagram


def dual_v(qs: QuasiSurface, gate: str, d: "LaneDiagram | ConjClass | Word") -> int:
    """Signed count of the loop's crossings with a gate."""
    k = qs.gate_index(gate)
    return sum(1 if entry else -1 for _, entry in realize_loop(qs, d).crossings[k])


# --- generic families --------------------------------------------------


@dataclass(frozen=True)
class CrossingRef:
    """One gate crossing of one loop in a family: an arc's entry or exit."""

    loop: int
    arc: int
    entry: bool
    sign: int


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
