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
endpoints of the following lane in decreasing depth.  A gate orientation
assigns each gate a sign against this reference direction (+1 =
counterclockwise); it orders crossings and orients crossing signs for the
intersection forms downstream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .surface import EdgePath, EdgeStep, QuasiSurface
from .words import ConjClass, Word, canonical_conjugacy


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
                if loop_idx >= len(self.loops):
                    raise ValueError(f"crossing references unknown loop {loop_idx}")
                if arc_idx >= len(self.loops[loop_idx].arcs):
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
        if arc.disk >= len(qs.spec.disks):
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


@dataclass
class _RLoop:
    edge_path: EdgePath  # detours included; positions below index into it
    arcs: list[_RArc]
    cyclic: bool


def _lane_route(m: int, a: int, b: int) -> list[tuple[int, bool]]:
    """Lane hops from gate position a to gate position b on an m-gate disk,
    along the shorter boundary side (counterclockwise on ties)."""
    if a == b:
        raise ValueError("a disk passage cannot enter and exit the same gate")
    ccw = (b - a) % m
    if ccw <= m - ccw:
        return [((a + j) % m, False) for j in range(ccw)]
    return [((a - 1 - j) % m, True) for j in range(m - ccw)]


def _passage_hops(qs: QuasiSurface, gate_in: int, gate_out: int) -> tuple[int, list[tuple[int, bool]]]:
    disk_a, pos_a = qs.gate_position[qs.gates[gate_in]]
    disk_b, pos_b = qs.gate_position[qs.gates[gate_out]]
    if disk_a != disk_b:
        raise ValueError("disk passage must enter and exit one disk")
    return disk_a, _lane_route(len(qs.disk_gates(disk_a)), pos_a, pos_b)


def _realize_cyclic(qs: QuasiSurface, d: LaneDiagram) -> _RLoop:
    if not d.arcs:
        return _RLoop(d.paths[0] if d.paths else (), [], cyclic=True)
    steps: list[EdgeStep] = []
    arcs: list[_RArc] = []
    for arc, ypath in zip(d.arcs, d.paths):
        enter, leave = arc_gates(qs, arc)
        entry_pos = len(steps)
        steps.append((qs.gate_edge[enter], 1))
        steps.append((qs.gate_edge[leave], -1))
        steps.extend(ypath)
        arcs.append(_RArc(arc.disk, arc.lane, arc.depth, arc.reverse, entry_pos, entry_pos + 1))
    return _RLoop(tuple(steps), arcs, cyclic=True)


def _append_passage(
    qs: QuasiSurface,
    steps: list[EdgeStep],
    arcs: list[_RArc],
    depth_counter: dict[tuple[int, int], int],
    gate_in: int,
    gate_out: int,
) -> None:
    disk, hops = _passage_hops(qs, gate_in, gate_out)
    gates = qs.disk_gates(disk)
    m = len(gates)
    for lane, reverse in hops:
        enter = gates[(lane + 1) % m] if reverse else gates[lane]
        leave = gates[lane] if reverse else gates[(lane + 1) % m]
        key = (disk, lane)
        depth_counter[key] = depth_counter.get(key, 0) + 1
        entry_pos = len(steps)
        steps.append((qs.gate_edge[enter], 1))
        steps.append((qs.gate_edge[leave], -1))
        arcs.append(_RArc(disk, lane, depth_counter[key], reverse, entry_pos, entry_pos + 1))


def _realize_based(qs: QuasiSurface, w: Word) -> _RLoop:
    path = qs.edge_path_of_word(w)
    steps: list[EdgeStep] = []
    arcs: list[_RArc] = []
    depth_counter: dict[tuple[int, int], int] = {}
    i = 0
    while i < len(path):
        e, d = path[i]
        if qs.edges[e].gate is None:
            steps.append(path[i])
            i += 1
            continue
        assert d > 0, "a reduced based path enters a disk before leaving it"
        e2, d2 = path[i + 1]
        gate_out = qs.edges[e2].gate
        assert gate_out is not None and d2 < 0
        _append_passage(qs, steps, arcs, depth_counter, qs.edges[e].gate, gate_out)
        i += 2
    return _RLoop(tuple(steps), arcs, cyclic=False)


def word_to_diagram(qs: QuasiSurface, c: ConjClass) -> LaneDiagram:
    """Lane normal form of a conjugacy class.

    The class's canonical cyclic edge path is rewritten as an alternation
    of disk passages and singular paths; each passage is decomposed into
    lane hops with trivial gate detours, and fresh maximal depths are
    assigned per lane in construction order.  ``diagram_to_word`` inverts
    this exactly.
    """
    return diagram_from_cyclic_path(qs, qs.cyclic_edge_path(c))


def diagram_from_cyclic_path(qs: QuasiSurface, path: EdgePath) -> LaneDiagram:
    """Lane normal form of a cyclically reduced closed edge path; the
    rotation of the path influences the representative built, never the
    class it represents."""
    if not path:
        return LaneDiagram((), ())
    if all(qs.edges[e].gate is None for e, _ in path):
        return LaneDiagram((), (path,))
    start = next(i for i, (e, d) in enumerate(path) if qs.edges[e].gate is not None and d > 0)
    path = path[start:] + path[:start]

    steps: list[EdgeStep] = []
    arcs: list[_RArc] = []
    depth_counter: dict[tuple[int, int], int] = {}
    segments: list[tuple[int, EdgePath]] = []  # (arc count so far, trailing Y path)
    i = 0
    n = len(path)
    while i < n:
        e, d = path[i]
        gate_in = qs.edges[e].gate
        assert gate_in is not None and d > 0
        e2, d2 = path[i + 1]
        gate_out = qs.edges[e2].gate
        assert gate_out is not None and d2 < 0
        _append_passage(qs, steps, arcs, depth_counter, gate_in, gate_out)
        j = i + 2
        ypath: list[EdgeStep] = []
        while j < n and qs.edges[path[j][0]].gate is None:
            ypath.append(path[j])
            j += 1
        segments.append((len(arcs), tuple(ypath)))
        i = j

    out_arcs = tuple(DiskArc(a.disk, a.lane, a.depth, a.reverse) for a in arcs)
    out_paths: list[EdgePath] = []
    done = 0
    for count, ypath in segments:
        out_paths.extend(() for _ in range(count - done - 1))
        out_paths.append(ypath)
        done = count
    return LaneDiagram(out_arcs, tuple(out_paths))


def diagram_edge_path(qs: QuasiSurface, d: LaneDiagram) -> EdgePath:
    return _realize_cyclic(qs, d).edge_path


def diagram_to_word(qs: QuasiSurface, d: LaneDiagram) -> ConjClass:
    """The conjugacy class a lane diagram represents: gate edges from the
    arcs, singular paths verbatim, spanning tree collapsed."""
    validate_diagram(qs, d)
    return canonical_conjugacy(qs.word_from_edge_path(diagram_edge_path(qs, d)))


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
    try:
        arcs = tuple(
            DiskArc(int(a["disk"]), int(a["lane"]), int(a["depth"]), bool(a.get("reverse", False)))
            for a in data.get("arcs", ())
        )
        paths = [[(str(token), int(s)) for token, s in p] for p in data.get("paths", ())]
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
    diagram = LaneDiagram(arcs, tuple(steps))
    validate_diagram(qs, diagram)
    return diagram


def dual_v(qs: QuasiSurface, gate: str, d: "LaneDiagram | ConjClass") -> int:
    """Signed count of the loop's crossings with a gate."""
    if gate not in qs.gate_edge:
        raise ValueError(f"unknown gate {gate!r}")
    d = as_diagram(qs, d)
    total = 0
    for arc in d.arcs:
        enter, leave = arc_gates(qs, arc)
        if enter == gate:
            total += 1
        if leave == gate:
            total -= 1
    return total


def as_diagram(qs: QuasiSurface, x: "LaneDiagram | ConjClass | Word") -> LaneDiagram:
    if isinstance(x, LaneDiagram):
        return x
    if isinstance(x, Word):
        x = canonical_conjugacy(x)
    if isinstance(x, ConjClass):
        return word_to_diagram(qs, x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a loop diagram")


# --- generic families --------------------------------------------------


@dataclass(frozen=True)
class CrossingRef:
    """One gate crossing of one loop in a combined family."""

    loop: int
    arc: int
    entry: bool
    sign: int
    gate: str


class GenericFamily:
    """Loops put in generic position: per lane, all depths pairwise
    distinct, earlier arguments below later ones; per gate, the crossing
    sequence in the counterclockwise reference direction.

    With ``normalize=False`` the given depths are taken verbatim (they
    must already be pairwise distinct per lane); this is how explicitly
    pre-combined families enter the forms."""

    def __init__(self, qs: QuasiSurface, loops: Sequence[_RLoop], normalize: bool = True):
        self.qs = qs
        self.loops = list(loops)
        if normalize:
            self._assign_depths()
        else:
            self._check_depths()
        self._order_gates()
        self._rotations: dict[tuple[int, int, bool], Word] = {}

    def _assign_depths(self) -> None:
        lanes: dict[tuple[int, int], list[tuple[int, int, _RArc]]] = {}
        for loop_idx, rl in enumerate(self.loops):
            for arc in rl.arcs:
                lanes.setdefault((arc.disk, arc.lane), []).append((loop_idx, arc.depth, arc))
        for members in lanes.values():
            members.sort(key=lambda t: (t[0], t[1]))
            for new_depth, (_, _, arc) in enumerate(members, start=1):
                arc.depth = new_depth

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

    def _order_gates(self) -> None:
        qs = self.qs
        self._gate_seq: dict[str, tuple[CrossingRef, ...]] = {}
        by_lane: dict[tuple[int, int], list[tuple[int, int, _RArc]]] = {}
        for loop_idx, rl in enumerate(self.loops):
            for arc_idx, arc in enumerate(rl.arcs):
                by_lane.setdefault((arc.disk, arc.lane), []).append((loop_idx, arc_idx, arc))
        for gate in qs.gates:
            disk, pos = qs.gate_position[gate]
            m = len(qs.disk_gates(disk))
            prev_members = sorted(
                by_lane.get((disk, (pos - 1) % m), ()), key=lambda t: t[2].depth
            )
            next_members = sorted(
                by_lane.get((disk, pos), ()), key=lambda t: -t[2].depth
            )
            seq: list[CrossingRef] = []
            for loop_idx, arc_idx, arc in prev_members:
                entry = arc.reverse  # the far endpoint of the lane is the entry of a reverse arc
                seq.append(CrossingRef(loop_idx, arc_idx, entry, 1 if entry else -1, gate))
            for loop_idx, arc_idx, arc in next_members:
                entry = not arc.reverse
                seq.append(CrossingRef(loop_idx, arc_idx, entry, 1 if entry else -1, gate))
            self._gate_seq[gate] = tuple(seq)

    def gate_sequence(self, gate: str) -> tuple[CrossingRef, ...]:
        return self._gate_seq[gate]

    def crossings_of(self, gate: str, loop: int) -> list[CrossingRef]:
        return [c for c in self._gate_seq[gate] if c.loop == loop]

    def crossing_pairs(self, omega: Sequence[int]) -> Iterator[tuple[CrossingRef, CrossingRef, int]]:
        """The ordered crossing pairs of loops 0 and 1 that every pair form
        is built from: at each gate, each crossing ``p`` of loop 0 with each
        crossing ``q`` of loop 1 that comes before ``p`` in the gate sequence
        ordered by ``omega``, and the coefficient ``omega[k] * p.sign * q.sign``."""
        for k, gate in enumerate(self.qs.gates):
            seq = self._gate_seq[gate]
            direction = omega[k]
            for i, p in enumerate(seq):
                if p.loop != 0:
                    continue
                for q in seq[:i] if direction > 0 else seq[i + 1:]:
                    if q.loop == 1:
                        yield p, q, direction * p.sign * q.sign

    def diagrams(self) -> tuple[LaneDiagram, ...]:
        out = []
        for rl in self.loops:
            if not rl.arcs:
                out.append(LaneDiagram((), (rl.edge_path,) if rl.edge_path else ()))
                continue
            arcs = tuple(DiskArc(a.disk, a.lane, a.depth, a.reverse) for a in rl.arcs)
            paths = []
            for i, arc in enumerate(rl.arcs):
                lo = arc.exit_pos + 1
                hi = rl.arcs[i + 1].entry_pos if i + 1 < len(rl.arcs) else len(rl.edge_path)
                paths.append(tuple(rl.edge_path[lo:hi]))
            out.append(LaneDiagram(arcs, tuple(paths)))
        return tuple(out)

    def rotation_word(self, ref: CrossingRef) -> Word:
        """The loop reparametrized to start on the gate: at its entry
        letter for a +1 crossing, right after its exit letter for a -1."""
        key = (ref.loop, ref.arc, ref.entry)
        cached = self._rotations.get(key)
        if cached is not None:
            return cached
        rl = self.loops[ref.loop]
        if not rl.cyclic:
            raise ValueError("rotation words are only defined for circular loops")
        arc = rl.arcs[ref.arc]
        path = rl.edge_path
        cut = arc.entry_pos if ref.entry else arc.exit_pos + 1
        word = self.qs.word_from_edge_path(path[cut:] + path[:cut])
        self._rotations[key] = word
        return word

    def exit_rotation_word(self, loop: int, arc_idx: int) -> Word:
        """The loop reparametrized to start at an arc's exit letter; the
        grafting word of a declared surface crossing on that arc."""
        rl = self.loops[loop]
        arc = rl.arcs[arc_idx]
        path = rl.edge_path
        cut = arc.exit_pos
        return self.qs.word_from_edge_path(path[cut:] + path[:cut])

    def splice_words(self, ref: CrossingRef) -> tuple[Word, Word]:
        """(prefix, suffix) of a based loop cut at a crossing: before the
        entry letter for a +1 crossing, after the exit letter for a -1."""
        rl = self.loops[ref.loop]
        if rl.cyclic:
            raise ValueError("splice words are only defined for based loops")
        arc = rl.arcs[ref.arc]
        cut = arc.entry_pos if ref.entry else arc.exit_pos + 1
        prefix = self.qs.word_from_edge_path(rl.edge_path[:cut])
        suffix = self.qs.word_from_edge_path(rl.edge_path[cut:])
        return prefix, suffix


def combine_generic(
    qs: QuasiSurface, inputs: Sequence["LaneDiagram | ConjClass | Word"]
) -> GenericFamily:
    """Put loops in generic position: per lane, earlier arguments take
    the smaller depths as one block, keeping each loop's internal nesting;
    per-gate crossing orders are recomputed."""
    realized = []
    for x in inputs:
        d = as_diagram(qs, x)
        validate_diagram(qs, d)
        realized.append(_realize_cyclic(qs, d))
    return GenericFamily(qs, realized)


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
    for d in family.loops:
        validate_diagram(qs, d)
    fam = GenericFamily(qs, [_realize_cyclic(qs, d) for d in family.loops], normalize=False)
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


def combine_with_based(
    qs: QuasiSurface, diagram: "LaneDiagram | ConjClass", based: Word
) -> GenericFamily:
    """Combine a circular loop (index 0) with a based loop (index 1)."""
    d = as_diagram(qs, diagram)
    validate_diagram(qs, d)
    return GenericFamily(qs, [_realize_cyclic(qs, d), _realize_based(qs, based)])


# --- gate orientations --------------------------------------------------


def parse_omega(qs: QuasiSurface, omega: "str | Sequence[int] | None") -> tuple[int, ...]:
    """Normalize a gate orientation: one sign per gate in declared order;
    +1 means the gate keeps its counterclockwise reference direction."""
    if omega is None:
        return (1,) * qs.n_gates
    if isinstance(omega, str):
        if len(omega) != qs.n_gates or any(ch not in "+-" for ch in omega):
            raise ValueError(
                f"orientation string must be {qs.n_gates} characters of '+'/'-', got {omega!r}"
            )
        return tuple(1 if ch == "+" else -1 for ch in omega)
    signs = tuple(int(s) for s in omega)
    if len(signs) != qs.n_gates or any(s not in (1, -1) for s in signs):
        raise ValueError("orientation must assign +-1 to every gate")
    return signs


def flip_gate(omega: Sequence[int], k: int) -> tuple[int, ...]:
    out = list(omega)
    out[k] = -out[k]
    return tuple(out)


def opposite(omega: Sequence[int]) -> tuple[int, ...]:
    return tuple(-s for s in omega)


def all_orientations(qs: QuasiSurface) -> Iterable[tuple[int, ...]]:
    return itertools.product((1, -1), repeat=qs.n_gates)
