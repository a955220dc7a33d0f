"""Combinatorial quasi-surfaces: disks with boundary gates glued to a graph.

The model keeps a disjoint union of oriented disks, each carrying a
counterclockwise cyclic list of gates on its boundary, and a finite graph
Y; every gate is glued to (collapsed onto) a vertex of Y.  The space is
homotopy equivalent to the total graph G obtained from Y by adding one
cone vertex per disk and one edge per gate running from its glued vertex
to the cone of its disk.  The fundamental group is presented from a
deterministic spanning tree of G: the free generators correspond to the
non-tree edges.

Loops are handled as edge paths in G.  The generator attached to a
non-tree edge ``e`` is the class of ``tree(* -> target(e)) . e-bar .
tree(source(e) -> *)``; with gate edges stored glued-vertex -> cone this
makes the one-disk two-gate example's generator equal to e1 e2^-1, the
loop that enters the disk through the first gate and leaves through the
second.

Words shown to users are written in edge tokens: gate edges are named by
their gate id, graph edges are auto-named "e1", "e2", ... in declaration
order.  The abstract-generator serialization of :mod:`quasiloop.words` is
only used by the algebra layer.
"""

from __future__ import annotations

import json
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .fox import FoxDerivative
from .ring import GroupRingElement
from .words import (
    Codes,
    ConjClass,
    Word,
    _inverse,
    _reduce,
    _word,
    canonical_conjugacy,
    cyclic_reduction,
    decode,
    encode,
    minimal_rotation,
)

# An edge traversal: (edge index in the total graph, +1 forward / -1 backward).
# It has the shape of a free-group letter: where edge paths are reduced or
# rotated they are coded as letters are, ``2 e + (d < 0)``, and go through
# the code helpers of :mod:`quasiloop.words`.
EdgeStep = tuple[int, int]
EdgePath = tuple[EdgeStep, ...]


@dataclass(frozen=True)
class QuasiSurfaceSpec:
    """Raw description of a quasi-surface before validation.

    ``disks`` lists each disk's gate ids in counterclockwise boundary
    order; ``edges`` are ordered pairs of Y-vertex ids (the order fixes
    the edge's reference direction for word tokens); ``gluing`` sends
    every gate id to a Y-vertex id; ``basepoint`` is a Y-vertex id.
    """

    disks: tuple[tuple[str, ...], ...]
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    gluing: Mapping[str, str]
    basepoint: str

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuasiSurfaceSpec":
        """A spec read from JSON.  Gates, vertices and edges are arrays,
        every edge a pair, the gluing an object, and every id (gate,
        vertex, edge end, gluing key and value, basepoint) a string;
        anything else is a malformed spec."""
        try:
            if any(not isinstance(d["gates"], list) for d in data["disks"]):
                raise ValueError("malformed quasi-surface spec: gates must be a list")
            disks = tuple(tuple(d["gates"]) for d in data["disks"])
            graph = data["graph"]
            vertices = graph["vertices"]
            edges = graph.get("edges", [])
            gluing = data["gluing"]
            basepoint = data["basepoint"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ValueError(f"malformed quasi-surface spec: {exc}") from exc
        if not isinstance(vertices, list) or not isinstance(edges, list):
            raise ValueError("malformed quasi-surface spec: vertices and edges must be lists")
        if not isinstance(gluing, dict):
            raise ValueError("malformed quasi-surface spec: gluing must be an object")
        for e in edges:
            if not isinstance(e, list) or len(e) != 2:
                raise ValueError(f"malformed quasi-surface spec: an edge has two ends, got {e!r}")
        ids = [*(g for gates in disks for g in gates), *vertices, *(v for e in edges for v in e),
               *gluing.keys(), *gluing.values(), basepoint]
        for x in ids:
            if type(x) is not str:
                raise ValueError(f"malformed quasi-surface spec: ids must be strings, got {x!r}")
        return cls(disks, tuple(vertices), tuple((u, w) for u, w in edges), dict(gluing), basepoint)

    def to_json_dict(self) -> dict:
        return {
            "disks": [{"gates": list(gates)} for gates in self.disks],
            "graph": {
                "vertices": list(self.vertices),
                "edges": [list(e) for e in self.edges],
            },
            "gluing": dict(self.gluing),
            "basepoint": self.basepoint,
        }


def load_spec(path: str) -> QuasiSurfaceSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return QuasiSurfaceSpec.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class _Edge:
    name: str
    source: int
    target: int
    gate: int | None = None  # gate index for gate edges, None for Y edges


class QuasiSurface:
    """A validated quasi-surface with its derived free presentation.

    The presentation is immutable after :func:`build`, and every method
    returns the same value for the same arguments.  The one thing that
    grows is ``realized``, the realized loop of each class, filled by
    :func:`quasiloop.diagrams.realize_loop` and never changed after.
    """

    def __init__(self, spec: QuasiSurfaceSpec):
        self.spec = spec
        self._build_graph()
        self._build_tree()
        self._build_generators()
        # weak keys: a realization lives while some caller holds the class
        # object it was stored under, and dies with the surface
        self.realized: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # --- construction -------------------------------------------------

    def _build_graph(self) -> None:
        spec = self.spec
        self.gates: tuple[str, ...] = tuple(g for disk in spec.disks for g in disk)
        seen: set[str] = set()
        for g in self.gates:
            if g in seen:
                raise ValueError(f"duplicate gate id {g!r}")
            # a gate id is a loop token: "" and "1" spell the trivial loop, a
            # space splits a token, and "^-1" marks the reverse direction
            if not isinstance(g, str) or g in ("", "1") or g.endswith("^-1") or any(
                ch.isspace() for ch in g
            ):
                raise ValueError(
                    f"gate id {g!r} is not a loop token: a gate id is a string, not empty"
                    " or 1, with no whitespace and not ending in ^-1"
                )
            seen.add(g)
        self.gate_position: dict[str, tuple[int, int]] = {}
        for d, disk in enumerate(spec.disks):
            for pos, g in enumerate(disk):
                self.gate_position[g] = (d, pos)

        self.vertex_names = list(spec.vertices)
        if len(set(self.vertex_names)) != len(self.vertex_names):
            raise ValueError("duplicate vertex id")
        v_index = {v: i for i, v in enumerate(self.vertex_names)}
        n_y = len(self.vertex_names)
        for d in range(len(spec.disks)):
            self.vertex_names.append(f"<disk{d}>")

        missing = [g for g in self.gates if g not in spec.gluing]
        if missing:
            raise ValueError(f"gluing is not total: no vertex for gate {missing[0]!r}")
        extra = [g for g in spec.gluing if g not in seen]
        if extra:
            raise ValueError(f"gluing mentions unknown gate {extra[0]!r}")
        if spec.basepoint not in v_index:
            raise ValueError(f"basepoint {spec.basepoint!r} is not a vertex of Y")
        self.basepoint = v_index[spec.basepoint]

        edges: list[_Edge] = []
        for i, (u, w) in enumerate(spec.edges):
            if u not in v_index or w not in v_index:
                raise ValueError(f"edge ({u!r}, {w!r}) has an endpoint outside Y")
            edges.append(_Edge(f"e{i + 1}", v_index[u], v_index[w]))
        auto_names = {e.name for e in edges}
        clash = auto_names.intersection(self.gates)
        if clash:
            raise ValueError(f"gate id {sorted(clash)[0]!r} collides with an auto-named graph edge")
        self.n_y_edges = len(edges)
        for k, g in enumerate(self.gates):
            d, _ = self.gate_position[g]
            glued = v_index[spec.gluing[g]]
            edges.append(_Edge(g, glued, n_y + d, gate=k))
        self.edges: tuple[_Edge, ...] = tuple(edges)
        self.n_vertices = n_y + len(spec.disks)
        self.token_to_edge = {e.name: i for i, e in enumerate(self.edges)}
        self.gate_edge: dict[str, int] = {
            g: self.n_y_edges + k for k, g in enumerate(self.gates)
        }

        self.adjacency: list[list[tuple[int, int, int]]] = [[] for _ in range(self.n_vertices)]
        for i, e in enumerate(self.edges):
            self.adjacency[e.source].append((i, 1, e.target))
            self.adjacency[e.target].append((i, -1, e.source))

    def _build_tree(self) -> None:
        parent: list[tuple[int, int] | None] = [None] * self.n_vertices
        visited = [False] * self.n_vertices
        visited[self.basepoint] = True
        queue = deque([self.basepoint])
        tree_edges: set[int] = set()
        while queue:
            v = queue.popleft()
            for edge_idx, direction, other in self.adjacency[v]:
                if not visited[other]:
                    visited[other] = True
                    parent[other] = (edge_idx, direction)
                    tree_edges.add(edge_idx)
                    queue.append(other)
        if not all(visited):
            unreachable = [self.vertex_names[i] for i, ok in enumerate(visited) if not ok]
            raise ValueError(
                "total graph is disconnected: cannot reach "
                + ", ".join(sorted(unreachable))
            )
        self._parent = parent
        self.tree_edges = frozenset(tree_edges)

    def _build_generators(self) -> None:
        self.generator_edges = tuple(
            i for i in range(len(self.edges)) if i not in self.tree_edges
        )
        self._gen_of_edge = {e: g for g, e in enumerate(self.generator_edges)}
        self.rank = len(self.generator_edges)
        loops = []
        for e in self.generator_edges:
            edge = self.edges[e]
            path = (
                self.tree_path_from_base(edge.target)
                + ((e, -1),)
                + self.tree_path_to_base(edge.source)
            )
            loops.append(_reduce(encode(path)))
        self.generator_loops: tuple[EdgePath, ...] = tuple(decode(loop) for loop in loops)
        # the coded edge path of each letter code: generator loops and their inverses
        self._loop_codes: tuple[Codes, ...] = tuple(
            path for loop in loops for path in (loop, _inverse(loop))
        )

    # --- elementary queries --------------------------------------------

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    def disk_gates(self, d: int) -> tuple[str, ...]:
        return self.spec.disks[d]

    def gate_index(self, gate: str) -> int:
        try:
            return self.gate_edge[gate] - self.n_y_edges
        except KeyError:
            raise ValueError(f"unknown gate {gate!r}") from None

    def glued_vertex(self, gate: str) -> int:
        return self.edges[self.gate_edge[gate]].source

    def tree_path_to_base(self, v: int) -> EdgePath:
        path: list[EdgeStep] = []
        while v != self.basepoint:
            step = self._parent[v]
            assert step is not None
            edge_idx, direction = step
            path.append((edge_idx, -direction))
            edge = self.edges[edge_idx]
            v = edge.source if direction > 0 else edge.target
        return tuple(path)

    def tree_path_from_base(self, v: int) -> EdgePath:
        return invert_edge_path(self.tree_path_to_base(v))

    def edge_endpoints(self, step: EdgeStep) -> tuple[int, int]:
        edge = self.edges[step[0]]
        return (edge.source, edge.target) if step[1] > 0 else (edge.target, edge.source)

    # --- words and edge paths -------------------------------------------

    def word_from_edge_path(self, path: Sequence[EdgeStep]) -> Word:
        """Collapse the spanning tree: a closed edge path becomes a group word."""
        return _word(_reduce(self.collapse(path)[0]))

    def collapse(self, path: Sequence[EdgeStep]) -> tuple[Codes, list[int]]:
        """The letter codes of an edge path, unreduced, and for each
        position ``i <= len(path)`` the number of letters in ``path[:i]``.
        A generator edge walked forward reads as its generator's inverse."""
        gen_of_edge = self._gen_of_edge
        codes: list[int] = []
        before = []
        for e, d in path:
            before.append(len(codes))
            g = gen_of_edge.get(e)
            if g is not None:
                codes.append(2 * g + (d > 0))
        before.append(len(codes))
        return tuple(codes), before

    def _edge_codes_of_word(self, w: Word) -> Codes:
        """The reduced coded edge path of a word, read from the basepoint."""
        loop_codes = self._loop_codes
        path: list[int] = []
        for c in w.codes:
            if c >= len(loop_codes):
                raise ValueError(f"generator index {c >> 1} out of range for rank {self.rank}")
            path.extend(loop_codes[c])
        return _reduce(path)

    def edge_path_of_word(self, w: Word) -> EdgePath:
        return decode(self._edge_codes_of_word(w))

    def _cyclic_edge_codes(self, c: ConjClass) -> Codes:
        return minimal_rotation(cyclic_reduction(self._edge_codes_of_word(c.representative())))

    def cyclic_edge_path(self, c: ConjClass) -> EdgePath:
        """The canonical cyclically reduced closed edge path of a class: the
        least rotation of its codes."""
        return decode(self._cyclic_edge_codes(c))

    def validate_edge_path(self, path: Sequence[EdgeStep], closed_at: int | None = None) -> None:
        at = closed_at
        for step in path:
            src, dst = self.edge_endpoints(step)
            if at is not None and src != at:
                raise ValueError("edge path does not chain")
            at = dst
        if closed_at is not None and path and at != closed_at:
            raise ValueError("edge path is not closed")

    # --- user-facing loop serialization (edge tokens) --------------------

    def parse_edge_word(self, text: str) -> EdgePath:
        steps: list[EdgeStep] = []
        stripped = text.strip()
        if stripped in ("", "1"):
            return ()
        for token in stripped.split():
            sign = 1
            if token.endswith("^-1"):
                sign = -1
                token = token[:-3]
            idx = self.token_to_edge.get(token)
            if idx is None:
                raise ValueError(f"unknown generator token {token!r}")
            steps.append((idx, sign))
        path = tuple(steps)
        # a loop must close up in the total graph
        start = self.edge_endpoints(path[0])[0]
        self.validate_edge_path(path, closed_at=start)
        return path

    def parse_loop(self, text: str) -> ConjClass:
        return canonical_conjugacy(self.word_from_edge_path(self.parse_edge_word(text)))

    def parse_based_loop(self, text: str) -> Word:
        path = self.parse_edge_word(text)
        if path:
            start = self.edge_endpoints(path[0])[0]
            if start != self.basepoint:
                raise ValueError("based loop must start at the basepoint")
        return self.word_from_edge_path(path)

    def format_edge_path(self, path: Iterable[EdgeStep]) -> str:
        return " ".join(
            self.edges[e].name + ("" if d > 0 else "^-1") for e, d in path
        )

    def format_class(self, c: ConjClass) -> str:
        return self.format_edge_path(self.cyclic_edge_path(c))

    def format_combination(self, x) -> list[list]:
        pairs = [(coeff, self._cyclic_edge_codes(k)) for k, coeff in x.terms.items()]
        pairs.sort(key=lambda t: (len(t[1]), t[1]))
        return [[coeff, self.format_edge_path(decode(p))] for coeff, p in pairs]

    # --- gate structure ---------------------------------------------------

    def gate_derivative(self, gate: str) -> FoxDerivative:
        """The Fox derivative of a gate, with the base path fixed to the
        spanning-tree path from the gate's glued vertex to the basepoint."""
        if gate not in self.gate_edge:
            raise ValueError(f"unknown gate {gate!r}")
        gate_e = self.gate_edge[gate]
        tau = self.tree_path_to_base(self.glued_vertex(gate))

        def image(loop: EdgePath):
            for j, (e, d) in enumerate(loop):
                if e == gate_e:
                    prefix = loop[: j + 1] if d < 0 else loop[:j]
                    yield self.word_from_edge_path(prefix + tau), d

        return FoxDerivative([GroupRingElement.collect(image(loop)) for loop in self.generator_loops])

    def gate_crossing_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Signed gate-crossing counts of each generator: rows are
        generators, columns gates; realizes the dual maps on homology."""
        rows = []
        for loop in self.generator_loops:
            row = [0] * self.n_gates
            for e, d in loop:
                gate = self.edges[e].gate
                if gate is not None:
                    row[gate] += d
            rows.append(tuple(row))
        return tuple(rows)

    def summary(self) -> dict:
        return {
            "rank": self.rank,
            "generators": [self.format_edge_path(l) for l in self.generator_loops],
            "gates": [
                {
                    "id": g,
                    "disk": self.gate_position[g][0],
                    "position": self.gate_position[g][1],
                    "vertex": self.vertex_names[self.glued_vertex(g)],
                }
                for g in self.gates
            ],
            "vertices": list(self.spec.vertices),
            "edges": [
                {"id": e.name, "from": self.vertex_names[e.source], "to": self.vertex_names[e.target]}
                for e in self.edges[: self.n_y_edges]
            ],
        }


def build(spec: QuasiSurfaceSpec) -> QuasiSurface:
    """Validate a spec and derive the presentation; raises ValueError on
    duplicate gates, non-total gluing, or a disconnected total graph."""
    return QuasiSurface(spec)


# --- edge path utilities ----------------------------------------------

def invert_edge_path(path: EdgePath) -> EdgePath:
    return tuple((e, -d) for e, d in reversed(path))
