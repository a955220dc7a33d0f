"""Seeded input generation for the benchmark workloads.

Stdlib only: nothing here imports ``quasiloop``, so the inputs a seed
produces do not depend on the program under test.  Loops are lists of
``(generator, sign)`` letters over a surface's free generators, or edge
token strings for the CLI; surfaces are spec dicts in the fixture JSON
format; representation points are integer matrices.

Every op stream has two random sources.  A fixed *schedule* (seeded by
the workload name only) sets the shape of the k-th op: which surface,
how many letters, which generators (except on law_mix, whose many small
ops average out), which matrix size.  The run seed fills in the content:
letter order and signs, the gluing, the matrix entries.  So two seeds
give different inputs of the same shape mix, which keeps the per-run
cost steady without reusing any input.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque

Letter = tuple[int, int]

# Copies of the shipped qg1 and qd2 fixtures, so the generators' ranks
# and the loop words do not follow later edits to the program's files.
QG1 = {
    "disks": [{"gates": ["g1", "g2", "g3", "g4"]}],
    "graph": {"vertices": ["v1", "v2"], "edges": []},
    "gluing": {"g1": "v1", "g2": "v2", "g3": "v1", "g4": "v2"},
    "basepoint": "v1",
}
QD2 = {
    "disks": [{"gates": ["g1", "g2", "g3"]}, {"gates": ["g4", "g5"]}],
    "graph": {"vertices": ["w1", "w2"], "edges": [["w1", "w2"], ["w1", "w2"]]},
    "gluing": {"g1": "w1", "g2": "w2", "g3": "w1", "g4": "w2", "g5": "w1"},
    "basepoint": "w1",
}
FIXTURES = {"qg1": QG1, "qd2": QD2}

JACOBI_PERIOD = 48
LAW_SPECS = 600
LAW_KINDS = ("brace_oracle", "flip_law", "symmetrization", "leibniz")
TRACE_SIZES = (2, 3, 4, 6)
CLI_COMMANDS = ("validate", "bracket", "bullet", "brace", "mu", "jacobi", "homology", "trace-eval")
CLI_VARIANTS = 6


def _schedule_rng(workload: str) -> random.Random:
    return random.Random(f"perfbench:{workload}:schedule")


def _seed_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


# --- free-group words -----------------------------------------------------

def draw_word(rng: random.Random, rank: int, n_letters: int) -> list[Letter]:
    """``n_letters`` independent signed letters, as ``randomcase.random_word``
    draws them (the program reduces the word it receives)."""
    return [(rng.randrange(rank), rng.choice((1, -1))) for _ in range(n_letters)]


def generator_mix(rng: random.Random, rank: int, length: int) -> list[int]:
    """A schedule's choice of which generators a loop uses, with repeats."""
    return sorted(rng.randrange(rank) for _ in range(length))


def arrange(rng: random.Random, mix: list[int]) -> list[Letter]:
    """A cyclically reduced word using exactly the generators in ``mix``:
    the seed picks their order and signs."""
    for _ in range(10000):
        gens = list(mix)
        rng.shuffle(gens)
        word = [(g, rng.choice((1, -1))) for g in gens]
        if all(word[i] != (word[i - 1][0], -word[i - 1][1]) for i in range(len(word))):
            return word
    raise RuntimeError(f"no cyclically reduced arrangement of {mix}")


def pad(rng: random.Random, rank: int, word: list[Letter], n_letters: int) -> list[Letter]:
    """Insert cancelling pairs ``a a^-1`` at random places until the word
    has ``n_letters`` letters; its conjugacy class is unchanged."""
    word = list(word)
    while len(word) + 2 <= n_letters:
        g, s = rng.randrange(rank), rng.choice((1, -1))
        i = rng.randint(0, len(word))
        word[i:i] = [(g, s), (g, -s)]
    return word


# --- quasi-surface specs --------------------------------------------------

def spec_rank(spec: dict) -> int | None:
    """Rank of the free fundamental group of a spec's total graph, or None
    when the graph is disconnected (edges minus vertices plus one)."""
    vertices = list(spec["graph"]["vertices"])
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices) + len(spec["disks"])
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edges = [(index[u], index[w]) for u, w in spec["graph"]["edges"]]
    for d, disk in enumerate(spec["disks"]):
        edges.extend((index[spec["gluing"][g]], len(vertices) + d) for g in disk["gates"])
    for a, b in edges:
        parent[find(a)] = find(b)
    if len({find(i) for i in range(n)}) != 1:
        return None
    return len(edges) - n + 1


def _spec_shape(rng: random.Random) -> tuple[list[int], int, int]:
    n_disks = rng.randint(1, 3)
    counts = []
    remaining = 6
    for d in range(n_disks):
        high = remaining - (n_disks - d - 1)
        counts.append(rng.randint(1, max(1, min(high, 4))))
        remaining -= counts[-1]
    return counts, rng.randint(1, 3), rng.randint(0, 3)


def _fill_spec(rng: random.Random, counts: list[int], n_vertices: int, n_edges: int) -> dict:
    vertices = [f"v{i + 1}" for i in range(n_vertices)]
    gate_id = 0
    disks, gluing = [], {}
    for count in counts:
        gates = []
        for _ in range(count):
            gate_id += 1
            gates.append(f"g{gate_id}")
            gluing[gates[-1]] = rng.choice(vertices)
        disks.append({"gates": gates})
    edges = [[rng.choice(vertices), rng.choice(vertices)] for _ in range(n_edges)]
    return {
        "disks": disks,
        "graph": {"vertices": vertices, "edges": edges},
        "gluing": gluing,
        "basepoint": rng.choice(vertices),
    }


def law_specs(seed: int) -> list[dict]:
    """``LAW_SPECS`` connected specs with 1-3 disks, at most 6 gates and
    rank 2-4.  The schedule fixes each spec's disk and gate counts, graph
    size and rank; the seed draws the gluing, edges and basepoint.  Rank 1
    is left out: its cyclically reduced loops are powers of one generator,
    so every rank-1 spec would share the same few classes."""
    sched = _schedule_rng("law_mix")
    rng = _seed_rng("law_mix", seed)
    specs = []
    while len(specs) < LAW_SPECS:
        shape = _spec_shape(sched)
        rank = spec_rank(_fill_spec(sched, *shape))
        if rank is None or not 2 <= rank <= 4:
            continue
        for _ in range(5000):
            spec = _fill_spec(rng, *shape)
            if spec_rank(spec) == rank:
                specs.append(spec)
                break
        else:
            raise RuntimeError(f"no connected rank-{rank} spec of shape {shape}")
    return specs


def spec_gates(spec: dict) -> list[str]:
    return [g for disk in spec["disks"] for g in disk["gates"]]


# --- workload op streams -----------------------------------------------------

# Reduced loop lengths of a jacobi_long triple, by surface and by the
# parity of the written length; chosen so every op costs about the same
# (0.1-0.25 s on a 2-core x86 VM), which keeps the run-to-run spread low.
JACOBI_REDUCED = {("qg1", 0): (6, 6, 6), ("qg1", 1): (7, 7, 5),
                  ("qd2", 0): (8, 8, 8), ("qd2", 1): (9, 7, 7)}


def jacobi_schedule() -> list[dict]:
    """One period of the jacobi_long shape mix: surfaces alternate, the
    written length cycles through 10..13, and each loop's generator mix
    is a schedule draw of its reduced length."""
    sched = _schedule_rng("jacobi_long")
    out = []
    for i in range(JACOBI_PERIOD):
        surface = ("qg1", "qd2")[i % 2]
        rank = spec_rank(FIXTURES[surface])
        n_letters = 10 + (i // 2) % 4
        mixes = [generator_mix(sched, rank, r) for r in JACOBI_REDUCED[surface, n_letters % 2]]
        out.append({"surface": surface, "rank": rank, "letters": n_letters, "mixes": mixes})
    return out


def jacobi_ops(seed: int):
    """Endless stream of ``{"surface", "loops"}`` triples for jacobi_long:
    each loop is written with exactly 10-13 letters."""
    schedule = jacobi_schedule()
    rng = _seed_rng("jacobi_long", seed)
    k = 0
    while True:
        shape = schedule[k % len(schedule)]
        loops = [pad(rng, shape["rank"], arrange(rng, mix), shape["letters"])
                 for mix in shape["mixes"]]
        yield {"surface": shape["surface"], "loops": loops}
        k += 1


def law_ops(seed: int, specs: list[dict]):
    """Endless stream of law_mix checks: kinds rotate and specs cycle.
    Every op gets fresh cyclically reduced loops of 5-8 letters (and, for
    ``leibniz``, based loops of 3-6 letters); the schedule fixes their
    lengths, the seed which generators they use and in what order."""
    ranks = [spec_rank(s) for s in specs]
    sched = _schedule_rng("law_mix:ops")
    rng = random.Random(f"perfbench:law_mix:{seed}:ops")

    def loop(rank: int, low: int, high: int) -> list[Letter]:
        return arrange(rng, generator_mix(rng, rank, sched.randint(low, high)))

    k = 0
    while True:
        kind = LAW_KINDS[k % len(LAW_KINDS)]
        i = (k // len(LAW_KINDS)) % len(specs)
        rank, gates = ranks[i], spec_gates(specs[i])
        op = {
            "kind": kind,
            "spec": i,
            "omega": [rng.choice((1, -1)) for _ in gates],
            "gate": rng.randrange(len(gates)),
            "loops": [loop(rank, 5, 8) for _ in range(3)],
        }
        if kind == "leibniz":
            op["based"] = [loop(rank, 3, 6) for _ in range(2)]
        yield op
        k += 1


def unimodular(rng: random.Random, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """An integer matrix of determinant +-1 and its inverse: a product of
    ``n + 2`` unit shears, then an optional sign flip of the first row.
    The inverse is built alongside from the inverse shears, so it does not
    depend on the program's matrix code."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in m]
    done = 0
    while done < n + 2:
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((1, -1))
        for row in m:  # m <- m (I + c e_ij)
            row[j] += c * row[i]
        inv[i] = [a - c * b for a, b in zip(inv[i], inv[j])]  # inv <- (I - c e_ij) inv
        done += 1
    if rng.random() < 0.5:
        m[0] = [-x for x in m[0]]
        for row in inv:
            row[0] = -row[0]
    return m, inv


def int_mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Integer matrix product, independent of the program's ``mat_mul``."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def int_trace_word(images, inverses, letters: list[Letter]) -> int:
    """Trace of a word's matrix, letters multiplied left to right."""
    n = len(images[0])
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for g, s in letters:
        out = int_mat_mul(out, images[g] if s > 0 else inverses[g])
    return sum(out[i][i] for i in range(n))


# Loop triples (and the gate of their brace) whose bracket, brace and
# Jacobiator values trace_points computes once in set-up.  They are fixed,
# not drawn: every op evaluates all of them, so a seed-drawn set would
# change the cost of every op of a run at once.  They were picked for
# non-zero brackets and braces (and, on qd2, Jacobiator) of 2-4 terms;
# on qg1 the Jacobiator of loops this short vanishes.
TRACE_VALUES = {
    "qg1": [("g2", [[(0, 1), (1, -1), (1, -1)], [(1, -1), (0, -1)], [(0, -1), (1, -1)]])],
    "qd2": [("g2", [[(0, 1), (1, 1), (1, 1)], [(2, -1), (1, -1)], [(1, 1), (1, 1)]])],
}


def trace_ops(seed: int):
    """Endless stream of point sets: one fresh representation point of
    every size in ``TRACE_SIZES`` on each surface, with the images'
    inverses."""
    rng = random.Random(f"perfbench:trace_points:{seed}:points")
    while True:
        points = []
        for surface in ("qg1", "qd2"):
            for n in TRACE_SIZES:
                pairs = [unimodular(rng, n) for _ in range(spec_rank(FIXTURES[surface]))]
                points.append({"surface": surface, "n": n,
                               "images": [m for m, _ in pairs],
                               "inverses": [inv for _, inv in pairs]})
        yield points


# --- CLI calls ----------------------------------------------------------------

def _total_graph(spec: dict) -> tuple[list[tuple[str, int, int]], int]:
    """Edges of a spec's total graph as ``(token, source, target)``."""
    index = {v: i for i, v in enumerate(spec["graph"]["vertices"])}
    edges = [(f"e{i + 1}", index[u], index[w]) for i, (u, w) in enumerate(spec["graph"]["edges"])]
    for d, disk in enumerate(spec["disks"]):
        cone = len(index) + d
        edges.extend((g, index[spec["gluing"][g]], cone) for g in disk["gates"])
    return edges, len(index) + len(spec["disks"])


def closed_walk(rng: random.Random, spec: dict, steps: int) -> str:
    """A closed edge-token walk from a random vertex: ``steps`` random
    non-backtracking steps, then a shortest way home."""
    edges, n = _total_graph(spec)
    adj: list[list[tuple[str, int, int]]] = [[] for _ in range(n)]
    for k, (name, u, w) in enumerate(edges):
        adj[u].append((name, k, w))
        adj[w].append((name + "^-1", k, u))
    start = rng.randrange(n)
    at, last, tokens = start, None, []
    for _ in range(steps):
        choices = [c for c in adj[at] if c[1] != last] or adj[at]
        name, last, at = rng.choice(choices)
        tokens.append(name)
    back: dict[int, tuple[int, str] | None] = {at: None}
    queue = deque([at])
    while queue:
        v = queue.popleft()
        for name, _, w in adj[v]:
            if w not in back:
                back[w] = (v, name)
                queue.append(w)
    home = []
    v = start
    while back[v] is not None:
        prev, name = back[v]
        home.append(name)
        v = prev
    return " ".join(tokens + home[::-1])


def cli_calls(seed: int) -> list[dict]:
    """``CLI_VARIANTS`` calls of every command in ``CLI_COMMANDS``,
    interleaved, on the shipped fixtures with walks of 2-5 steps."""
    rng = _seed_rng("cli_oneshot", seed)
    calls = []
    for v in range(CLI_VARIANTS):
        surface = ("qg1", "qd2")[v % 2]
        spec = FIXTURES[surface]
        gates = spec_gates(spec)
        for command in CLI_COMMANDS:
            loops = [closed_walk(rng, spec, rng.randint(2, 5)) for _ in range(3)]
            calls.append({
                "command": command,
                "surface": surface,
                "loops": loops,
                "omega": "".join(rng.choice("+-") for _ in gates),
                "gate": rng.choice(gates),
                "images": [unimodular(rng, 2)[0] for _ in range(spec_rank(spec))],
            })
    return calls


def input_digest(workload: str, seed: int, count: int = 16) -> str:
    """Digest of a seed's inputs for a workload: its fixed data and the
    first ``count`` ops of its stream."""
    if workload == "jacobi_long":
        data = first_ops(jacobi_ops(seed), count)
    elif workload == "law_mix":
        specs = law_specs(seed)
        data = [specs, first_ops(law_ops(seed, specs), count)]
    elif workload == "trace_points":
        data = first_ops(trace_ops(seed), count)
    else:
        data = cli_calls(seed)
    return digest(data)


def first_ops(stream, count: int) -> list:
    return [next(stream) for _ in range(count)]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
