"""Seeded input families for the `analyze_*` workloads.

Each family builds a canonical graph whose structure depends only on the
family and its size, together with the answers the construction guarantees
(for example, the beads of a necklace are its frame and lift components).
The run seed then relabels the vertices, shuffles the edge order, flips edge
orientations and switches a random vertex set.  So every seed hands the
library a different file, while each report can still be mapped back to
canonical labels and compared with the one recorded at the seed commit.

Every component of every family is unbalanced.  That keeps all report fields
invariant under switching (an unbalanced component has no Harary
bipartition, and its positive and negative components are the whole
component).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Report fields whose values are edge ids; every other list-valued field
# holds vertex ids.
EDGE_FIELDS = frozenset(
    {
        "balancing_edges",
        "frame_components",
        "lift_components",
        "graph_isthmi",
        "frame_coloops",
        "lift_coloops",
        "sign_isthmi",
    }
)


@dataclass(frozen=True)
class Canonical:
    n: int
    triples: tuple[tuple[int, int, int], ...]
    expect: dict  # report field -> value in canonical labels


@dataclass(frozen=True)
class Instance:
    family: str
    size: int
    m: int
    text: str  # the graph file, as `signedconn analyze` reads it
    vertex_back: tuple[int, ...]  # instance vertex -> canonical vertex
    edge_back: tuple[int, ...]  # instance edge id -> canonical edge id
    expect: dict

    @property
    def key(self) -> str:
        return f"{self.family}/{self.size}"


def _random_tree(n: int, rng: random.Random, offset: int = 0) -> list[tuple[int, int]]:
    """Random recursive tree on offset..offset+n-1; edge i-1 joins i to its parent."""
    return [(offset + i, offset + rng.randrange(i)) for i in range(1, n)]


def tree_triangle(n: int) -> Canonical:
    """A random tree plus one edge closing a negative triangle.

    The triangle holds the only cycle, so its three edges are exactly the
    balancing edges.
    """
    rng = random.Random(f"tree_triangle/{n}")
    tree = _random_tree(n, rng)
    parent = {c: p for c, p in tree}
    c = next(v for v in range(n - 1, 0, -1) if parent.get(parent[v]) is not None)
    b = parent[c]
    a = parent[b]
    triples = [(u, v, +1) for u, v in tree] + [(a, c, -1)]
    return Canonical(n, tuple(triples), {"balancing_edges": sorted([b - 1, c - 1, n - 1])})


def forest(k: int, size: int = 10, extra: int = 2) -> Canonical:
    """k unbalanced components of `size` vertices: a random tree plus `extra`
    chords, the first chord negative and every other edge positive."""
    rng = random.Random(f"forest/{k}")
    triples: list[tuple[int, int, int]] = []
    comps = []
    for j in range(k):
        off = j * size
        tree = _random_tree(size, rng, off)
        have = {frozenset(e) for e in tree}
        chords: list[tuple[int, int]] = []
        while len(chords) < extra:
            u, v = rng.sample(range(off, off + size), 2)
            if frozenset((u, v)) not in have:
                have.add(frozenset((u, v)))
                chords.append((u, v))
        triples += [(u, v, +1) for u, v in tree]
        triples += [(u, v, -1 if i == 0 else +1) for i, (u, v) in enumerate(chords)]
        comps.append(list(range(off, off + size)))
    return Canonical(
        k * size, tuple(triples), {"graph_components": comps, "sign_components": comps}
    )


def necklace(bead_len: int, beads: int = 6) -> Canonical:
    """A ring of balanced cycles, each sharing one vertex with the next.

    Bead i is a cycle of bead_len edges through attachment vertices i and
    i+1 (mod beads), split into two arcs of equal length.  Both arcs of bead
    0 carry one negative edge, so every bead is balanced and every cycle
    around the ring is negative: an unbalanced necklace whose frame and lift
    components are its beads.
    """
    half = bead_len // 2
    assert bead_len == 2 * half and half >= 2
    triples: list[tuple[int, int, int]] = []
    bead_edges = []
    nxt = beads  # vertices 0..beads-1 are the attachment vertices
    for i in range(beads):
        start, end = i, (i + 1) % beads
        first = len(triples)
        for arc in range(2):
            inner = list(range(nxt, nxt + half - 1))
            nxt += half - 1
            path = [start] + inner + [end]
            for j in range(half):
                sign = -1 if i == 0 and j == 0 else +1
                triples.append((path[j], path[j + 1], sign))
        bead_edges.append(list(range(first, len(triples))))
    return Canonical(
        nxt,
        tuple(triples),
        {"frame_components": bead_edges, "lift_components": bead_edges},
    )


def complete(n: int) -> Canonical:
    """K_n with the two disjoint edges 01 and 23 negative.

    Deleting one negative edge leaves a negative triangle on the other, so no
    edge is balancing.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    triples = [(u, v, -1 if (u, v) in ((0, 1), (2, 3)) else +1) for u, v in pairs]
    return Canonical(
        n,
        tuple(triples),
        {"graph_components": [list(range(n))], "balancing_edges": [], "sign_connected": True},
    )


FAMILIES = {
    "tree_triangle": tree_triangle,
    "forest": forest,
    "necklace": necklace,
    "complete": complete,
}

# workload -> (family, size parameters); the size is n, k, bead length or n.
WORKLOADS = {
    "analyze_sparse": (("tree_triangle", (100, 200, 400)), ("forest", (20, 40, 80))),
    "analyze_blocks": (("necklace", (16, 32, 48)), ("complete", (8, 9, 10))),
}


def disguise(family: str, size: int, canon: Canonical, rng: random.Random) -> Instance:
    """Relabel, reorder, reorient and switch a canonical graph."""
    n, m = canon.n, len(canon.triples)
    vertex_to = list(range(n))
    rng.shuffle(vertex_to)
    edge_order = list(range(m))  # instance edge id -> canonical edge id
    rng.shuffle(edge_order)
    switched = {v for v in range(n) if rng.random() < 0.5}
    lines = [f"signed-graph n={n}"]
    for ce in edge_order:
        u, v, s = canon.triples[ce]
        if (u in switched) != (v in switched):
            s = -s
        u, v = vertex_to[u], vertex_to[v]
        if rng.random() < 0.5:
            u, v = v, u
        lines.append(f"{u} {v} {'+' if s > 0 else '-'}")
    vertex_back = [0] * n
    for cv, iv in enumerate(vertex_to):
        vertex_back[iv] = cv
    return Instance(
        family, size, m, "\n".join(lines) + "\n", tuple(vertex_back), tuple(edge_order), canon.expect
    )


def instances(workload: str, seed: int) -> list[Instance]:
    """One disguised instance per (family, size), in workload order."""
    rng = random.Random(seed)
    return [
        disguise(family, size, FAMILIES[family](size), rng)
        for family, sizes in WORKLOADS[workload]
        for size in sizes
    ]


def canonical_report(report: dict, inst: Instance) -> dict:
    """The report in canonical labels, with every list sorted."""

    def back(field, value):
        if not isinstance(value, list):
            return value
        table = inst.edge_back if field in EDGE_FIELDS else inst.vertex_back
        if value and isinstance(value[0], list):
            return sorted(sorted(table[x] for x in cls) for cls in value)
        return sorted(table[x] for x in value)

    return {field: back(field, value) for field, value in report.items()}


def expectation_errors(canon_report: dict, inst: Instance) -> list[str]:
    """Fields where the report misses an answer the construction guarantees."""
    out = []
    for field, want in inst.expect.items():
        got = canon_report.get(field)
        if isinstance(want, list):
            want = sorted(sorted(x) if isinstance(x, list) else x for x in want)
        if got != want:
            out.append(field)
    return out
