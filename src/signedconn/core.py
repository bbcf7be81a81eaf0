"""Signed multigraph primitives: graphs, walks, switching, the signed double cover.

Vertices are dense integers 0..n-1 and edge ids are dense 0..m-1.  Loops and
parallel edges are allowed.  All structures are immutable; every operation is a
pure function, so concurrent use on a shared graph needs no locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from functools import cached_property
from typing import Iterable, Optional

from .errors import EdgeOutOfRange, InvalidWalk, VertexOutOfRange

Sign = int  # +1 or -1


@dataclass(frozen=True)
class Edge:
    id: int
    u: int
    v: int
    sign: Sign

    def other(self, x: int) -> int:
        return self.v if x == self.u else self.u


@dataclass(frozen=True)
class SignedGraph:
    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n < 0:
            raise VertexOutOfRange(f"negative vertex count {self.n}")
        for i, e in enumerate(self.edges):
            if e.id != i:
                raise EdgeOutOfRange(f"edge ids must be dense, got {e.id} at {i}")
            if not (0 <= e.u < self.n and 0 <= e.v < self.n):
                raise VertexOutOfRange(f"edge {e.id} endpoints ({e.u},{e.v}) out of range")
            if e.sign not in (+1, -1):
                raise ValueError(f"edge {e.id} sign must be +1 or -1")

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[tuple[int, int, Sign]]) -> "SignedGraph":
        return cls(n, tuple(Edge(i, u, v, s) for i, (u, v, s) in enumerate(triples)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[Edge, ...], ...]:
        """Incident edges per vertex; a loop appears once in its vertex's list."""
        adj: list[list[Edge]] = [[] for _ in range(self.n)]
        for e in self.edges:
            adj[e.u].append(e)
            if e.v != e.u:
                adj[e.v].append(e)
        return tuple(tuple(a) for a in adj)

    def edge(self, eid: int) -> Edge:
        if not 0 <= eid < self.m:
            raise EdgeOutOfRange(f"edge id {eid} out of range")
        return self.edges[eid]

    def check_vertex(self, x: int) -> None:
        if not 0 <= x < self.n:
            raise VertexOutOfRange(f"vertex {x} out of range")

    def subgraph_of_edges(self, edge_ids: Iterable[int]) -> "SignedGraph":
        """Spanning subgraph (same vertex set) keeping only the given edges.

        Edge ids are re-assigned densely in ascending original order.
        """
        kept = sorted(set(edge_ids))
        for eid in kept:
            if not 0 <= eid < self.m:
                raise EdgeOutOfRange(f"edge id {eid} out of range")
        triples = [(self.edges[eid].u, self.edges[eid].v, self.edges[eid].sign) for eid in kept]
        return SignedGraph.from_triples(self.n, triples)

    def delete_edges(self, edge_ids: Iterable[int]) -> "SignedGraph":
        """Spanning subgraph with the given edges removed (ids re-assigned)."""
        drop = set(edge_ids)
        return self.subgraph_of_edges(e.id for e in self.edges if e.id not in drop)

    def delete_vertex(self, x: int) -> "SignedGraph":
        """Remove x and its incident edges; remaining vertices are renumbered
        in ascending order, edges densely in ascending original id order."""
        self.check_vertex(x)
        remap = {v: i for i, v in enumerate(w for w in range(self.n) if w != x)}
        triples = [
            (remap[e.u], remap[e.v], e.sign)
            for e in self.edges
            if e.u != x and e.v != x
        ]
        return SignedGraph.from_triples(self.n - 1, triples)


def connected_components(g: SignedGraph) -> list[frozenset[int]]:
    """Vertex sets of the connected components, ordered by smallest vertex."""
    seen = [False] * g.n
    comps = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for e in g.adjacency[v]:
                w = e.other(v)
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(frozenset(comp))
    return comps


def is_connected(g: SignedGraph) -> bool:
    return len(connected_components(g)) <= 1


@dataclass(frozen=True)
class Walk:
    """A chain: a start vertex plus an incidence-consistent edge sequence.

    Steps are (edge id, forward) pairs where forward means the edge is
    traversed from its stored u endpoint to its v endpoint.  Storing edge ids
    keeps parallel edges and loops unambiguous.
    """

    start: int
    steps: tuple[tuple[int, bool], ...]

    def __len__(self) -> int:
        return len(self.steps)

    def vertex_sequence(self, g: SignedGraph) -> list[int]:
        """All visited vertices in order; raises InvalidWalk on inconsistency."""
        g.check_vertex(self.start)
        seq = [self.start]
        at = self.start
        for eid, forward in self.steps:
            if not 0 <= eid < g.m:
                raise InvalidWalk(f"edge id {eid} out of range")
            e = g.edges[eid]
            frm, to = (e.u, e.v) if forward else (e.v, e.u)
            if frm != at:
                raise InvalidWalk(
                    f"step over edge {eid} enters at {frm} but walk is at {at}"
                )
            at = to
            seq.append(at)
        return seq

    def end(self, g: SignedGraph) -> int:
        return self.vertex_sequence(g)[-1]

    def edge_ids(self) -> list[int]:
        return [eid for eid, _ in self.steps]


def walk_sign(g: SignedGraph, w: Walk) -> Sign:
    """Product of edge signs along the walk; the empty walk is positive."""
    w.vertex_sequence(g)  # validates incidence
    sign = 1
    for eid, _ in w.steps:
        sign *= g.edges[eid].sign
    return sign


def switch(g: SignedGraph, w_set: Iterable[int]) -> SignedGraph:
    """Negate every edge with exactly one endpoint in w_set.

    Loops never change sign; switching the full vertex set is a no-op.
    """
    ws = set(w_set)
    for x in ws:
        g.check_vertex(x)
    triples = []
    for e in g.edges:
        flip = (e.u in ws) != (e.v in ws)
        triples.append((e.u, e.v, -e.sign if flip else e.sign))
    return SignedGraph.from_triples(g.n, triples)


def _cover_index(v: int, s: Sign) -> int:
    return 2 * v + (0 if s == +1 else 1)


@dataclass(frozen=True)
class DoubleCover:
    """Two-fold cover with vertex (v,s) and, per base edge e={u,v}, the two
    cover edges (u,s)-(v, s*sign(e)).  Vertex (v,s) has index 2v for s=+1 and
    2v+1 for s=-1; walking the cover tracks chain signs in the base graph.
    """

    base: SignedGraph
    vertices: tuple[tuple[int, Sign], ...]
    edges: tuple[tuple[int, int, int], ...]  # (cover u, cover v, base edge id)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(2 * self.base.n)]
        for cu, cv, eid in self.edges:
            adj[cu].append((cv, eid))
            if cv != cu:
                adj[cv].append((cu, eid))
        return tuple(tuple(a) for a in adj)

    def component_labels(self) -> list[int]:
        """Connected-component label per cover vertex, labels by first visit."""
        label = [-1] * (2 * self.base.n)
        nxt = 0
        for root in range(2 * self.base.n):
            if label[root] != -1:
                continue
            label[root] = nxt
            queue = deque([root])
            while queue:
                cv = queue.popleft()
                for cw, _ in self.adjacency[cv]:
                    if label[cw] == -1:
                        label[cw] = nxt
                        queue.append(cw)
            nxt += 1
        return label


def double_cover(g: SignedGraph) -> DoubleCover:
    vertices = tuple((v, s) for v in range(g.n) for s in (+1, -1))
    edges = []
    for e in g.edges:
        for s in (+1, -1):
            edges.append((_cover_index(e.u, s), _cover_index(e.v, s * e.sign), e.id))
    return DoubleCover(g, vertices, tuple(edges))


def _cover_bfs(g: SignedGraph, x: int) -> list[Optional[tuple[int, int]]]:
    """BFS over the double cover from (x,+1), with its vertices and edges left
    implicit: from (v,s) the base edge e leads to (other end, s*sign(e)).

    Returns, per cover vertex, None (unreached), or (predecessor cover vertex,
    base edge id); the root is marked with (-1, -1).
    """
    g.check_vertex(x)
    parent: list[Optional[tuple[int, int]]] = [None] * (2 * g.n)
    root = _cover_index(x, +1)
    parent[root] = (-1, -1)
    queue = deque([root])
    while queue:
        cv = queue.popleft()
        v, negative = cv >> 1, cv & 1
        for e in g.adjacency[v]:
            cw = 2 * e.other(v) + (negative ^ (e.sign == -1))
            if parent[cw] is None:
                parent[cw] = (cv, e.id)
                queue.append(cw)
    return parent


def sign_reachability(g: SignedGraph, x: int) -> dict[int, frozenset[Sign]]:
    """For every vertex y, the set of signs realized by some chain x..y.

    Computed by one traversal of the double cover from (x,+1); chains are
    walks, so cover reachability is exact and path length is at most 2n-1.
    """
    parent = _cover_bfs(g, x)
    out = {}
    for y in range(g.n):
        signs = set()
        if parent[_cover_index(y, +1)] is not None:
            signs.add(+1)
        if parent[_cover_index(y, -1)] is not None:
            signs.add(-1)
        out[y] = frozenset(signs)
    return out


def chain_with_sign(g: SignedGraph, x: int, y: int, sign: Sign) -> Optional[Walk]:
    """A shortest chain from x to y with the requested sign, or None."""
    g.check_vertex(y)
    parent = _cover_bfs(g, x)
    target = _cover_index(y, sign)
    if parent[target] is None:
        return None
    steps = []
    cv = target
    while parent[cv] != (-1, -1):
        prev, eid = parent[cv]  # type: ignore[misc]
        e = g.edges[eid]
        forward = e.u == e.v or (prev // 2 == e.u and cv // 2 == e.v)
        steps.append((eid, forward))
        cv = prev
    steps.reverse()
    return Walk(x, tuple(steps))
