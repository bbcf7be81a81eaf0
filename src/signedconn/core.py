"""Signed multigraph primitives: graphs, their depth-first spine, walks,
switching, the signed double cover.

Vertices are dense integers 0..n-1 and edge ids are dense 0..m-1.  Loops and
parallel edges are allowed.  All structures are immutable; every operation is a
pure function, so concurrent use on a shared graph needs no locking.  Derived
data (adjacency, spine) is computed on first use and kept on the graph object.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from functools import cached_property
from typing import Callable, Iterable, Optional, TypeVar

from .errors import EdgeOutOfRange, InvalidWalk, VertexOutOfRange

Sign = int  # +1 or -1
T = TypeVar("T")


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

    @cached_property
    def spine(self) -> _Spine:
        """The depth-first pass that every balance, connection and block
        notion reads off; computed once per graph object."""
        return _Spine(self)

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


class _Spine:
    """One iterative depth-first pass over g: Tarjan's (1972) numbering plus
    switching potentials, in O(n + m).

    Components are numbered in order of their smallest vertex, which is also
    their DFS root.  A DFS tree of an undirected graph has no cross edges, so
    every non-tree edge joins a vertex (its descendant end) to one of that
    vertex's ancestors (its ancestor end); a loop has both ends at one vertex.
    Each non-tree edge is classified once, from its descendant end; the tree
    edge to the parent is excluded by id, so a parallel edge counts as
    non-tree.  A non-tree edge is frustrated when its sign disagrees with the
    potentials of its ends: exactly when its fundamental cycle is negative.
    A component is balanced iff it holds no frustrated edge.
    """

    __slots__ = (
        "comp",  # component id per vertex
        "parent",  # tree parent per vertex, -1 at roots
        "parent_edge",  # id of the tree edge to the parent, -1 at roots
        "order",  # vertices in preorder
        "disc",  # preorder index per vertex
        "depth",  # tree depth per vertex, 0 at roots
        "low",  # least disc reachable from the subtree by one non-tree edge
        "pot",  # switching potential, +1 at every root
        "nontree",  # (edge id, descendant end, ancestor end) per non-tree edge
        "frustrated",  # the frustrated part of `nontree`
        "comp_frustrated",  # frustrated edge count per component
    )

    def __init__(self, g: SignedGraph):
        n = g.n
        adjacency = g.adjacency
        self.comp = comp = [-1] * n
        self.parent = parent = [-1] * n
        self.parent_edge = parent_edge = [-1] * n
        self.disc = disc = [-1] * n
        self.depth = depth = [0] * n
        self.low = low = [0] * n
        self.pot = pot = [0] * n
        self.order = order = []
        self.nontree = nontree = []
        self.frustrated = frustrated = []
        self.comp_frustrated = comp_frustrated = []
        for root in range(n):
            if disc[root] != -1:
                continue
            c = len(comp_frustrated)
            before = len(frustrated)
            comp[root] = c
            disc[root] = low[root] = len(order)
            order.append(root)
            pot[root] = 1
            stack = [(root, iter(adjacency[root]))]
            while stack:
                v, edges = stack[-1]
                for e in edges:
                    w = e.v if e.u == v else e.u
                    if disc[w] == -1:
                        comp[w] = c
                        parent[w] = v
                        parent_edge[w] = e.id
                        disc[w] = low[w] = len(order)
                        depth[w] = depth[v] + 1
                        order.append(w)
                        pot[w] = pot[v] * e.sign
                        stack.append((w, iter(adjacency[w])))
                        break
                    if disc[w] > disc[v] or e.id == parent_edge[v]:
                        continue  # seen from its ancestor end, or the tree edge up
                    nontree.append((e.id, v, w))
                    if pot[v] * pot[w] != e.sign:
                        frustrated.append((e.id, v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    stack.pop()
                    if stack:
                        p = stack[-1][0]
                        if low[v] < low[p]:
                            low[p] = low[v]
            comp_frustrated.append(len(frustrated) - before)

    def subtree_sums(self, weight: list[int]) -> list[int]:
        """Per vertex, the sum of `weight` over its DFS subtree."""
        acc = list(weight)
        parent = self.parent
        for v in reversed(self.order):
            p = parent[v]
            if p >= 0:
                acc[p] += acc[v]
        return acc

    def tree_path(self, v: int, a: int) -> tuple[int, ...]:
        """The tree edges from v up to its ancestor a, in order."""
        out = []
        while v != a:
            out.append(self.parent_edge[v])
            v = self.parent[v]
        return tuple(out)

    def fundamental_cycle(self, eid: int, d: int, a: int) -> frozenset[int]:
        """The cycle that the non-tree edge eid (descendant end d, ancestor
        end a) closes: the edge plus the tree path from d up to a."""
        return frozenset((eid, *self.tree_path(d, a)))


def connected_components(g: SignedGraph) -> list[frozenset[int]]:
    """Vertex sets of the connected components, ordered by smallest vertex.
    Computed once per graph object; each call returns a new list."""
    return list(_kept(g, "_components", _components))


def _components(g: SignedGraph) -> tuple[frozenset[int], ...]:
    sp = g.spine
    members: list[list[int]] = [[] for _ in sp.comp_frustrated]
    for v in sp.order:
        members[sp.comp[v]].append(v)
    return tuple(frozenset(vs) for vs in members)


def cut_vertices(g: SignedGraph) -> frozenset[int]:
    """Vertices whose deletion disconnects their component.  Computed once
    per graph object and kept on it."""
    return _kept(g, "_cut_vertices", _cut_vertices)


def _cut_vertices(g: SignedGraph) -> frozenset[int]:
    """Off the spine: a root with two or more children, or a non-root with a
    child whose subtree reaches no proper ancestor of it."""
    sp = g.spine
    out = set()
    root_children = [0] * len(sp.comp_frustrated)
    for c in sp.order:
        p = sp.parent[c]
        if p < 0:
            continue
        if sp.parent[p] < 0:
            root_children[sp.comp[p]] += 1
            if root_children[sp.comp[p]] == 2:
                out.add(p)
        elif sp.low[c] >= sp.disc[p]:
            out.add(p)
    return frozenset(out)


def is_connected(g: SignedGraph) -> bool:
    return len(g.spine.comp_frustrated) <= 1


def _kept(g: SignedGraph, key: str, compute: Callable[[SignedGraph], T]) -> T:
    """compute(g), computed once per graph object and kept on it: the graph
    is immutable, so the result lives and dies with it, like `adjacency`."""
    memo = vars(g)
    if key not in memo:
        memo[key] = compute(g)
    return memo[key]


def _vertex_set(g: SignedGraph, edge_ids: Iterable[int]) -> set[int]:
    """The endpoints of the given edges."""
    out: set[int] = set()
    for eid in edge_ids:
        out.add(g.edges[eid].u)
        out.add(g.edges[eid].v)
    return out


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
