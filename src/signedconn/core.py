"""Signed multigraph primitives: graphs, their depth-first spine, walks,
switching, sign reachability and chains of a given sign.

Vertices are dense integers 0..n-1 and edge ids are dense 0..m-1.  Loops and
parallel edges are allowed.  All structures are immutable; every operation is a
pure function, so concurrent use on a shared graph needs no locking.  Derived
data (adjacency, spine) is computed on first use and kept on the graph object.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional, TypeVar

from .errors import EdgeOutOfRange, InvalidWalk, VertexOutOfRange

Sign = int  # +1 or -1
T = TypeVar("T")


class Edge(NamedTuple):
    """One edge; a named tuple, so it is immutable, unpacks as
    (id, u, v, sign) and equals that plain tuple."""

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
        n = self.n
        if n < 0:
            raise VertexOutOfRange(f"negative vertex count {n}")
        for i, e in enumerate(self.edges):
            if type(e) is not Edge:
                raise TypeError(f"edge {i} is a {type(e).__name__}, not an Edge")
            eid, u, v, sign = e
            if eid != i:
                raise EdgeOutOfRange(f"edge ids must be dense, got {eid} at {i}")
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge {eid} endpoints ({u},{v}) out of range")
            if sign not in (+1, -1):
                raise ValueError(f"edge {eid} sign must be +1 or -1")

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[tuple[int, int, Sign]]) -> "SignedGraph":
        make = Edge._make
        return cls(n, tuple([make((i, u, v, s)) for i, (u, v, s) in enumerate(triples)]))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[Edge, ...], ...]:
        """Incident edges per vertex; a loop appears once in its vertex's list."""
        adj: list[list[Edge]] = [[] for _ in range(self.n)]
        for e in self.edges:
            u, v = e.u, e.v
            adj[u].append(e)
            if v != u:
                adj[v].append(e)
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
                for eid, a, b, sign in edges:
                    w = b if a == v else a
                    if disc[w] == -1:
                        comp[w] = c
                        parent[w] = v
                        parent_edge[w] = eid
                        disc[w] = low[w] = len(order)
                        depth[w] = depth[v] + 1
                        order.append(w)
                        pot[w] = pot[v] * sign
                        stack.append((w, iter(adjacency[w])))
                        break
                    if disc[w] > disc[v] or eid == parent_edge[v]:
                        continue  # seen from its ancestor end, or the tree edge up
                    nontree.append((eid, v, w))
                    if pot[v] * pot[w] != sign:
                        frustrated.append((eid, v, w))
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


class _WalkFields(NamedTuple):
    start: int
    steps: tuple[tuple[int, bool], ...]


class Walk(_WalkFields):
    """A chain: a start vertex plus an incidence-consistent edge sequence.

    Steps are (edge id, forward) pairs where forward means the edge is
    traversed from its stored u endpoint to its v endpoint.  Storing edge ids
    keeps parallel edges and loops unambiguous.

    A named tuple (start, steps) whose `len` is its number of steps.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.steps)

    @classmethod
    def _make(cls, iterable) -> "Walk":
        # the named tuple's own `_make`, which `_replace` calls, checks the
        # field count with `len`; unpacking checks it here
        start, steps = iterable
        return cls(start, steps)

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


_BOTH_SIGNS = frozenset({+1, -1})


def sign_reachability(g: SignedGraph, x: int) -> dict[int, frozenset[Sign]]:
    """For every vertex y, the set of signs realized by some chain x..y.

    Read off the spine by Zaslavsky's balance theorem (Signed graphs, 1982):
    no chain leaves the component of x; in an unbalanced one a negative
    closed chain can be spliced into any chain, so both signs reach every
    vertex; in a balanced one every edge uv has sign pot(u)*pot(v), so every
    chain x..y has sign pot(x)*pot(y).
    """
    g.check_vertex(x)
    sp = g.spine
    c = sp.comp[x]
    unbalanced = sp.comp_frustrated[c] > 0
    return {
        y: frozenset() if sp.comp[y] != c
        else _BOTH_SIGNS if unbalanced
        else frozenset({sp.pot[x] * sp.pot[y]})
        for y in range(g.n)
    }


def chain_with_sign(g: SignedGraph, x: int, y: int, sign: Sign) -> Optional[Walk]:
    """A shortest chain from x to y with the requested sign, or None."""
    g.check_vertex(x)
    g.check_vertex(y)
    if sign not in (+1, -1):
        raise ValueError(f"chain sign must be +1 or -1, got {sign!r}")
    return _cover_walk(g, _cover_search(g, x), x, y, sign)


def _cover_search(g: SignedGraph, x: int) -> list[Optional[tuple[int, int]]]:
    """Breadth-first search over the signed double cover from (x,+1), with its
    vertices and edges left implicit: cover vertex 2v is (v,+1) and 2v+1 is
    (v,-1), and from (v,s) the base edge e leads to (other end, s*sign(e)).
    Per cover vertex: None (unreached) or (predecessor, base edge id)."""
    root = 2 * x
    parent: list[Optional[tuple[int, int]]] = [None] * (2 * g.n)
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


def _cover_walk(
    g: SignedGraph, parent: list[Optional[tuple[int, int]]], x: int, y: int, sign: Sign
) -> Optional[Walk]:
    """The chain from x to y of the given sign that the search from x found,
    or None.  Chains are walks, so a shortest cover path is a shortest chain,
    with at most 2n - 1 edges."""
    cv = 2 * y + (sign == -1)
    if parent[cv] is None:
        return None
    steps = []
    while parent[cv] != (-1, -1):
        prev, eid = parent[cv]  # type: ignore[misc]
        e = g.edges[eid]
        forward = e.u == e.v or (prev // 2 == e.u and cv // 2 == e.v)
        steps.append((eid, forward))
        cv = prev
    steps.reverse()
    return Walk(x, tuple(steps))
