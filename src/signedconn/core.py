"""Signed multigraph primitives: graphs, their depth-first spine, walks,
switching, sign reachability and chains of a given sign.

Vertices are dense integers 0..n-1 and edge ids are dense 0..m-1.  Loops and
parallel edges are allowed.  All structures are immutable; every operation is a
pure function, so concurrent use on a shared graph needs no locking.  A graph
is its edge columns `_u`, `_v`, `_sign` (lists of ints by edge id), each value
checked once when it is built.  The tuple of `Edge`s, the incidence (plain
tuples) and the spine are built on first use and kept on the graph object;
the hot loops never read an `Edge`.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Callable, Collection, Iterable, NamedTuple, Optional, TypeVar

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


class SignedGraph:
    """n vertices and the edges `Edge(id, u, v, sign)`, ids 0..m-1, built from
    numbered (u, v, sign) triples by `from_triples`; a vertex must be an int
    in 0..n-1 and a sign the int +1 or -1.  Two graphs are equal iff they have
    the same n and the same edges."""

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[tuple[int, int, Sign]]) -> "SignedGraph":
        if type(n) is not int or n < 0:
            raise VertexOutOfRange(f"vertex count must be a nonnegative int, got {n!r}")
        us, vs, signs = [], [], []
        for eid, (u, v, sign) in enumerate(triples):
            if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge {eid} endpoints ({u!r},{v!r}) out of range")
            if type(sign) is not int or not (sign == 1 or sign == -1):
                raise ValueError(f"edge {eid} sign must be +1 or -1, got {sign!r}")
            us.append(u)
            vs.append(v)
            signs.append(sign)
        return cls._of_columns(n, us, vs, signs)

    @classmethod
    def _of_columns(cls, n: int, us: list[int], vs: list[int], signs: list[Sign]) -> "SignedGraph":
        """The graph on edge columns already checked, taken as they are."""
        g = cls.__new__(cls)
        vars(g).update(n=n, m=len(us), _u=us, _v=vs, _sign=signs)
        return g

    def __setattr__(self, name, value):
        raise AttributeError(f"a SignedGraph is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.n, self._u, self._v, self._sign) == (other.n, other._u, other._v, other._sign)

    def __hash__(self):
        return hash((self.n, tuple(self._u), tuple(self._v), tuple(self._sign)))

    def __repr__(self):
        return f"SignedGraph(n={self.n!r}, edges={self.edges!r})"

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges in id order, built from the columns on first access."""
        return tuple(map(Edge, range(self.m), self._u, self._v, self._sign))

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int, Sign], ...], ...]:
        """Per vertex, its incident edges as (edge id, other end, sign), in id
        order; a loop appears once in its vertex's list."""
        adj: list[list[tuple[int, int, Sign]]] = [[] for _ in range(self.n)]
        for eid, u, v, sign in zip(range(self.m), self._u, self._v, self._sign):
            adj[u].append((eid, v, sign))
            if v != u:
                adj[v].append((eid, u, sign))
        return tuple(map(tuple, adj))

    @cached_property
    def spine(self) -> _Spine:
        """The depth-first pass that every balance, connection and block
        notion reads off; computed once per graph object."""
        return _Spine(self)

    def edge(self, eid: int) -> Edge:
        if not 0 <= eid < self.m:
            raise EdgeOutOfRange(f"edge id {eid} out of range")
        return Edge(eid, self._u[eid], self._v[eid], self._sign[eid])

    def check_vertex(self, x: int) -> None:
        """Refuse anything but an int in 0..n-1, as `from_triples` does."""
        if type(x) is not int or not 0 <= x < self.n:
            raise VertexOutOfRange(f"vertex {x!r} out of range")

    def subgraph_of_edges(self, edge_ids: Iterable[int]) -> "SignedGraph":
        """Spanning subgraph (same vertex set) keeping only the given edges.

        Edge ids are re-assigned densely in ascending original order.
        """
        kept = sorted(set(edge_ids))
        for eid in kept:
            if not 0 <= eid < self.m:
                raise EdgeOutOfRange(f"edge id {eid} out of range")
        columns = (self._u, self._v, self._sign)
        return SignedGraph._of_columns(self.n, *([c[eid] for eid in kept] for c in columns))


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
            stack = []  # (vertex, its unread incidence) per ancestor of v
            v, edges = root, iter(adjacency[root])
            while True:
                for eid, w, sign in edges:
                    if disc[w] == -1:
                        comp[w] = c
                        parent[w] = v
                        parent_edge[w] = eid
                        disc[w] = low[w] = len(order)
                        depth[w] = depth[v] + 1
                        order.append(w)
                        pot[w] = pot[v] * sign
                        stack.append((v, edges))
                        v, edges = w, iter(adjacency[w])
                        break
                    if disc[w] > disc[v] or eid == parent_edge[v]:
                        continue  # seen from its ancestor end, or the tree edge up
                    nontree.append((eid, v, w))
                    if pot[v] * pot[w] != sign:
                        frustrated.append((eid, v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    if not stack:
                        break
                    p, edges = stack.pop()
                    if low[v] < low[p]:
                        low[p] = low[v]
                    v = p
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


def _vertex_set(g: SignedGraph, edge_ids: Collection[int]) -> set[int]:
    """The endpoints of the given edges."""
    return set(map(g._u.__getitem__, edge_ids)).union(map(g._v.__getitem__, edge_ids))


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
            frm, to = (g._u[eid], g._v[eid]) if forward else (g._v[eid], g._u[eid])
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
        sign *= g._sign[eid]
    return sign


def switch(g: SignedGraph, w_set: Iterable[int]) -> SignedGraph:
    """Negate every edge with exactly one endpoint in w_set.

    Loops never change sign; switching the full vertex set is a no-op.
    """
    ws = set(w_set)
    for x in ws:
        g.check_vertex(x)
    signs = [-s if (u in ws) != (v in ws) else s for u, v, s in zip(g._u, g._v, g._sign)]
    return SignedGraph._of_columns(g.n, g._u, g._v, signs)


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
    if type(sign) is not int or not (sign == 1 or sign == -1):
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
        for eid, w, sign in g.adjacency[v]:
            cw = 2 * w + (negative ^ (sign == -1))
            if parent[cw] is None:
                parent[cw] = (cv, eid)
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
        u, v = g._u[eid], g._v[eid]
        forward = u == v or (prev // 2 == u and cv // 2 == v)
        steps.append((eid, forward))
        cv = prev
    steps.reverse()
    return Walk(x, tuple(steps))
