"""Balance testing, Harary bipartitions, balancing edges and vertices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import _cycles
from .core import SignedGraph, connected_components, is_connected
from .errors import PreconditionError


class _Spine:
    """One iterative depth-first pass over g, or over g minus vertex `skip`
    (vertex ids unchanged): Tarjan's (1972) numbering plus switching
    potentials, in O(n + m).

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
        "comp",  # component id per vertex (-1 for the skipped vertex)
        "parent",  # tree parent per vertex, -1 at roots
        "parent_edge",  # id of the tree edge to the parent, -1 at roots
        "order",  # vertices in preorder
        "disc",  # preorder index per vertex
        "low",  # least disc reachable from the subtree by one non-tree edge
        "pot",  # switching potential, +1 at every root
        "nontree",  # (edge id, descendant end, ancestor end) per non-tree edge
        "frustrated",  # the frustrated part of `nontree`
        "comp_frustrated",  # frustrated edge count per component
    )

    def __init__(self, g: SignedGraph, skip: int = -1):
        n = g.n
        adjacency = g.adjacency
        self.comp = comp = [-1] * n
        self.parent = parent = [-1] * n
        self.parent_edge = parent_edge = [-1] * n
        self.disc = disc = [-1] * n
        self.low = low = [0] * n
        self.pot = pot = [0] * n
        self.order = order = []
        self.nontree = nontree = []
        self.frustrated = frustrated = []
        self.comp_frustrated = comp_frustrated = []
        for root in range(n):
            if disc[root] != -1 or root == skip:
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
                    if w == skip:
                        continue
                    if disc[w] == -1:
                        comp[w] = c
                        parent[w] = v
                        parent_edge[w] = e.id
                        disc[w] = low[w] = len(order)
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

    def components(self) -> list[frozenset[int]]:
        members: list[list[int]] = [[] for _ in self.comp_frustrated]
        for v in self.order:
            members[self.comp[v]].append(v)
        return [frozenset(vs) for vs in members]

    def subtree_sums(self, weight: list[int]) -> list[int]:
        """Per vertex, the sum of `weight` over its DFS subtree."""
        acc = list(weight)
        parent = self.parent
        for v in reversed(self.order):
            p = parent[v]
            if p >= 0:
                acc[p] += acc[v]
        return acc

    def bridge_ends(self) -> list[int]:
        """The child end of every tree edge that is a bridge."""
        return [
            c for c in self.order
            if self.parent[c] >= 0 and self.low[c] > self.disc[self.parent[c]]
        ]

    def cut_vertices(self) -> frozenset[int]:
        """Vertices whose deletion disconnects their component: a root with
        two or more children, or a non-root with a child whose subtree
        reaches no proper ancestor of it."""
        out = set()
        root_children = [0] * len(self.comp_frustrated)
        for c in self.order:
            p = self.parent[c]
            if p < 0:
                continue
            if self.parent[p] < 0:
                root_children[self.comp[p]] += 1
                if root_children[self.comp[p]] == 2:
                    out.add(p)
            elif self.low[c] >= self.disc[p]:
                out.add(p)
        return frozenset(out)


def component_balance(g: SignedGraph) -> tuple[list[frozenset[int]], list[bool]]:
    """Connected components, ordered by smallest vertex, plus a balance flag
    per component.

    A component is balanced iff a switching potential exists on it: a +/-1
    vertex labelling under which every edge sign equals the product of its
    endpoint labels.  A negative loop always conflicts.
    """
    sp = _Spine(g)
    return sp.components(), [k == 0 for k in sp.comp_frustrated]


def is_balanced(g: SignedGraph) -> bool:
    """True iff every cycle is positive; a graph with no cycles is balanced."""
    return not _Spine(g).frustrated


@dataclass(frozen=True)
class HararyBipartition:
    """Per connected component, the vertex set to switch so that every edge of
    the component becomes positive.  Canonical form: the switched side never
    contains the component's smallest vertex."""

    per_component: tuple[frozenset[int], ...]

    @property
    def switched(self) -> frozenset[int]:
        out: set[int] = set()
        for w in self.per_component:
            out |= w
        return frozenset(out)


def harary_bipartition(g: SignedGraph) -> Optional[HararyBipartition]:
    """The canonical bipartition if g is balanced, else None."""
    sp = _Spine(g)
    if sp.frustrated:
        return None
    return HararyBipartition(
        tuple(frozenset(v for v in comp if sp.pot[v] == -1) for comp in sp.components())
    )


def balancing_edges(g: SignedGraph) -> frozenset[int]:
    """Edges of unbalanced components whose deletion balances the component."""
    return _balancing_edges(_Spine(g))


def _balancing_edges(sp: _Spine) -> frozenset[int]:
    """Balancing edges read off the spine.  Let F be the frustrated edges of
    the component.  Deleting a non-tree edge e keeps the tree and its
    potentials, so e is balancing iff F = {e}.  Deleting the tree edge above
    c leaves the subtree of c free to be switched as a whole, so it is
    balancing iff every non-tree edge across it (a fundamental cycle through
    it) is frustrated and every frustrated edge crosses it.  Crossing counts
    are subtree sums of +1 at descendant ends and -1 at ancestor ends."""
    k = sp.comp_frustrated
    out = {eid for eid, v, _ in sp.frustrated if k[sp.comp[v]] == 1}
    n = len(sp.comp)
    cross = [0] * n
    fcross = [0] * n
    for _, d, a in sp.nontree:
        cross[d] += 1
        cross[a] -= 1
    for _, d, a in sp.frustrated:
        fcross[d] += 1
        fcross[a] -= 1
    cross = sp.subtree_sums(cross)
    fcross = sp.subtree_sums(fcross)
    for c in sp.order:
        f = k[sp.comp[c]]
        if f and sp.parent[c] >= 0 and cross[c] == fcross[c] == f:
            out.add(sp.parent_edge[c])
    return frozenset(out)


def balancing_vertices(g: SignedGraph) -> frozenset[int]:
    """Vertices of unbalanced components whose deletion (with incident edges)
    leaves that component balanced.

    Such a vertex lies on every negative cycle, in particular on the
    fundamental cycle of every frustrated edge (the tree path from its
    descendant end up to its ancestor end).  Those candidates are counted by
    subtree sums of +1 at descendant ends and -1 above ancestor ends, and
    each is confirmed by one spine of the graph without it: O(n + m) per
    candidate.
    """
    sp = _Spine(g)
    k = sp.comp_frustrated
    on_path = [0] * g.n
    for _, d, a in sp.frustrated:
        on_path[d] += 1
        if sp.parent[a] >= 0:
            on_path[sp.parent[a]] -= 1
    on_path = sp.subtree_sums(on_path)
    out = set()
    for x in range(g.n):
        c = sp.comp[x]
        if k[c] and on_path[x] == k[c]:
            rest = _Spine(g, skip=x)
            if all(sp.comp[v] != c for _, v, _ in rest.frustrated):
                out.add(x)
    return frozenset(out)


class BalancingEdgeReport(NamedTuple):
    """The five equivalent characterizations of a balancing edge, evaluated
    independently of each other."""

    deletion_balances: bool
    in_every_negative_cycle: bool
    in_every_negative_no_positive: bool
    chain_sign_differs: bool
    switches_to_lone_negative: bool


def check_balancing_edge_equivalences(g: SignedGraph, eid: int) -> BalancingEdgeReport:
    """Evaluate the five balancing-edge conditions on a connected unbalanced
    graph; callers assert they all agree."""
    if not is_connected(g) or is_balanced(g):
        raise PreconditionError("requires a connected, unbalanced graph")
    e = g.edge(eid)

    without = g.delete_edges([eid])
    rest = _Spine(without)
    cond1 = not rest.frustrated

    cycles = _cycles.elementary_cycles(g)
    neg = [c for c, s in cycles if s == -1]
    pos = [c for c, s in cycles if s == +1]
    cond2 = all(eid in c for c in neg)
    cond3 = cond2 and not any(eid in c for c in pos)

    # isthmus test: deleting e must not disconnect
    pot = rest.pot  # a switching potential wherever `without` is balanced
    cond4 = False
    if is_connected(without) and cond1:
        chain_sign = pot[e.u] * pot[e.v]  # all chains agree in a balanced graph
        cond4 = e.sign != chain_sign

    cond5 = False
    if cond1:
        same_side = any(e.u in comp and e.v in comp for comp in connected_components(without))
        if same_side:
            # sign of e after switching everything else positive
            cond5 = e.sign * pot[e.u] * pot[e.v] == -1
        else:
            # endpoints in different components: flip one side freely
            cond5 = True
    return BalancingEdgeReport(cond1, cond2, cond3, cond4, cond5)
