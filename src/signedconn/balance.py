"""Balance testing, Harary bipartitions, balancing edges and vertices."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import SignedGraph, _kept, connected_components


def component_balance(g: SignedGraph) -> tuple[list[frozenset[int]], list[bool]]:
    """Connected components, ordered by smallest vertex, plus a balance flag
    per component.

    A component is balanced iff a switching potential exists on it: a +/-1
    vertex labelling under which every edge sign equals the product of its
    endpoint labels.  A negative loop always conflicts.
    """
    return connected_components(g), [k == 0 for k in g.spine.comp_frustrated]


def is_balanced(g: SignedGraph) -> bool:
    """True iff every cycle is positive; a graph with no cycles is balanced."""
    return not g.spine.frustrated


class HararyBipartition(NamedTuple):
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
    sp = g.spine
    if sp.frustrated:
        return None
    return HararyBipartition(
        tuple(frozenset(v for v in comp if sp.pot[v] == -1) for comp in connected_components(g))
    )


def balancing_edges(g: SignedGraph) -> frozenset[int]:
    """Edges of unbalanced components whose deletion balances the component.
    Computed once per graph object and kept on it."""
    return _kept(g, "_balancing_edges", _balancing_edges)


def _balancing_edges(g: SignedGraph) -> frozenset[int]:
    """The balancing edges, read off the spine.

    Let F be the frustrated edges of the component.  Deleting a non-tree
    edge e keeps the tree and its potentials, so e is balancing iff F = {e}.
    Deleting the tree edge above c leaves the subtree of c free to be
    switched as a whole, so it is balancing iff every non-tree edge across
    it (a fundamental cycle through it) is frustrated and every frustrated
    edge crosses it.  Crossing counts are subtree sums of +1 at descendant
    ends and -1 at ancestor ends.
    """
    sp = g.spine
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
    leaves that component balanced.  Computed once per graph object and kept
    on it."""
    return _kept(g, "_balancing_vertices", _balancing_vertices)


def _balancing_vertices(g: SignedGraph) -> frozenset[int]:
    """The balancing vertices, in one pass over the spine.

    Such a vertex lies on every negative cycle, in particular on the
    fundamental cycle of every frustrated edge (the tree path from its
    descendant end up to its ancestor end).  Those candidates are counted by
    subtree sums of +1 at descendant ends and -1 above ancestor ends.  A
    candidate x leaves no frustrated edge inside a child subtree or above x,
    so deleting x frees each child subtree to be switched as a whole: x is
    balancing iff, per child c, the non-tree edges from the subtree of c to
    proper ancestors of x are all frustrated or all unfrustrated.  Those
    edges are counted by subtree sums of +1 at the descendant end and -1 at
    the ancestor end's child toward it, read off the root path in preorder.
    """
    sp = g.spine
    k = sp.comp_frustrated
    n = g.n
    on_path = [0] * n
    for _, d, a in sp.frustrated:
        on_path[d] += 1
        if sp.parent[a] >= 0:
            on_path[sp.parent[a]] -= 1
    on_path = sp.subtree_sums(on_path)
    candidates = [x for x in range(n) if k[sp.comp[x]] and on_path[x] == k[sp.comp[x]]]
    if not candidates:
        return frozenset()
    up: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
    for eid, d, a in sp.nontree:
        if d != a:  # a loop passes above nothing
            up[d].append((a, sp.pot[d] * sp.pot[a] != g._sign[eid]))
    depth = sp.depth
    path = [0] * n  # path[i]: the ancestor at depth i of the vertex in hand
    above = [0] * n
    f_above = [0] * n
    for v in sp.order:
        path[depth[v]] = v
        for a, frustrated in up[v]:
            toward = path[depth[a] + 1]
            above[v] += 1
            above[toward] -= 1
            if frustrated:
                f_above[v] += 1
                f_above[toward] -= 1
    above = sp.subtree_sums(above)
    f_above = sp.subtree_sums(f_above)
    mixed = {sp.parent[c] for c in range(n) if 0 < f_above[c] < above[c]}
    return frozenset(candidates).difference(mixed)

