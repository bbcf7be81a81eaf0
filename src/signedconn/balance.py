"""Balance testing, Harary bipartitions, balancing edges and vertices."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import SignedGraph, _kept, connected_components
from .structure import block_decomposition


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
    leaves that component balanced: as every cycle lies in one block, those
    that the block pass finds for every unbalanced block of the component."""
    dec = block_decomposition(g)
    by_comp: dict[int, frozenset[int]] = {}
    for (_, _, balanced, _, comp), S in zip(dec.rows, dec.balancing):
        if not balanced:
            by_comp[comp] = by_comp.get(comp, S) & S
    return frozenset().union(*by_comp.values())
