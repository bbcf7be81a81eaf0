"""Sign components, witnesses, sign isthmi/articulation vertices/blocks,
positive/negative connection, and parity connection."""

from __future__ import annotations

from typing import NamedTuple

from .balance import balancing_edges, balancing_vertices, component_balance
from .core import (
    SignedGraph,
    Walk,
    _cover_search,
    _cover_walk,
    connected_components,
    walk_sign,
)
from .errors import NotSignConnected, PreconditionError
from .structure import block_decomposition


class ComponentPartition(NamedTuple):
    """A partition into components of the given kind.

    For vertex kinds (graph, sign, positive, negative) the classes partition
    the vertex set.  For edge kinds (frame, lift) the classes partition the
    edge set and isolated vertices are listed separately.
    """

    kind: str
    classes: tuple[frozenset[int], ...]
    isolated_vertices: frozenset[int] = frozenset()

    @property
    def q(self) -> int:
        return len(self.classes) + len(self.isolated_vertices)


def _sorted_classes(classes) -> tuple[frozenset[int], ...]:
    return tuple(sorted(map(frozenset, classes), key=min))


def graph_components(g: SignedGraph) -> ComponentPartition:
    return ComponentPartition("graph", _sorted_classes(connected_components(g)))


def sign_components(g: SignedGraph) -> ComponentPartition:
    """Unbalanced connected components stay whole; vertices of balanced
    components are singletons."""
    comps, flags = component_balance(g)
    classes: list[frozenset[int]] = []
    for comp, balanced in zip(comps, flags):
        if balanced:
            classes.extend(frozenset([v]) for v in comp)
        else:
            classes.append(comp)
    return ComponentPartition("sign", _sorted_classes(classes))


def is_sign_connected(g: SignedGraph) -> bool:
    """True iff the graph is connected and unbalanced, or has one vertex."""
    if g.n == 1:
        return True
    k = g.spine.comp_frustrated
    return len(k) == 1 and k[0] > 0


class WitnessPair(NamedTuple):
    positive: Walk
    negative: Walk


def witness_chains(g: SignedGraph, x: int, y: int) -> WitnessPair:
    """Explicit chains of both signs joining x and y (length at most 2n), the
    walks `chain_with_sign` gives, read off one search of the cover."""
    g.check_vertex(x)
    g.check_vertex(y)
    parent = _cover_search(g, x)
    pos = _cover_walk(g, parent, x, y, +1)
    neg = _cover_walk(g, parent, x, y, -1)
    if pos is None or neg is None:
        raise NotSignConnected(f"vertices {x} and {y} are not joined by both signs")
    assert walk_sign(g, pos) == +1 and walk_sign(g, neg) == -1
    return WitnessPair(pos, neg)


def _require_sign_connected(g: SignedGraph) -> None:
    if not is_sign_connected(g):
        raise PreconditionError("graph is not sign connected")


def sign_isthmi(g: SignedGraph) -> frozenset[int]:
    """Edges whose deletion destroys sign connection: the bridges, which
    disconnect, together with the balancing edges, which balance."""
    _require_sign_connected(g)
    if g.n == 1:
        raise PreconditionError("sign isthmi are defined for graphs with n > 1")
    return block_decomposition(g).bridges | balancing_edges(g)


def sign_articulation_vertices(g: SignedGraph) -> frozenset[int]:
    """Vertices whose deletion destroys sign connection: the cut vertices
    together with the balancing vertices.  With n <= 2 there are none, since
    a single remaining vertex (or none) counts as sign connected."""
    _require_sign_connected(g)
    if g.n <= 2:
        return frozenset()
    return block_decomposition(g).cut_vertices | balancing_vertices(g)


def is_sign_block(g: SignedGraph) -> bool:
    _require_sign_connected(g)
    return not sign_articulation_vertices(g)


def _negative_flags(g: SignedGraph) -> list[bool]:
    """Per component, whether it holds a negative edge."""
    sp = g.spine
    flags = [False] * len(sp.comp_frustrated)
    for e in g.edges:
        if e.sign == -1:
            flags[sp.comp[e.u]] = True
    return flags


def positive_components(g: SignedGraph) -> ComponentPartition:
    """Maximal sets in which every vertex pair is joined by a positive chain.

    Unbalanced components and all-positive components stay whole; a balanced
    component with a negative edge splits into its two bipartition sides.  A
    component with no edges counts as all positive.
    """
    sp = g.spine
    classes: list[frozenset[int]] = []
    for comp, frustrated, has_negative in zip(
        connected_components(g), sp.comp_frustrated, _negative_flags(g)
    ):
        if frustrated or not has_negative:
            classes.append(comp)
            continue
        switched = frozenset(v for v in comp if sp.pot[v] == -1)
        classes.append(comp - switched)
        classes.append(switched)
    return ComponentPartition("positive", _sorted_classes(classes))


def negative_components(g: SignedGraph) -> ComponentPartition:
    """Maximal sets in which vertex pairs are negatively connected, directly
    or through a common negatively-connected neighbor."""
    sp = g.spine
    classes: list[frozenset[int]] = []
    for comp, frustrated, has_negative in zip(
        connected_components(g), sp.comp_frustrated, _negative_flags(g)
    ):
        if frustrated or has_negative:
            classes.append(comp)
        else:
            classes.extend(frozenset([v]) for v in comp)
    return ComponentPartition("negative", _sorted_classes(classes))


def is_parity_connected(g: SignedGraph) -> bool:
    """True iff every vertex pair is joined by walks of both parities.

    Signs on g are ignored: this is sign connection of g with every edge made
    negative.  For a connected graph with n >= 2 it means an odd closed walk,
    that is a non-tree edge (a loop included) joining two vertices of equal
    depth parity in the spanning tree.
    """
    if g.n == 1:
        return True
    sp = g.spine
    if len(sp.comp_frustrated) != 1:
        return False
    depth = sp.depth
    return any((depth[d] - depth[a]) % 2 == 0 for _, d, a in sp.nontree)
