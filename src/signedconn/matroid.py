"""Frame and lift matroids of a signed graph: circuit classification, rank,
matroid components, coloops, and quasibalance."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from . import _cycles, structure
from .balance import balancing_edges
from .core import SignedGraph, _vertex_set
from .errors import CycleBudgetExceeded, EdgeOutOfRange
from .sign_connectivity import ComponentPartition, _sorted_classes

DEFAULT_CYCLE_BUDGET = 100_000


class CircuitVerdict(str, Enum):
    POSITIVE_CYCLE = "positive-cycle"
    TIGHT_HANDCUFF = "tight-handcuff"
    LOOSE_HANDCUFF = "loose-handcuff"
    DISJOINT_PAIR = "disjoint-pair"
    NOT_A_CIRCUIT = "not-a-circuit"


@dataclass(frozen=True)
class CircuitClassification:
    verdict: CircuitVerdict
    cycles: tuple[frozenset[int], ...] = ()
    chain: frozenset[int] = frozenset()

    @property
    def in_frame(self) -> bool:
        return self.verdict in (
            CircuitVerdict.POSITIVE_CYCLE,
            CircuitVerdict.TIGHT_HANDCUFF,
            CircuitVerdict.LOOSE_HANDCUFF,
        )

    @property
    def in_lift(self) -> bool:
        return self.verdict in (
            CircuitVerdict.POSITIVE_CYCLE,
            CircuitVerdict.TIGHT_HANDCUFF,
            CircuitVerdict.DISJOINT_PAIR,
        )


_NOT_A_CIRCUIT = CircuitClassification(CircuitVerdict.NOT_A_CIRCUIT)


def classify_circuit(g: SignedGraph, edge_ids: Iterable[int]) -> CircuitClassification:
    """Decide whether an edge set is a circuit of the frame and/or lift
    matroid, and of which shape.

    Frame circuits: a positive cycle, two negative cycles sharing exactly one
    vertex, or two vertex-disjoint negative cycles joined by a chain meeting
    them only at its ends.  Lift circuits replace the third shape by a bare
    vertex-disjoint pair of negative cycles.

    Every such circuit has at most n + 1 edges and exactly one or two
    elementary cycles, so larger sets are rejected up front and the cycle
    enumeration stops at a third cycle.
    """
    F = frozenset(edge_ids)
    for eid in F:
        if not 0 <= eid < g.m:
            raise EdgeOutOfRange(f"edge id {eid} out of range")
    if len(F) > g.n + 1:
        return _NOT_A_CIRCUIT
    try:
        cycles = _cycles.elementary_cycles(g, F, max_cycles=2)
    except CycleBudgetExceeded:
        return _NOT_A_CIRCUIT

    if len(cycles) == 1:
        cyc, sign = cycles[0]
        if sign == +1 and cyc == F:
            return CircuitClassification(CircuitVerdict.POSITIVE_CYCLE, (cyc,))
        return _NOT_A_CIRCUIT

    if len(cycles) != 2:
        return _NOT_A_CIRCUIT
    (c1, s1), (c2, s2) = cycles
    if s1 != -1 or s2 != -1 or c1 & c2:
        return _NOT_A_CIRCUIT
    v1, v2 = _vertex_set(g, c1), _vertex_set(g, c2)
    shared = v1 & v2
    if len(shared) == 1 and c1 | c2 == F:
        return CircuitClassification(CircuitVerdict.TIGHT_HANDCUFF, (c1, c2))
    if shared:
        return _NOT_A_CIRCUIT
    if c1 | c2 == F:
        return CircuitClassification(CircuitVerdict.DISJOINT_PAIR, (c1, c2))
    # F holds no third cycle, so its edges off c1 and c2 form a forest.  With
    # no pendant vertex every tree of it joins c1 to c2 (F is then connected,
    # |V(F)| = |F| - 1), and a second such path would close a third cycle
    degree: dict[int, int] = {}
    for eid in F:
        e = g.edges[eid]
        degree[e.u] = degree.get(e.u, 0) + 1
        degree[e.v] = degree.get(e.v, 0) + 1
    if 1 in degree.values():
        return _NOT_A_CIRCUIT
    return CircuitClassification(CircuitVerdict.LOOSE_HANDCUFF, (c1, c2), F - (c1 | c2))


def _parity_forest(g: SignedGraph, edge_ids: Iterable[int]) -> tuple[int, int]:
    """(forest edges, unbalanced components) of the spanning subgraph on the
    given edges, by union-find with parity and path halving.

    `parity[v]` is the sign (0 for +, 1 for -) of the path from v to its
    union-find parent; an edge closing a cycle whose parity disagrees with its
    own sign makes that component unbalanced.
    """
    m = g.m
    parent = list(range(g.n))
    parity = [0] * g.n
    unbalanced = [False] * g.n

    def find(v: int) -> tuple[int, int]:
        p = 0
        while parent[v] != v:
            up = parent[v]
            parity[v] ^= parity[up]
            parent[v] = parent[up]
            p ^= parity[v]
            v = parent[v]
        return v, p

    forest = 0
    for eid in edge_ids:
        if not 0 <= eid < m:
            raise EdgeOutOfRange(f"edge id {eid} out of range")
        e = g.edges[eid]
        ru, pu = find(e.u)
        rv, pv = find(e.v)
        odd = pu ^ pv ^ (e.sign == -1)
        if ru != rv:
            parent[ru] = rv
            parity[ru] = odd
            unbalanced[rv] = unbalanced[rv] or unbalanced[ru]
            forest += 1
        elif odd:
            unbalanced[ru] = True
    return forest, sum(unbalanced[v] for v in range(g.n) if parent[v] == v)


def frame_rank(g: SignedGraph, edge_ids: Iterable[int]) -> int:
    """n minus the number of balanced components of the spanning subgraph:
    its forest edges plus its unbalanced components."""
    forest, unbalanced = _parity_forest(g, edge_ids)
    return forest + unbalanced


def lift_rank(g: SignedGraph, edge_ids: Iterable[int]) -> int:
    """n minus the number of components of the spanning subgraph, plus one if
    that subgraph is unbalanced: its forest edges, plus one if any component
    is unbalanced."""
    forest, unbalanced = _parity_forest(g, edge_ids)
    return forest + (1 if unbalanced else 0)


def frame_components(g: SignedGraph) -> ComponentPartition:
    """Edge classes of the frame matroid: blocks outside the cores, the cores
    themselves, except that a single-block necklace core splits into its
    constituents."""
    dec = structure.block_decomposition(g)
    classes: list[frozenset[int]] = []
    isolated: set[int] = set()
    for b in dec.blocks:
        if not b.edges:
            isolated |= b.vertices
        elif not b.inner:
            classes.append(b.edges)
    for core in dec.cores:
        if core.necklace is not None:
            classes.extend(core.necklace)
        else:
            classes.append(core.edges)
    return ComponentPartition("frame", _sorted_classes(classes), frozenset(isolated))


def lift_components(g: SignedGraph) -> ComponentPartition:
    """Edge classes of the lift matroid: each balanced block separately, and
    all unbalanced blocks merged into one class -- unless the only unbalanced
    block is a necklace, which splits into its constituents.  Such a block is
    the single-block core of the one unbalanced component."""
    dec = structure.block_decomposition(g)
    classes: list[frozenset[int]] = []
    isolated: set[int] = set()
    merged: set[int] = set()
    for b in dec.blocks:
        if not b.edges:
            isolated |= b.vertices
        elif b.balanced:
            classes.append(b.edges)
        else:
            merged |= b.edges
    if len(dec.cores) == 1 and dec.cores[0].necklace is not None:
        classes.extend(dec.cores[0].necklace)
    elif merged:
        classes.append(frozenset(merged))
    return ComponentPartition("lift", _sorted_classes(classes), frozenset(isolated))


def is_frame_connected(g: SignedGraph) -> bool:
    return frame_components(g).q == 1


def is_lift_connected(g: SignedGraph) -> bool:
    return lift_components(g).q == 1


def frame_isthmi(g: SignedGraph) -> frozenset[int]:
    """Coloops of the frame matroid: balancing edges, bridges of balanced
    components, and bridges of unbalanced components with a balanced side.

    No non-tree edge crosses a bridge, so each frustrated edge of the
    component lies on one side; the child side holds the frustrated edges
    whose descendant end is in its subtree.
    """
    sp = g.spine
    k = sp.comp_frustrated
    below = [0] * g.n
    for _, d, _ in sp.frustrated:
        below[d] += 1
    below = sp.subtree_sums(below)
    out = set(balancing_edges(g))
    for c in sp.bridge_ends():
        if below[c] in (0, k[sp.comp[c]]):
            out.add(sp.parent_edge[c])
    return frozenset(out)


def lift_isthmi(g: SignedGraph) -> frozenset[int]:
    """Coloops of the lift matroid: every bridge, plus every edge whose
    deletion balances the whole graph.

    Unlike the frame matroid, the lift matroid does not decompose over
    connected components (vertex-disjoint negative cycles form a circuit even
    across components), so with two or more unbalanced components no single
    edge is balancing in this sense.
    """
    sp = g.spine
    out = {sp.parent_edge[c] for c in sp.bridge_ends()}
    if sum(1 for k in sp.comp_frustrated if k) == 1:
        out |= balancing_edges(g)
    return frozenset(out)


def is_quasibalanced(
    g: SignedGraph, max_cycles: Optional[int] = DEFAULT_CYCLE_BUDGET
) -> bool:
    """True iff every two negative cycles share at least two vertices.

    Two unbalanced blocks give disjoint or once-meeting negative cycles, so the
    answer is immediate unless exactly one block is unbalanced.  That block is
    the core of the one unbalanced component.  A necklace is quasibalanced:
    every negative cycle passes through all of its two or more balancing
    vertices.  Otherwise the block's cycles are streamed, and each negative
    one is tested for a partner meeting it in at most one vertex; the first
    partner answers False.  Only a search that finds none within max_cycles
    cycles raises CycleBudgetExceeded.
    """
    dec = structure.block_decomposition(g)
    unbalanced = [b for b in dec.blocks if not b.balanced]
    if len(unbalanced) >= 2:
        return False
    if not unbalanced:
        return True
    if dec.cores[0].necklace is not None:
        return True
    block = unbalanced[0].edges
    for cycle, sign in _cycles.iter_cycles(g, block, max_cycles):
        if sign == -1 and _has_partner(g, block, cycle):
            return False
    return True


def _has_partner(g: SignedGraph, block: frozenset[int], cycle: frozenset[int]) -> bool:
    """True iff some negative cycle of the block meets the cycle in at most
    one vertex.

    Such a cycle shares no edge with it (an edge has two ends), and it lies in
    the block's edges with no end on the cycle (`free`) plus the edges whose
    only end on the cycle is x (`attached[x]`), for an x where it touches the
    cycle, or for any x if it does not.  So it exists iff one of those edge
    sets is unbalanced.  The block is connected, so `free` is empty when no
    edge is attached.
    """
    on_cycle = _vertex_set(g, cycle)
    free: list[int] = []
    attached: dict[int, list[int]] = {}
    for eid in block - cycle:
        e = g.edges[eid]
        ends = {e.u, e.v} & on_cycle
        if not ends:
            free.append(eid)
        elif len(ends) == 1:
            attached.setdefault(ends.pop(), []).append(eid)
    return any(_parity_forest(g, free + edges)[1] for edges in attached.values())
