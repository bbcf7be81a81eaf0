"""Frame and lift matroids of a signed graph: circuit classification, rank,
matroid components, coloops, and quasibalance."""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

from . import _cycles, structure
from .core import SignedGraph, _kept, _vertex_set
from .errors import CycleBudgetExceeded, EdgeOutOfRange
from .sign_connectivity import ComponentPartition, _sorted_classes

DEFAULT_CYCLE_BUDGET = 100_000


class CircuitVerdict(str, Enum):
    POSITIVE_CYCLE = "positive-cycle"
    TIGHT_HANDCUFF = "tight-handcuff"
    LOOSE_HANDCUFF = "loose-handcuff"
    DISJOINT_PAIR = "disjoint-pair"
    NOT_A_CIRCUIT = "not-a-circuit"


# built once: an enum member looked up on its class costs more than the test
_FRAME_VERDICTS = (
    CircuitVerdict.POSITIVE_CYCLE,
    CircuitVerdict.TIGHT_HANDCUFF,
    CircuitVerdict.LOOSE_HANDCUFF,
)
_LIFT_VERDICTS = (
    CircuitVerdict.POSITIVE_CYCLE,
    CircuitVerdict.TIGHT_HANDCUFF,
    CircuitVerdict.DISJOINT_PAIR,
)


class CircuitClassification(NamedTuple):
    verdict: CircuitVerdict
    cycles: tuple[frozenset[int], ...] = ()
    chain: frozenset[int] = frozenset()

    @property
    def in_frame(self) -> bool:
        return self.verdict in _FRAME_VERDICTS

    @property
    def in_lift(self) -> bool:
        return self.verdict in _LIFT_VERDICTS


_NOT_A_CIRCUIT = CircuitClassification(CircuitVerdict.NOT_A_CIRCUIT)


def classify_circuit(g: SignedGraph, edge_ids: Iterable[int]) -> CircuitClassification:
    """Decide whether an edge set is a circuit of the frame and/or lift
    matroid, and of which shape.

    Frame circuits: a positive cycle, two negative cycles sharing exactly one
    vertex, or two vertex-disjoint negative cycles joined by a chain meeting
    them only at its ends.  Lift circuits replace the third shape by a bare
    vertex-disjoint pair of negative cycles.

    Each has no vertex of degree 1 (a loop counts 2) and |V(F)| or |V(F)| + 1
    edges, so in a set that passes every vertex has degree 2 but one of
    degree 4 or two of degree 3.  The runs through degree-2 vertices, from
    those branch vertices and then round what is left, are its cycles and
    chains, read in O(|F|): F is a circuit iff they are one positive cycle,
    or two negative cycles and at most one chain (three make a theta).
    """
    F = frozenset(edge_ids)
    us, vs = g._u, g._v
    m = len(us)
    degree: dict[int, int] = {}
    for eid in F:
        if not 0 <= eid < m:
            raise EdgeOutOfRange(f"edge id {eid} out of range")
        u, v = us[eid], vs[eid]
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if not 0 <= len(F) - len(degree) <= 1 or 1 in degree.values():
        return _NOT_A_CIRCUIT
    ends: dict[int, list[int]] = {v: [] for v in degree}
    for eid in F:
        ends[us[eid]].append(eid)
        ends[vs[eid]].append(eid)
    used: set[int] = set()
    closed: list[tuple[frozenset[int], int]] = []
    chains: list[frozenset[int]] = []
    branches = [v for v, es in ends.items() if len(es) > 2]
    for v in branches + list(ends):
        for eid in ends[v]:
            if eid not in used:
                end, run, sign = _run(g, ends, v, eid)
                used |= run
                if end == v:
                    closed.append((run, sign))
                else:
                    chains.append(run)
    if closed == [(F, 1)]:
        return CircuitClassification(CircuitVerdict.POSITIVE_CYCLE, (F,))
    if len(closed) != 2 or len(chains) > 1 or any(sign == 1 for _, sign in closed):
        return _NOT_A_CIRCUIT
    cycles = tuple(sorted((c for c, _ in closed), key=lambda c: (len(c), sorted(c))))
    if chains:
        return CircuitClassification(CircuitVerdict.LOOSE_HANDCUFF, cycles, chains[0])
    verdict = CircuitVerdict.TIGHT_HANDCUFF if branches else CircuitVerdict.DISJOINT_PAIR
    return CircuitClassification(verdict, cycles)


def _run(g: SignedGraph, ends: dict, start: int, eid: int) -> tuple[int, frozenset[int], int]:
    """(last vertex, edges, sign) of the run that leaves `start` by edge eid
    and goes on through degree-2 vertices until back at `start` or a branch."""
    us, vs, signs, run, sign, v = g._u, g._v, g._sign, [], 1, start
    while True:
        run.append(eid)
        sign *= signs[eid]
        v = vs[eid] if v == us[eid] else us[eid]
        if v == start or len(ends[v]) != 2:
            return v, frozenset(run), sign
        a, b = ends[v]
        eid = b if a == eid else a


def _parity_forest(g: SignedGraph, edge_ids: Iterable[int]) -> tuple[int, int, list, list]:
    """(forest edges, unbalanced components, parent, parity) of the spanning
    subgraph on the given edges, by union-find with parity, in one loop.

    `parity[v]` is the sign (0 for +, 1 for -) of the path from v to its
    union-find parent; an edge closing a cycle whose parity disagrees with its
    own sign makes that component unbalanced.  Each find halves its path
    (Tarjan and van Leeuwen, 1984): every vertex on it is hooked to its
    grandparent, so a long chain, such as a star listed leaf by leaf from
    its centre, is not walked again in full.  The unbalanced roots are counted as they form.
    """
    us, vs, signs, n = g._u, g._v, g._sign, g.n
    m = len(us)
    parent = list(range(n))
    parity = [0] * n
    unbalanced = [False] * n
    forest = bad = 0
    for eid in edge_ids:
        if not 0 <= eid < m:
            raise EdgeOutOfRange(f"edge id {eid} out of range")
        u, v, odd = us[eid], vs[eid], signs[eid] == -1
        while parent[u] != u:
            up = parent[u]
            parity[u] ^= parity[up]
            odd ^= parity[u]
            parent[u] = u = parent[up]
        while parent[v] != v:
            up = parent[v]
            parity[v] ^= parity[up]
            odd ^= parity[v]
            parent[v] = v = parent[up]
        if u != v:
            parent[u] = v
            parity[u] = odd
            forest += 1
            bad -= unbalanced[u] and unbalanced[v]
            unbalanced[v] |= unbalanced[u]
        elif odd and not unbalanced[u]:
            unbalanced[u] = True
            bad += 1
    return forest, bad, parent, parity


def frame_rank(g: SignedGraph, edge_ids: Iterable[int]) -> int:
    """n minus the number of balanced components of the spanning subgraph:
    its forest edges plus its unbalanced components."""
    forest, unbalanced, _, _ = _parity_forest(g, edge_ids)
    return forest + unbalanced


def lift_rank(g: SignedGraph, edge_ids: Iterable[int]) -> int:
    """n minus the number of components of the spanning subgraph, plus one if
    that subgraph is unbalanced: its forest edges, plus one if any component
    is unbalanced."""
    forest, unbalanced, _, _ = _parity_forest(g, edge_ids)
    return forest + (1 if unbalanced else 0)


def frame_components(g: SignedGraph) -> ComponentPartition:
    """Edge classes of the frame matroid: blocks outside the cores, the cores
    themselves, except that a single-block necklace core splits into its
    constituents.  Computed once per graph object and kept on it."""
    return _kept(g, "_frame_components", _frame_components)


def _balanced_blocks(g: SignedGraph) -> tuple[list[tuple[frozenset[int], bool]], frozenset[int]]:
    """(edge set, inner) per balanced block with an edge, and the isolated
    vertices: what both matroids' components read off the blocks, kept on g
    (see `_kept`) so that each set is built once."""
    blocks: list[tuple[frozenset[int], bool]] = []
    isolated: set[int] = set()
    for es, vs, balanced, inner, _ in structure.block_decomposition(g).rows:
        if not es:
            isolated.update(vs)
        elif balanced:
            blocks.append((frozenset(es), inner))
    return blocks, frozenset(isolated)


def _frame_components(g: SignedGraph) -> ComponentPartition:
    blocks, isolated = _kept(g, "_balanced_blocks", _balanced_blocks)
    # an unbalanced block is inner, so these are all the blocks outside the cores
    classes: list[frozenset[int]] = [es for es, inner in blocks if not inner]
    for core in structure.block_decomposition(g).cores:
        if core.necklace is not None:
            classes.extend(core.necklace)
        else:
            classes.append(core.edges)
    return ComponentPartition("frame", _sorted_classes(classes), isolated)


def lift_components(g: SignedGraph) -> ComponentPartition:
    """Edge classes of the lift matroid: each balanced block separately, and
    all unbalanced blocks merged into one class -- unless the only unbalanced
    block is a necklace, which splits into its constituents.  Such a block is
    the single-block core of the one unbalanced component.  Computed once
    per graph object and kept on it."""
    return _kept(g, "_lift_components", _lift_components)


def _lift_components(g: SignedGraph) -> ComponentPartition:
    dec = structure.block_decomposition(g)
    blocks, isolated = _kept(g, "_balanced_blocks", _balanced_blocks)
    classes = [es for es, _ in blocks]
    if len(dec.cores) == 1 and dec.cores[0].necklace is not None:
        classes.extend(dec.cores[0].necklace)
    else:
        merged = [eid for es, _, balanced, _, _ in dec.rows if not balanced for eid in es]
        if merged:
            classes.append(frozenset(merged))
    return ComponentPartition("lift", _sorted_classes(classes), isolated)


def is_frame_connected(g: SignedGraph) -> bool:
    return frame_components(g).q == 1


def is_lift_connected(g: SignedGraph) -> bool:
    return lift_components(g).q == 1


def frame_isthmi(g: SignedGraph) -> frozenset[int]:
    """Coloops of the frame matroid: balancing edges, bridges of balanced
    components, and bridges of unbalanced components with a balanced side."""
    return _coloops(g, frame_components(g))


def lift_isthmi(g: SignedGraph) -> frozenset[int]:
    """Coloops of the lift matroid: every bridge, plus every edge whose
    deletion balances the whole graph.

    Unlike the frame matroid, the lift matroid does not decompose over
    connected components (vertex-disjoint negative cycles form a circuit even
    across components), so with two or more unbalanced components no single
    edge is balancing in this sense.
    """
    return _coloops(g, lift_components(g))


def _coloops(g: SignedGraph, components: ComponentPartition) -> frozenset[int]:
    """The coloops of a matroid on the edges of g, read off its components.

    An element in no circuit is a component by itself, and so is a matroid
    loop: for the frame and lift matroids, a positive loop edge (Zaslavsky,
    "Signed graphs", 1982).  So the coloops are the one-edge classes that are
    not positive loops.
    """
    us, vs, signs = g._u, g._v, g._sign
    return frozenset(
        eid for cls in components.classes if len(cls) == 1
        for eid in cls if us[eid] != vs[eid] or signs[eid] == -1
    )


def is_quasibalanced(g: SignedGraph) -> bool:
    """True iff every two negative cycles share at least two vertices.

    Two unbalanced blocks give disjoint or once-meeting negative cycles, so the
    answer is immediate unless exactly one block B is unbalanced.  B is the
    core of the one unbalanced component, and two rules answer without a
    search.  First, a one-edge B is a negative loop, the one negative cycle.
    Second, a B with a balancing vertex is quasibalanced iff it is a necklace.
    With two or more balancing vertices it is one, and every negative cycle
    passes through all of them.  With one, v, switch the connected, balanced
    B - v to all positive; v's positive and negative edges then reach two
    nonempty sets P and N, and a negative cycle is v and a P-N path of B - v.
    A vertex meeting every P-N path would meet every negative cycle and be
    a second balancing vertex, so by Menger's theorem two vertex-disjoint
    P-N paths exist: two negative cycles meeting only at v.

    Otherwise each negative cycle is tested for a partner meeting it in at
    most one vertex, and the first partner answers False: first the
    fundamental cycles of the frustrated edges, which are negative and all lie
    in B, then every cycle of B as it is streamed.  Only a search that finds
    none within DEFAULT_CYCLE_BUDGET cycles raises CycleBudgetExceeded.
    """
    dec = structure.block_decomposition(g)
    unbalanced = [i for i, (_, _, balanced, _, _) in enumerate(dec.rows) if not balanced]
    if len(unbalanced) >= 2:
        return False
    if not unbalanced or len(dec.rows[unbalanced[0]][0]) == 1:
        return True
    if dec.balancing[unbalanced[0]]:
        return dec.cores[0].necklace is not None
    block = frozenset(dec.rows[unbalanced[0]][0])
    sp = g.spine
    for eid, d, a in sp.frustrated:
        if _has_partner(g, block, sp.fundamental_cycle(eid, d, a)):
            return False
    for count, (cycle, sign) in enumerate(_cycles.iter_cycles(g, block), 1):
        if count > DEFAULT_CYCLE_BUDGET:
            raise CycleBudgetExceeded(f"more than {DEFAULT_CYCLE_BUDGET} cycles")
        if sign == -1 and _has_partner(g, block, cycle):
            return False
    return True


def _has_partner(g: SignedGraph, block: frozenset[int], cycle: frozenset[int]) -> bool:
    """True iff some negative cycle of the block meets the cycle in at most
    one vertex, in one union-find pass: O(n + |B| alpha).

    Such a cycle shares no edge with it (an edge has two ends).  Either it
    lies in the block's edges with no end on the cycle (`free`), or it leaves
    one cycle vertex x by two edges whose other ends are off the cycle and
    closes through `free` (a loop is a block of its own, so none sits at x).
    With `free` balanced, it is negative iff those two edges reach one free
    root with opposite parity.
    """
    on_cycle = _vertex_set(g, cycle)
    free: list[int] = []
    attached: list[tuple[int, int, bool]] = []
    us, vs, signs = g._u, g._v, g._sign
    for eid in block - cycle:
        u, v = us[eid], vs[eid]
        if u not in on_cycle and v not in on_cycle:
            free.append(eid)
        elif u not in on_cycle:
            attached.append((v, u, signs[eid] == -1))
        elif v not in on_cycle:
            attached.append((u, v, signs[eid] == -1))
    _, unbalanced, parent, parity = _parity_forest(g, free)
    if unbalanced:
        return True
    reached: dict[tuple[int, int], bool] = {}
    for x, w, odd in attached:
        while parent[w] != w:
            up = parent[w]
            parity[w] ^= parity[up]
            odd ^= parity[w]
            parent[w] = w = parent[up]
        if reached.setdefault((x, w), odd) != odd:
            return True
    return False
