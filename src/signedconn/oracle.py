"""Brute-force reference implementations used only for cross-checking.

Everything here recomputes answers from first principles -- edge-subset
sweeps, the closure of walk states, and minimal-dependent-set searches -- and
deliberately shares no code with the analysis modules it checks.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Iterator, Optional

from .core import Sign, SignedGraph


# ---------------------------------------------------------------------------
# cycles by edge-subset sweep

def subset_is_elementary_cycle(g: SignedGraph, subset: Iterable[int]) -> bool:
    """An edge set is an elementary cycle iff it is connected and every
    touched vertex has degree exactly two (a loop counts twice)."""
    edges = [g.edges[eid] for eid in subset]
    if not edges:
        return False
    degree: dict[int, int] = {}
    for e in edges:
        if e.u == e.v:
            degree[e.u] = degree.get(e.u, 0) + 2
        else:
            degree[e.u] = degree.get(e.u, 0) + 1
            degree[e.v] = degree.get(e.v, 0) + 1
    if any(d != 2 for d in degree.values()):
        return False
    # connectivity over the touched vertices
    verts = set(degree)
    start = next(iter(verts))
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for e in edges:
            if v in (e.u, e.v):
                w = e.v if v == e.u else e.u
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return seen == verts


def brute_cycles(
    g: SignedGraph, edge_ids: Optional[Iterable[int]] = None
) -> list[tuple[frozenset[int], Sign]]:
    """All elementary cycles found by sweeping every edge subset.  The list
    for the whole graph is computed once per graph object and kept on it;
    each call returns a new list."""
    if edge_ids is not None:
        return _sweep_cycles(g, sorted(set(edge_ids)))
    memo = vars(g)
    if "_oracle_cycles" not in memo:
        memo["_oracle_cycles"] = tuple(_sweep_cycles(g, list(range(g.m))))
    return list(memo["_oracle_cycles"])


def _sweep_cycles(g: SignedGraph, ground: list[int]) -> list[tuple[frozenset[int], Sign]]:
    """Every subset of `ground` that `subset_is_elementary_cycle` accepts,
    by increasing mask, with its sign.

    The degrees of a subset are packed four bits per vertex, an edge adding
    1 at each end and a loop 2 at its vertex; the sums for all masks come
    from the masks without their highest element.  A mask whose digits are
    not all 0 or 2 is no cycle and is skipped.  A cycle's digits are 0 or 2,
    so they never carry; a carry needs a degree of 16 or more, and a mask
    that passes with one is still checked by the definition, like every
    mask that passes.
    """
    degrees = [0]
    for eid in ground:
        e = g.edges[eid]
        code = 2 << 4 * e.u if e.u == e.v else 1 << 4 * e.u | 1 << 4 * e.v
        degrees += [d + code for d in degrees]
    odd = ~sum(2 << 4 * v for v in range(g.n))  # all bits but the 2 of each digit
    out = []
    for mask, degree in enumerate(degrees):
        if degree & odd or not mask:
            continue
        subset = [eid for i, eid in enumerate(ground) if mask >> i & 1]
        if subset_is_elementary_cycle(g, subset):
            sign = 1
            for eid in subset:
                sign *= g.edges[eid].sign
            out.append((frozenset(subset), sign))
    return out


def brute_is_balanced(g: SignedGraph) -> bool:
    return all(s == +1 for _, s in brute_cycles(g))


def brute_is_contrabalanced(g: SignedGraph) -> bool:
    return all(s == -1 for _, s in brute_cycles(g))


def _cycle_vertices(g: SignedGraph, cyc: frozenset[int]) -> frozenset[int]:
    vs = set()
    for eid in cyc:
        vs.add(g.edges[eid].u)
        vs.add(g.edges[eid].v)
    return frozenset(vs)


def _negative_pairs(
    g: SignedGraph,
) -> tuple[tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int], int, bool], ...]:
    """(c1, c2, v1, v2, meet, shares) for every pair of negative cycles of
    `brute_cycles(g)`, in list order: their edge sets, their vertex sets,
    how many vertices they share, and whether they share an edge.  Computed
    once per graph object and kept on it."""
    memo = vars(g)
    if "_oracle_negative_pairs" not in memo:
        neg = [(c, _cycle_vertices(g, c)) for c, s in brute_cycles(g) if s == -1]
        memo["_oracle_negative_pairs"] = tuple(
            (c1, c2, v1, v2, len(v1 & v2), not c1.isdisjoint(c2))
            for (c1, v1), (c2, v2) in combinations(neg, 2)
        )
    return memo["_oracle_negative_pairs"]


def brute_is_quasibalanced(g: SignedGraph) -> bool:
    """Every two negative cycles share at least two vertices."""
    return all(meet >= 2 for *_, meet, _ in _negative_pairs(g))


# ---------------------------------------------------------------------------
# chain signs by the closure of walk states

def _closure(n: int, triples: Iterable[tuple[int, int, Sign]]) -> Iterator[list[int]]:
    """Per start x = 0, 1, ... in turn, the closure of the walk states
    (vertex, accumulated sign) from (x, +1), as one row of sign bits per
    vertex: 1 for a positive chain from x, 2 for a negative one.

    The adjacency is built here from the edge triples (a loop listed once at
    its vertex); each of the 2n states is expanded once, when it is first
    reached, and a negative edge swaps the bits 1 and 2 (xor 3).  The rows
    come one start at a time, so a caller may stop at any start."""
    steps: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, sign in triples:
        flip = 3 if sign < 0 else 0
        steps[u].append((v, flip))
        if v != u:
            steps[v].append((u, flip))
    for x in range(n):
        reached = [0] * n
        reached[x] = 1
        todo = [(x, 1)]
        while todo:
            v, bit = todo.pop()
            for w, flip in steps[v]:
                b = bit ^ flip
                if not reached[w] & b:
                    reached[w] |= b
                    todo.append((w, b))
        yield reached


def _triples(g: SignedGraph) -> list[tuple[int, int, Sign]]:
    return [(u, v, sign) for _, u, v, sign in g.edges]


def _chain_sign_rows(g: SignedGraph) -> tuple[tuple[int, ...], ...]:
    """The `_closure` of g, row x for start x.  Computed once per graph
    object and kept on it; read it, do not change it."""
    memo = vars(g)
    if "_oracle_chain_signs" not in memo:
        memo["_oracle_chain_signs"] = tuple(map(tuple, _closure(g.n, _triples(g))))
    return memo["_oracle_chain_signs"]


# the signs of the chains from x to a vertex, by the bits that record them
_SIGN_SETS = (frozenset(), frozenset({+1}), frozenset({-1}), frozenset({+1, -1}))


def chain_sign_table(g: SignedGraph) -> list[list[frozenset[Sign]]]:
    """table[x][y] = set of signs realized by chains from x to y, read off
    the kept closure; each call returns new lists."""
    return [[_SIGN_SETS[bits] for bits in row] for row in _chain_sign_rows(g)]


def brute_sign_components(g: SignedGraph) -> list[frozenset[int]]:
    """Classes of the both-signs-reachable relation, with a transitivity
    check (each class must be a clique of the relation)."""
    related = [
        [bits == 3 or x == y for y, bits in enumerate(row)]
        for x, row in enumerate(_chain_sign_rows(g))
    ]
    return _clique_classes(related, "sign")


def brute_positive_components(g: SignedGraph) -> list[frozenset[int]]:
    related = [[bits & 1 == 1 for bits in row] for row in _chain_sign_rows(g)]
    return _clique_classes(related, "positive")


def brute_negative_components(g: SignedGraph) -> list[frozenset[int]]:
    """Classes of negative connection closed through common negative
    neighbors (the relation itself need not be transitive)."""
    neg = [[bits & 2 == 2 for bits in row] for row in _chain_sign_rows(g)]
    related = [
        [
            x == y
            or neg[x][y]
            or any(neg[x][w] and neg[w][y] for w in range(g.n))
            for y in range(g.n)
        ]
        for x in range(g.n)
    ]
    return _relation_components(related)


def _clique_classes(related: list[list[bool]], name: str) -> list[frozenset[int]]:
    """The `_relation_components` of a relation that should be transitive,
    each checked to be a clique of it."""
    classes = _relation_components(related)
    for cls in classes:
        for x in cls:
            for y in cls:
                assert related[x][y], f"{name} relation not transitive on a class"
    return classes


def _relation_components(related: list[list[bool]]) -> list[frozenset[int]]:
    n = len(related)
    seen = [False] * n
    out = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        comp = {root}
        frontier = [root]
        while frontier:
            v = frontier.pop()
            for w in range(n):
                if not seen[w] and (related[v][w] or related[w][v]):
                    seen[w] = True
                    comp.add(w)
                    frontier.append(w)
        out.append(frozenset(comp))
    return out


def enumerate_frame_circuits(g: SignedGraph) -> list[frozenset[int]]:
    """Positive cycles, pairs of negative cycles meeting in one vertex, and
    vertex-disjoint negative cycle pairs joined by a connecting chain --
    composed directly from the cycles of `brute_cycles`."""
    out = {c for c, s in brute_cycles(g) if s == +1}
    for c1, c2, v1, v2, meet, shares in _negative_pairs(g):
        if shares:
            continue
        if meet == 1:
            out.add(c1 | c2)
        elif not meet:
            for path in _connecting_paths(g, v1, v2):
                out.add(c1 | c2 | path)
    return sorted(out, key=lambda c: (len(c), sorted(c)))


def enumerate_lift_circuits(g: SignedGraph) -> list[frozenset[int]]:
    """Positive cycles, pairs of negative cycles meeting in one vertex, and
    bare vertex-disjoint negative cycle pairs."""
    out = {c for c, s in brute_cycles(g) if s == +1}
    for c1, c2, _, _, meet, shares in _negative_pairs(g):
        if not shares and meet <= 1:
            out.add(c1 | c2)
    return sorted(out, key=lambda c: (len(c), sorted(c)))


def _connecting_paths(
    g: SignedGraph, v1: frozenset[int], v2: frozenset[int]
) -> list[frozenset[int]]:
    """Simple paths from a v1-vertex to a v2-vertex whose interior avoids
    both vertex sets."""
    out = []
    for a in sorted(v1):
        stack: list[tuple[int, frozenset[int], frozenset[int]]] = [
            (a, frozenset([a]), frozenset())
        ]
        while stack:
            at, visited, used = stack.pop()
            for eid, w, _ in g.adjacency[at]:
                if w in visited:
                    continue
                if w in v2:
                    out.append(used | {eid})
                elif w not in v1:
                    stack.append((w, visited | {w}, used | {eid}))
    return out


def rank_from_circuits(circuits: Iterable[frozenset[int]], F: Iterable[int]) -> int:
    """Size of a largest subset of F containing no listed circuit."""
    ground = sorted(set(F))
    circs = [c for c in circuits if c <= set(ground)]
    best = 0
    for mask in range(1 << len(ground)):
        if mask.bit_count() <= best:
            continue
        chosen = {ground[i] for i in range(len(ground)) if mask >> i & 1}
        if not any(c <= chosen for c in circs):
            best = len(chosen)
    return best


# ---------------------------------------------------------------------------
# matroids from first principles

def frame_independent(g: SignedGraph, subset: Iterable[int]) -> bool:
    """Independent in the frame matroid iff every connected piece of the
    subset carries at most one cycle, and that cycle is negative."""
    pieces = _edge_pieces(g, subset)
    for piece in pieces:
        cycles = brute_cycles(g, piece)
        if len(cycles) > 1 or any(s == +1 for _, s in cycles):
            return False
    return True


def lift_independent(g: SignedGraph, subset: Iterable[int]) -> bool:
    """Independent in the lift matroid iff the whole subset carries at most
    one cycle, and that cycle is negative."""
    cycles = brute_cycles(g, subset)
    return len(cycles) <= 1 and all(s == -1 for _, s in cycles)


def _find(parent, a: int) -> int:
    """The root of a in the union-find forest `parent` (a list or a dict,
    each root its own parent), halving the path on the way."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _edge_pieces(g: SignedGraph, subset: Iterable[int]) -> list[list[int]]:
    """Group an edge set by connectivity (through shared vertices)."""
    edges = sorted(set(subset))
    parent = {eid: eid for eid in edges}
    touch: dict[int, int] = {}
    for eid in edges:
        e = g.edges[eid]
        for v in (e.u, e.v):
            if v in touch:
                parent[_find(parent, eid)] = _find(parent, touch[v])
            touch[v] = eid
    pieces: dict[int, list[int]] = {}
    for eid in edges:
        pieces.setdefault(_find(parent, eid), []).append(eid)
    return list(pieces.values())


def brute_rank(g: SignedGraph, subset: Iterable[int], independent) -> int:
    """Largest independent subset, by sweeping all subsets."""
    ground = sorted(set(subset))
    best = 0
    for mask in range(1 << len(ground)):
        if mask.bit_count() <= best:
            continue
        chosen = [ground[i] for i in range(len(ground)) if mask >> i & 1]
        if independent(g, chosen):
            best = len(chosen)
    return best


def brute_circuits(g: SignedGraph, independent) -> list[frozenset[int]]:
    """Minimal dependent edge sets, by sweeping all subsets."""
    dependent: list[set[int]] = []
    circuits = []
    for mask in range(1, 1 << g.m):
        chosen = {eid for eid in range(g.m) if mask >> eid & 1}
        if independent(g, chosen):
            continue
        if not any(d < chosen for d in dependent):
            circuits.append(frozenset(chosen))
        dependent.append(chosen)
    return circuits


def brute_matroid_components(g: SignedGraph, independent) -> list[frozenset[int]]:
    """Matroid components: the closure of the circuits found by sweeping."""
    return circuit_closure(g.m, brute_circuits(g, independent))


def circuit_closure(m: int, circuits: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    """The classes of the edges 0..m-1 under the transitive closure of
    sharing a circuit, by least edge; an edge in no circuit is its own
    class."""
    parent = list(range(m))
    for circ in circuits:
        ids = sorted(circ)
        for other in ids[1:]:
            parent[_find(parent, other)] = _find(parent, ids[0])
    classes: dict[int, set[int]] = {}
    for eid in range(m):
        classes.setdefault(_find(parent, eid), set()).add(eid)
    return [frozenset(c) for c in sorted(classes.values(), key=min)]


def brute_coloops(g: SignedGraph, independent) -> frozenset[int]:
    """Edges in no circuit at all."""
    in_circuit: set[int] = set()
    for circ in brute_circuits(g, independent):
        in_circuit |= circ
    return frozenset(range(g.m)) - in_circuit


# ---------------------------------------------------------------------------
# miscellaneous graph oracles

def brute_is_bipartite(g: SignedGraph) -> bool:
    color = [0] * g.n
    for root in range(g.n):
        if color[root]:
            continue
        color[root] = 1
        frontier = [root]
        while frontier:
            v = frontier.pop()
            for _, w, _ in g.adjacency[v]:
                if w == v:
                    return False  # a loop is an odd closed walk
                if color[w] == 0:
                    color[w] = -color[v]
                    frontier.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def brute_balancing_edges(g: SignedGraph) -> frozenset[int]:
    """Edges of unbalanced components whose removal leaves every remaining
    cycle of that component positive.

    The cycles of a subgraph are the cycles of g that lie inside its edges,
    so each piece reads the kept `brute_cycles(g)` list: its own cycles, and
    those that avoid the deleted edge.
    """
    cycles = brute_cycles(g)
    out = set()
    for piece in _edge_pieces(g, range(g.m)):
        edges = set(piece)
        inside = [(c, s) for c, s in cycles if c <= edges]
        if all(s == +1 for _, s in inside):
            continue
        for eid in piece:
            if all(s == +1 for c, s in inside if eid not in c):
                out.add(eid)
    return frozenset(out)


def _both_signs_everywhere(n: int, triples: Iterable[tuple[int, int, Sign]]) -> bool:
    """Every two distinct vertices of the graph on n vertices with these
    edge triples are joined by chains of both signs (vacuous with fewer than
    two vertices).  Stops at the first start that misses a sign."""
    return all(
        all(bits == 3 for y, bits in enumerate(row) if y != x)
        for x, row in enumerate(_closure(n, triples))
    )


def brute_sign_isthmi(g: SignedGraph) -> frozenset[int]:
    """Edges whose deletion leaves some vertex pair without chains of both
    signs."""
    triples = _triples(g)
    return frozenset(
        eid
        for eid in range(g.m)
        if not _both_signs_everywhere(g.n, triples[:eid] + triples[eid + 1:])
    )


def brute_sign_articulation_vertices(g: SignedGraph) -> frozenset[int]:
    """Vertices whose deletion, with their edges, leaves some pair of the
    remaining vertices without chains of both signs."""
    triples = _triples(g)
    out = set()
    for x in range(g.n):
        label = {v: i for i, v in enumerate(w for w in range(g.n) if w != x)}
        rest = [(label[u], label[v], sign) for u, v, sign in triples if x not in (u, v)]
        if not _both_signs_everywhere(g.n - 1, rest):
            out.add(x)
    return frozenset(out)


# ---------------------------------------------------------------------------
# exhaustive generation

class SignedGraphOrder:
    """Every signed multigraph with 1 <= n <= max_n and m <= max_m, by rank:
    graph k of the order is `order[k]`, as (n, edge triples (u, v, sign)).

    Edge slots are vertex pairs (including loops) with multiplicity at most
    two per slot; every signing of every slot multiset is produced.  The
    table holds, per (n, m) in turn, the slot multisets in
    `combinations_with_replacement` order; each one stands for its 2^m
    signings, in `product((+1, -1), repeat=m)` order.  So a rank is decoded
    without generating the graphs before it: the group's offset picks the
    multiset (offset >> m) and the signs (the bits of offset mod 2^m, the
    first edge's sign in the top bit, a set bit negative).
    """

    def __init__(self, max_n: int, max_m: int):
        self._groups: list[tuple[int, int, list[tuple[tuple[int, int], ...]]]] = []
        self._ends: list[int] = []  # the rank after each group's last graph
        total = 0
        for n in range(1, max_n + 1):
            slots = [(u, v) for u in range(n) for v in range(u, n)]
            for m in range(0, max_m + 1):
                multisets = [
                    combo
                    for combo in combinations_with_replacement(slots, m)
                    if all(combo.count(s) <= 2 for s in set(combo))
                ]
                total += len(multisets) << m
                self._groups.append((n, m, multisets))
                self._ends.append(total)

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, k: int) -> tuple[int, tuple[tuple[int, int, Sign], ...]]:
        if not 0 <= k < len(self):
            raise IndexError(f"rank {k} outside 0..{len(self) - 1}")
        i = bisect_right(self._ends, k)
        n, m, multisets = self._groups[i]
        offset = k - self._ends[i] + (len(multisets) << m)
        signs = offset & ((1 << m) - 1)
        return n, tuple([
            (u, v, -1 if signs >> (m - 1 - j) & 1 else 1)
            for j, (u, v) in enumerate(multisets[offset >> m])
        ])

    def __iter__(self) -> Iterator[tuple[int, tuple[tuple[int, int, Sign], ...]]]:
        """The graphs by increasing rank, each decoded as `order[k]`."""
        return map(self.__getitem__, range(len(self)))


def generate_signed_graphs(max_n: int, max_m: int) -> Iterator[SignedGraph]:
    """The graphs of `SignedGraphOrder(max_n, max_m)`, built, in its order."""
    for n, triples in SignedGraphOrder(max_n, max_m):
        yield SignedGraph.from_triples(n, triples)
