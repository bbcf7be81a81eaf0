"""Block-level structure: blocks, cores, unbalanced necklaces, contrabalanced
cactus recognition, theta detection, and hypercyclic-chain classification."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .balance import balancing_vertices
from .core import SignedGraph, Walk, _kept, _Spine, cut_vertices
from .errors import NotABlock


@dataclass(frozen=True)
class Block:
    """A maximal subgraph with no articulation vertex.  A loop and an isolated
    vertex are blocks; a bridge is a two-vertex block."""

    edges: frozenset[int]
    vertices: frozenset[int]
    balanced: bool
    inner: bool
    component: int

    @property
    def is_cycle(self) -> bool:
        return len(self.edges) >= 1 and len(self.edges) == len(self.vertices)


@dataclass(frozen=True)
class Core:
    """Union of the inner blocks of one unbalanced connected component."""

    component: int
    edges: frozenset[int]
    necklace: Optional[tuple[frozenset[int], ...]]


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]
    articulation_vertices: frozenset[int]
    cores: tuple[Core, ...]
    bridges: frozenset[int]  # the edges of the two-vertex blocks with one edge


def block_decomposition(g: SignedGraph) -> BlockDecomposition:
    """Blocks, articulation vertices and the core of every unbalanced
    component.  Computed once per graph object and kept on it."""
    return _kept(g, "_block_decomposition", _block_decomposition)


def _block_decomposition(g: SignedGraph) -> BlockDecomposition:
    """The blocks in one preorder pass over the spine.

    The tree edge into c opens a new block at its parent h (the block's head)
    when no non-tree edge leaves the subtree of c above h; otherwise c joins
    the block of its parent.  A non-tree edge closes a cycle with the tree
    edge into its descendant end, so it joins that block.  The tree path
    between two vertices of a block stays in the block, so a block is
    unbalanced iff a frustrated edge's descendant end falls in it.

    A balanced block is inner iff at least two of its sides in the block-cut
    tree hold a frustrated edge: the side above its head, and below each
    other vertex v of it the blocks opened at v and the loops at v.  With
    below[c] the frustrated edges (negative loops included) whose descendant
    end is in the subtree of c, the block opened at c has k - below[c] above
    it, k being its component's frustrated count.
    """
    sp = g.spine
    k = sp.comp_frustrated
    below = [0] * g.n
    hang = [0] * g.n  # frustrated edges hanging below v outside v's own block
    for _, d, a in sp.frustrated:
        below[d] += 1
        if d == a:
            hang[d] += 1
    below = sp.subtree_sums(below)

    block_of = [-1] * g.n
    opened_at: list[int] = []
    edges: list[list[int]] = []
    verts: list[list[int]] = []
    for c in sp.order:
        p = sp.parent[c]
        if p < 0:
            continue
        if sp.low[c] >= sp.disc[p]:
            block_of[c] = len(opened_at)
            opened_at.append(c)
            edges.append([])
            verts.append([p])
            hang[p] += below[c]
        else:
            block_of[c] = block_of[p]
        edges[block_of[c]].append(sp.parent_edge[c])
        verts[block_of[c]].append(c)
    unbalanced = [False] * len(opened_at)
    for eid, d, a in sp.nontree:
        if d != a:
            edges[block_of[d]].append(eid)
    for _, d, a in sp.frustrated:
        if d != a:
            unbalanced[block_of[d]] = True
    sides = [int(k[sp.comp[c]] > below[c]) for c in opened_at]
    for v in sp.order:
        if block_of[v] >= 0 and hang[v]:
            sides[block_of[v]] += 1

    raw = [
        (edges[i], verts[i], not unbalanced[i], unbalanced[i] or sides[i] >= 2, sp.comp[c])
        for i, c in enumerate(opened_at)
    ]
    for e in g.edges:
        if e.u == e.v:
            raw.append(([e.id], [e.u], e.sign == 1, e.sign == -1, sp.comp[e.u]))
    for v in range(g.n):
        if not g.adjacency[v]:
            raw.append(([], [v], True, False, sp.comp[v]))
    # two blocks share no edge, so this is the order of (min vertex, edges)
    raw.sort(key=lambda r: (min(r[1]), min(r[0], default=-1)))
    blocks = tuple(
        Block(frozenset(es), frozenset(vs), bal, inner, comp)
        for es, vs, bal, inner, comp in raw
    )

    # a loop is a block of its own, so its vertex lies in a second block as
    # soon as it has another incident edge
    articulation = cut_vertices(g) | {
        e.u for e in g.edges if e.u == e.v and len(g.adjacency[e.u]) >= 2
    }

    inner_by_comp: list[list[Block]] = [[] for _ in sp.comp_frustrated]
    for b in blocks:
        if b.inner:
            inner_by_comp[b.component].append(b)
    cores = []
    for i, inner in enumerate(inner_by_comp):
        if not sp.comp_frustrated[i]:
            continue
        core_edges: set[int] = set()
        for b in inner:
            core_edges |= b.edges
        necklace = None
        if len(inner) == 1:
            # the lone unbalanced block of its component: every cycle lies in
            # one block, so the component's balancing vertices are the block's
            necklace = _necklace_constituents(g, inner[0], balancing_vertices(g))
        cores.append(Core(i, frozenset(core_edges), necklace))

    bridges = frozenset(es[0] for es in edges if len(es) == 1)
    return BlockDecomposition(blocks, articulation, tuple(cores), bridges)


def _necklace_constituents(
    g: SignedGraph, block: Block, S: frozenset[int]
) -> Optional[tuple[frozenset[int], ...]]:
    """Finest decomposition of an unbalanced block into >= 2 balanced blocks
    glued in a ring, or None if the block is not such a necklace.  S holds
    the balancing vertices of the block itself (vertices outside the block
    are ignored).

    Zaslavsky's necklace picture (Biased graphs II, 1991): every negative
    cycle passes through all of S, so with |S| >= 2 each S-bridge (a
    component of B - S with its attachment edges, or one S-S edge) attaches
    at two vertices a, b of S and is balanced with them: its a-b paths share
    one sign.  The bridges with equal {a, b} and sign form one constituent.
    """
    S = S & block.vertices
    if len(S) < 2:
        return None
    groups: dict[tuple, set[int]] = {}
    for eid in block.edges:
        e = g.edges[eid]
        if e.u in S and e.v in S:
            groups.setdefault((min(e.u, e.v), max(e.u, e.v), e.sign), set()).add(eid)
    pot: dict[int, int] = {}  # sign of a path from the bridge's root
    for root in block.vertices - S:
        if root in pot:
            continue
        pot[root] = 1
        edges: set[int] = set()
        ends: dict[int, int] = {}
        stack = [root]
        while stack:
            v = stack.pop()
            for e in g.adjacency[v]:
                if e.id not in block.edges:
                    continue
                w = e.other(v)
                edges.add(e.id)
                if w in S:
                    ends[w] = pot[v] * e.sign
                elif w not in pot:
                    pot[w] = pot[v] * e.sign
                    stack.append(w)
        a, b = sorted(ends)
        groups.setdefault((a, b, ends[a] * ends[b]), set()).update(edges)
    if len(groups) < 2:
        return None
    return _ring_order(groups)


def _ring_order(groups: dict[tuple, set[int]]) -> tuple[frozenset[int], ...]:
    """Order necklace constituents cyclically, starting at the one holding the
    smallest edge id and moving toward the smaller-id neighbor.  Two
    constituents share only vertices of S, and those are the ends a, b of
    their keys (a, b, sign), so they meet iff their ends do."""
    constituents = [frozenset(c) for c in groups.values()]
    if len(constituents) == 2:
        return tuple(sorted(constituents, key=min))
    at: dict[int, set[int]] = {}
    for i, (a, b, _) in enumerate(groups):
        at.setdefault(a, set()).add(i)
        at.setdefault(b, set()).add(i)
    nbrs = [sorted((at[a] | at[b]) - {i}) for i, (a, b, _) in enumerate(groups)]
    k = len(constituents)
    if any(len(nb) != 2 for nb in nbrs):
        return tuple(sorted(constituents, key=min))
    start = min(range(k), key=lambda i: min(constituents[i]))
    nxt = min(nbrs[start], key=lambda i: min(constituents[i]))
    order = [start, nxt]
    while len(order) < k:
        here = order[-1]
        prev = order[-2]
        step = nbrs[here][0] if nbrs[here][1] == prev else nbrs[here][1]
        order.append(step)
    return tuple(constituents[i] for i in order)


def detect_necklace(
    g: SignedGraph, block_edges: frozenset[int]
) -> Optional[tuple[frozenset[int], ...]]:
    """Constituents of the block, in ring order, if it is an unbalanced
    necklace of balanced blocks; None otherwise."""
    dec = block_decomposition(g)
    match = [b for b in dec.blocks if b.edges == frozenset(block_edges) and b.edges]
    if not match:
        raise NotABlock(f"{sorted(block_edges)} is not a block of the graph")
    # the block may sit beside other unbalanced blocks, which would leave its
    # component without balancing vertices: take them from the block alone
    S = balancing_vertices(g.subgraph_of_edges(match[0].edges))
    return _necklace_constituents(g, match[0], S)


def is_cactus_forest(g: SignedGraph) -> bool:
    """True iff every block is a cycle (loops count), a bridge, or a vertex."""
    dec = block_decomposition(g)
    return all(len(b.edges) <= 1 or b.is_cycle for b in dec.blocks)


def is_contrabalanced(g: SignedGraph) -> bool:
    """True iff the graph has no positive cycle: it must be a cactus forest
    whose cycle blocks are all negative."""
    dec = block_decomposition(g)
    for b in dec.blocks:
        if not b.is_cycle:
            if len(b.edges) > 1:
                return False
            continue
        sign = 1
        for eid in b.edges:
            sign *= g.edges[eid].sign
        if sign == +1:
            return False
    return True


@dataclass(frozen=True)
class Theta:
    """Three internally disjoint chains sharing both endpoints, each listed
    in order from the first endpoint to the second."""

    endpoints: tuple[int, int]
    chains: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def contains_theta(g: SignedGraph) -> Optional[Theta]:
    """A theta subgraph if one exists (the witness that g is not a cactus)."""
    dec = block_decomposition(g)
    for b in dec.blocks:
        if len(b.edges) > len(b.vertices):
            return _extract_theta(g, b)
    return None


def _extract_theta(g: SignedGraph, block: Block) -> Theta:
    """A theta from two fundamental cycles of the block that share a tree edge.

    Walking up the spine from each non-tree edge of the block, each tree edge
    is claimed by the first edge to reach it; the first walk to reach a
    claimed edge ends the search, so every earlier walk claimed its whole
    tree path.  Two consecutive tree edges of a block lie on one fundamental
    cycle (Tarjan 1972), so without a clash the block's tree would be one
    vertical path under one non-tree edge: a block with more edges than
    vertices always clashes.  The vertex `bottom` below the claimed edge and
    the deeper ancestor end `top` bound the tree path the two fundamental
    cycles share; the rest of each cycle is a chain from bottom to top, and
    their parts below bottom are disjoint, as no tree edge there was claimed
    twice."""
    sp = g.spine
    claimed: dict[int, tuple[int, int, int]] = {}
    for edge in sp.nontree:
        eid, v, a = edge
        if eid not in block.edges:
            continue
        while v != a:
            t = sp.parent_edge[v]
            if t in claimed:
                first = claimed[t]
                top = max(first[2], a, key=sp.depth.__getitem__)
                chains = (sp.tree_path(v, top), _around(sp, first, v, top), _around(sp, edge, v, top))
                return Theta((v, top), chains)
            claimed[t] = edge
            v = sp.parent[v]
    raise AssertionError("a block with more edges than vertices must hold a theta")


def _around(sp: _Spine, edge: tuple[int, int, int], bottom: int, top: int) -> tuple[int, ...]:
    """The fundamental cycle of the non-tree edge (id, descendant end d,
    ancestor end a) less its tree path from bottom up to top, in order: from
    bottom down to d, across the edge, and from a down to top."""
    eid, d, a = edge
    return sp.tree_path(d, bottom)[::-1] + (eid,) + sp.tree_path(top, a)[::-1]


class HypercyclicKind(str, Enum):
    DISJOINT_ARMS = "disjoint-arms"
    SHARED_ARM = "shared-arm"
    NOT_HYPERCYCLIC = "not-hypercyclic"


@dataclass(frozen=True)
class HypercyclicVerdict:
    kind: HypercyclicKind
    cycle: Optional[frozenset[int]] = None
    arm_from_start: frozenset[int] = frozenset()
    arm_from_end: frozenset[int] = frozenset()
    shared_segment: frozenset[int] = frozenset()


_NOT = HypercyclicVerdict(HypercyclicKind.NOT_HYPERCYCLIC)


def classify_hypercyclic(g: SignedGraph, w: Walk) -> HypercyclicVerdict:
    """Decide whether the walk is a minimal chain whose graph contains a
    (necessarily unique) negative cycle, and report its shape.

    Shape requirements: a single negative cycle, arms from both walk
    endpoints meeting the cycle at one common vertex, cycle edges traversed
    once, shared arm edges twice, other arm edges once.

    The walk's edges form a connected graph on the vertices it visits, so
    they hold exactly one cycle iff there are as many edges as vertices.  That
    cycle is what is left once pendant edges are pruned one by one; each
    pruned vertex keeps its edge toward the cycle, and the arms follow those
    edges.  No cycle is enumerated: O(length of the walk).
    """
    seq = w.vertex_sequence(g)  # raises InvalidWalk on bad input
    used = Counter(eid for eid, _ in w.steps)
    if len(used) != len(set(seq)):
        return _NOT
    incident: dict[int, set[int]] = {v: set() for v in seq}
    for eid in used:
        incident[g.edges[eid].u].add(eid)
        incident[g.edges[eid].v].add(eid)
    toward: dict[int, tuple[int, int]] = {}  # pruned vertex -> (edge, next vertex)
    pendant = [v for v, es in incident.items() if len(es) == 1]
    while pendant:
        v = pendant.pop()
        (eid,) = incident[v]
        nxt = g.edges[eid].other(v)
        if nxt == v:
            continue  # a lone loop is the cycle
        toward[v] = (eid, nxt)
        incident[nxt].discard(eid)
        if len(incident[nxt]) == 1:
            pendant.append(nxt)
    cyc = frozenset(used.keys() - {eid for eid, _ in toward.values()})
    sign = 1
    for eid in cyc:
        sign *= g.edges[eid].sign
    if sign != -1 or any(used[eid] != 1 for eid in cyc):
        return _NOT

    def arm(v: int) -> set[int]:
        out = set()
        while v in toward:
            eid, v = toward[v]
            out.add(eid)
        return out

    px, py = arm(w.start), arm(seq[-1])
    shared = px & py
    if len(px | py) != len(toward):
        return _NOT
    # with these multiplicities both arms reach the cycle at one vertex: a
    # second one would meet an odd number of the walk's steps, as only the
    # walk's two ends do
    for eid in px | py:
        if used[eid] != (2 if eid in shared else 1):
            return _NOT
    kind = HypercyclicKind.SHARED_ARM if shared else HypercyclicKind.DISJOINT_ARMS
    return HypercyclicVerdict(
        kind, cyc, frozenset(px - shared), frozenset(py - shared), frozenset(shared)
    )
