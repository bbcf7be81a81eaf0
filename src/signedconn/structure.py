"""Block-level structure: blocks, cores, unbalanced necklaces, contrabalanced
cactus recognition, theta detection, and hypercyclic-chain classification."""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import _cycles
from .balance import balancing_vertices
from .core import SignedGraph, Walk, _vertex_set
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

    @property
    def is_bridge(self) -> bool:
        return len(self.edges) == 1 and len(self.vertices) == 2


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

    def bridges(self) -> frozenset[int]:
        return frozenset(
            next(iter(b.edges)) for b in self.blocks if b.is_bridge
        )


def _biconnected_edge_groups(g: SignedGraph) -> list[list[int]]:
    """Edge id groups of the biconnected components (loops excluded), read
    off the spine.

    The tree edge into c opens a new group when no non-tree edge leaves the
    subtree of c above its parent; otherwise it joins the group of the tree
    edge into the parent.  A non-tree edge closes a cycle with the tree edge
    into its descendant end, so it joins that edge's group.
    """
    sp = g.spine
    group_of = [-1] * len(sp.comp)
    groups: list[list[int]] = []
    for c in sp.order:
        p = sp.parent[c]
        if p < 0:
            continue
        if sp.low[c] >= sp.disc[p]:
            group_of[c] = len(groups)
            groups.append([])
        else:
            group_of[c] = group_of[p]
        groups[group_of[c]].append(sp.parent_edge[c])
    for eid, d, a in sp.nontree:
        if d != a:
            groups[group_of[d]].append(eid)
    return groups


def block_decomposition(g: SignedGraph) -> BlockDecomposition:
    """Blocks, articulation vertices and the core of every unbalanced
    component.  Computed once per graph object and kept on it: the graph is
    immutable, so the result lives and dies with it, like `adjacency`."""
    memo = vars(g)
    if "_block_decomposition" in memo:
        return memo["_block_decomposition"]
    sp = g.spine

    raw: list[tuple[frozenset[int], frozenset[int]]] = [
        (frozenset(group), frozenset(_vertex_set(g, group)))
        for group in _biconnected_edge_groups(g)
    ]
    for e in g.edges:
        if e.u == e.v:
            raw.append((frozenset([e.id]), frozenset([e.u])))
    for v in range(g.n):
        if not g.adjacency[v]:
            raw.append((frozenset(), frozenset([v])))
    raw.sort(key=lambda bv: (min(bv[1]), sorted(bv[0])))

    # a loop is a block of its own, so its vertex lies in a second block as
    # soon as it has another incident edge
    articulation = sp.cut_vertices() | {
        e.u for e in g.edges if e.u == e.v and len(g.adjacency[e.u]) >= 2
    }

    # the tree path between two vertices of a block stays in the block, so a
    # block is balanced iff it holds no frustrated edge
    frustrated = {eid for eid, _, _ in sp.frustrated}
    balanced_flags = [frustrated.isdisjoint(edges) for edges, _ in raw]
    inner_flags = _inner_blocks(raw, balanced_flags, articulation)

    blocks = tuple(
        Block(edges, verts, bal, inner, sp.comp[min(verts)])
        for (edges, verts), bal, inner in zip(raw, balanced_flags, inner_flags)
    )

    inner_by_comp: list[list[Block]] = [[] for _ in sp.comp_frustrated]
    for b in blocks:
        if b.inner:
            inner_by_comp[b.component].append(b)
    cores = []
    S: Optional[frozenset[int]] = None
    for i, inner in enumerate(inner_by_comp):
        if not sp.comp_frustrated[i]:
            continue
        edges: set[int] = set()
        for b in inner:
            edges |= b.edges
        necklace = None
        if len(inner) == 1:
            # the lone unbalanced block of its component: every cycle lies in
            # one block, so the component's balancing vertices are the block's
            if S is None:
                S = balancing_vertices(g)
            necklace = _necklace_constituents(g, inner[0], S)
        cores.append(Core(i, frozenset(edges), necklace))

    memo["_block_decomposition"] = BlockDecomposition(blocks, articulation, tuple(cores))
    return memo["_block_decomposition"]


def _inner_blocks(raw, balanced_flags, articulation) -> list[bool]:
    """A block is inner iff it is unbalanced or lies on a block-cut-tree path
    between two unbalanced blocks."""
    n_blocks = len(raw)
    # block-cut tree: nodes = blocks and articulation vertices
    nodes = list(range(n_blocks)) + [("v", a) for a in articulation]
    adj = {node: set() for node in nodes}
    for i, (_, verts) in enumerate(raw):
        for a in verts & articulation:
            adj[i].add(("v", a))
            adj[("v", a)].add(i)

    keep = {i for i in range(n_blocks) if not balanced_flags[i]}
    alive = set(nodes)
    degree = {node: len(adj[node]) for node in nodes}
    leaves = deque(node for node in nodes if degree[node] <= 1 and node not in keep)
    while leaves:
        node = leaves.popleft()
        if node not in alive:
            continue
        alive.discard(node)
        for nb in adj[node]:
            if nb in alive:
                degree[nb] -= 1
                if degree[nb] <= 1 and nb not in keep:
                    leaves.append(nb)
    return [i in alive for i in range(n_blocks)]


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
    return _ring_order(g, [frozenset(c) for c in groups.values()])


def _ring_order(
    g: SignedGraph, constituents: list[frozenset[int]]
) -> tuple[frozenset[int], ...]:
    """Order necklace constituents cyclically, starting at the one holding the
    smallest edge id and moving toward the smaller-id neighbor."""
    if len(constituents) == 2:
        return tuple(sorted(constituents, key=min))
    verts = [_vertex_set(g, c) for c in constituents]
    k = len(constituents)
    nbrs: list[list[int]] = [[] for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if verts[i] & verts[j]:
                nbrs[i].append(j)
                nbrs[j].append(i)
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
    """Three internally disjoint chains sharing both endpoints."""

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
    """A theta on the fundamental cycle of the block's first non-tree edge
    (the tree path from its descendant end up to its ancestor end, plus the
    edge) and an ear of the block leaving that cycle."""
    sp = g.spine
    eid, v, top = next(t for t in sp.nontree if t[0] in block.edges)
    cyc = {eid}
    while v != top:
        cyc.add(sp.parent_edge[v])
        v = sp.parent[v]
    vc = _vertex_set(g, cyc)
    extra = block.edges - cyc

    ear: Optional[list[int]] = None
    ends: Optional[tuple[int, int]] = None
    for eid in sorted(extra):
        e = g.edges[eid]
        if e.u in vc and e.v in vc and e.u != e.v:
            ear = [eid]
            ends = (e.u, e.v)
            break
    if ear is None:
        adj: dict[int, list] = {}
        for eid in extra:
            e = g.edges[eid]
            adj.setdefault(e.u, []).append(e)
            adj.setdefault(e.v, []).append(e)
        for a in sorted(vc):
            parent: dict[int, tuple[int, int]] = {a: (-1, -1)}
            queue = deque([a])
            hit = None
            while queue and hit is None:
                v = queue.popleft()
                for e in adj.get(v, []):
                    w = e.other(v)
                    if w in parent:
                        continue
                    parent[w] = (v, e.id)
                    if w in vc and w != a:
                        hit = w
                        break
                    if w not in vc:
                        queue.append(w)
            if hit is not None:
                path = []
                v = hit
                while parent[v] != (-1, -1):
                    pv, eid = parent[v]
                    path.append(eid)
                    v = pv
                path.reverse()
                ear = path
                ends = (a, hit)
                break
    assert ear is not None and ends is not None, "2-connected block with extra edges must carry an ear"

    a, b = ends
    arc1, arc2 = _cycle_arcs(g, cyc, a, b)
    return Theta((a, b), (tuple(ear), tuple(arc1), tuple(arc2)))


def _cycle_arcs(g: SignedGraph, cyc: set[int], a: int, b: int):
    """Split an elementary cycle into its two arcs between vertices a and b."""
    adj: dict[int, list] = {}
    for eid in cyc:
        e = g.edges[eid]
        adj.setdefault(e.u, []).append(e)
        adj.setdefault(e.v, []).append(e)
    first, second = adj[a][0], adj[a][1]
    arcs = []
    for start_edge in (first, second):
        arc = [start_edge.id]
        prev_v = a
        v = start_edge.other(a)
        while v != b:
            e1, e2 = adj[v]
            nxt = e2 if arc[-1] == e1.id else e1
            arc.append(nxt.id)
            v = nxt.other(v)
        arcs.append(arc)
    return arcs[0], arcs[1]


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
    """
    seq = w.vertex_sequence(g)  # raises InvalidWalk on bad input
    x, y = w.start, seq[-1]
    used = Counter(eid for eid, _ in w.steps)
    support = set(used)

    cycles = _cycles.elementary_cycles(g, support)
    if len(cycles) != 1 or cycles[0][1] != -1:
        return _NOT
    cyc = cycles[0][0]
    if any(used[eid] != 1 for eid in cyc):
        return _NOT
    vc = _vertex_set(g, cyc)

    rest = support - cyc
    if not rest:
        if x != y or x not in vc:
            return _NOT
        return HypercyclicVerdict(HypercyclicKind.DISJOINT_ARMS, cyc)

    # the remaining edges must form a tree touching the cycle at one vertex
    rest_adj: dict[int, list] = {}
    for eid in rest:
        e = g.edges[eid]
        if e.u == e.v:
            return _NOT
        rest_adj.setdefault(e.u, []).append(e)
        rest_adj.setdefault(e.v, []).append(e)
    attach = set(rest_adj) & vc
    if len(attach) != 1:
        return _NOT
    t = attach.pop()
    if len(rest_adj) != len(rest) + 1:
        return _NOT  # not a tree

    parent: dict[int, tuple[int, int]] = {t: (-1, -1)}
    queue = deque([t])
    while queue:
        v = queue.popleft()
        for e in rest_adj[v]:
            wv = e.other(v)
            if wv not in parent:
                parent[wv] = (v, e.id)
                if wv not in vc:
                    queue.append(wv)
                else:
                    return _NOT  # touches the cycle twice
    if len(parent) != len(rest_adj):
        return _NOT  # disconnected remainder

    def path_to_t(v: int) -> Optional[set[int]]:
        if v == t:
            return set()
        if v not in parent:
            return None
        out = set()
        while v != t:
            pv, eid = parent[v]
            out.add(eid)
            v = pv
        return out

    px = path_to_t(x)
    py = path_to_t(y)
    if px is None or py is None or px | py != rest:
        return _NOT
    shared = px & py
    for eid in rest:
        if used[eid] != (2 if eid in shared else 1):
            return _NOT
    kind = HypercyclicKind.SHARED_ARM if shared else HypercyclicKind.DISJOINT_ARMS
    return HypercyclicVerdict(
        kind, cyc, frozenset(px - shared), frozenset(py - shared), frozenset(shared)
    )
