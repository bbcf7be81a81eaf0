"""Block-level structure: blocks, cores, unbalanced necklaces, contrabalanced
cactus recognition, theta detection, and hypercyclic-chain classification."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from .core import SignedGraph, Walk, _kept, _Spine
from .errors import NotABlock


class Block(NamedTuple):
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


class Core(NamedTuple):
    """Union of the inner blocks of one unbalanced connected component."""

    component: int
    edges: frozenset[int]
    necklace: Optional[tuple[frozenset[int], ...]]


@dataclass(frozen=True)
class BlockDecomposition:
    """The blocks as plain rows (edge list, vertex list, balanced, inner,
    component), in the order the pass finds them; `blocks` makes them
    `Block`s.  The rows' lists are the pass's own: read them, do not change
    them.  `balancing` holds, per row, the vertices whose deletion balances
    the block: none if it is balanced."""

    rows: tuple[tuple[list[int], list[int], bool, bool, int], ...] = field(hash=False)
    articulation_vertices: frozenset[int]
    cut_vertices: frozenset[int]  # those whose deletion disconnects their component
    cores: tuple[Core, ...]
    bridges: frozenset[int]  # the edges of the two-vertex blocks with one edge
    balancing: tuple[frozenset[int], ...]

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        """The blocks, ordered by smallest vertex, then smallest edge id;
        built from the rows on first access."""
        # two blocks share no edge, so this is the order of (min vertex, edges)
        rows = sorted(self.rows, key=lambda r: (min(r[1]), min(r[0], default=-1)))
        return tuple(
            Block(frozenset(es), frozenset(vs), bal, inner, comp)
            for es, vs, bal, inner, comp in rows
        )


def block_decomposition(g: SignedGraph) -> BlockDecomposition:
    """Blocks and their balancing vertices, articulation and cut vertices,
    bridges and cores.  Computed once per graph object and kept on it."""
    return _kept(g, "_block_decomposition", _block_decomposition)


def _block_decomposition(g: SignedGraph) -> BlockDecomposition:
    """The blocks in one preorder pass over the spine.

    The tree edge into c opens a new block at its parent h (the block's head)
    when no non-tree edge leaves the subtree of c above h; otherwise c joins
    the block of its parent.  A block's head is a cut vertex unless it is a
    root heading one block only: a root heads one block per child, and only
    its first child directly follows it in preorder.  A non-tree edge closes
    a cycle with the tree edge into its descendant end, so it joins that
    block, and a loop, a non-tree edge with both ends at one vertex, is a
    block of its own.  The tree path between two vertices of a block stays
    in the block, so a block is unbalanced iff a frustrated edge's
    descendant end falls in it.

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
    cut: set[int] = set()
    opened_at: list[int] = []
    edges: list[list[int]] = []
    verts: list[list[int]] = []
    for c in sp.order:
        p = sp.parent[c]
        if p < 0:
            continue
        if sp.low[c] >= sp.disc[p]:
            if sp.parent[p] >= 0 or sp.disc[c] > sp.disc[p] + 1:
                cut.add(p)
            block_of[c] = len(opened_at)
            opened_at.append(c)
            edges.append([])
            verts.append([p])
            hang[p] += below[c]
        else:
            block_of[c] = block_of[p]
        edges[block_of[c]].append(sp.parent_edge[c])
        verts[block_of[c]].append(c)
    frustrated = [0] * len(opened_at)  # per block
    rows, balancing = [], []
    articulation = set(cut)
    for eid, d, a in sp.nontree:
        if d != a:
            edges[block_of[d]].append(eid)
            frustrated[block_of[d]] += sp.pot[d] * sp.pot[a] != g._sign[eid]
            continue
        # a loop is a block of its own, so its vertex lies in a second block
        # as soon as it has another incident edge
        negative = g._sign[eid] == -1
        rows.append(([eid], [d], not negative, negative, sp.comp[d]))
        balancing.append(frozenset([d] if negative else ()))
        if len(g.adjacency[d]) >= 2:
            articulation.add(d)
    sides = [int(k[sp.comp[c]] > below[c]) for c in opened_at]
    for v in sp.order:
        if block_of[v] >= 0 and hang[v]:
            sides[block_of[v]] += 1

    rows += [
        (edges[i], verts[i], not f, bool(f) or sides[i] >= 2, sp.comp[c])
        for i, (c, f) in enumerate(zip(opened_at, frustrated))
    ]
    balancing += _balancing_by_block(g, block_of, opened_at, frustrated)
    for v in range(g.n):
        if not g.adjacency[v]:
            rows.append(([], [v], True, False, sp.comp[v]))
            balancing.append(frozenset())

    inner_by_comp: list[list[int]] = [[] for _ in k]
    for i, row in enumerate(rows):
        if row[3]:
            inner_by_comp[row[4]].append(i)
    cores = []
    for c, inner in enumerate(inner_by_comp):
        if not k[c]:
            continue
        core_edges = frozenset([eid for i in inner for eid in rows[i][0]])
        necklace = None
        if len(inner) == 1:  # the component's one unbalanced block
            necklace = _necklace_constituents(g, core_edges, rows[inner[0]][1], balancing[inner[0]])
        cores.append(Core(c, core_edges, necklace))

    bridges = frozenset(es[0] for es in edges if len(es) == 1)
    return BlockDecomposition(
        tuple(rows), frozenset(articulation), frozenset(cut), tuple(cores), bridges,
        tuple(balancing),
    )


def _balancing_by_block(
    g: SignedGraph, block_of: list[int], opened_at: list[int], frustrated: list[int]
) -> list[frozenset[int]]:
    """Per block the pass opened (given each vertex's block, that of its tree
    edge up, and the blocks' opening children and frustrated counts), the
    vertices whose deletion balances it.  Such a vertex x of B is on the
    fundamental cycle of each frustrated edge of B: through the tree edge
    above x (subtree sums of +1 at descendant ends and -1 at ancestor ends,
    which no other block's edge crosses) or as the edge's ancestor end.  The
    head h of B is on such a cycle only as its ancestor end, and B - h is a
    subtree, so h qualifies iff every one passes the tree edge that opened B.
    Deleting another candidate x frees each child subtree to be switched as
    a whole, so x qualifies iff none reaches above x by both a frustrated and
    an unfrustrated non-tree edge: per kind, a subtree minimum of depths,
    taken along unbalanced blocks, as no child of x outside B reaches above x.
    """
    sp = g.spine
    n, parent, depth = g.n, sp.parent, sp.depth
    through = [0] * n  # frustrated edges whose cycle holds the tree edge above v
    ends_at = [0] * n  # frustrated edges of v's own block with ancestor end v
    for _, d, a in sp.frustrated:
        if d != a:  # a loop is a block of its own
            through[d] += 1
            through[a] -= 1
            ends_at[a] += block_of[a] == block_of[d]
    through = sp.subtree_sums(through)
    out = [{parent[c]} if f and through[c] == f else set() for c, f in zip(opened_at, frustrated)]
    candidates = {x for x, b in enumerate(block_of) if b >= 0 and frustrated[b] == through[x] + ends_at[x] > 0}
    if candidates:
        reach = ([n] * n, [n] * n)  # least depth reached by unfrustrated, frustrated edges
        for eid, d, a in sp.nontree:  # a loop reaches no higher than its own vertex
            least = reach[sp.pot[d] * sp.pot[a] != g._sign[eid]]
            least[d] = min(least[d], depth[a])
        for v in reversed(sp.order):
            p = parent[v]
            if p >= 0 and frustrated[block_of[v]]:
                if max(reach[0][v], reach[1][v]) < depth[p]:
                    candidates.discard(p)
                for least in reach:
                    least[p] = min(least[p], least[v])
    for x in candidates:
        out[block_of[x]].add(x)
    return [frozenset(s) for s in out]


def _necklace_constituents(
    g: SignedGraph, block_edges: frozenset[int], block_vertices: Iterable[int], S: frozenset[int]
) -> Optional[tuple[frozenset[int], ...]]:
    """Finest decomposition of an unbalanced block, given by its edges and
    vertices, into >= 2 balanced blocks glued in a ring, or None if the block
    is not such a necklace.  S holds the balancing vertices of the block
    itself (vertices outside the block are ignored).

    Zaslavsky's necklace picture (Biased graphs II, 1991): every negative
    cycle passes through all of S, so with |S| >= 2 each S-bridge (a
    component of B - S with its attachment edges, or one S-S edge) attaches
    at two vertices a, b of S and is balanced with them: its a-b paths share
    one sign.  The bridges with equal {a, b} and sign form one constituent.
    """
    S = S.intersection(block_vertices)
    if len(S) < 2:
        return None
    adjacency = g.adjacency
    groups: dict[tuple, set[int]] = {}
    # an edge between two vertices of the block lies in the block, for two
    # blocks share at most one vertex; a loop is a block of its own
    for a in S:
        for eid, b, sign in adjacency[a]:
            if a < b and b in S:
                groups.setdefault((a, b, sign), set()).add(eid)
    pot: dict[int, int] = {}  # sign of a path from the bridge's root
    for root in block_vertices:
        if root in S or root in pot:
            continue
        pot[root] = 1
        bridge: set[int] = set()
        ends: dict[int, int] = {}
        stack = [root]
        while stack:
            v = stack.pop()
            for eid, w, sign in adjacency[v]:
                if eid not in block_edges:
                    continue
                bridge.add(eid)
                if w in S:
                    ends[w] = pot[v] * sign
                elif w not in pot:
                    pot[w] = pot[v] * sign
                    stack.append(w)
        a, b = sorted(ends)
        key = (a, b, ends[a] * ends[b])
        if key in groups:
            groups[key] |= bridge
        else:
            groups[key] = bridge
    if len(groups) < 2:
        return None
    return _ring_order(groups)


def _ring_order(groups: dict[tuple, set[int]]) -> tuple[frozenset[int], ...]:
    """Order necklace constituents cyclically, starting at the one holding the
    smallest edge id and moving toward the smaller-id neighbor.  Two
    constituents share only vertices of S, and those are the ends a, b of
    their keys (a, b, sign), so the ring steps from a constituent to the
    other one at its far end.  Constituents that form no single ring, each
    end shared by exactly two, keep the order of their smallest edges."""
    keys = list(groups)
    constituents = [frozenset(c) for c in groups.values()]
    low = [min(c) for c in constituents]
    k = len(constituents)
    start = min(range(k), key=low.__getitem__)
    order = [start]
    at: dict[int, list[int]] = {}
    if k > 2:
        for i, (a, b, _) in enumerate(keys):
            at.setdefault(a, []).append(i)
            at.setdefault(b, []).append(i)
    if at and all(len(ids) == 2 for ids in at.values()):
        a, b, _ = keys[start]
        via_a = at[a][at[a][0] == start]
        via_b = at[b][at[b][0] == start]
        here, end = (via_a, a) if low[via_a] < low[via_b] else (via_b, b)
        while here != start:
            order.append(here)
            a, b, _ = keys[here]
            end = b if end == a else a
            here = at[end][at[end][0] == here]
    if len(order) != k:
        order = sorted(range(k), key=low.__getitem__)
    return tuple(constituents[i] for i in order)


def detect_necklace(
    g: SignedGraph, block_edges: Iterable[int]
) -> Optional[tuple[frozenset[int], ...]]:
    """Constituents of the block, in ring order, if it is an unbalanced
    necklace of balanced blocks; None otherwise."""
    edges = frozenset(block_edges)
    dec = block_decomposition(g)
    for (es, vs, _, _, _), S in zip(dec.rows, dec.balancing):
        if es and len(es) == len(edges) and edges.issuperset(es):
            return _necklace_constituents(g, edges, vs, S)
    raise NotABlock(f"{sorted(edges)} is not a block of the graph")


def is_cactus_forest(g: SignedGraph) -> bool:
    """True iff every block is a cycle (loops count), a bridge, or a vertex."""
    for es, vs, _, _, _ in block_decomposition(g).rows:
        if len(es) > 1 and len(es) != len(vs):
            return False
    return True


def is_contrabalanced(g: SignedGraph) -> bool:
    """True iff the graph has no positive cycle: it must be a cactus forest
    whose cycle blocks (loops included) are all negative, that is unbalanced."""
    for es, vs, balanced, _, _ in block_decomposition(g).rows:
        if len(es) > len(vs) or (balanced and len(es) == len(vs)):
            return False
    return True


class Theta(NamedTuple):
    """Three internally disjoint chains sharing both endpoints, each listed
    in order from the first endpoint to the second."""

    endpoints: tuple[int, int]
    chains: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def contains_theta(g: SignedGraph) -> Optional[Theta]:
    """A theta subgraph if one exists (the witness that g is not a cactus),
    taken from the first block with more edges than vertices in the order
    of `blocks`: by smallest vertex, then smallest edge."""
    rows = [row for row in block_decomposition(g).rows if len(row[0]) > len(row[1])]
    if not rows:
        return None
    # two blocks share no edge, so no two rows tie
    es = min(rows, key=lambda r: (min(r[1]), min(r[0])))[0]
    return _extract_theta(g, frozenset(es))


def _extract_theta(g: SignedGraph, block_edges: frozenset[int]) -> Theta:
    """A theta from two fundamental cycles of the block, given by its edges,
    that share a tree edge.

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
        if eid not in block_edges:
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


class HypercyclicVerdict(NamedTuple):
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
        incident[g._u[eid]].add(eid)
        incident[g._v[eid]].add(eid)
    toward: dict[int, tuple[int, int]] = {}  # pruned vertex -> (edge, next vertex)
    pendant = [v for v, es in incident.items() if len(es) == 1]
    while pendant:
        v = pendant.pop()
        (eid,) = incident[v]
        nxt = g._v[eid] if g._u[eid] == v else g._u[eid]
        if nxt == v:
            continue  # a lone loop is the cycle
        toward[v] = (eid, nxt)
        incident[nxt].discard(eid)
        if len(incident[nxt]) == 1:
            pendant.append(nxt)
    cyc = frozenset(used.keys() - {eid for eid, _ in toward.values()})
    sign = 1
    for eid in cyc:
        sign *= g._sign[eid]
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
