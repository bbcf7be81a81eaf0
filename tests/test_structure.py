"""Blocks, cores, necklaces, cactus recognition, thetas, hypercyclic chains."""

import random
from collections import Counter, deque
from itertools import chain

import pytest
from hypothesis import given

from signedconn import (
    HypercyclicKind,
    HypercyclicVerdict,
    NotABlock,
    SignedGraph,
    balancing_vertices,
    Walk,
    block_decomposition,
    classify_hypercyclic,
    contains_theta,
    detect_necklace,
    is_cactus_forest,
    is_contrabalanced,
    oracle,
    walk_sign,
)
from signedconn import _cycles, structure
from signedconn.cli import build_report
from signedconn.io import fixture, fixtures

from conftest import complete_with_two_negative_edges, edge_adjacency, fresh_copy, graphs, no_enumeration

K4 = SignedGraph.from_triples(
    4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)]
)


class TestBlockDecomposition:
    def test_loose_pair(self):
        dec = block_decomposition(fixture("LOOSE"))
        assert {b.edges for b in dec.blocks} == {
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
            frozenset({6}),
        }
        assert dec.articulation_vertices == frozenset({0, 3})
        assert all(b.inner for b in dec.blocks)
        assert len(dec.cores) == 1 and dec.cores[0].edges == frozenset(range(7))

    def test_digon_is_one_unbalanced_block(self):
        dec = block_decomposition(fixture("NECK2"))
        assert len(dec.blocks) == 1
        block = dec.blocks[0]
        assert not block.balanced and block.inner
        assert dec.cores[0].necklace is not None

    def test_balanced_graph_has_no_core(self):
        g = SignedGraph.from_triples(
            4, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (0, 3, 1)]
        )
        dec = block_decomposition(g)
        assert {b.edges for b in dec.blocks} == {frozenset({0, 1, 2}), frozenset({3})}
        assert all(not b.inner for b in dec.blocks)
        assert dec.cores == ()

    def test_loops_and_isolated_vertices_are_blocks(self):
        g = SignedGraph.from_triples(3, [(0, 0, -1), (0, 1, 1)])
        dec = block_decomposition(g)
        assert {b.edges for b in dec.blocks} == {
            frozenset({0}),
            frozenset({1}),
            frozenset(),
        }
        assert dec.articulation_vertices == frozenset({0})

    @given(graphs())
    def test_blocks_partition_the_edges(self, g):
        dec = block_decomposition(g)
        seen = set()
        for b in dec.blocks:
            assert not (b.edges & seen)
            seen |= b.edges
        assert seen == set(range(g.m))
        for b1 in dec.blocks:
            for b2 in dec.blocks:
                if b1 is not b2:
                    assert len(b1.vertices & b2.vertices) <= 1
        in_blocks = [sum(v in b.vertices for b in dec.blocks) for v in range(g.n)]
        assert dec.articulation_vertices == {v for v in range(g.n) if in_blocks[v] >= 2}


def _inner_by_pruning(dec) -> list[bool]:
    """Reference for `Block.inner`: a block is inner iff it is unbalanced or
    lies on a block-cut-tree path between two unbalanced blocks.  Leaves of
    the block-cut tree (blocks and articulation vertices) that are not
    unbalanced blocks are pruned until none is left."""
    blocks = dec.blocks
    nodes = list(range(len(blocks))) + [("v", a) for a in dec.articulation_vertices]
    adj = {node: set() for node in nodes}
    for i, b in enumerate(blocks):
        for a in b.vertices & dec.articulation_vertices:
            adj[i].add(("v", a))
            adj[("v", a)].add(i)
    keep = {i for i, b in enumerate(blocks) if not b.balanced}
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
    return [i in alive for i in range(len(blocks))]


def _glued_multigraphs(count, seed):
    """Disjoint unions of 1-4 random pieces with loops, parallel edges and
    isolated vertices, on shuffled vertex labels."""
    rng = random.Random(seed)
    for _ in range(count):
        triples, n = [], 0
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, 5)
            for _ in range(rng.randint(0, 8)):
                u = rng.randrange(size)
                v = u if rng.random() < 0.15 else rng.randrange(size)
                triples.append((n + u, n + v, rng.choice((1, -1))))
            n += size
        label = list(range(n))
        rng.shuffle(label)
        yield SignedGraph.from_triples(n, [(label[u], label[v], s) for u, v, s in triples])


def test_inner_blocks_match_block_cut_tree_pruning():
    seen = {"balanced inner": 0, "two unbalanced components": 0}
    for g in chain(oracle.generate_signed_graphs(4, 4), _glued_multigraphs(3000, 8)):
        dec = block_decomposition(g)
        assert [b.inner for b in dec.blocks] == _inner_by_pruning(dec)
        seen["balanced inner"] += any(b.inner and b.balanced for b in dec.blocks)
        seen["two unbalanced components"] += len(dec.cores) >= 2
    assert min(seen.values()) >= 100, seen


def _eager_blocks(g):
    """The blocks as `block_decomposition` used to build them, eagerly: the
    rows of the blocks its pass opens at tree edges, one row per loop read
    off g.edges and one per isolated vertex read off the adjacency, sorted
    by (smallest vertex, smallest edge), then one `Block` per row."""
    sp = g.spine
    raw = [row for row in block_decomposition(g).rows if len(row[1]) >= 2]
    for e in g.edges:
        if e.u == e.v:
            raw.append(([e.id], [e.u], e.sign == 1, e.sign == -1, sp.comp[e.u]))
    for v in range(g.n):
        if not g.adjacency[v]:
            raw.append(([], [v], True, False, sp.comp[v]))
    raw.sort(key=lambda r: (min(r[1]), min(r[0], default=-1)))
    return tuple(
        structure.Block(frozenset(es), frozenset(vs), bal, inner, comp)
        for es, vs, bal, inner, comp in raw
    )


def test_blocks_built_on_demand_match_the_eager_construction():
    for g in chain(oracle.generate_signed_graphs(4, 4), _glued_multigraphs(3000, 8)):
        dec = block_decomposition(g)
        assert "blocks" not in vars(dec)
        assert dec.blocks == _eager_blocks(g)
        assert dec.blocks is dec.blocks
        assert len(dec.rows) == len(dec.blocks)


def _tree_with_negative_triangle(n, seed):
    rng = random.Random(seed)
    triples = [(i, rng.randrange(i), 1) for i in range(1, n)]
    c = next(v for v in range(n - 1, 0, -1) if triples[v - 1][1] > 0)
    b = triples[c - 1][1]
    return SignedGraph.from_triples(n, triples + [(triples[b - 1][1], c, -1)])


def _forest_of_unbalanced_parts(parts, size, seed):
    rng = random.Random(seed)
    triples = []
    for j in range(parts):
        off = j * size
        triples += [(off + i, off + rng.randrange(i), 1) for i in range(1, size)]
        triples += [(off, off + size - 1, -1), (off + 1, off + size - 2, 1)]
    return SignedGraph.from_triples(parts * size, triples)


def _ring_of_beads(beads, half):
    """Bead i: two arcs of `half` edges from vertex i to vertex i + 1 (mod
    beads).  Both arcs of bead 0 start with a negative edge, so every bead
    is balanced and every cycle around the ring is negative."""
    triples, nxt = [], beads
    for i in range(beads):
        for _ in range(2):
            path = [i] + list(range(nxt, nxt + half - 1)) + [(i + 1) % beads]
            nxt += half - 1
            triples += [(path[j], path[j + 1], -1 if i == j == 0 else 1) for j in range(half)]
    return SignedGraph.from_triples(nxt, triples)


@pytest.mark.parametrize(
    "g",
    [
        *fixtures().values(),
        _tree_with_negative_triangle(60, 1),
        _forest_of_unbalanced_parts(8, 7, 2),
        _ring_of_beads(6, 4),
        complete_with_two_negative_edges(8),
    ],
)
def test_report_builds_no_block(g, monkeypatch):
    """The report reads the decomposition's rows: no `Block` is made."""

    def no_block(*args, **kwargs):
        raise AssertionError("a Block was built")

    monkeypatch.setattr(structure, "Block", no_block)
    report = build_report(g)
    assert report["n"] == g.n
    assert "blocks" not in vars(block_decomposition(g))


def test_report_inputs_reach_their_cases():
    """The inputs above reach what they are named for."""
    assert len(build_report(_tree_with_negative_triangle(60, 1))["balancing_edges"]) == 3
    forest = build_report(_forest_of_unbalanced_parts(8, 7, 2))
    assert len(forest["sign_components"]) == 8 and not forest["quasibalanced"]
    ring = _ring_of_beads(6, 4)
    assert len(block_decomposition(ring).cores[0].necklace) == 6
    assert build_report(ring)["quasibalanced"]


class TestDetectNecklace:
    def test_digon(self):
        g = fixture("NECK2")
        assert detect_necklace(g, frozenset({0, 1})) == (
            frozenset({0}),
            frozenset({1}),
        )

    def test_block_given_as_a_one_shot_iterator(self):
        g = SignedGraph.from_triples(3, [(0, 1, 1), (1, 2, 1), (1, 2, -1)])
        want = (frozenset({1}), frozenset({2}))
        assert detect_necklace(g, [1, 2]) == want
        assert detect_necklace(g, iter([1, 2])) == want

    def test_unbalanced_cycle_splits_per_edge(self):
        g = fixture("T-")
        neck = detect_necklace(g, frozenset({0, 1, 2}))
        assert set(neck) == {frozenset({0}), frozenset({1}), frozenset({2})}
        # ring order starts at the smallest edge id
        assert neck[0] == frozenset({0})

    def test_tight_blocks_are_edge_necklaces(self):
        g = fixture("TIGHT")
        assert set(detect_necklace(g, frozenset({0, 1, 2}))) == {
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        }

    def test_k4_with_negative_edge(self):
        g = fixture("UK4")
        assert set(detect_necklace(g, frozenset(range(6)))) == {
            frozenset({0}),
            frozenset({1, 2, 3, 4, 5}),
        }

    def test_two_necklaces_joined_by_a_path(self):
        # the component has no balancing vertex, yet each block is a necklace
        g = SignedGraph.from_triples(
            7,
            [
                (0, 1, 1), (0, 1, 1), (1, 2, 1), (2, 0, -1),  # digon bead + 2 edges
                (2, 3, 1), (3, 4, 1),  # the path
                (4, 5, -1), (5, 6, 1), (6, 4, 1),  # negative triangle
            ],
        )
        assert detect_necklace(g, frozenset({0, 1, 2, 3})) == (
            frozenset({0, 1}),
            frozenset({2}),
            frozenset({3}),
        )
        assert detect_necklace(g, frozenset({6, 7, 8})) == (
            frozenset({6}),
            frozenset({7}),
            frozenset({8}),
        )

    def test_balanced_block_is_no_necklace(self):
        assert detect_necklace(fixture("T+"), frozenset({0, 1, 2})) is None

    def test_not_a_block(self):
        with pytest.raises(NotABlock):
            detect_necklace(fixture("LOOSE"), frozenset({0, 6}))


def _reference_necklace_constituents(g, block_edges, block_vertices, S):
    """The necklace search as it scanned every block edge for S-S edges and
    kept per-constituent neighbour sets: the reference for the search that
    reads S-S edges off S's adjacency and steps round the ring by its ends."""
    S = S.intersection(block_vertices)
    if len(S) < 2:
        return None
    groups = {}
    adjacency = edge_adjacency(g)
    for eid in block_edges:
        _, u, v, sign = g.edges[eid]
        if u in S and v in S:
            groups.setdefault((min(u, v), max(u, v), sign), set()).add(eid)
    pot = {}
    for root in block_vertices:
        if root in S or root in pot:
            continue
        pot[root] = 1
        edges, ends, stack = [], {}, [root]
        while stack:
            v = stack.pop()
            for eid, p, q, sign in adjacency[v]:
                if eid not in block_edges:
                    continue
                w = q if p == v else p
                edges.append(eid)
                if w in S:
                    ends[w] = pot[v] * sign
                elif w not in pot:
                    pot[w] = pot[v] * sign
                    stack.append(w)
        a, b = sorted(ends)
        groups.setdefault((a, b, ends[a] * ends[b]), set()).update(edges)
    if len(groups) < 2:
        return None
    constituents = [frozenset(c) for c in groups.values()]
    low = [min(c) for c in constituents]
    by_low = sorted(range(len(constituents)), key=low.__getitem__)
    if len(constituents) == 2:
        return tuple(constituents[i] for i in by_low)
    at = {}
    for i, (a, b, _) in enumerate(groups):
        at.setdefault(a, set()).add(i)
        at.setdefault(b, set()).add(i)
    nbrs = [sorted((at[a] | at[b]) - {i}) for i, (a, b, _) in enumerate(groups)]
    if any(len(nb) != 2 for nb in nbrs):
        return tuple(constituents[i] for i in by_low)
    order = [by_low[0], min(nbrs[by_low[0]], key=low.__getitem__)]
    while len(order) < len(constituents):
        here, prev = order[-1], order[-2]
        order.append(nbrs[here][0] if nbrs[here][1] == prev else nbrs[here][1])
    return tuple(constituents[i] for i in order)


def _relabelled_rings(count, seed):
    """Rings of 2-8 beads of 1-4 edges per arc, on shuffled vertex labels,
    with shuffled edges and a random switching."""
    rng = random.Random(seed)
    for _ in range(count):
        ring = _ring_of_beads(rng.randint(2, 8), rng.randint(1, 4))
        label = list(range(ring.n))
        rng.shuffle(label)
        flip = [rng.choice((1, -1)) for _ in range(ring.n)]
        triples = [(label[e.u], label[e.v], e.sign * flip[e.u] * flip[e.v]) for e in ring.edges]
        rng.shuffle(triples)
        yield SignedGraph.from_triples(ring.n, triples)


def _analyze_like_graphs():
    yield from (_tree_with_negative_triangle(n, n) for n in (100, 200, 400))
    yield from (_forest_of_unbalanced_parts(k, 10, k) for k in (20, 40, 80))
    yield from (_ring_of_beads(6, half) for half in (8, 16, 24))
    yield from (complete_with_two_negative_edges(n) for n in (8, 9, 10))


def test_necklace_search_matches_the_reference():
    """On every unbalanced block, with S taken from the block alone (as
    `detect_necklace` takes it) and from the whole graph (as the block
    decomposition does)."""
    necklaces = Counter()
    families = {
        "(4, 5)": oracle.generate_signed_graphs(4, 5),
        "random": _random_multigraphs(4000, 21),
        "rings": _relabelled_rings(300, 22),
        "analyze": _analyze_like_graphs(),
    }
    for name, family in families.items():
        for g in family:
            whole = balancing_vertices(g)
            for es, vs, balanced, _, _ in block_decomposition(g).rows:
                if balanced or len(vs) < 2:
                    continue
                es = frozenset(es)
                for S in (balancing_vertices(g.subgraph_of_edges(es)), whole):
                    got = structure._necklace_constituents(g, es, vs, S)
                    assert got == _reference_necklace_constituents(g, es, vs, S)
                    necklaces[name] += got is not None
    assert min(necklaces.values()) >= 20, necklaces


class TestContrabalance:
    def test_two_negative_triangles(self):
        assert is_contrabalanced(fixture("TIGHT"))

    def test_theta_has_a_positive_cycle(self):
        assert not is_contrabalanced(fixture("THETA"))

    def test_forest(self):
        g = SignedGraph.from_triples(4, [(0, 1, -1), (1, 2, 1), (1, 3, -1)])
        assert is_contrabalanced(g)

    def test_positive_loop(self):
        assert not is_contrabalanced(SignedGraph.from_triples(1, [(0, 0, 1)]))


class TestCactusForest:
    def test_tight_pair(self):
        assert is_cactus_forest(fixture("TIGHT"))

    def test_theta_block_is_not(self):
        assert not is_cactus_forest(fixture("THETA"))

    def test_loose_pair_with_bridge(self):
        assert is_cactus_forest(fixture("LOOSE"))


class TestContainsTheta:
    def test_theta_fixture(self):
        th = contains_theta(fixture("THETA"))
        assert th is not None
        assert set(th.endpoints) == {0, 1}
        assert {frozenset(c) for c in th.chains} == {
            frozenset({0}),
            frozenset({1, 2}),
            frozenset({3, 4}),
        }

    def test_cactus_has_none(self):
        assert contains_theta(fixture("TIGHT")) is None

    def test_k4_has_one(self):
        th = contains_theta(K4)
        assert th is not None
        a, b = th.endpoints
        # three chains, pairwise disjoint except at the two endpoints
        vertex_sets = []
        for chain in th.chains:
            vs = set()
            for eid in chain:
                vs.add(K4.edges[eid].u)
                vs.add(K4.edges[eid].v)
            assert {a, b} <= vs
            vertex_sets.append(vs - {a, b})
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (vertex_sets[i] & vertex_sets[j])


    def test_builds_no_block(self, monkeypatch):
        def no_block(*args, **kwargs):
            raise AssertionError("a Block was built")

        monkeypatch.setattr(structure, "Block", no_block)
        for g in (fixture("THETA"), fresh_copy(K4), fixture("TIGHT")):
            contains_theta(g)
            assert "blocks" not in vars(block_decomposition(g))


def _theta_by_blocks(g):
    """`contains_theta` as it read the decomposition's `Block`s: the
    reference for the one that reads its rows."""
    dec = block_decomposition(g)
    for b in dec.blocks:
        if len(b.edges) > len(b.vertices):
            return structure._extract_theta(g, b.edges)
    return None


def test_theta_from_rows_is_the_theta_from_blocks():
    thetas = 0
    for g in oracle.generate_signed_graphs(4, 5):
        th = contains_theta(g)
        assert th == _theta_by_blocks(g), g
        thetas += th is not None
    assert thetas == 4_272
    # larger graphs, some with several blocks to choose the theta from
    several = 0
    for g in _random_multigraphs(1000, 11):
        assert contains_theta(g) == _theta_by_blocks(g), g
        several += sum(len(b.edges) > len(b.vertices) for b in block_decomposition(g).blocks) > 1
    assert several >= 25


def _assert_valid_theta(g, th):
    """Three edge-disjoint paths from one endpoint to the other whose inner
    vertices are pairwise disjoint and avoid both endpoints."""
    a, b = th.endpoints
    assert a != b
    inner_sets = []
    for chain in th.chains:
        at, seen = a, [a]
        for eid in chain:
            e = g.edges[eid]
            assert at in (e.u, e.v) and e.u != e.v
            at = e.other(at)
            seen.append(at)
        assert at == b and len(set(seen)) == len(seen)
        inner_sets.append(set(seen[1:-1]))
    assert len(set().union(*map(set, th.chains))) == sum(map(len, th.chains))
    for i in range(3):
        for j in range(i + 1, 3):
            assert not inner_sets[i] & inner_sets[j]


def _random_multigraphs(count, seed):
    """Up to 30 vertices and 45 edges, with loops and parallel edges."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 30)
        triples = []
        for _ in range(rng.randint(0, 45)):
            u = rng.randrange(n)
            v = u if rng.random() < 0.1 else rng.randrange(n)
            triples.append((u, v, rng.choice((1, -1))))
        yield SignedGraph.from_triples(n, triples)


@pytest.mark.parametrize(
    "inputs",
    [
        lambda: [complete_with_two_negative_edges(12)],
        lambda: [complete_with_two_negative_edges(40)],
        lambda: _random_multigraphs(3000, 10),
    ],
    ids=["12", "40", "random-multigraphs"],
)
def test_theta_in_large_complete_graph(inputs):
    """Every theta is one by definition, and there is one iff the graph is
    no cactus forest."""
    thetas = 0
    for g in inputs():
        th = contains_theta(g)
        assert (th is None) == is_cactus_forest(g), g
        if th is not None:
            _assert_valid_theta(g, th)
            thetas += 1
    assert thetas >= 1


class TestClassifyHypercyclic:
    def test_pendant_arm(self):
        g = SignedGraph.from_triples(
            4, [(0, 1, 1), (1, 2, 1), (2, 0, -1), (3, 0, 1)]
        )
        w = Walk(3, ((3, True), (0, True), (1, True), (2, True)))
        verdict = classify_hypercyclic(g, w)
        assert verdict.kind is HypercyclicKind.DISJOINT_ARMS
        assert verdict.cycle == frozenset({0, 1, 2})
        assert verdict.arm_from_start == frozenset({3})
        assert verdict.arm_from_end == frozenset()
        # the arm-free sub-walk has the opposite sign
        assert walk_sign(g, w) == -walk_sign(g, Walk(3, ((3, True),)))

    def test_bare_negative_cycle(self):
        g = fixture("T-")
        w = Walk(0, ((0, True), (1, True), (2, True)))
        verdict = classify_hypercyclic(g, w)
        assert verdict.kind is HypercyclicKind.DISJOINT_ARMS
        assert verdict.arm_from_start == verdict.arm_from_end == frozenset()

    def test_positive_cycle_is_not_hypercyclic(self):
        g = fixture("THETA")
        w = Walk(0, ((1, True), (2, True), (0, False)))
        assert (
            classify_hypercyclic(g, w).kind is HypercyclicKind.NOT_HYPERCYCLIC
        )

    def test_shared_arm(self):
        g = SignedGraph.from_triples(
            4, [(0, 1, 1), (1, 2, 1), (2, 0, -1), (0, 3, 1)]
        )
        w = Walk(
            3, ((3, False), (0, True), (1, True), (2, True), (3, True))
        )
        verdict = classify_hypercyclic(g, w)
        assert verdict.kind is HypercyclicKind.SHARED_ARM
        assert verdict.shared_segment == frozenset({3})

    def test_retraced_cycle_edge_is_not_minimal(self):
        g = fixture("T-")
        w = Walk(
            0, ((0, True), (1, True), (2, True), (0, True), (0, False))
        )
        assert (
            classify_hypercyclic(g, w).kind is HypercyclicKind.NOT_HYPERCYCLIC
        )

    @pytest.mark.parametrize("n", [12, 40])
    def test_walk_over_a_complete_graph_enumerates_no_cycle(self, n, monkeypatch):
        monkeypatch.setattr(_cycles, "iter_cycles", no_enumeration)
        g = complete_with_two_negative_edges(n)
        eid = {(e.u, e.v): e.id for e in g.edges}
        steps = []
        for u in range(n - 1):
            for v in range(u + 1, n):
                steps += [(eid[u, v], True), (eid[u, v], False)]
            steps.append((eid[u, u + 1], True))
        assert {eid for eid, _ in steps} == set(range(g.m))
        verdict = classify_hypercyclic(g, Walk(0, tuple(steps)))
        assert verdict.kind is HypercyclicKind.NOT_HYPERCYCLIC


_NOT = HypercyclicVerdict(HypercyclicKind.NOT_HYPERCYCLIC)


def _hypercyclic_by_enumeration(g, w):
    """The definition-level rule: the walk's edges hold exactly one cycle
    (taken from the oracle's subset sweep), it is negative and traversed
    once, and the other edges form a tree touching it at one vertex t, the
    union of the tree paths from both walk ends to t, with the shared edges
    traversed twice and the others once."""
    seq = w.vertex_sequence(g)
    x, y = w.start, seq[-1]
    used = Counter(eid for eid, _ in w.steps)
    cycles = oracle.brute_cycles(g, used)
    if len(cycles) != 1 or cycles[0][1] != -1:
        return _NOT
    cyc = cycles[0][0]
    if any(used[eid] != 1 for eid in cyc):
        return _NOT
    on_cycle = {g.edges[eid].u for eid in cyc} | {g.edges[eid].v for eid in cyc}
    rest = set(used) - cyc
    if not rest:
        if x != y or x not in on_cycle:
            return _NOT
        return HypercyclicVerdict(HypercyclicKind.DISJOINT_ARMS, cyc)
    adj = {}
    for eid in rest:
        e = g.edges[eid]
        if e.u == e.v:
            return _NOT
        adj.setdefault(e.u, []).append(e)
        adj.setdefault(e.v, []).append(e)
    attach = set(adj) & on_cycle
    if len(attach) != 1 or len(adj) != len(rest) + 1:
        return _NOT
    t = attach.pop()
    parent = {t: (-1, -1)}
    queue = deque([t])
    while queue:
        v = queue.popleft()
        for e in adj[v]:
            u = e.other(v)
            if u in parent:
                continue
            if u in on_cycle:
                return _NOT
            parent[u] = (v, e.id)
            queue.append(u)
    if len(parent) != len(adj) or x not in parent or y not in parent:
        return _NOT

    def path_to_t(v):
        out = set()
        while v != t:
            v, eid = parent[v]
            out.add(eid)
        return out

    px, py = path_to_t(x), path_to_t(y)
    shared = px & py
    if px | py != rest or any(used[eid] != (2 if eid in shared else 1) for eid in rest):
        return _NOT
    kind = HypercyclicKind.SHARED_ARM if shared else HypercyclicKind.DISJOINT_ARMS
    return HypercyclicVerdict(kind, cyc, frozenset(px - shared), frozenset(py - shared), frozenset(shared))


def test_hypercyclic_matches_cycle_enumeration():
    """Seeded random walks of 0-9 steps on random graphs with n <= 7 and
    m <= 10, loops and parallel edges included.  With probability 0.3 a step
    goes back over the edge that first led to the current vertex, so walks
    that return along their arm occur."""
    rng = random.Random(17)
    kinds = Counter()
    for _ in range(2000):
        n = rng.randint(1, 7)
        triples = []
        for _ in range(rng.randint(1, 10)):
            u = rng.randrange(n)
            v = u if rng.random() < 0.1 else rng.randrange(n)
            triples.append((u, v, rng.choice((1, -1))))
        g = SignedGraph.from_triples(n, triples)
        adjacency = edge_adjacency(g)
        for _ in range(10):
            start = at = rng.randrange(n)
            came = {start: None}
            steps = []
            for _ in range(rng.randint(0, 9)):
                if came[at] is not None and rng.random() < 0.3:
                    e = came[at]
                elif adjacency[at]:
                    e = rng.choice(adjacency[at])
                else:
                    break
                steps.append((e.id, e.u == at))
                at = e.other(at)
                came.setdefault(at, e)
            w = Walk(start, tuple(steps))
            verdict = classify_hypercyclic(g, w)
            assert verdict == _hypercyclic_by_enumeration(g, w), (g, w)
            kinds[verdict.kind] += 1
    assert all(kinds[kind] >= 10 for kind in HypercyclicKind), kinds
