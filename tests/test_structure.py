"""Blocks, cores, necklaces, cactus recognition, thetas, hypercyclic chains."""

import pytest
from hypothesis import given

from signedconn import (
    HypercyclicKind,
    NotABlock,
    SignedGraph,
    Walk,
    block_decomposition,
    classify_hypercyclic,
    contains_theta,
    detect_necklace,
    is_cactus_forest,
    is_contrabalanced,
    walk_sign,
)
from signedconn.io import fixture

from conftest import complete_with_two_negative_edges, graphs

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


class TestDetectNecklace:
    def test_digon(self):
        g = fixture("NECK2")
        assert detect_necklace(g, frozenset({0, 1})) == (
            frozenset({0}),
            frozenset({1}),
        )

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


@pytest.mark.parametrize("n", [12, 40])
def test_theta_in_large_complete_graph(n):
    g = complete_with_two_negative_edges(n)
    _assert_valid_theta(g, contains_theta(g))


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
