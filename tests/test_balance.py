"""Balance, Harary bipartitions, balancing edges and vertices."""

from hypothesis import given

from signedconn import (
    SignedGraph,
    balancing_edges,
    balancing_vertices,
    harary_bipartition,
    is_balanced,
    switch,
)
from signedconn.io import fixture

from conftest import graphs


class TestIsBalanced:
    def test_all_positive(self):
        assert is_balanced(fixture("T+"))

    def test_one_negative_triangle_edge(self):
        assert not is_balanced(fixture("T-"))

    def test_negative_loop(self):
        assert not is_balanced(fixture("NEGLOOP"))

    def test_forest_is_balanced(self):
        assert is_balanced(SignedGraph.from_triples(3, [(0, 1, -1), (1, 2, -1)]))

    @given(graphs())
    def test_switching_preserves_balance(self, g):
        assert is_balanced(g) == is_balanced(switch(g, {0}))


class TestHararyBipartition:
    def test_all_positive_needs_no_switch(self):
        bip = harary_bipartition(fixture("T+"))
        assert bip.per_component == (frozenset(),)
        assert bip.switched == frozenset()

    def test_single_negative_edge(self):
        bip = harary_bipartition(fixture("N2"))
        assert bip.switched == frozenset({1})

    def test_unbalanced_graph_has_none(self):
        assert harary_bipartition(fixture("T-")) is None

    @given(graphs())
    def test_switching_the_sides_makes_all_positive(self, g):
        bip = harary_bipartition(g)
        if bip is None:
            assert not is_balanced(g)
        else:
            switched = switch(g, bip.switched)
            assert all(e.sign == +1 for e in switched.edges)


class TestBalancingEdges:
    def test_every_triangle_edge_balances(self):
        assert balancing_edges(fixture("T-")) == frozenset({0, 1, 2})

    def test_two_negative_triangles_have_none(self):
        assert balancing_edges(fixture("TIGHT")) == frozenset()

    def test_balanced_graph_has_none(self):
        assert balancing_edges(fixture("T+")) == frozenset()

    def test_bridge_of_loose_pair(self):
        assert balancing_edges(fixture("LOOSE")) == frozenset()


class TestBalancingVertices:
    def test_triangle(self):
        assert balancing_vertices(fixture("T-")) == frozenset({0, 1, 2})

    def test_k4_with_one_negative_edge(self):
        assert balancing_vertices(fixture("UK4")) == frozenset({0, 1})

    def test_loose_handcuff_graph_has_none(self):
        assert balancing_vertices(fixture("LOOSE")) == frozenset()

    def test_shared_handcuff_vertex(self):
        assert balancing_vertices(fixture("TIGHT")) == frozenset({0})

