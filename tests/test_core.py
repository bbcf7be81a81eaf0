"""Graph primitives: edges, the spine, walks, switching, sign reachability off the
spine, and chains of a given sign from a walk over the signed double cover."""

import pytest
from hypothesis import given, strategies as st

from signedconn import (
    Edge,
    InvalidWalk,
    SignedGraph,
    VertexOutOfRange,
    Walk,
    chain_with_sign,
    connected_components,
    sign_reachability,
    switch,
    walk_sign,
    witness_chains,
)
from signedconn.io import fixture

from conftest import graphs


class TestEdge:
    def test_assigning_an_attribute_raises(self):
        e = Edge(0, 0, 1, -1)
        for attr in ("id", "u", "v", "sign", "weight"):
            with pytest.raises(AttributeError):
                setattr(e, attr, 1)
        assert e == Edge(0, 0, 1, -1)

    def test_other_equality_and_hashing(self):
        e = Edge(3, 1, 2, +1)
        assert (e.other(1), e.other(2)) == (2, 1)
        assert Edge(4, 2, 2, -1).other(2) == 2
        same = Edge(3, 1, 2, +1)
        assert e == same and e is not same and hash(e) == hash(same)
        assert len({e, same, Edge(3, 1, 2, -1)}) == 2
        # a named tuple: it equals and unpacks as the plain (id, u, v, sign)
        assert e == (3, 1, 2, +1)
        eid, u, v, sign = e
        assert (eid, u, v, sign) == (3, 1, 2, +1)

    def test_from_triples_numbers_edges_densely(self):
        g = SignedGraph.from_triples(3, [(0, 1, 1), (2, 2, -1)])
        assert g.edges == (Edge(0, 0, 1, 1), Edge(1, 2, 2, -1))
        assert all(type(e) is Edge for e in g.edges)

    def test_graphs_are_built_from_triples_alone(self):
        with pytest.raises(TypeError):
            SignedGraph(3, [Edge(0, 0, 1, 1), Edge(1, 1, 2, -1)])

    @pytest.mark.parametrize(
        "triples, error",
        [
            ([(0, 3, 1)], VertexOutOfRange),
            ([(-1, 1, 1)], VertexOutOfRange),
            ([(0, 1, 0)], ValueError),
            ([(0, 1, 2)], ValueError),
        ],
        ids=["end past n", "negative end", "zero sign", "sign 2"],
    )
    def test_from_triples_rejects_values_out_of_range(self, triples, error):
        with pytest.raises(error):
            SignedGraph.from_triples(3, triples)

    @pytest.mark.parametrize(
        "n, triples, error",
        [
            (2, [(0.5, 1, 1)], VertexOutOfRange),
            (2, [(0, 1.0, 1)], VertexOutOfRange),
            (2, [(True, 1, 1)], VertexOutOfRange),
            (2.0, [(0, 1, 1)], VertexOutOfRange),
            (True, [], VertexOutOfRange),
            (-1, [], VertexOutOfRange),
            (2, [(0, 1, 1.0)], ValueError),
            (2, [(0, 1, True)], ValueError),
            (2, [(0, 1, -1.0)], ValueError),
        ],
        ids=["float vertex", "float end", "bool vertex", "float n", "bool n", "negative n",
             "float sign", "bool sign", "float negative sign"],
    )
    def test_values_that_are_not_ints_are_rejected_when_the_graph_is_built(self, n, triples, error):
        """Each value is checked once, when the graph is built: a vertex in
        range but not an int used to pass and fail later, in the adjacency,
        with a bare TypeError."""
        with pytest.raises(error):
            SignedGraph.from_triples(n, triples)


class TestWalkSign:
    def test_two_positive_steps(self):
        g = fixture("T-")
        w = Walk(0, ((0, True), (1, True)))
        assert w.vertex_sequence(g) == [0, 1, 2]
        assert walk_sign(g, w) == +1

    def test_single_negative_edge(self):
        g = fixture("T-")
        w = Walk(0, ((2, False),))  # edge (2,0,-) traversed 0 -> 2
        assert w.end(g) == 2
        assert walk_sign(g, w) == -1

    def test_closed_triangle_walk(self):
        g = fixture("T-")
        w = Walk(0, ((0, True), (1, True), (2, True)))
        assert w.end(g) == 0
        assert walk_sign(g, w) == -1

    def test_empty_walk_is_positive(self):
        assert walk_sign(fixture("T-"), Walk(1, ())) == +1

    def test_inconsistent_walk_raises(self):
        g = fixture("T-")
        with pytest.raises(InvalidWalk):
            walk_sign(g, Walk(0, ((1, True),)))  # edge (1,2) does not start at 0


class TestSwitch:
    def test_switch_one_vertex(self):
        g = switch(fixture("T-"), {2})
        assert [e.sign for e in g.edges] == [+1, -1, +1]

    def test_empty_set_is_identity(self):
        g = fixture("TIGHT")
        assert switch(g, set()) == g

    def test_loop_never_changes(self):
        g = switch(fixture("NEGLOOP"), {0})
        assert g.edges[0].sign == -1

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            switch(fixture("P2"), {5})

    @given(graphs(), st.data())
    def test_switching_is_an_involution(self, g, data):
        w = data.draw(st.sets(st.integers(0, g.n - 1)))
        assert switch(switch(g, w), w) == g

    @given(graphs(), st.data())
    def test_full_vertex_set_is_identity(self, g, data):
        assert switch(g, range(g.n)) == g

    @given(graphs(4, 5), st.data())
    def test_closed_walk_signs_invariant(self, g, data):
        w = data.draw(st.sets(st.integers(0, g.n - 1)))
        h = switch(g, w)
        # every closed walk keeps its sign after switching
        for x in range(g.n):
            walk = chain_with_sign(g, x, x, -1)
            if walk is not None:
                assert walk_sign(h, walk) == -1


class TestSignReachability:
    def test_unbalanced_triangle_reaches_both_signs(self):
        reach = sign_reachability(fixture("T-"), 0)
        assert all(reach[v] == frozenset({+1, -1}) for v in range(3))

    def test_balanced_positive_graph_is_single_signed(self):
        reach = sign_reachability(fixture("T+"), 0)
        assert all(reach[v] == frozenset({+1}) for v in range(3))

    def test_single_negative_edge(self):
        reach = sign_reachability(fixture("N2"), 0)
        assert reach[0] == frozenset({+1})
        assert reach[1] == frozenset({-1})

    # a sign is checked as an edge sign is: the int +1 or -1, so neither
    # True nor a float passes
    @pytest.mark.parametrize("sign", [0, 2, "+", "-", None, True, 1.0, -1.0])
    def test_chain_sign_must_be_plus_or_minus_one(self, sign):
        with pytest.raises(ValueError):
            chain_with_sign(fixture("N2"), 0, 1, sign)

    def test_chain_to_an_out_of_range_vertex(self):
        with pytest.raises(VertexOutOfRange):
            chain_with_sign(fixture("N2"), 0, 2, +1)

    @given(graphs(4, 5))
    def test_chains_match_reachability(self, g):
        for x in range(g.n):
            reach = sign_reachability(g, x)
            for y in range(g.n):
                for sign in (+1, -1):
                    walk = chain_with_sign(g, x, y, sign)
                    if sign in reach[y]:
                        assert walk is not None
                        assert walk.start == x and walk.end(g) == y
                        assert walk_sign(g, walk) == sign
                        assert len(walk) <= 2 * g.n - 1
                    else:
                        assert walk is None


class TestVertexArguments:
    """A vertex argument is checked as a vertex of `from_triples` is: an int
    in 0..n-1, so `True` and floats are refused before any work."""

    @pytest.mark.parametrize("x", [True, 0.5, 1.0], ids=["bool", "float", "whole float"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda g, x: sign_reachability(g, x),
            lambda g, x: chain_with_sign(g, x, 2, -1),
            lambda g, x: chain_with_sign(g, 0, x, -1),
            lambda g, x: switch(g, [x]),
            lambda g, x: witness_chains(g, x, 2),
            lambda g, x: witness_chains(g, 0, x),
            lambda g, x: Walk(x, ()).vertex_sequence(g),
        ],
        ids=["reachability", "chain start", "chain end", "switch", "witness start",
             "witness end", "walk start"],
    )
    def test_a_vertex_that_is_not_an_int_is_refused(self, call, x):
        with pytest.raises(VertexOutOfRange):
            call(fixture("T-"), x)


class TestGraphBasics:
    def test_components_ordered_by_smallest_vertex(self):
        g = SignedGraph.from_triples(5, [(3, 4, 1), (0, 1, -1)])
        assert connected_components(g) == [
            frozenset({0, 1}),
            frozenset({2}),
            frozenset({3, 4}),
        ]

    def test_subgraph_keeps_vertex_set(self):
        g = fixture("LOOSE").subgraph_of_edges([0, 1, 2])
        assert g.n == 6 and g.m == 3


class TestSpine:
    def test_computed_once_per_graph(self):
        g = fixture("LOOSE")
        assert g.spine is g.spine

    def test_derived_graphs_get_their_own(self):
        g = fixture("T-")
        without = g.subgraph_of_edges([0, 1])
        switched = switch(g, [0])
        assert without.spine is not g.spine and switched.spine is not g.spine
        assert g.spine.frustrated and not without.spine.frustrated
        assert switched.spine.pot == [1, -1, -1] and g.spine.pot == [1, 1, 1]
