"""Sign components, witnesses, sign isthmi/articulation/blocks, and the
positive/negative/parity connection variants."""

import pytest
from hypothesis import given

from signedconn import (
    NotSignConnected,
    PreconditionError,
    SignedGraph,
    chain_with_sign,
    is_connected,
    is_parity_connected,
    is_sign_block,
    is_sign_connected,
    negative_components,
    positive_components,
    sign_articulation_vertices,
    sign_components,
    sign_isthmi,
    walk_sign,
    witness_chains,
)
from signedconn import oracle, sign_connectivity
from signedconn.io import fixture

from conftest import graphs

K1 = SignedGraph.from_triples(1, [])


class TestSignComponents:
    def test_unbalanced_component_stays_whole(self):
        assert sign_components(fixture("T-")).classes == (frozenset({0, 1, 2}),)

    def test_balanced_component_splits_into_vertices(self):
        assert sign_components(fixture("T+")).classes == (
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        )

    def test_loose_pair_is_one_class(self):
        assert sign_components(fixture("LOOSE")).classes == (
            frozenset(range(6)),
        )

    @given(graphs())
    def test_classes_partition_the_vertices(self, g):
        part = sign_components(g)
        seen = set()
        for cls in part.classes:
            assert not (cls & seen)
            seen |= cls
        assert seen == set(range(g.n))


class TestIsSignConnected:
    def test_single_vertex(self):
        assert is_sign_connected(K1)

    def test_balanced_graph_is_not(self):
        assert not is_sign_connected(fixture("T+"))

    def test_connected_unbalanced_graph_is(self):
        assert is_sign_connected(fixture("TIGHT"))


class TestWitnessChains:
    def test_unbalanced_triangle(self):
        g = fixture("T-")
        pair = witness_chains(g, 0, 1)
        assert walk_sign(g, pair.positive) == +1
        assert walk_sign(g, pair.negative) == -1
        assert pair.positive.end(g) == 1 and pair.negative.end(g) == 1

    def test_balanced_graph_raises(self):
        with pytest.raises(NotSignConnected):
            witness_chains(fixture("T+"), 0, 1)

    def test_negative_loop_closed_chains(self):
        g = fixture("NEGLOOP")
        pair = witness_chains(g, 0, 0)
        assert len(pair.positive) == 0
        assert pair.negative.edge_ids() == [0]

    def test_equal_to_the_two_chains_of_a_sign(self):
        """Both walks come from one search; they are the walks that
        `chain_with_sign` finds for each sign on its own."""
        pairs = 0
        for g in oracle.generate_signed_graphs(4, 4):
            if not is_connected(g):
                continue
            for x in range(g.n):
                for y in range(g.n):
                    pos = chain_with_sign(g, x, y, +1)
                    neg = chain_with_sign(g, x, y, -1)
                    if pos is None or neg is None:
                        with pytest.raises(NotSignConnected):
                            witness_chains(g, x, y)
                        continue
                    assert witness_chains(g, x, y) == sign_connectivity.WitnessPair(pos, neg)
                    pairs += 1
        assert pairs > 10_000

    def test_one_search_per_call(self, monkeypatch):
        searches = []
        search = sign_connectivity._cover_search

        def counting(g, x):
            searches.append(x)
            return search(g, x)

        monkeypatch.setattr(sign_connectivity, "_cover_search", counting)
        g = fixture("TIGHT")
        for x in range(g.n):
            for y in range(g.n):
                witness_chains(g, x, y)
                assert searches == [x]
                searches.clear()
        with pytest.raises(NotSignConnected):
            witness_chains(fixture("T+"), 0, 1)
        assert searches == [0]


class TestSignIsthmi:
    def test_every_triangle_edge(self):
        assert sign_isthmi(fixture("T-")) == frozenset({0, 1, 2})

    def test_tight_pair_has_none(self):
        assert sign_isthmi(fixture("TIGHT")) == frozenset()

    def test_loose_pair_bridge_only(self):
        assert sign_isthmi(fixture("LOOSE")) == frozenset({6})

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            sign_isthmi(fixture("T+"))
        with pytest.raises(PreconditionError):
            sign_isthmi(fixture("NEGLOOP"))  # defined only for n > 1


class TestSignArticulation:
    def test_triangle(self):
        assert sign_articulation_vertices(fixture("T-")) == frozenset({0, 1, 2})

    def test_shared_handcuff_vertex(self):
        assert sign_articulation_vertices(fixture("TIGHT")) == frozenset({0})

    def test_loose_pair_bridge_ends(self):
        assert sign_articulation_vertices(fixture("LOOSE")) == frozenset({0, 3})

    def test_k4_balancing_vertices(self):
        assert sign_articulation_vertices(fixture("UK4")) == frozenset({0, 1})

    def test_single_vertex_has_none(self):
        assert sign_articulation_vertices(fixture("NEGLOOP")) == frozenset()


class TestSignBlock:
    def test_triangle_is_not(self):
        assert not is_sign_block(fixture("T-"))

    def test_k4_is_not(self):
        assert not is_sign_block(fixture("UK4"))

    def test_doubly_joined_pair_is(self):
        assert is_sign_block(fixture("DISJB"))


class TestPositiveComponents:
    def test_all_positive_component(self):
        assert positive_components(fixture("T+")).classes == (frozenset({0, 1, 2}),)

    def test_negative_edge_splits_into_sides(self):
        assert positive_components(fixture("N2")).classes == (
            frozenset({0}),
            frozenset({1}),
        )

    def test_unbalanced_component_stays_whole(self):
        assert positive_components(fixture("T-")).classes == (frozenset({0, 1, 2}),)


class TestNegativeComponents:
    def test_negative_edge_joins(self):
        assert negative_components(fixture("N2")).classes == (frozenset({0, 1}),)

    def test_all_positive_splits(self):
        assert negative_components(fixture("T+")).classes == (
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        )

    def test_unbalanced_component_stays_whole(self):
        assert negative_components(fixture("T-")).classes == (frozenset({0, 1, 2}),)


class TestParityConnection:
    def test_odd_cycle(self):
        assert is_parity_connected(fixture("C5"))

    def test_even_cycle(self):
        assert not is_parity_connected(fixture("C4"))

    def test_single_vertex(self):
        assert is_parity_connected(K1)

    @given(graphs())
    def test_signs_are_ignored(self, g):
        negative = SignedGraph.from_triples(g.n, [(e.u, e.v, -1) for e in g.edges])
        assert is_parity_connected(g) == is_parity_connected(negative)
