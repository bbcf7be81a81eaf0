"""Frame/lift circuits, ranks, components, coloops, connection, quasibalance."""

import pytest
from hypothesis import given

from signedconn import (
    CircuitVerdict,
    CycleBudgetExceeded,
    EdgeOutOfRange,
    SignedGraph,
    classify_circuit,
    frame_components,
    frame_isthmi,
    frame_rank,
    is_frame_connected,
    is_lift_connected,
    is_quasibalanced,
    lift_components,
    lift_isthmi,
    lift_rank,
)
from signedconn.io import fixture

from conftest import graphs


class TestClassifyCircuit:
    def test_positive_cycle(self):
        cls = classify_circuit(fixture("T+"), range(3))
        assert cls.verdict is CircuitVerdict.POSITIVE_CYCLE
        assert cls.in_frame and cls.in_lift

    def test_tight_handcuff(self):
        cls = classify_circuit(fixture("TIGHT"), range(6))
        assert cls.verdict is CircuitVerdict.TIGHT_HANDCUFF
        assert cls.in_frame and cls.in_lift
        assert {frozenset(c) for c in cls.cycles} == {
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
        }

    def test_loose_handcuff_and_disjoint_pair(self):
        g = fixture("LOOSE")
        pair = classify_circuit(g, range(6))
        assert pair.verdict is CircuitVerdict.DISJOINT_PAIR
        assert not pair.in_frame and pair.in_lift
        loose = classify_circuit(g, range(7))
        assert loose.verdict is CircuitVerdict.LOOSE_HANDCUFF
        assert loose.in_frame and not loose.in_lift
        assert loose.chain == frozenset({6})

    def test_non_circuits(self):
        assert (
            classify_circuit(fixture("T+"), [0, 1]).verdict
            is CircuitVerdict.NOT_A_CIRCUIT
        )
        assert (
            classify_circuit(fixture("T-"), range(3)).verdict
            is CircuitVerdict.NOT_A_CIRCUIT
        )
        # both cycles plus extra edges is not minimal
        assert (
            classify_circuit(fixture("DISJB"), range(8)).verdict
            is CircuitVerdict.NOT_A_CIRCUIT
        )

    def test_loose_handcuff_with_a_pendant_edge(self):
        # negative loops at 0 and 1 joined by the edge 0-1, and the edge 1-2
        g = SignedGraph.from_triples(3, [(0, 0, -1), (1, 1, -1), (0, 1, 1), (1, 2, 1)])
        assert classify_circuit(g, [0, 1, 2]).chain == frozenset({2})
        assert classify_circuit(g, range(4)).verdict is CircuitVerdict.NOT_A_CIRCUIT

    def test_two_negative_loops_at_one_vertex(self):
        g = SignedGraph.from_triples(1, [(0, 0, -1), (0, 0, -1)])
        assert classify_circuit(g, [0, 1]).verdict is CircuitVerdict.TIGHT_HANDCUFF

    def test_bad_edge_id(self):
        with pytest.raises(EdgeOutOfRange):
            classify_circuit(fixture("P2"), [7])

    def test_all_edges_of_k10_is_no_circuit(self):
        # 45 edges > n + 1; enumerating the cycles of K10 would take seconds
        g = SignedGraph.from_triples(
            10, [(u, v, -1 if u == 0 else 1) for u in range(10) for v in range(u + 1, 10)]
        )
        assert classify_circuit(g, range(g.m)).verdict is CircuitVerdict.NOT_A_CIRCUIT

    def test_third_cycle_ends_the_search(self):
        # K4 (6 edges, 7 cycles) among 10 vertices: small enough for the size
        # bound, stopped by the cycle budget
        g = SignedGraph.from_triples(
            10, [(0, 1, -1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, -1)]
        )
        assert classify_circuit(g, range(6)).verdict is CircuitVerdict.NOT_A_CIRCUIT


class TestRanks:
    def test_empty_set(self):
        assert frame_rank(fixture("T-"), []) == 0
        assert lift_rank(fixture("LOOSE"), []) == 0

    def test_unbalanced_triangle_has_full_frame_rank(self):
        assert frame_rank(fixture("T-"), range(3)) == 3

    def test_balanced_triangle(self):
        assert frame_rank(fixture("T+"), range(3)) == 2
        assert lift_rank(fixture("T+"), range(3)) == 2

    def test_lift_rank_examples(self):
        assert lift_rank(fixture("T-"), range(3)) == 3
        assert lift_rank(fixture("LOOSE"), range(6)) == 5  # two triangles only
        assert lift_rank(fixture("LOOSE"), range(7)) == 6

    @given(graphs(4, 5))
    def test_frame_at_most_lift_plus_structure(self, g):
        # on the full edge set: frame rank >= lift rank, both <= n
        fr = frame_rank(g, range(g.m))
        lr = lift_rank(g, range(g.m))
        assert 0 <= lr <= fr <= g.n


class TestComponents:
    def test_loose_frame_is_one_class(self):
        part = frame_components(fixture("LOOSE"))
        assert part.classes == (frozenset(range(7)),)

    def test_loose_lift_separates_the_bridge(self):
        part = lift_components(fixture("LOOSE"))
        assert set(part.classes) == {frozenset(range(6)), frozenset({6})}

    def test_digon_necklace_splits(self):
        for fn in (frame_components, lift_components):
            assert set(fn(fixture("NECK2")).classes) == {
                frozenset({0}),
                frozenset({1}),
            }

    def test_unbalanced_triangle_splits_per_edge(self):
        assert set(frame_components(fixture("T-")).classes) == {
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        }

    def test_k4_with_negative_edge(self):
        assert set(frame_components(fixture("UK4")).classes) == {
            frozenset({0}),
            frozenset({1, 2, 3, 4, 5}),
        }

    def test_isolated_vertices_are_listed(self):
        g = SignedGraph.from_triples(3, [(0, 1, -1)])
        part = frame_components(g)
        assert part.classes == (frozenset({0}),)
        assert part.isolated_vertices == frozenset({2})


class TestIsthmi:
    def test_unbalanced_triangle_all_coloops(self):
        assert frame_isthmi(fixture("T-")) == frozenset({0, 1, 2})
        assert lift_isthmi(fixture("T-")) == frozenset({0, 1, 2})

    def test_loose_bridge_is_lift_only(self):
        assert frame_isthmi(fixture("LOOSE")) == frozenset()
        assert lift_isthmi(fixture("LOOSE")) == frozenset({6})

    def test_negative_loop_with_pendant(self):
        g = SignedGraph.from_triples(2, [(0, 0, -1), (0, 1, 1)])
        assert frame_isthmi(g) == frozenset({0, 1})
        assert lift_isthmi(g) == frozenset({0, 1})

    def test_two_unbalanced_components_kill_lift_coloops(self):
        g = SignedGraph.from_triples(2, [(0, 0, -1), (1, 1, -1)])
        assert frame_isthmi(g) == frozenset({0, 1})
        assert lift_isthmi(g) == frozenset()


class TestConnectionFlags:
    def test_tight(self):
        g = fixture("TIGHT")
        assert is_frame_connected(g) and is_lift_connected(g)

    def test_loose(self):
        g = fixture("LOOSE")
        assert is_frame_connected(g) and not is_lift_connected(g)

    def test_positive_triangle_is_one_circuit(self):
        g = fixture("T+")
        assert is_frame_connected(g) and is_lift_connected(g)

    def test_single_vertex(self):
        g = SignedGraph.from_triples(1, [])
        assert is_frame_connected(g) and is_lift_connected(g)

    def test_isolated_vertex_disconnects(self):
        g = SignedGraph.from_triples(3, [(0, 1, -1)])
        assert not is_frame_connected(g) and not is_lift_connected(g)


class TestQuasibalance:
    def test_single_negative_cycle(self):
        assert is_quasibalanced(fixture("T-"))

    def test_one_shared_vertex_is_not_enough(self):
        assert not is_quasibalanced(fixture("TIGHT"))

    def test_disjoint_negative_cycles(self):
        assert not is_quasibalanced(fixture("LOOSE"))

    def test_theta_with_overlapping_cycles(self):
        assert is_quasibalanced(fixture("THETA"))

    def test_budget_is_enforced(self):
        # K4 with every edge negative: quasibalanced (its negative cycles are
        # the four triangles) but no necklace, so all 7 cycles are enumerated
        k4 = SignedGraph.from_triples(4, [(u, v, -1) for u in range(4) for v in range(u + 1, 4)])
        for budget in (2, 6):
            with pytest.raises(CycleBudgetExceeded):
                is_quasibalanced(k4, max_cycles=budget)
        assert is_quasibalanced(k4, max_cycles=7)
        # UK4 is a necklace: answered without enumerating a cycle
        assert is_quasibalanced(fixture("UK4"), max_cycles=0) is True
