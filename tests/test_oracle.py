"""The brute-force reference layer itself: enumeration, circuit families,
circuit axioms, and the small-graph generator."""

import random

import pytest
from hypothesis import given, settings

from signedconn import BudgetExceeded, SignedGraph
from signedconn import oracle
from signedconn.io import fixture

from conftest import graphs

K4 = SignedGraph.from_triples(
    4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)]
)


class TestCycleEnumeration:
    def test_kept_answers_are_returned_as_copies(self):
        g = SignedGraph(K4.n, K4.edges)
        cycles = oracle.brute_cycles(g)
        table = oracle.chain_sign_table(g)
        oracle.brute_cycles(g).clear()
        oracle.chain_sign_table(g)[0].clear()
        assert oracle.brute_cycles(g) == cycles and len(cycles) == 7
        assert oracle.chain_sign_table(g) == table and table[0][1] == {1}

    def test_unbalanced_triangle(self):
        cycles = oracle.enumerate_elementary_cycles(fixture("T-"))
        assert cycles == [(frozenset({0, 1, 2}), -1)]

    def test_digon(self):
        cycles = oracle.enumerate_elementary_cycles(fixture("NECK2"))
        assert cycles == [(frozenset({0, 1}), -1)]

    def test_k4_has_seven_cycles(self):
        cycles = oracle.enumerate_elementary_cycles(K4)
        assert len(cycles) == 7
        assert all(s == +1 for _, s in cycles)
        assert sorted(len(c) for c, _ in cycles) == [3, 3, 3, 3, 4, 4, 4]

    def test_loops_count(self):
        g = SignedGraph.from_triples(1, [(0, 0, -1), (0, 0, 1)])
        assert len(oracle.enumerate_elementary_cycles(g)) == 2


class TestChainEnumeration:
    def test_single_negative_edge(self):
        chains = oracle.enumerate_chains(
            fixture("N2"), 0, 1, oracle.EnumerationBudget(max_chain_length=3)
        )
        assert not chains[+1] and chains[-1]

    def test_closed_chains_at_triangle_vertex(self):
        chains = oracle.enumerate_chains(
            fixture("T-"), 0, 0, oracle.EnumerationBudget(max_chain_length=3)
        )
        assert chains[+1] and chains[-1]  # empty walk and the triangle

    def test_balanced_positive_graph(self):
        chains = oracle.enumerate_chains(
            fixture("T+"), 0, 1, oracle.EnumerationBudget(max_chain_length=6)
        )
        assert chains[+1] and not chains[-1]

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            oracle.enumerate_chains(
                K4, 0, 1, oracle.EnumerationBudget(max_chain_length=8, max_subsets=10)
            )


class TestCircuitFamilies:
    def test_single_negative_cycle_has_no_circuits(self):
        g = fixture("T-")
        assert oracle.enumerate_frame_circuits(g) == []
        assert oracle.enumerate_lift_circuits(g) == []

    def test_tight_pair(self):
        g = fixture("TIGHT")
        assert oracle.enumerate_frame_circuits(g) == [frozenset(range(6))]
        assert oracle.enumerate_lift_circuits(g) == [frozenset(range(6))]

    def test_loose_pair(self):
        g = fixture("LOOSE")
        assert oracle.enumerate_frame_circuits(g) == [frozenset(range(7))]
        assert oracle.enumerate_lift_circuits(g) == [frozenset(range(6))]

    @given(graphs(4, 5))
    @settings(max_examples=60)
    def test_circuit_axioms(self, g):
        for circuits in (
            oracle.enumerate_frame_circuits(g),
            oracle.enumerate_lift_circuits(g),
        ):
            # incomparability
            for c1 in circuits:
                for c2 in circuits:
                    if c1 is not c2:
                        assert not c1 <= c2
            # weak elimination
            for c1 in circuits:
                for c2 in circuits:
                    if c1 is c2:
                        continue
                    for e in c1 & c2:
                        union = (c1 | c2) - {e}
                        assert any(c3 <= union for c3 in circuits)


class TestRankFromCircuits:
    def test_positive_triangle(self):
        g = fixture("T+")
        circuits = oracle.enumerate_frame_circuits(g)
        assert oracle.rank_from_circuits(circuits, range(3)) == 2

    def test_circuit_free_graph_is_free(self):
        g = fixture("T-")
        assert oracle.rank_from_circuits(oracle.enumerate_frame_circuits(g), range(3)) == 3

    def test_no_circuits_at_all(self):
        assert oracle.rank_from_circuits([], range(4)) == 4


class TestGenerator:
    def test_counts_for_tiny_bounds(self):
        # n=1: m=0 (1), m=1 loop 2 signs, m=2 double loop 4 signs
        assert sum(1 for _ in oracle.generate_signed_graphs(1, 2)) == 7

    def test_all_graphs_valid_and_distinct(self):
        seen = set()
        for g in oracle.generate_signed_graphs(2, 3):
            key = (g.n, tuple((e.u, e.v, e.sign) for e in g.edges))
            assert key not in seen
            seen.add(key)
            assert g.n <= 2 and g.m <= 3

    def test_multiplicity_cap(self):
        for g in oracle.generate_signed_graphs(2, 5):
            slots = [(e.u, e.v) for e in g.edges]
            assert all(slots.count(s) <= 2 for s in set(slots))


class TestBipartite:
    def test_even_cycle(self):
        assert oracle.brute_is_bipartite(fixture("C4"))

    def test_odd_cycle(self):
        assert not oracle.brute_is_bipartite(fixture("C5"))

    def test_loop(self):
        assert not oracle.brute_is_bipartite(fixture("NEGLOOP"))


def _balancing_edges_by_deletion(g):
    """The balancing-edge oracle as one subset sweep per deleted edge: the
    reference for `oracle.brute_balancing_edges`, which reads the kept cycle
    list instead."""
    out = set()
    for piece in oracle._edge_pieces(g, range(g.m)):
        if all(s == +1 for _, s in oracle.brute_cycles(g, piece)):
            continue
        for eid in piece:
            rest = [i for i in piece if i != eid]
            if all(s == +1 for _, s in oracle.brute_cycles(g, rest)):
                out.add(eid)
    return frozenset(out)


def _random_multigraph(rng):
    """Up to 7 vertices and 10 edges, loops and parallel edges included;
    often in several components."""
    n = rng.randint(1, 7)
    triples = []
    for _ in range(rng.randint(0, 10)):
        u = rng.randrange(n)
        v = u if rng.random() < 0.15 else rng.randrange(n)
        triples.append((u, v, rng.choice((1, -1))))
        if rng.random() < 0.15:
            triples.append(triples[-1][:2] + (rng.choice((1, -1)),))
    return SignedGraph.from_triples(n, triples[:10])


class TestBalancingEdges:
    def test_kept_cycles_agree_with_a_sweep_per_edge_on_all_small_graphs(self):
        for g in oracle.generate_signed_graphs(4, 4):
            assert oracle.brute_balancing_edges(g) == _balancing_edges_by_deletion(g)

    def test_kept_cycles_agree_with_a_sweep_per_edge_on_random_multigraphs(self):
        rng = random.Random(7)
        found = 0
        for _ in range(300):
            g = _random_multigraph(rng)
            want = _balancing_edges_by_deletion(g)
            assert oracle.brute_balancing_edges(g) == want, g
            found += bool(want)
        assert found >= 50


def _cycles_by_plain_sweep(g, ground):
    """Every mask of `ground` tested by the definition, none skipped: the
    reference for `oracle._sweep_cycles`, which skips by packed degrees."""
    out = []
    for mask in range(1, 1 << len(ground)):
        subset = [ground[i] for i in range(len(ground)) if mask >> i & 1]
        if oracle.subset_is_elementary_cycle(g, subset):
            sign = 1
            for eid in subset:
                sign *= g.edges[eid].sign
            out.append((frozenset(subset), sign))
    return out


def _chain_signs_by_rounds(g):
    """Walk states expanded round by round, the whole state set each round,
    up to 2n rounds: the reference for `oracle._chain_signs`."""
    table = []
    for x in range(g.n):
        states = {(x, +1)}
        for _ in range(2 * g.n):
            new = set(states)
            for v, s in states:
                for e in g.adjacency[v]:
                    new.add((e.other(v), s * e.sign))
            if new == states:
                break
            states = new
        row = [set() for _ in range(g.n)]
        for v, s in states:
            row[v].add(s)
        table.append(tuple(frozenset(signs) for signs in row))
    return tuple(table)


def _assert_same_walks_and_cycles(g, rng):
    assert oracle._chain_signs(g) == _chain_signs_by_rounds(g), g
    assert oracle._sweep_cycles(g, list(range(g.m))) == _cycles_by_plain_sweep(g, list(range(g.m)))
    # a subset, given unsorted and with repeats
    chosen = [eid for eid in range(g.m) if rng.random() < 0.6]
    given = chosen + chosen[:1]
    rng.shuffle(given)
    assert oracle.brute_cycles(g, given) == _cycles_by_plain_sweep(g, chosen), (g, chosen)


def _loopy_multigraph(rng):
    """A random multigraph with one vertex carrying 8 to 10 loops, so that
    its packed degree digit carries."""
    n = rng.randint(1, 4)
    heavy = rng.randrange(n)
    triples = [(heavy, heavy, rng.choice((1, -1))) for _ in range(rng.randint(8, 10))]
    for _ in range(rng.randint(0, 3)):
        triples.append((rng.randrange(n), rng.randrange(n), rng.choice((1, -1))))
    rng.shuffle(triples)
    return SignedGraph.from_triples(n, triples)


class TestRewritesAgreeWithTheirReferences:
    """The degree-filtered cycle sweep and the worklist closure of walk
    states give what the plain loops they replace give."""

    def test_on_all_small_graphs(self):
        rng = random.Random(13)
        for g in oracle.generate_signed_graphs(4, 4):
            _assert_same_walks_and_cycles(g, rng)

    def test_on_random_multigraphs(self):
        rng = random.Random(14)
        for _ in range(300):
            _assert_same_walks_and_cycles(_random_multigraph(rng), rng)

    def test_on_multigraphs_whose_degree_digits_carry(self):
        rng = random.Random(15)
        for _ in range(12):
            _assert_same_walks_and_cycles(_loopy_multigraph(rng), rng)

    def test_a_carry_that_passes_the_filter_is_decided_by_the_definition(self, monkeypatch):
        # 8 loops at 0 and at 2 carry 1 into the digits of 1 and 3, where the
        # edge 1-3 leaves 1 each: every digit reads 0 or 2, yet the 17 edges
        # are no cycle
        g = SignedGraph.from_triples(4, [(0, 0, 1)] * 8 + [(2, 2, -1)] * 8 + [(1, 3, 1)])
        decided = []
        definition = oracle.subset_is_elementary_cycle

        def recording(graph, subset):
            decided.append(sorted(subset))
            return definition(graph, subset)

        monkeypatch.setattr(oracle, "subset_is_elementary_cycle", recording)
        found = oracle._sweep_cycles(g, list(range(17)))
        assert list(range(17)) in decided
        assert len(found) == 16 and all(len(c) == 1 for c, _ in found)
        assert len(decided) < 1 << 10  # the filter skips almost all 2^17 masks
        monkeypatch.undo()
        assert found == _cycles_by_plain_sweep(g, list(range(17)))
