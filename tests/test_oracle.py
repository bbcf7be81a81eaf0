"""The brute-force reference layer itself: enumeration, circuit families,
circuit axioms, and the small-graph generator."""

import random
from itertools import combinations

from hypothesis import given, settings

from signedconn import SignedGraph
from signedconn import oracle
from signedconn.io import fixture

from conftest import edge_adjacency, fresh_copy, graphs

K4 = SignedGraph.from_triples(
    4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)]
)


class TestCycleEnumeration:
    def test_kept_answers_are_returned_as_copies(self):
        g = fresh_copy(K4)
        cycles = oracle.brute_cycles(g)
        table = oracle.chain_sign_table(g)
        oracle.brute_cycles(g).clear()
        oracle.chain_sign_table(g)[0].clear()
        assert oracle.brute_cycles(g) == cycles and len(cycles) == 7
        assert oracle.chain_sign_table(g) == table and table[0][1] == {1}

    def test_unbalanced_triangle(self):
        cycles = oracle.brute_cycles(fixture("T-"))
        assert cycles == [(frozenset({0, 1, 2}), -1)]

    def test_digon(self):
        cycles = oracle.brute_cycles(fixture("NECK2"))
        assert cycles == [(frozenset({0, 1}), -1)]

    def test_k4_has_seven_cycles(self):
        cycles = oracle.brute_cycles(K4)
        assert len(cycles) == 7
        assert all(s == +1 for _, s in cycles)
        assert sorted(len(c) for c, _ in cycles) == [3, 3, 3, 3, 4, 4, 4]

    def test_loops_count(self):
        g = SignedGraph.from_triples(1, [(0, 0, -1), (0, 0, 1)])
        assert len(oracle.brute_cycles(g)) == 2


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


def _assert_circuit_definitions_agree(g):
    assert set(oracle.enumerate_frame_circuits(g)) == set(
        oracle.brute_circuits(g, oracle.frame_independent)
    ), g
    assert set(oracle.enumerate_lift_circuits(g)) == set(
        oracle.brute_circuits(g, oracle.lift_independent)
    ), g


class TestCircuitDefinitionsAgree:
    """The circuits composed from cycles by shape are the minimal dependent
    sets of the independence definitions."""

    def test_on_all_graphs_up_to_three_vertices_and_four_edges(self):
        count = 0
        for g in oracle.generate_signed_graphs(3, 4):
            _assert_circuit_definitions_agree(g)
            count += 1
        assert count == 2_127

    def test_on_every_eighth_graph_up_to_four_vertices_and_five_edges(self):
        order = oracle.SignedGraphOrder(4, 5)
        for k in range(0, len(order), 8):
            n, triples = order[k]
            _assert_circuit_definitions_agree(SignedGraph.from_triples(n, triples))


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

    def test_the_graphs_are_the_triples_in_order(self):
        graphs = [(g.n, [(e.u, e.v, e.sign) for e in g.edges])
                  for g in oracle.generate_signed_graphs(4, 5)]
        triples = [(n, list(t)) for n, t in oracle.SignedGraphOrder(4, 5)]
        assert len(graphs) == 64_480
        assert triples == graphs


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


def _random_multigraph(rng, max_n=7):
    """Up to max_n vertices and 10 edges, loops and parallel edges included;
    often in several components."""
    n = rng.randint(1, max_n)
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
    up to 2n rounds: the reference for `oracle._closure`, which
    `oracle.chain_sign_table` reads."""
    table = []
    adjacency = edge_adjacency(g)
    for x in range(g.n):
        states = {(x, +1)}
        for _ in range(2 * g.n):
            new = set(states)
            for v, s in states:
                for e in adjacency[v]:
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
    assert oracle.chain_sign_table(g) == list(map(list, _chain_signs_by_rounds(g))), g
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


# -- the oracle functions as they were before the kept closure, the
# negative-pair table and the deletions on edge lists: references for them


def _chain_signs_by_worklist(g):
    """Per start x, the closure of the walk states (vertex, accumulated
    sign) from (x, +1): a worklist over the `Edge` adjacency in which each of the
    2n states is expanded once, when it is first reached."""
    sign_sets = (frozenset(), frozenset({+1}), frozenset({-1}), frozenset({+1, -1}))
    steps = [
        [(e.v if e.u == v else e.u, 3 if e.sign < 0 else 0) for e in edges]
        for v, edges in enumerate(edge_adjacency(g))
    ]
    table = []
    for x in range(g.n):
        reached = [0] * g.n
        reached[x] = 1
        todo = [(x, 1)]
        while todo:
            v, bit = todo.pop()
            for w, flip in steps[v]:
                b = bit ^ flip
                if not reached[w] & b:
                    reached[w] |= b
                    todo.append((w, b))
        table.append(tuple(sign_sets[bits] for bits in reached))
    return tuple(table)


def _sign_components_ref(g):
    table = _chain_signs_by_worklist(g)
    related = [
        [len(table[x][y]) == 2 or x == y for y in range(g.n)] for x in range(g.n)
    ]
    classes = oracle._relation_components(related)
    for cls in classes:
        for x in cls:
            for y in cls:
                assert related[x][y], "sign relation not transitive on a class"
    return classes


def _positive_components_ref(g):
    table = _chain_signs_by_worklist(g)
    related = [[+1 in table[x][y] for y in range(g.n)] for x in range(g.n)]
    classes = oracle._relation_components(related)
    for cls in classes:
        for x in cls:
            for y in cls:
                assert related[x][y], "positive relation not transitive on a class"
    return classes


def _negative_components_ref(g):
    table = _chain_signs_by_worklist(g)
    neg = [[-1 in table[x][y] for y in range(g.n)] for x in range(g.n)]
    related = [
        [
            x == y
            or neg[x][y]
            or any(neg[x][w] and neg[w][y] for w in range(g.n))
            for y in range(g.n)
        ]
        for x in range(g.n)
    ]
    return oracle._relation_components(related)


def _is_quasibalanced_ref(g):
    vsets = [oracle._cycle_vertices(g, c) for c, s in oracle.brute_cycles(g) if s == -1]
    return all(
        len(vsets[i] & vsets[j]) >= 2
        for i in range(len(vsets))
        for j in range(i + 1, len(vsets))
    )


def _frame_circuits_ref(g):
    cycles = oracle.brute_cycles(g)
    out = {c for c, s in cycles if s == +1}
    neg = [(c, oracle._cycle_vertices(g, c)) for c, s in cycles if s == -1]
    for (c1, v1), (c2, v2) in combinations(neg, 2):
        if c1 & c2:
            continue
        shared = v1 & v2
        if len(shared) == 1:
            out.add(c1 | c2)
        elif not shared:
            for path in oracle._connecting_paths(g, v1, v2):
                out.add(c1 | c2 | path)
    return sorted(out, key=lambda c: (len(c), sorted(c)))


def _lift_circuits_ref(g):
    cycles = oracle.brute_cycles(g)
    out = {c for c, s in cycles if s == +1}
    neg = [(c, oracle._cycle_vertices(g, c)) for c, s in cycles if s == -1]
    for (c1, v1), (c2, v2) in combinations(neg, 2):
        if c1 & c2 or len(v1 & v2) > 1:
            continue
        out.add(c1 | c2)
    return sorted(out, key=lambda c: (len(c), sorted(c)))


def _both_signs_everywhere_ref(g):
    table = _chain_signs_by_worklist(g)
    return all(
        len(table[x][y]) == 2 for x in range(g.n) for y in range(g.n) if x != y
    )


def _sign_isthmi_ref(g):
    out = set()
    for eid in range(g.m):
        rest = [(e.u, e.v, e.sign) for e in g.edges if e.id != eid]
        if not _both_signs_everywhere_ref(SignedGraph.from_triples(g.n, rest)):
            out.add(eid)
    return frozenset(out)


def _sign_articulation_vertices_ref(g):
    out = set()
    for x in range(g.n):
        label = {v: i for i, v in enumerate(w for w in range(g.n) if w != x)}
        rest = [
            (label[e.u], label[e.v], e.sign) for e in g.edges if x not in (e.u, e.v)
        ]
        if not _both_signs_everywhere_ref(SignedGraph.from_triples(g.n - 1, rest)):
            out.add(x)
    return frozenset(out)


def _assert_same_as_the_references(g):
    assert oracle.chain_sign_table(g) == list(map(list, _chain_signs_by_worklist(g))), g
    assert oracle.brute_sign_components(g) == _sign_components_ref(g), g
    assert oracle.brute_positive_components(g) == _positive_components_ref(g), g
    assert oracle.brute_negative_components(g) == _negative_components_ref(g), g
    assert oracle.brute_is_quasibalanced(g) == _is_quasibalanced_ref(g), g
    assert oracle.enumerate_frame_circuits(g) == _frame_circuits_ref(g), g
    assert oracle.enumerate_lift_circuits(g) == _lift_circuits_ref(g), g
    triples = [(e.u, e.v, e.sign) for e in g.edges]
    assert oracle._both_signs_everywhere(g.n, triples) == _both_signs_everywhere_ref(g), g
    assert oracle.brute_sign_isthmi(g) == _sign_isthmi_ref(g), g
    assert oracle.brute_sign_articulation_vertices(g) == _sign_articulation_vertices_ref(g), g


class TestKeptObjectsAgreeWithTheirReferences:
    """The kept closure, the kept negative-pair table and the deletions on
    edge lists give what the functions they replace gave."""

    def test_on_all_graphs_up_to_three_vertices_and_four_edges(self):
        count = 0
        for g in oracle.generate_signed_graphs(3, 4):
            _assert_same_as_the_references(g)
            count += 1
        assert count == 2_127

    def test_on_every_fifth_graph_up_to_four_vertices_and_five_edges(self):
        order = oracle.SignedGraphOrder(4, 5)
        for k in range(0, len(order), 5):
            n, triples = order[k]
            _assert_same_as_the_references(SignedGraph.from_triples(n, triples))

    def test_on_random_multigraphs(self):
        rng = random.Random(16)
        seen = {"isthmi": 0, "articulation": 0, "quasibalanced": 0, "pairs": 0}
        for _ in range(300):
            g = _random_multigraph(rng, max_n=6)
            _assert_same_as_the_references(g)
            seen["isthmi"] += bool(oracle.brute_sign_isthmi(g))
            seen["articulation"] += bool(oracle.brute_sign_articulation_vertices(g))
            seen["quasibalanced"] += not oracle.brute_is_quasibalanced(g)
            seen["pairs"] += bool(oracle._negative_pairs(g))
        assert min(seen.values()) >= 20, seen

    def test_kept_rows_are_read_in_place(self):
        g = fresh_copy(K4)
        rows = oracle._chain_sign_rows(g)
        oracle.brute_sign_components(g)
        oracle.brute_positive_components(g)
        oracle.brute_negative_components(g)
        assert oracle._chain_sign_rows(g) is rows
        assert rows == ((1, 1, 1, 1),) * 4

    def test_negative_pairs_are_built_once(self, monkeypatch):
        # TIGHT: two negative triangles sharing vertex 0
        g = fixture("TIGHT")
        calls = []
        real = oracle._cycle_vertices
        monkeypatch.setattr(oracle, "_cycle_vertices", lambda g, c: calls.append(c) or real(g, c))
        pairs = oracle._negative_pairs(g)
        oracle.enumerate_frame_circuits(g)
        oracle.enumerate_lift_circuits(g)
        oracle.brute_is_quasibalanced(g)
        assert oracle._negative_pairs(g) is pairs
        assert len(calls) == 2 and [p[4:] for p in pairs] == [(1, False)]

    def test_deletions_build_no_graph(self, monkeypatch):
        g = fixture("LOOSE")
        want = (oracle.brute_sign_isthmi(g), oracle.brute_sign_articulation_vertices(g))

        def no_graph(*args, **kwargs):
            raise AssertionError("a SignedGraph was built")

        # every graph the library builds is made by `_of_columns`
        monkeypatch.setattr(SignedGraph, "_of_columns", no_graph)
        got = (oracle.brute_sign_isthmi(g), oracle.brute_sign_articulation_vertices(g))
        assert got == want == (frozenset({6}), frozenset({0, 3}))
