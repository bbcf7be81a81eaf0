"""Frame/lift circuits, ranks, components, coloops, connection, quasibalance."""

import random
import signal
from collections import Counter

import pytest
from hypothesis import given

from signedconn import (
    CircuitVerdict,
    CycleBudgetExceeded,
    EdgeOutOfRange,
    SignedGraph,
    classify_circuit,
    component_balance,
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
from signedconn import _cycles, block_decomposition, matroid, oracle
from signedconn.core import _vertex_set
from signedconn.io import fixture

from conftest import complete_with_two_negative_edges, graphs


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

    # a theta (paths 0-1-3, 0-2-3 and 0-3, one of them negative); a positive
    # triangle with a pendant edge; two negative triangles at vertex 0 (a
    # tight handcuff) with the chord 1-3 between them
    THETA = SignedGraph.from_triples(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, -1), (0, 3, 1)])
    PENDANT = SignedGraph.from_triples(4, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, -1)])
    CHORDED = SignedGraph.from_triples(
        5, [(0, 1, 1), (1, 2, 1), (2, 0, -1), (0, 3, 1), (3, 4, 1), (4, 0, -1), (1, 3, 1)]
    )

    @pytest.mark.parametrize("name", ["THETA", "PENDANT", "CHORDED"])
    def test_every_subset_agrees_with_the_oracle(self, name):
        g = getattr(self, name)
        frame = set(oracle.enumerate_frame_circuits(g))
        lift = set(oracle.enumerate_lift_circuits(g))
        for mask in range(1 << g.m):
            subset = frozenset(e for e in range(g.m) if mask >> e & 1)
            cls = classify_circuit(g, subset)
            assert cls.in_frame == (subset in frame) and cls.in_lift == (subset in lift)

    def test_pendant_vertex_or_surplus_edge_is_rejected_before_enumeration(self, monkeypatch):
        monkeypatch.setattr(_cycles, "iter_cycles", _no_enumeration)
        # |F| = |V(F)| with a vertex of degree 1, and |F| = |V(F)| + 2
        for g in (self.PENDANT, self.CHORDED):
            assert classify_circuit(g, range(g.m)).verdict is CircuitVerdict.NOT_A_CIRCUIT
        for name in ("THETA", "PENDANT", "CHORDED"):
            self.test_every_subset_agrees_with_the_oracle(name)

    def test_all_edges_of_k10_is_no_circuit(self):
        # 45 edges on 10 vertices; enumerating the cycles of K10 would take seconds
        g = SignedGraph.from_triples(
            10, [(u, v, -1 if u == 0 else 1) for u in range(10) for v in range(u + 1, 10)]
        )
        assert classify_circuit(g, range(g.m)).verdict is CircuitVerdict.NOT_A_CIRCUIT

    def test_third_cycle_ends_the_search(self):
        # K4 (6 edges, 7 cycles) among 10 vertices: within the bound of n + 1
        # edges, but with two more edges than vertices
        g = SignedGraph.from_triples(
            10, [(0, 1, -1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, -1)]
        )
        assert classify_circuit(g, range(6)).verdict is CircuitVerdict.NOT_A_CIRCUIT

    @pytest.mark.parametrize(
        "shape",
        ["loose-handcuff", "tight-handcuff", "theta", "disjoint-pair"],
    )
    def test_thousand_edge_cycles_are_classified_by_shape(self, shape, monkeypatch):
        # negative 1,000-cycles at two vertices, joined by a 1,000-edge chain,
        # sharing a vertex, or apart; or three 1,000-edge paths between two
        # vertices
        monkeypatch.setattr(_cycles, "iter_cycles", _no_enumeration)
        triples: list[tuple[int, int, int]] = []
        fresh = iter(range(2, 10_000))

        def path(a, b, sign):
            ids = range(len(triples), len(triples) + 1000)
            at = a
            for i in range(999):
                nxt = next(fresh)
                triples.append((at, nxt, sign if i == 0 else 1))
                at = nxt
            triples.append((at, b, 1))
            return frozenset(ids)

        if shape == "theta":
            parts = [path(0, 1, -1), path(0, 1, 1), path(0, 1, 1)]
        elif shape == "tight-handcuff":
            parts = [path(0, 0, -1), path(0, 0, -1)]
        elif shape == "disjoint-pair":
            parts = [path(0, 0, -1), path(1, 1, -1)]
        else:
            parts = [path(0, 0, -1), path(1, 1, -1), path(0, 1, 1)]
        g = SignedGraph.from_triples(next(fresh), triples)
        cls = classify_circuit(g, range(g.m))
        assert cls.verdict.value == ("not-a-circuit" if shape == "theta" else shape)
        if shape != "theta":
            assert cls.cycles == tuple(parts[:2])
            assert cls.chain == frozenset().union(*parts[2:])


def _no_enumeration(*args, **kwargs):
    raise AssertionError("cycles enumerated")


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


def _scattered_components(rng, n):
    """A signed multigraph on n vertices, relabelled at random: several
    components, each a random tree plus extra edges (loops and parallel
    edges among them), some switched from all positive and so balanced,
    the others signed at random; the edges are listed in random order."""
    label = rng.sample(range(n), n)
    triples = []
    start = 0
    while start < n:
        size = min(n - start, rng.randint(1, max(1, n // 3)))
        part = range(start, start + size)
        pot = {v: rng.choice((1, -1)) for v in part} if rng.random() < 0.5 else None
        pairs = [(v, rng.choice(part[: v - start])) for v in part[1:]]
        extra = rng.randint(0, size)
        pairs += [(rng.choice(part), rng.choice(part)) for _ in range(extra)]
        pairs += rng.sample(pairs, min(len(pairs), rng.randint(0, 3)))
        for u, v in pairs:
            sign = pot[u] * pot[v] if pot else rng.choice((1, -1))
            triples.append((label[u], label[v], sign))
        start += size
    rng.shuffle(triples)
    return SignedGraph.from_triples(n, triples)


class TestRanksOfLargeGraphs:
    @pytest.mark.parametrize("seed", range(8))
    def test_full_ranks_agree_with_the_spine(self, seed):
        # frame: n minus the balanced components; lift: n minus the
        # components, plus 1 if any component is unbalanced
        rng = random.Random(seed)
        g = _scattered_components(rng, rng.choice((7, 60, 700, 5000)))
        comps, balanced = component_balance(g)
        assert len(comps) > 1
        frame = g.n - sum(balanced)
        lift = g.n - len(comps) + (not all(balanced))
        for ids in (range(g.m), rng.sample(range(g.m), g.m)):
            assert frame_rank(g, ids) == frame
            assert lift_rank(g, ids) == lift

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
    def test_a_star_listed_from_its_centre_takes_linear_time(self):
        # the edges (0, i) hang the centre's root under leaf i, one by one:
        # without path compression the centre's find walks i vertices, some
        # 5 * 10^9 steps in all; with it both ranks take well under 1 s
        n = 100_001
        g = SignedGraph.from_triples(n, [(0, i, 1) for i in range(1, n)])

        def too_slow(signum, frame):
            raise TimeoutError("ranks of the star took over 10 s")

        before = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            assert frame_rank(g, range(g.m)) == lift_rank(g, range(g.m)) == n - 1
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, before)


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

    def test_both_matroids_share_each_balanced_block_class(self):
        # a negative triangle with a tail of two bridges, and a lone vertex
        g = SignedGraph.from_triples(6, [(0, 1, -1), (1, 2, 1), (2, 0, 1), (2, 3, 1), (3, 4, 1)])
        frame, lift = frame_components(g), lift_components(g)
        for bridge in (frozenset({3}), frozenset({4})):
            (in_frame,) = [c for c in frame.classes if c == bridge]
            (in_lift,) = [c for c in lift.classes if c == bridge]
            assert in_frame is in_lift
        assert frame.isolated_vertices is lift.isolated_vertices
        assert frame.isolated_vertices == frozenset({5})


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

    def test_positive_loop_on_negative_triangle_is_no_coloop(self):
        # the positive loop is a matroid loop: a class by itself, in no basis
        g = SignedGraph.from_triples(3, [(0, 1, 1), (1, 2, 1), (2, 0, -1), (0, 0, 1)])
        assert frame_isthmi(g) == frozenset({0, 1, 2})
        assert lift_isthmi(g) == frozenset({0, 1, 2})

    def test_positive_loop_on_unbalanced_digon_is_no_coloop(self):
        g = SignedGraph.from_triples(2, [(0, 1, 1), (0, 1, -1), (1, 1, 1)])
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


def _reference_has_partner(g, block, cycle):
    """The partner test as it ran one parity forest per cycle vertex with
    attached edges, O(|C| (n + |B|)): the reference for
    `matroid._has_partner`, which runs one forest and scans those edges once."""
    on_cycle = _vertex_set(g, cycle)
    free: list[int] = []
    attached: dict[int, list[int]] = {}
    edges = g.edges
    for eid in block - cycle:
        _, u, v, _ = edges[eid]
        ends = {u, v} & on_cycle
        if not ends:
            free.append(eid)
        elif len(ends) == 1:
            attached.setdefault(ends.pop(), []).append(eid)
    return any(matroid._parity_forest(g, free + edges)[1] for edges in attached.values())


def _seeded_multigraphs(count, seed, max_n):
    """n from 2 to max_n, m from n to 2n + 3, loops and parallel edges."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, max_n)
        m = rng.randint(n, 2 * n + 3)
        yield SignedGraph.from_triples(
            n, [(rng.randrange(n), rng.randrange(n), rng.choice((1, -1))) for _ in range(m)]
        )


def _negative_cycles_of_unbalanced_blocks(g, cycles):
    for es, _, balanced, _, _ in block_decomposition(g).rows:
        if not balanced:
            block = frozenset(es)
            for cycle, sign in cycles(g, block):
                if sign == -1:
                    yield block, cycle


def _mobius_ladder_with_a_digon(n):
    """Rim 0..n-1 with rungs i-(i + n/2), the two twist edges negative, and a
    negative edge beside rim edge (n-3, n-2): not quasibalanced, and the
    digon is far from the frustrated edges' fundamental cycles."""
    half = n // 2
    rim = [(i, (i + 1) % n, -1 if i in (half - 1, n - 1) else 1) for i in range(n)]
    rungs = [(i, i + half, 1) for i in range(half)]
    return SignedGraph.from_triples(n, rim + rungs + [(n - 3, n - 2, -1)])


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

    @pytest.mark.parametrize("n", [5, 10, 12, 40])
    def test_a_frustrated_fundamental_cycle_finds_the_partner(self, n):
        # the triangles 014 and 234 meet in one vertex; no cycle is streamed
        g = complete_with_two_negative_edges(n)
        assert is_quasibalanced(g, max_cycles=0) is False

    def test_the_partner_test_matches_its_reference(self):
        answers = Counter()
        for g in _seeded_multigraphs(3000, 5, 9):
            for block, cycle in _negative_cycles_of_unbalanced_blocks(g, _cycles.iter_cycles):
                got = matroid._has_partner(g, block, cycle)
                assert got == _reference_has_partner(g, block, cycle), (g, cycle)
                answers[got] += 1
        assert min(answers.values()) >= 1000, answers

    def test_the_partner_test_matches_the_oracle(self):
        # a partner is another negative cycle of the block meeting the cycle
        # in at most one vertex, read off the oracle's cycles
        answers = Counter()
        for g in _seeded_multigraphs(1500, 6, 5):
            cycles = oracle.brute_cycles(g)
            for block, cycle in _negative_cycles_of_unbalanced_blocks(
                g, lambda g, block: [(c, s) for c, s in cycles if c <= block]
            ):
                on_cycle = _vertex_set(g, cycle)
                want = any(
                    s == -1 and c != cycle and c <= block
                    and len(_vertex_set(g, c) & on_cycle) <= 1
                    for c, s in cycles
                )
                assert matroid._has_partner(g, block, cycle) == want, (g, cycle)
                answers[want] += 1
            assert is_quasibalanced(g) == oracle.brute_is_quasibalanced(g), g
        assert min(answers.values()) >= 1000, answers

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
    def test_the_partner_test_takes_one_pass(self):
        # one parity forest per cycle vertex took 46.6 s at n = 16,000, and a
        # scan whose find does not halve paths runs past the alarm at 64,000;
        # one halving pass answers in under a second on a 2-vCPU machine
        g = _mobius_ladder_with_a_digon(64_000)

        def too_slow(signum, frame):
            raise TimeoutError("quasibalance of the ladder took over 10 s")

        before = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            assert is_quasibalanced(g) is False
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, before)
