"""Seeded differential tests beyond the exhaustive n <= 4 sweep, plus
structured families that exercise the spine's special cases (edges parallel
to tree edges, negative loops, several unbalanced components, deep trees),
necklaces of up to eight beads, and cacti.

Every expected value comes from the brute-force oracle or from a
definition-level deletion check on chain signs, never from the library.
"""

import random
from math import prod

import pytest

from signedconn import (
    SignedGraph,
    VertexOutOfRange,
    balancing_edges,
    balancing_vertices,
    block_decomposition,
    classify_circuit,
    connected_components,
    contains_theta,
    detect_necklace,
    frame_components,
    frame_isthmi,
    frame_rank,
    is_cactus_forest,
    is_contrabalanced,
    is_quasibalanced,
    is_sign_connected,
    lift_components,
    lift_isthmi,
    lift_rank,
    sign_articulation_vertices,
    sign_isthmi,
    sign_reachability,
)
from signedconn import oracle

from conftest import complete_with_two_negative_edges

SEEDS = range(12)


def _random_graph(rng, n, m):
    return SignedGraph.from_triples(
        n, [(rng.randrange(n), rng.randrange(n), rng.choice((1, -1))) for _ in range(m)]
    )


def _random_connected(rng, n, m):
    """A random spanning tree plus m - (n - 1) random edges (loops and
    parallel edges allowed), edges shuffled so tree edges are not first."""
    triples = [(rng.randrange(v), v, rng.choice((1, -1))) for v in range(1, n)]
    triples += [
        (rng.randrange(n), rng.randrange(n), rng.choice((1, -1)))
        for _ in range(m - (n - 1))
    ]
    rng.shuffle(triples)
    return SignedGraph.from_triples(n, triples)


def _graphs(seed, count, max_m, connected=False):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(5, 9)
        if connected:
            yield _random_connected(rng, n, rng.randint(n - 1, max(n - 1, max_m)))
        else:
            yield _random_graph(rng, n, rng.randint(0, max_m))


def _delete_vertex(g, x):
    label = {v: i for i, v in enumerate(w for w in range(g.n) if w != x)}
    rest = [(label[e.u], label[e.v], e.sign) for e in g.edges if x not in (e.u, e.v)]
    return SignedGraph.from_triples(g.n - 1, rest), label


def _deletion_balancing_vertices(g):
    """Vertices x of a component holding a negative closed chain such that,
    once x is deleted, no remaining vertex of that component has one."""
    table = oracle.chain_sign_table(g)
    out = set()
    for x in range(g.n):
        if -1 not in table[x][x]:
            continue
        comp = [y for y in range(g.n) if table[x][y] and y != x]
        rest, label = _delete_vertex(g, x)
        rest_table = oracle.chain_sign_table(rest)
        if all(-1 not in rest_table[label[y]][label[y]] for y in comp):
            out.add(x)
    return frozenset(out)


def _several_components(rng):
    """Two to four random connected parts of 1-6 vertices, half of them
    balanced by construction, each with a loop and a parallel edge, plus up
    to two isolated vertices; vertex labels and edge order shuffled."""
    triples, n = [], 0
    for _ in range(rng.randint(2, 4)):
        k = rng.randint(1, 6)
        pot = [rng.choice((1, -1)) for _ in range(k)]
        balanced = rng.random() < 0.5
        pairs = [(rng.randrange(v), v) for v in range(1, k)]
        pairs += [(rng.randrange(k), rng.randrange(k)) for _ in range(rng.randint(0, k))]
        loop = rng.randrange(k)
        pairs.append((loop, loop))
        pairs.append(rng.choice(pairs))
        for u, v in pairs:
            s = pot[u] * pot[v] if balanced else rng.choice((1, -1))
            triples.append((n + u, n + v, s))
        n += k
    n += rng.randint(0, 2)
    label = list(range(n))
    rng.shuffle(label)
    triples = [(label[u], label[v], s) for u, v, s in triples]
    rng.shuffle(triples)
    return SignedGraph.from_triples(n, triples)


# -- seeded differential tests, n = 5..9 ------------------------------------


def _check_sign_reachability(g):
    """sign_reachability, read off the spine, against the oracle's closure
    of walk states; returns how many signs each (x, y) reached."""
    table = oracle.chain_sign_table(g)
    for x in range(g.n):
        assert sign_reachability(g, x) == dict(enumerate(table[x])), (g, x)
    return {len(signs) for row in table for signs in row}


def test_sign_reachability_matches_walk_closure_on_every_small_graph():
    sizes = set()
    for g in oracle.generate_signed_graphs(4, 4):
        sizes |= _check_sign_reachability(g)
    assert sizes == {0, 1, 2}


@pytest.mark.parametrize("seed", SEEDS)
def test_sign_reachability_matches_walk_closure(seed):
    rng = random.Random(seed)
    sizes = set()
    for _ in range(15):
        g = _several_components(rng)
        sizes |= _check_sign_reachability(g)
        for x in (-1, g.n):
            with pytest.raises(VertexOutOfRange):
                sign_reachability(g, x)
    assert sizes == {0, 1, 2}


def _deletion_cut_vertices(g):
    """Vertices whose deletion leaves more components than g has."""
    k = len(connected_components(g))
    return frozenset(
        v for v in range(g.n) if len(connected_components(_delete_vertex(g, v)[0])) > k
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_cut_vertices_match_deletion(seed):
    rng = random.Random(seed)
    for i in range(20):
        if i % 2:
            g = _several_components(rng)
        else:
            n = rng.randint(2, 12)
            g = _random_connected(rng, n, rng.randint(n - 1, 2 * n))
        dec = block_decomposition(g)
        assert dec.cut_vertices == _deletion_cut_vertices(g), g
        looped = {
            e.u
            for e in g.edges
            if e.u == e.v and any(f.id != e.id and e.u in (f.u, f.v) for f in g.edges)
        }
        assert dec.articulation_vertices == dec.cut_vertices | looped, g


@pytest.mark.parametrize("seed", SEEDS)
def test_balancing_edges_match_oracle(seed):
    for g in _graphs(seed, 5, 12):
        assert balancing_edges(g) == oracle.brute_balancing_edges(g), g


@pytest.mark.parametrize("seed", SEEDS)
def test_balancing_vertices_match_deletion(seed):
    for g in _graphs(seed, 5, 12):
        assert balancing_vertices(g) == _deletion_balancing_vertices(g), g


@pytest.mark.parametrize("seed", SEEDS)
def test_quasibalanced_matches_oracle(seed):
    rng = random.Random(seed)
    for _ in range(10):
        n = rng.randint(5, 8)
        g = _random_graph(rng, n, rng.randint(0, 12))
        assert is_quasibalanced(g) == oracle.brute_is_quasibalanced(g), g


@pytest.mark.parametrize("seed", SEEDS)
def test_sign_isthmi_and_articulation_match_oracle(seed):
    checked = 0
    for g in _graphs(seed, 10, 12, connected=True):
        if not is_sign_connected(g):
            continue
        checked += 1
        assert sign_isthmi(g) == oracle.brute_sign_isthmi(g), g
        assert sign_articulation_vertices(g) == oracle.brute_sign_articulation_vertices(g), g
    assert checked


@pytest.mark.parametrize("seed", SEEDS)
def test_coloops_match_oracle(seed):
    # the coloop oracle sweeps every edge subset, so m stays at 8
    for g in _graphs(seed, 5, 8):
        assert frame_isthmi(g) == oracle.brute_coloops(g, oracle.frame_independent), g
        assert lift_isthmi(g) == oracle.brute_coloops(g, oracle.lift_independent), g


@pytest.mark.parametrize("seed", SEEDS)
def test_ranks_match_oracle(seed):
    rng = random.Random(seed)
    for g in _graphs(seed, 5, 8):
        subset = [eid for eid in range(g.m) if rng.random() < 0.7]
        assert frame_rank(g, subset) == oracle.brute_rank(g, subset, oracle.frame_independent), g
        assert lift_rank(g, subset) == oracle.brute_rank(g, subset, oracle.lift_independent), g


@pytest.mark.parametrize("seed", SEEDS)
def test_circuits_match_oracle_cycles(seed):
    rng = random.Random(seed)
    verdicts = set()
    for _ in range(30):
        n = rng.randint(1, 7)
        g = _random_graph(rng, n, rng.randint(0, 10))
        frame = set(oracle.enumerate_frame_circuits(g))
        lift = set(oracle.enumerate_lift_circuits(g))
        for mask in range(1 << g.m):
            F = frozenset(e for e in range(g.m) if mask >> e & 1)
            cls = classify_circuit(g, F)
            assert (cls.in_frame, cls.in_lift) == (F in frame, F in lift), (g, F)
            verdicts.add(cls.verdict.value)
            if cls.in_frame or cls.in_lift:
                want = sorted(
                    (c for c, _ in oracle.brute_cycles(g, F)), key=lambda c: (len(c), sorted(c))
                )
                assert cls.cycles == tuple(want), (g, F)
                assert cls.chain == F - frozenset().union(*want), (g, F)
    assert verdicts >= {"positive-cycle", "tight-handcuff", "loose-handcuff", "disjoint-pair"}


# -- structured families ----------------------------------------------------


def _candidate_above_subtrees(rng):
    """A path 0..h down to x = h, then three or four small random subtrees
    hanging from x, each with one to three back edges of random sign to
    vertices of the path above x.  Tree edges come first, so the spine's DFS
    tree is this tree: x lies on every frustrated fundamental cycle, and its
    child subtrees reach above it with all, none or some of their back edges
    frustrated."""
    h = rng.randint(2, 4)
    triples = [(i, i + 1, rng.choice((1, -1))) for i in range(h)]
    back = []
    fresh = h + 1
    for _ in range(rng.randint(3, 4)):
        members = [fresh]
        triples.append((h, fresh, rng.choice((1, -1))))
        fresh += 1
        for _ in range(rng.randint(0, 2)):
            triples.append((rng.choice(members), fresh, rng.choice((1, -1))))
            members.append(fresh)
            fresh += 1
        for _ in range(rng.randint(1, 3)):
            back.append((rng.choice(members), rng.randrange(h), rng.choice((1, -1))))
    return SignedGraph.from_triples(fresh, triples + back)


@pytest.mark.parametrize("seed", SEEDS)
def test_balancing_vertices_with_mixed_back_edges(seed):
    rng = random.Random(seed)
    for _ in range(10):
        g = _candidate_above_subtrees(rng)
        assert balancing_vertices(g) == _deletion_balancing_vertices(g), g


@pytest.mark.parametrize(
    "triples, balancing",
    [
        # x = 2 has one child subtree {3}, with a frustrated back edge to 0
        # and an unfrustrated one to 1: a negative cycle 0-1-3 avoids x
        ([(0, 1, +1), (1, 2, +1), (2, 3, +1), (2, 4, +1), (3, 0, -1), (3, 1, +1)], {0, 1, 3}),
        # x = 2 has children 3 (both back edges frustrated) and 4 (its back
        # edge unfrustrated): deleting x lets 3 be switched alone; x = 1 has
        # the one child 2, whose subtree reaches 0 by one edge of each kind
        ([(0, 1, +1), (1, 2, +1), (2, 3, +1), (2, 4, +1), (3, 0, -1), (3, 1, -1), (4, 0, +1)], {2, 3}),
    ],
    ids=["mixed-child", "uniform-children"],
)
def test_balancing_vertices_per_child_subtree(triples, balancing):
    g = SignedGraph.from_triples(5, triples)
    assert balancing_vertices(g) == frozenset(balancing)
    assert _deletion_balancing_vertices(g) == frozenset(balancing)


def _loopless_connected(rng, n, m):
    """A random spanning tree plus random non-loop edges, m in all."""
    triples = [(rng.randrange(v), v, rng.choice((1, -1))) for v in range(1, n)]
    while len(triples) < m:
        u, v = rng.sample(range(n), 2)
        triples.append((u, v, rng.choice((1, -1))))
    rng.shuffle(triples)
    return SignedGraph.from_triples(n, triples)


@pytest.mark.parametrize("n", [10, 12, 40])
def test_quasibalance_of_complete_graph_with_two_negative_edges(n):
    assert is_quasibalanced(complete_with_two_negative_edges(n)) is False


@pytest.mark.parametrize("n", [25, 50, 100, 200, 400])
def test_quasibalance_of_large_sparse_graphs(n):
    """From n = 50 on, these hold more cycles than the default budget, but an
    early negative cycle has a partner meeting it in at most one vertex."""
    assert is_quasibalanced(_loopless_connected(random.Random(n), n, 2 * n)) is False


def _check_against_oracles(g):
    assert balancing_edges(g) == oracle.brute_balancing_edges(g)
    assert balancing_vertices(g) == _deletion_balancing_vertices(g)
    assert frame_isthmi(g) == oracle.brute_coloops(g, oracle.frame_independent)
    assert lift_isthmi(g) == oracle.brute_coloops(g, oracle.lift_independent)
    if is_sign_connected(g) and g.n > 1:
        assert sign_isthmi(g) == oracle.brute_sign_isthmi(g)
        assert sign_articulation_vertices(g) == oracle.brute_sign_articulation_vertices(g)


def test_negative_cycle_with_pendant_trees():
    """Every vertex of the one negative cycle is a balancing vertex, found as a
    candidate on the fundamental cycle and confirmed by deletion."""
    k = 50
    triples = [(i, (i + 1) % k, -1 if i == 17 else +1) for i in range(k)]
    n = k
    inner = set()
    for root in (0, 13, 31):  # a pendant path of three edges at each
        prev = root
        for _ in range(3):
            triples.append((prev, n, +1))
            inner.add(prev)
            prev, n = n, n + 1
    triples.append((k + 1, n, -1))  # a branch off the first path
    inner.add(k + 1)
    g = SignedGraph.from_triples(n + 1, triples)
    cycle = frozenset(range(k))
    assert balancing_vertices(g) == cycle
    assert balancing_edges(g) == frozenset(range(k))
    assert sign_isthmi(g) == frozenset(range(g.m))
    assert sign_articulation_vertices(g) == cycle | inner
    assert frame_isthmi(g) == frozenset(range(g.m))


@pytest.mark.parametrize(
    "triples",
    [
        # negative digon parallel to a tree edge, on a path
        [(0, 1, +1), (1, 2, +1), (2, 3, +1), (1, 2, -1)],
        # positive digon beside a negative triangle
        [(0, 1, +1), (1, 2, +1), (2, 0, -1), (2, 3, +1), (2, 3, +1)],
        # two parallel negative edges closing one triangle
        [(0, 1, +1), (1, 2, +1), (2, 0, -1), (2, 0, -1), (0, 3, -1)],
    ],
    ids=["negative-digon", "positive-digon", "doubled-chord"],
)
def test_edges_parallel_to_tree_edges(triples):
    _check_against_oracles(SignedGraph.from_triples(4, triples))


@pytest.mark.parametrize(
    "n, triples, balancing",
    [
        (3, [(0, 1, +1), (1, 2, +1), (2, 0, +1), (0, 0, -1)], {3}),
        (3, [(0, 1, +1), (1, 2, -1), (0, 0, -1), (2, 2, -1)], set()),
        (2, [(0, 1, -1), (1, 1, -1), (1, 1, -1)], set()),
        (1, [(0, 0, -1), (0, 0, +1)], {0}),
    ],
    ids=["loop-on-triangle", "loops-apart", "loops-together", "lone-vertex"],
)
def test_negative_loops(n, triples, balancing):
    g = SignedGraph.from_triples(n, triples)
    assert balancing_edges(g) == frozenset(balancing)
    _check_against_oracles(g)


def test_several_unbalanced_components():
    triples = [
        (0, 1, +1), (1, 2, +1), (2, 0, -1),  # negative triangle
        (3, 4, -1), (4, 5, -1), (5, 3, -1),  # negative triangle
        (5, 6, +1),  # pendant bridge
        (7, 8, -1), (8, 9, +1), (9, 7, -1),  # balanced triangle
        (10, 10, -1),  # negative loop on its own
    ]
    g = SignedGraph.from_triples(11, triples)
    assert balancing_edges(g) == frozenset({0, 1, 2, 3, 4, 5, 10})
    assert lift_isthmi(g) == frozenset({6})
    _check_against_oracles(g)


def test_deep_path_with_negative_triangle():
    """A path of 10^4 vertices ending in a negative triangle: every answer is
    known, and the iterative spine cannot hit the recursion limit."""
    n = 10_000
    triples = [(i, i + 1, +1) for i in range(n - 1)] + [(n - 3, n - 1, -1)]
    g = SignedGraph.from_triples(n, triples)
    triangle = frozenset({n - 3, n - 2, n - 1})
    triangle_edges = frozenset({n - 3, n - 2, n - 1})  # edge ids of its sides
    assert balancing_edges(g) == triangle_edges
    assert balancing_vertices(g) == triangle
    assert sign_isthmi(g) == frozenset(range(g.m))
    assert sign_articulation_vertices(g) == frozenset(range(1, n))
    assert frame_isthmi(g) == frozenset(range(g.m))
    assert lift_isthmi(g) == frozenset(range(g.m))
    dec = block_decomposition(g)
    assert dec.bridges == frozenset(range(n - 3))
    assert [b for b in dec.blocks if not b.balanced][0].edges == triangle_edges


# -- necklace families --------------------------------------------------------


def _path(rng, a, b, length, sign, fresh):
    """Triples of an a-b path of the given length and sign, its inner
    vertices numbered from `fresh`; returns (triples, next fresh vertex)."""
    triples = []
    prev, product = a, 1
    for _ in range(length - 1):
        s = rng.choice((1, -1))
        triples.append((prev, fresh, s))
        product *= s
        prev, fresh = fresh, fresh + 1
    triples.append((prev, b, sign * product))
    return triples, fresh


def _relabelled(rng, n, beads):
    """The graph of the beads (lists of triples) under a random vertex
    permutation, a random switching and a shuffled edge order, with each bead
    as a set of edge ids."""
    perm = list(range(n))
    rng.shuffle(perm)
    switched = {v for v in range(n) if rng.random() < 0.5}
    tagged = [
        (perm[u], perm[v], -s if (u in switched) != (v in switched) else s, i)
        for i, bead in enumerate(beads)
        for u, v, s in bead
    ]
    rng.shuffle(tagged)
    g = SignedGraph.from_triples(n, [t[:3] for t in tagged])
    ids = [set() for _ in beads]
    for eid, t in enumerate(tagged):
        ids[t[3]].add(eid)
    return g, {frozenset(b) for b in ids}


def _ring_necklace(rng, k):
    """k beads in a ring on joints 0..k-1, with bead i between joints i and
    i + 1: a single edge, a balanced cycle (two a-b paths of one sign), or a
    balanced block of three such paths.  The bead signs multiply to -1, so
    the ring is unbalanced and every bead is one constituent."""
    signs = [rng.choice((1, -1)) for _ in range(k)]
    if prod(signs) == 1:
        signs[0] = -signs[0]
    beads, fresh = [], k
    for i, sign in enumerate(signs):
        a, b = i, (i + 1) % k
        paths = rng.choice((1, 2, 3))
        bead = []
        for _ in range(paths):
            length = 1 if paths == 1 else rng.randint(1, 3)
            path, fresh = _path(rng, a, b, length, sign, fresh)
            bead += path
        beads.append(bead)
    return _relabelled(rng, fresh, beads)


def _check_necklace(g, beads):
    """Both matroids split into exactly the beads, which `detect_necklace`
    returns in ring order; checked against the oracle where m <= 12."""
    assert set(frame_components(g).classes) == beads
    assert set(lift_components(g).classes) == beads
    if g.m <= 12:
        for fn, independent in (
            (frame_components, oracle.frame_independent),
            (lift_components, oracle.lift_independent),
        ):
            assert set(fn(g).classes) == set(oracle.brute_matroid_components(g, independent))
    ring = detect_necklace(g, frozenset(range(g.m)))
    assert set(ring) == beads
    if len(ring) > 2:
        touches = [{v for eid in c for v in (g.edges[eid].u, g.edges[eid].v)} for c in ring]
        assert all(touches[i] & touches[i - 1] for i in range(len(ring)))


@pytest.mark.parametrize("seed", range(6))
def test_ring_necklaces(seed):
    rng = random.Random(seed)
    for k in range(2, 9):
        _check_necklace(*_ring_necklace(rng, k))


def _glued_ring_necklace(rng, k):
    """A ring necklace with balanced blocks glued on at joints and at
    bead-internal vertices: pendant trees, whose edges are blocks of their
    own, and positive cycles of length 1 to 4.  Returns the graph, the beads
    and the edge sets of the glued blocks."""
    g, beads = _ring_necklace(rng, k)
    in_beads = [0] * g.n
    for bead in beads:
        for v in {x for eid in bead for x in (g.edges[eid].u, g.edges[eid].v)}:
            in_beads[v] += 1
    joints = [v for v in range(g.n) if in_beads[v] >= 2]
    internal = [v for v in range(g.n) if in_beads[v] == 1]
    sites = rng.sample(joints, 2) + rng.sample(internal, min(2, len(internal)))
    triples = [(e.u, e.v, e.sign) for e in g.edges]
    glued, fresh = set(), g.n
    for at in sites:
        if rng.random() < 0.5:
            tree = [at]
            for _ in range(rng.randint(1, 4)):
                glued.add(frozenset([len(triples)]))
                triples.append((rng.choice(tree), fresh, rng.choice((1, -1))))
                tree.append(fresh)
                fresh += 1
        else:
            path, fresh = _path(rng, at, at, rng.randint(1, 4), 1, fresh)
            glued.add(frozenset(range(len(triples), len(triples) + len(path))))
            triples += path
    return SignedGraph.from_triples(fresh, triples), beads, glued


@pytest.mark.parametrize("seed", range(6))
def test_ring_necklaces_with_balanced_blocks_glued_on(seed):
    """The ring is the one unbalanced block of its component, so its beads
    come from the component's balancing vertices, and each glued block is a
    matroid component of its own."""
    rng = random.Random(seed)
    for k in range(2, 9):
        g, beads, glued = _glued_ring_necklace(rng, k)
        (core,) = block_decomposition(g).cores
        assert set(core.necklace) == beads
        assert set(detect_necklace(g, frozenset().union(*beads))) == beads
        assert set(frame_components(g).classes) == beads | glued
        assert set(lift_components(g).classes) == beads | glued


@pytest.mark.parametrize("seed", range(6))
def test_ring_necklaces_are_quasibalanced_without_enumeration(seed):
    rng = random.Random(seed)
    for k in range(2, 9):
        g, _ = _ring_necklace(rng, k)
        assert is_quasibalanced(g, max_cycles=0) is True


@pytest.mark.parametrize("n", [5, 8, 11, 40])
def test_negative_cycle_is_a_necklace_of_edges(n):
    rng = random.Random(n)
    _check_necklace(*_relabelled(rng, n, [[(i, (i + 1) % n, -1 if i == 0 else 1)] for i in range(n)]))


def test_theta_with_two_equal_sign_paths():
    """Paths P1, P2 (positive) and P3 (negative) from a = 0 to b = 1: the
    positive cycle P1 + P2 is one constituent and every edge of P3 is one,
    since the balancing vertices are a, b and the inside of P3."""
    rng = random.Random(3)
    p1, fresh = _path(rng, 0, 1, 2, 1, 2)
    p2, fresh = _path(rng, 0, 1, 3, 1, fresh)
    p3, fresh = _path(rng, 0, 1, 4, -1, fresh)
    g, beads = _relabelled(rng, fresh, [p1 + p2] + [[t] for t in p3])
    assert len(balancing_vertices(g)) == 5
    _check_necklace(g, beads)


_K4_NEGATIVE = [(u, v, -1) for u in range(4) for v in range(u + 1, 4)]


@pytest.mark.parametrize(
    "n, triples",
    [
        (4, _K4_NEGATIVE),
        # a positive digon 2-3 beside the triangles 0-1-2 and 0-1-3
        (4, _K4_NEGATIVE + [(2, 3, -1)]),
        # edge 0-1 subdivided into a negative path through vertex 4
        (5, _K4_NEGATIVE[1:] + [(0, 4, +1), (4, 1, -1)]),
    ],
    ids=["k4", "k4-doubled-edge", "k4-subdivided-edge"],
)
def test_quasibalanced_blocks_that_are_not_necklaces(n, triples):
    """Every cycle is enumerated, and none may count as a partner: positive
    cycles (such as the digon, which meets the triangle 0-1-2 in one
    vertex) are not tested."""
    for seed in range(3):
        g, _ = _relabelled(random.Random(seed), n, [triples])
        assert detect_necklace(g, frozenset(range(g.m))) is None
        assert is_quasibalanced(g) is True
        assert oracle.brute_is_quasibalanced(g)


# -- cacti -------------------------------------------------------------------


def _random_cactus(rng, max_m):
    """Pieces (lists of triples) of a cactus grown from vertex 0, each
    attached at an existing vertex: a bridge to a new vertex, a loop, or a
    cycle of length 2 to 5 through new vertices, with random signs, up to
    max_m edges.  Half the cacti get only negative cycles.  Returns the
    vertex count and the pieces, which are the blocks with edges."""
    negative = rng.random() < 0.5
    n, m, pieces = 1, 0, []
    while m < max_m:
        a = rng.randrange(n)
        kind = rng.choice(("bridge", "loop", "cycle") if max_m - m >= 2 else ("bridge", "loop"))
        if kind == "bridge":
            pieces.append([(a, n, rng.choice((1, -1)))])
            n += 1
        elif kind == "loop":
            pieces.append([(a, a, -1 if negative else rng.choice((1, -1)))])
        else:
            length = rng.randint(2, min(5, max_m - m))
            ring = [a] + list(range(n, n + length - 1))
            n += length - 1
            signs = [rng.choice((1, -1)) for _ in ring]
            if negative and prod(signs) == 1:
                signs[0] = -signs[0]
            pieces.append([(ring[i - 1], ring[i], signs[i]) for i in range(length)])
        m += len(pieces[-1])
    return n, pieces


@pytest.mark.parametrize("seed", SEEDS)
def test_random_cacti(seed):
    rng = random.Random(seed)
    for _ in range(6):
        g, pieces = _relabelled(rng, *_random_cactus(rng, rng.randint(1, 12)))
        assert {b.edges for b in block_decomposition(g).blocks if b.edges} == pieces
        assert is_cactus_forest(g) and contains_theta(g) is None
        assert is_contrabalanced(g) == all(s == -1 for _, s in oracle.brute_cycles(g)), g
        if is_sign_connected(g) and g.n > 1:
            assert sign_isthmi(g) == oracle.brute_sign_isthmi(g), g
        if g.m <= 8:
            assert frame_isthmi(g) == oracle.brute_coloops(g, oracle.frame_independent), g
            assert lift_isthmi(g) == oracle.brute_coloops(g, oracle.lift_independent), g


def _path_inner_vertices(g, chain, a, b):
    """The inner vertices of the chain if its edges, in any order, form a
    path from a to b with no repeated vertex; None otherwise."""
    left = set(chain)
    seen = [a]
    while left:
        step = [eid for eid in left if seen[-1] in (g.edges[eid].u, g.edges[eid].v)]
        if len(step) != 1:
            return None
        left.remove(step[0])
        nxt = g.edges[step[0]].other(seen[-1])
        if nxt in seen:
            return None
        seen.append(nxt)
    if len(set(chain)) != len(chain) or seen[-1] != b:
        return None
    return set(seen[1:-1])


@pytest.mark.parametrize("seed", SEEDS)
def test_cactus_with_a_chord_holds_a_theta(seed):
    """A chord between two vertices of one cycle (parallel to a cycle edge
    when they are adjacent) leaves three internally disjoint chains between
    its ends: no cactus."""
    rng = random.Random(seed)
    for _ in range(4):
        n, pieces = _random_cactus(rng, rng.randint(1, 15))
        ring = [0] + list(range(n, n + rng.randint(1, 4)))
        cycle = [(ring[i - 1], ring[i], rng.choice((1, -1))) for i in range(len(ring))]
        a, b = rng.sample(ring, 2)
        g, _ = _relabelled(rng, ring[-1] + 1, pieces + [cycle + [(a, b, rng.choice((1, -1)))]])
        assert not is_cactus_forest(g)
        theta = contains_theta(g)
        assert theta is not None
        x, y = theta.endpoints
        assert x != y
        inner = [_path_inner_vertices(g, chain, x, y) for chain in theta.chains]
        assert None not in inner, theta
        assert len(set().union(*theta.chains)) == sum(len(c) for c in theta.chains)
        assert all(not (inner[i] & inner[j]) for i in range(3) for j in range(i)), theta
