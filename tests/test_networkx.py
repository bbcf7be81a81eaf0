"""The block layer that necklace detection rests on, cross-checked against
networkx on seeded random multigraphs of up to 10^4 vertices.  networkx is a
test-only dependency; these tests are skipped without it."""

import random

import pytest

from signedconn import SignedGraph, block_decomposition

nx = pytest.importorskip("networkx")


def _random_multigraph(seed, n, m):
    """Random edges without loops; parallel edges allowed."""
    rng = random.Random(seed)
    triples = []
    while len(triples) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            triples.append((u, v, rng.choice((1, -1))))
    return SignedGraph.from_triples(n, triples)


def _pair(e):
    return frozenset((e.u, e.v))


@pytest.mark.parametrize("n", [10, 100, 1000, 10_000])
@pytest.mark.parametrize("seed", range(3))
def test_blocks_match_networkx(seed, n):
    g = _random_multigraph(seed, n, n + n // 4)
    multi = nx.MultiGraph()
    multi.add_nodes_from(range(g.n))
    multi.add_edges_from((e.u, e.v) for e in g.edges)
    dec = block_decomposition(g)

    assert {_pair(g.edges[eid]) for eid in dec.bridges()} == {
        frozenset(p) for p in nx.bridges(multi)
    }
    assert dec.articulation_vertices == frozenset(nx.articulation_points(multi))
    # networkx lists one (u, v) per vertex pair, so parallel edges merge
    assert {frozenset(_pair(g.edges[eid]) for eid in b.edges) for b in dec.blocks if b.edges} == {
        frozenset(frozenset(p) for p in comp)
        for comp in nx.biconnected_component_edges(nx.Graph(multi))
    }
