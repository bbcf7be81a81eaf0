"""The spine's components, the block layer that necklace detection rests on,
and parity connection, cross-checked against networkx on seeded random
multigraphs of up to 10^4 vertices.  networkx is a test-only dependency;
these tests are skipped without it."""

import random

import pytest

from signedconn import (
    SignedGraph,
    block_decomposition,
    connected_components,
    is_parity_connected,
)

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


def _random_connected(seed, n, extra, bipartite):
    """A random tree plus `extra` random edges, all of them between the two
    colour classes of the tree if `bipartite`, all within one class (each
    closing an odd cycle) otherwise."""
    rng = random.Random(seed)
    depth = [0] * n
    triples = []
    for v in range(1, n):
        p = rng.randrange(v)
        depth[v] = depth[p] + 1
        triples.append((p, v, rng.choice((1, -1))))
    while len(triples) < n - 1 + extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (depth[u] % 2 != depth[v] % 2) == bipartite:
            triples.append((u, v, rng.choice((1, -1))))
    return SignedGraph.from_triples(n, triples)


def _nx_multigraph(g):
    multi = nx.MultiGraph()
    multi.add_nodes_from(range(g.n))
    multi.add_edges_from((e.u, e.v) for e in g.edges)
    return multi


def _pair(e):
    return frozenset((e.u, e.v))


@pytest.mark.parametrize("n", [10, 100, 1000, 10_000])
@pytest.mark.parametrize("seed", range(3))
def test_blocks_match_networkx(seed, n):
    g = _random_multigraph(seed, n, n + n // 4)
    multi = _nx_multigraph(g)
    dec = block_decomposition(g)

    assert {_pair(g.edges[eid]) for eid in dec.bridges} == {
        frozenset(p) for p in nx.bridges(multi)
    }
    assert dec.articulation_vertices == frozenset(nx.articulation_points(multi))
    # networkx lists one (u, v) per vertex pair, so parallel edges merge
    assert {frozenset(_pair(g.edges[eid]) for eid in b.edges) for b in dec.blocks if b.edges} == {
        frozenset(frozenset(p) for p in comp)
        for comp in nx.biconnected_component_edges(nx.Graph(multi))
    }


@pytest.mark.parametrize("n", [10, 100, 1000, 10_000])
@pytest.mark.parametrize("seed", range(3))
def test_components_match_networkx(seed, n):
    g = _random_multigraph(seed, n, n + n // 4)
    want = sorted((frozenset(c) for c in nx.connected_components(_nx_multigraph(g))), key=min)
    assert connected_components(g) == want


@pytest.mark.parametrize("n", [10, 100, 1000, 10_000])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", ["random", "bipartite", "odd"])
def test_parity_connection_matches_networkx(shape, seed, n):
    if shape == "random":
        g = _random_multigraph(seed, n, n + n // 4)
    else:
        g = _random_connected(seed, n, n // 10 + 1, bipartite=shape == "bipartite")
    multi = _nx_multigraph(g)
    want = nx.is_connected(multi) and not nx.is_bipartite(multi)
    assert is_parity_connected(g) == want
    if shape != "random":
        assert want == (shape == "odd")
