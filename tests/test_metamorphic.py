"""Metamorphic checks at scale: a report against itself under relabelling
and switching.

Relabelling the vertices and the edge ids (and flipping each edge's stored
direction) changes no notion of the paper, and switching a vertex set keeps
balance, every sign connection notion, the frame and lift matroids and
quasibalance.  So every field of `build_report` on the transformed graph,
mapped back through the relabelling, must equal the field on the original,
except the three that depend on the signs themselves.  This reaches graphs
far past the exhaustive sweep's four vertices, with no oracle.
"""

import random

import pytest

from signedconn import SignedGraph, switch
from signedconn.cli import build_report

# the Harary sides and the positive and negative components read the edge
# signs, which switching changes
NOT_SWITCHING_INVARIANT = {"harary_bipartition", "positive_components", "negative_components"}
BY_EDGE = {
    "balancing_edges", "graph_isthmi", "frame_coloops", "lift_coloops", "sign_isthmi",
    "frame_components", "lift_components",
}
BY_VERTEX = {
    "articulation_vertices", "sign_articulation_vertices", "graph_components",
    "sign_components", "frame_isolated_vertices", "lift_isolated_vertices",
}


def _seeded_graph(seed):
    """One of three families, by seed: sparse random with m = 2n, a random
    tree plus 3 edges, and a cycle with n // 50 + 1 chords of span 2-20;
    n up to 3,000."""
    rng = random.Random(seed)
    n = rng.randint(3, 3000)
    if seed % 3 == 0:
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
    elif seed % 3 == 1:
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(3)]
    else:
        pairs = [(v, (v + 1) % n) for v in range(n)]
        chords = rng.sample(range(n), n // 50 + 1)
        pairs += [(v, (v + rng.randint(2, 20)) % n) for v in chords]
    return SignedGraph.from_triples(n, [(u, v, rng.choice((1, -1))) for u, v in pairs])


def _transformed(g, rng):
    """g with its vertices and edge ids relabelled, each edge's ends stored
    either way round, and a random vertex set switched; with the new label
    of each old vertex and the old id of each new edge."""
    label = list(range(g.n))
    rng.shuffle(label)
    old_id = list(range(g.m))
    rng.shuffle(old_id)
    triples = []
    for eid in old_id:
        _, u, v, sign = g.edges[eid]
        u, v = (label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
        triples.append((u, v, sign))
    switched = [x for x in range(g.n) if rng.random() < 0.5]
    return switch(SignedGraph.from_triples(g.n, triples), switched), label, old_id


def _mapped_back(value, back):
    """A list of ids, or of id classes, renamed through `back` and sorted as
    the report sorts them; None stays None."""
    if value is None:
        return None
    if value and isinstance(value[0], list):
        return sorted(sorted(map(back.__getitem__, cls)) for cls in value)
    return sorted(map(back.__getitem__, value))


@pytest.mark.parametrize("seed", range(90))
def test_report_fields_map_back_under_relabelling_and_switching(seed):
    g = _seeded_graph(seed)
    h, label, old_id = _transformed(g, random.Random(seed + 1000))
    vertex_back = [0] * g.n
    for v, x in enumerate(label):
        vertex_back[x] = v
    expected, got = build_report(g), build_report(h)
    assert list(got) == list(expected)
    for key, value in got.items():
        if key in NOT_SWITCHING_INVARIANT:
            continue
        if key in BY_EDGE:
            value = _mapped_back(value, old_id)
        elif key in BY_VERTEX:
            value = _mapped_back(value, vertex_back)
        else:
            assert not isinstance(value, list), f"{key} is not classified"
        assert value == expected[key], (seed, key)
