"""Shared test helpers."""

from hypothesis import strategies as st

from signedconn import SignedGraph


def graphs(max_n=5, max_m=6):
    """Hypothesis strategy for arbitrary small signed graphs."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([1, -1])
            ),
            max_size=max_m,
        ).map(lambda triples: SignedGraph.from_triples(n, triples))
    )


def fresh_copy(g):
    """An equal graph object with nothing computed and kept on it yet."""
    return SignedGraph.from_triples(g.n, [e[1:] for e in g.edges])


def edge_adjacency(g):
    """Per vertex, its incident `Edge`s in id order, a loop once: the
    adjacency a graph held before it held plain (edge id, other end, sign)
    tuples, which the reference bodies in the tests read."""
    adj = [[] for _ in range(g.n)]
    for e in g.edges:
        adj[e.u].append(e)
        if e.v != e.u:
            adj[e.v].append(e)
    return tuple(map(tuple, adj))


def no_enumeration(*args, **kwargs):
    """A stand-in for `_cycles.iter_cycles` where no cycle may be enumerated."""
    raise AssertionError("cycles enumerated")


def complete_with_two_negative_edges(n):
    """K_n with the disjoint edges 01 and 23 negative: the triangles 014 and
    235 are disjoint negative cycles."""
    negative = {(0, 1), (2, 3)}
    return SignedGraph.from_triples(
        n,
        [(u, v, -1 if (u, v) in negative else 1) for u in range(n) for v in range(u + 1, n)],
    )
