"""Elementary cycle enumeration, for `matroid.is_quasibalanced` alone.

The brute-force oracle module has its own, deliberately different,
enumeration; keep the two independent.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import SignedGraph, Sign


def iter_cycles(g: SignedGraph, edge_ids: Iterable[int]) -> Iterator[tuple[frozenset[int], Sign]]:
    """Yield each elementary cycle of the given edges once, as an edge id set
    with its sign: the loops by vertex, then the longer cycles by their
    smallest vertex, the root.

    From each root a backtracking search grows simple paths over larger
    vertices, with an on-path flag per vertex, an edge stack and a frame of
    untried extensions per path vertex: a step is O(1) and copies nothing.
    At each new vertex it first closes the path by every edge to the root,
    then tries the vertex's extensions, the last listed first.

    A cycle leaves the root by two edges, a listed before b, and is met once
    per direction, in the subtree of its first edge.  The root's subtrees are
    searched one after another, last listed first, so the direction leaving
    by b comes first: a path closes only by a root edge not yet tried as a
    first edge.  The listing order is that of `set(edge_ids)`.
    """
    adj: list[list[tuple[int, int, Sign]]] = [[] for _ in range(g.n)]
    loops = []
    for eid in set(edge_ids):
        u, v, sign = g._u[eid], g._v[eid], g._sign[eid]
        if u == v:
            loops.append((u, eid, sign))
        else:
            adj[u].append((eid, v, sign))
            adj[v].append((eid, u, sign))
    for _, eid, sign in sorted(loops, key=lambda loop: loop[0]):
        yield frozenset([eid]), sign

    on_path = [False] * g.n
    for root in range(g.n):
        closers = {eid for eid, _, _ in adj[root]}  # not yet tried as a first edge
        path: list[int] = []
        frames = [(root, 1, reversed(adj[root]))]  # (vertex, path sign, untried)
        while frames:
            at, sign, untried = frames[-1]
            for eid, w, s in untried:
                if at == root:
                    closers.discard(eid)
                if w > root and not on_path[w]:
                    break
            else:  # every extension of `at` tried: back up
                frames.pop()
                on_path[at] = False
                if path:
                    path.pop()
                continue
            path.append(eid)
            on_path[w] = True
            sign *= s
            for e, x, t in adj[w]:
                if x == root and e in closers:
                    yield frozenset(path) | {e}, sign * t
            frames.append((w, sign, reversed(adj[w])))
