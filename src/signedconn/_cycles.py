"""Elementary cycle enumeration, for `matroid.is_quasibalanced` alone.

The brute-force oracle module has its own, deliberately different,
enumeration; keep the two independent.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .core import SignedGraph, Sign
from .errors import CycleBudgetExceeded


def iter_cycles(
    g: SignedGraph,
    edge_ids: Optional[Iterable[int]] = None,
    max_cycles: Optional[int] = None,
) -> Iterator[tuple[frozenset[int], Sign]]:
    """Yield every elementary cycle (as an edge id set with its sign) once,
    as it is found; raise CycleBudgetExceeded on finding a cycle beyond the
    first max_cycles.

    Includes loops and digons from parallel edges.  Each cycle is anchored at
    its smallest vertex, so every cycle is produced exactly once up to
    direction; directions are deduplicated.
    """
    allowed = set(range(g.m)) if edge_ids is None else set(edge_ids)
    adj: list[list] = [[] for _ in range(g.n)]  # (edge id, other end, sign)
    loops: list[list] = [[] for _ in range(g.n)]  # (edge id, sign)
    for eid in allowed:
        u, v, sign = g._u[eid], g._v[eid], g._sign[eid]
        if u == v:
            loops[u].append((eid, sign))
        else:
            adj[u].append((eid, v, sign))
            adj[v].append((eid, u, sign))

    found: set[frozenset[int]] = set()

    def fresh(edge_set: frozenset[int]) -> bool:
        if edge_set in found:
            return False
        found.add(edge_set)
        if max_cycles is not None and len(found) > max_cycles:
            raise CycleBudgetExceeded(f"more than {max_cycles} cycles")
        return True

    for v in range(g.n):
        for eid, sign in loops[v]:
            if fresh(frozenset([eid])):
                yield frozenset([eid]), sign

    # DFS on paths whose vertices all exceed the anchor except the anchor
    # itself; closing back to the anchor yields a cycle.
    for root in range(g.n):
        stack = [(root, frozenset([root]), (), 1)]
        while stack:
            at, used_v, used_e, sign = stack.pop()
            for eid, w, s in adj[at]:
                if eid in used_e:
                    continue
                if w == root:
                    if len(used_e) >= 1:  # length >= 2: digon or longer
                        cycle = frozenset(used_e) | {eid}
                        if fresh(cycle):
                            yield cycle, sign * s
                elif w > root and w not in used_v:
                    stack.append((w, used_v | {w}, used_e + (eid,), sign * s))

