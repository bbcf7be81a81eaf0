"""Graph file parsing/emission and the named example graphs.

File format::

    signed-graph n=<int>
    <u> <v> <+|->
    ...

Comment lines start with '#'; blank lines are ignored.  Edge ids follow line
order, repeated lines are parallel edges, u = v is a loop.  The vertex count
and the vertices are ASCII decimal digits; a vertex that reads as a number
outside 0..n-1 is reported out of range.  The vertex count is capped at
`_MAX_N`, since every analysis allocates lists of length n.
"""

from __future__ import annotations

from .core import SignedGraph
from .errors import GraphSyntaxError, VertexOutOfRange

_HEADER = "signed-graph n="
_MAX_N = 10**6
_SIGNS = {"+": +1, "-": -1}


def parse(text: str) -> SignedGraph:
    """Parse a graph file straight into the graph's edge columns, each value
    checked once; errors carry the 1-based line number."""
    lines = enumerate(text.splitlines(), start=1)
    for lineno, rawline in lines:
        line = rawline.strip()
        if not line or line[0] == "#":
            continue
        if not line.startswith(_HEADER):
            raise GraphSyntaxError(lineno, f"expected header '{_HEADER}<int>'")
        count = line[len(_HEADER):]
        try:
            n = int(count)
            if n >= 0 and not (count.isascii() and count.isdigit()):
                raise ValueError(count)
        except ValueError:
            raise GraphSyntaxError(lineno, f"bad vertex count in {line!r}") from None
        if n < 0:
            raise GraphSyntaxError(lineno, "vertex count must be nonnegative")
        if n > _MAX_N:
            raise GraphSyntaxError(lineno, f"vertex count {n} exceeds {_MAX_N}")
        break
    else:
        raise GraphSyntaxError(1, "empty file, expected header")
    us, vs, signs = [], [], []
    for lineno, rawline in lines:
        parts = rawline.split()
        if not parts or parts[0][0] == "#":
            continue
        try:
            a, b, s = parts
            sign = _SIGNS[s]
        except (ValueError, KeyError):
            raise GraphSyntaxError(lineno, f"expected '<u> <v> <+|->', got {rawline.strip()!r}") from None
        try:
            u, v = int(a), int(b)
        except ValueError:
            raise GraphSyntaxError(lineno, f"bad vertex in {rawline.strip()!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            err = VertexOutOfRange(f"line {lineno}: vertex out of range in {rawline.strip()!r}")
            err.line = lineno
            raise err
        if not (a.isascii() and a.isdigit() and b.isascii() and b.isdigit()):
            raise GraphSyntaxError(lineno, f"bad vertex in {rawline.strip()!r}")
        us.append(u)
        vs.append(v)
        signs.append(sign)
    return SignedGraph._of_columns(n, us, vs, signs)


def emit(g: SignedGraph) -> str:
    """Canonical text form; parse(emit(g)) reproduces g exactly."""
    lines = [f"{_HEADER}{g.n}"]
    lines += [f"{u} {v} {'+' if sign == +1 else '-'}" for u, v, sign in zip(g._u, g._v, g._sign)]
    return "\n".join(lines) + "\n"


_FIXTURE_TRIPLES: dict[str, tuple[int, list[tuple[int, int, int]]]] = {
    # single positive / negative edge
    "P2": (2, [(0, 1, +1)]),
    "N2": (2, [(0, 1, -1)]),
    # all-positive and one-negative triangles
    "T+": (3, [(0, 1, +1), (1, 2, +1), (2, 0, +1)]),
    "T-": (3, [(0, 1, +1), (1, 2, +1), (2, 0, -1)]),
    # one vertex with a negative loop
    "NEGLOOP": (1, [(0, 0, -1)]),
    # a digon of opposite signs: the smallest necklace
    "NECK2": (2, [(0, 1, +1), (0, 1, -1)]),
    # two negative triangles sharing vertex 0
    "TIGHT": (5, [(0, 1, +1), (1, 2, +1), (2, 0, -1), (0, 3, +1), (3, 4, +1), (4, 0, -1)]),
    # two disjoint negative triangles joined by a bridge
    "LOOSE": (6, [(0, 1, +1), (1, 2, +1), (2, 0, -1), (3, 4, +1), (4, 5, +1), (5, 3, -1), (0, 3, +1)]),
    # three chains between 0 and 1, one carrying a negative edge
    "THETA": (4, [(0, 1, +1), (0, 2, +1), (2, 1, +1), (0, 3, +1), (3, 1, -1)]),
    # K4 with a single negative edge
    "UK4": (4, [(0, 1, -1), (0, 2, +1), (0, 3, +1), (1, 2, +1), (1, 3, +1), (2, 3, +1)]),
    # two negative triangles joined by two vertex-disjoint positive edges
    "DISJB": (6, [(0, 1, +1), (1, 2, +1), (2, 0, -1), (3, 4, +1), (4, 5, +1), (5, 3, -1), (0, 3, +1), (1, 4, +1)]),
    # all-positive even and odd cycles
    "C4": (4, [(0, 1, +1), (1, 2, +1), (2, 3, +1), (3, 0, +1)]),
    "C5": (5, [(0, 1, +1), (1, 2, +1), (2, 3, +1), (3, 4, +1), (4, 0, +1)]),
}

FIXTURE_NAMES = tuple(_FIXTURE_TRIPLES)


def fixture(name: str) -> SignedGraph:
    n, triples = _FIXTURE_TRIPLES[name]
    return SignedGraph.from_triples(n, triples)


def fixtures() -> dict[str, SignedGraph]:
    return {name: fixture(name) for name in FIXTURE_NAMES}
